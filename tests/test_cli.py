from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from llmchem.cli import main
from llmchem.history import HistoryRecord, write_history_csv


@pytest.fixture()
def store_path(history_fixture, tmp_path) -> Path:
    out = tmp_path / "store.json"
    assert main(["ingest", str(history_fixture), "--out", str(out)]) == 0
    return out


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestIngest:
    def test_creates_store_and_meta(self, store_path, capsys):
        payload = json.loads(store_path.read_text())
        assert payload["version"] == 1
        assert len(payload["stores"]) == 1
        assert len(payload["stores"][0]["profiles"]) == 5
        meta = json.loads((store_path.parent / "store.json.meta.json").read_text())
        assert meta["config"]["alpha"] == 0.5
        assert all(entry["sha256"] for entry in meta["inputs"].values())

    def test_grouping_by_trial(self, history_fixture, tmp_path):
        out = tmp_path / "by_trial.json"
        assert main(
            ["ingest", str(history_fixture), "--out", str(out), "--grouping", "trial"]
        ) == 0
        payload = json.loads(out.read_text())
        keys = [store["context_key"] for store in payload["stores"]]
        assert keys == ["liar-bench-01", "liar-bench-02"]

    def test_config_echo_printed(self, history_fixture, tmp_path, capsys):
        out = tmp_path / "store.json"
        main(["ingest", str(history_fixture), "--out", str(out)])
        echoed = capsys.readouterr().out.splitlines()[0]
        assert echoed.startswith("config: ")
        assert json.loads(echoed.removeprefix("config: "))["tau"] == 0.0

    def test_bad_csv_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,history\n1,2,3\n")
        assert main(["ingest", str(bad), "--out", str(tmp_path / "s.json")]) == 1


class TestChem:
    def test_writes_complete_table_and_fingerprint(self, store_path, tmp_path):
        out = tmp_path / "chem.csv"
        assert main(["chem", "--store", str(store_path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 10  # 5 choose 2
        meta = json.loads((tmp_path / "chem.csv.meta.json").read_text())
        assert meta["method"] == "mig-cheme"
        assert meta["model_set_fingerprint"]

    def test_brute_force_flag(self, store_path, tmp_path):
        out = tmp_path / "chem_bf.csv"
        assert main(
            ["chem", "--store", str(store_path), "--brute-force", "--out", str(out)]
        ) == 0
        meta = json.loads((tmp_path / "chem_bf.csv.meta.json").read_text())
        assert meta["method"] == "brute-force"

    def test_byte_identical_reruns(self, store_path, tmp_path):
        first = tmp_path / "chem1.csv"
        second = tmp_path / "chem2.csv"
        main(["chem", "--store", str(store_path), "--out", str(first)])
        main(["chem", "--store", str(store_path), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_json_out(self, store_path, tmp_path):
        out = tmp_path / "chem.csv"
        json_out = tmp_path / "chem.json"
        main(["chem", "--store", str(store_path), "--out", str(out),
              "--json-out", str(json_out)])
        payload = json.loads(json_out.read_text())
        assert payload["model_set_fingerprint"]
        assert len(payload["scores"]) == 10


class TestRecommend:
    def test_loss_matches_exhaustive_enumeration(self, store_path, tmp_path):
        chem_path = tmp_path / "chem.csv"
        main(["chem", "--store", str(store_path), "--out", str(chem_path)])
        rows = read_csv(chem_path)
        scores = {
            frozenset((row["model_a"], row["model_b"])): float(row["chemistry"])
            for row in rows
        }
        names = sorted({m for pair in scores for m in pair})
        assert len(names) == 5

        pool_path = tmp_path / "pool.json"
        all_subsets = [
            list(combo)
            for size in range(1, len(names) + 1)
            for combo in combinations(names, size)
        ]
        pool_path.write_text(json.dumps({"query_context": "t", "subsets": all_subsets}))

        rec_path = tmp_path / "rec.json"
        assert main(
            ["recommend", "--store", str(store_path), "--chem", str(chem_path),
             "--pool", str(pool_path), "--out", str(rec_path)]
        ) == 0
        rec = json.loads(rec_path.read_text())

        # independent loss recomputation from the raw pair scores
        alpha = beta = 0.5
        max_t = sum(scores.values())
        max_i = 2.0 * max_t
        best = None
        for subset in all_subsets:
            inside = set(subset)
            intra = sum(v for pair, v in scores.items() if pair <= inside)
            inter = sum(
                v for pair, v in scores.items() if len(pair & inside) == 1
            )
            loss = alpha * (max_i - inter) + (1 - alpha) * (max_t - intra) + beta * len(inside)
            best = loss if best is None else min(best, loss)
        assert rec["loss"] == pytest.approx(best, abs=1e-9)
        losses = [step["loss"] for step in rec["trace"]]
        assert all(x > y for x, y in zip(losses, losses[1:]))

    def test_missing_pool_file_is_validation_error(self, store_path, tmp_path):
        chem_path = tmp_path / "chem.csv"
        main(["chem", "--store", str(store_path), "--out", str(chem_path)])
        rc = main(
            ["recommend", "--store", str(store_path), "--chem", str(chem_path),
             "--pool", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 1


class TestMap:
    def test_single_perfect_member_grid(self, tmp_path):
        # one model at accuracy 1.0 / quality 10.0
        record = HistoryRecord(
            trial="t", model="ideal", task="q", latency=1.0, temperature=0.0,
            id="o1", result="r", quality=10.0, gen_accuracy=1.0, variance=0.0,
            review_accuracy=1.0, accuracy=1.0, elapsed="0:00:01", created="now",
        )
        history = tmp_path / "one.csv"
        write_history_csv([record], history)
        store = tmp_path / "one_store.json"
        main(["ingest", str(history), "--out", str(store)])
        out = tmp_path / "map.csv"
        assert main(
            ["map", "--store", str(store), "--ensemble", "ideal", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert len(rows) == 50 * 50
        summary = json.loads((tmp_path / "map.csv.summary.json").read_text())
        assert summary["saturated"] is False
        assert summary["max_delta_ci"] > 0.0

    def test_unknown_member_rejected(self, store_path, tmp_path):
        rc = main(
            ["map", "--store", str(store_path), "--ensemble", "nope",
             "--out", str(tmp_path / "m.csv")]
        )
        assert rc == 1


class TestEval:
    @pytest.fixture()
    def ensembles_path(self, tmp_path) -> Path:
        path = tmp_path / "ensembles.json"
        path.write_text(
            json.dumps(
                {
                    "ensembles": [
                        ["o3-mini", "gemini-2.0-flash"],
                        ["gpt-4o", "llama3.1:70b"],
                        ["o3-mini", "qwen2.5:32b", "gemini-2.0-flash"],
                    ]
                }
            )
        )
        return path

    def test_effectiveness_from_profiles(self, store_path, ensembles_path, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(
            ["eval", "--store", str(store_path), "--ensembles", str(ensembles_path),
             "--metric", "effectiveness", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        values = {row["ensemble"]: float(row["effectiveness"]) for row in rows}
        assert values["o3-mini|gemini-2.0-flash"] == 1.0
        assert values["gpt-4o|llama3.1:70b"] == 0.0

    def test_effectiveness_from_history(self, store_path, ensembles_path,
                                        history_fixture, tmp_path):
        out = tmp_path / "eval_hist.csv"
        assert main(
            ["eval", "--store", str(store_path), "--ensembles", str(ensembles_path),
             "--metric", "effectiveness", "--history", str(history_fixture),
             "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert len(rows) == 3

    def test_ci_metric(self, store_path, ensembles_path, tmp_path):
        out = tmp_path / "eval_ci.csv"
        assert main(
            ["eval", "--store", str(store_path), "--ensembles", str(ensembles_path),
             "--metric", "ci", "--out", str(out)]
        ) == 0
        for row in read_csv(out):
            assert 0.0 <= float(row["ci"]) < 1.0

    def test_correlation_requires_chem(self, store_path, ensembles_path, tmp_path):
        rc = main(
            ["eval", "--store", str(store_path), "--ensembles", str(ensembles_path),
             "--metric", "correlation", "--out", str(tmp_path / "e.csv")]
        )
        assert rc == 1

    def test_correlation_with_chem(self, store_path, ensembles_path, tmp_path):
        chem_path = tmp_path / "chem.csv"
        main(["chem", "--store", str(store_path), "--out", str(chem_path)])
        out = tmp_path / "eval_corr.csv"
        assert main(
            ["eval", "--store", str(store_path), "--ensembles", str(ensembles_path),
             "--metric", "correlation", "--chem", str(chem_path), "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert set(rows[0]) == {"ensemble", "chemistry", "ci"}
        meta = json.loads((tmp_path / "eval_corr.csv.meta.json").read_text())
        assert "pearson_r" in meta


class TestCheck:
    def test_passes_on_fixture_store(self, store_path, capsys):
        assert main(["check", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS monotonicity" in out
        assert "PASS linearity" in out
        assert "INFO submodularity" in out
        assert "PASS homogeneity probe" in out
        assert "PASS graph-vs-exhaustive" in out

    def test_homogeneous_store_reports_all_zero_chemistry(self, tmp_path, capsys):
        records = [
            HistoryRecord(
                trial="t", model=f"clone-{i}", task="q", latency=1.0,
                temperature=0.0, id=f"o{i}", result="r", quality=10.0,
                gen_accuracy=1.0, variance=0.0, review_accuracy=1.0,
                accuracy=0.9, elapsed="0:00:01", created="now",
            )
            for i in range(4)
        ]
        history = tmp_path / "homog.csv"
        write_history_csv(records, history)
        store = tmp_path / "homog_store.json"
        main(["ingest", str(history), "--out", str(store)])
        capsys.readouterr()
        assert main(["check", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "PASS homogeneity probe: max chemistry 0.0" in out


class TestConfigAndErrors:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["chem"]) == 1

    def test_config_file_and_flag_precedence(self, history_fixture, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.9, "seed": 3}))
        out = tmp_path / "store.json"
        main(["ingest", str(history_fixture), "--out", str(out),
              "--config", str(config), "--alpha", "0.25"])
        echoed = json.loads(
            capsys.readouterr().out.splitlines()[0].removeprefix("config: ")
        )
        assert echoed["alpha"] == 0.25  # flag beats file
        assert echoed["seed"] == 3  # file beats default

    def test_unknown_config_key_rejected(self, history_fixture, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gamma": 1.0}))
        rc = main(["ingest", str(history_fixture), "--out", str(tmp_path / "s.json"),
                   "--config", str(config)])
        assert rc == 1

    def test_missing_input_file_is_validation_error(self, tmp_path):
        rc = main(["chem", "--store", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 1

    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out
        assert main(["--version"]) == 0

    def test_chem_table_smaller_than_store_is_rejected(self, store_path, tmp_path):
        chem_path = tmp_path / "partial.csv"
        chem_path.write_text("model_a,model_b,chemistry\no3-mini,qwen2.5:32b,0.5\n")
        rc = main(
            ["recommend", "--store", str(store_path), "--chem", str(chem_path),
             "--pool", str(tmp_path / "unused.json"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 1

    @pytest.mark.parametrize("row", ["a,b,x", "a,b"])
    def test_bad_chemistry_value_is_validation_error(self, store_path, tmp_path, capsys, row):
        chem_path = tmp_path / "bad.csv"
        chem_path.write_text(f"model_a,model_b,chemistry\n{row}\n")
        rc = main(
            ["recommend", "--store", str(store_path), "--chem", str(chem_path),
             "--pool", str(tmp_path / "unused.json"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(chem_path) in err
        assert "row 2, field 'chemistry'" in err


def test_cli_import_loads_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import llmchem.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
    )
