from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import re
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from helpers import random_model_set

from llmchem import __version__, audit
from llmchem.chemistry import pair_key
from llmchem.cli import _INPUTS, build_parser, main
from llmchem.core import ModelProfile, ModelSet
from llmchem.history import HISTORY_COLUMNS, HistoryRecord, write_history_csv


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

    @pytest.mark.parametrize("flags", [[], ["--brute-force"]])
    def test_overflowed_ratio_names_the_pair_and_writes_nothing(
        self, flags, store_path, tmp_path, capsys
    ):
        out = tmp_path / "out" / "chem.csv"
        out.parent.mkdir()
        capsys.readouterr()
        argv = ["chem", "--store", str(store_path), "--empty-cost", "1e308", "--out", str(out)]
        assert main(argv + flags) == 1
        assert capsys.readouterr().err == (
            "error: chemistry for 'gemini-2.0-flash,gpt-4o' overflowed to inf: a context's "
            "benefit ratio exceeds the float range at a combined cost near zero next to "
            "its benefit difference\n"
        )
        assert list(out.parent.iterdir()) == []


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

    def test_sidecar_counts_the_search(self, store_path, tmp_path):
        chem_path, pool_path, rec_path = (tmp_path / name for name in ("c.csv", "p.json", "r.json"))
        main(["chem", "--store", str(store_path), "--out", str(chem_path)])
        names = sorted({row["model_a"] for row in read_csv(chem_path)}
                       | {row["model_b"] for row in read_csv(chem_path)})
        pool_path.write_text(json.dumps({"subsets": [names[:2], names[1:4], [names[0]]]}))
        assert main(["recommend", "--store", str(store_path), "--chem", str(chem_path),
                     "--pool", str(pool_path), "--size-cap", "3", "--out", str(rec_path)]) == 0
        meta = json.loads(rec_path.with_name("r.json.meta.json").read_text())
        assert meta["size_cap"] == 3
        assert meta["config"]["max_iters"] == 50
        stats = meta["stats"]
        assert stats["seeds"] == 3
        assert 3 <= stats["iterations"] <= 150
        assert 0 < stats["moves_rescored"] <= stats["moves_screened"]
        assert set(json.loads(rec_path.read_text())) == {
            "subset", "loss", "zero_chemistry", "seed_subset", "trace"
        }

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

    def test_unknown_member_rejected(self, store_path, tmp_path, capsys):
        rc = main(
            ["map", "--store", str(store_path), "--ensemble", "nope",
             "--out", str(tmp_path / "m.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--ensemble names model 'nope', which is not in the store" in err
        assert f"(in {store_path})" in err

    @pytest.mark.parametrize(
        "ensemble", ["o3-mini,o3-mini", ",", "o3-mini,,gpt-4o", "o3-mini,", ",o3-mini"]
    )
    def test_ensemble_needs_distinct_names(self, ensemble, store_path, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["map", "--store", str(store_path), "--ensemble", ensemble,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --ensemble: ")
        assert repr(ensemble) in err
        assert not out.exists()


@pytest.fixture()
def trial_stores(history_fixture, tmp_path) -> Path:
    """The sample ingested by trial: stores ``liar-bench-01`` and ``liar-bench-02``."""
    out = tmp_path / "by_trial.json"
    assert main(["ingest", str(history_fixture), "--out", str(out), "--grouping", "trial"]) == 0
    return out


#: Subcommands that read one store of the file and write ``{out}``.
STORE_READERS = {
    "chem": "chem --store {store} --out {out}",
    "map": "map --store {store} --ensemble o3-mini,gpt-4o --out {out}",
}


class TestStoreSelection:
    @pytest.mark.parametrize("command", sorted(STORE_READERS))
    def test_the_sidecar_names_the_context_it_read(self, command, trial_stores, tmp_path):
        for key in ("liar-bench-01", "liar-bench-02"):
            out = tmp_path / key / "out.csv"
            out.parent.mkdir()
            argv = STORE_READERS[command].format(store=trial_stores, out=out).split()
            assert main([*argv, "--context", key]) == 0
            assert json.loads(out.with_name("out.csv.meta.json").read_text())["context"] == key

    @pytest.mark.parametrize("context, message", [
        (None, "holds 2 stores (['liar-bench-01', 'liar-bench-02']); pick one with --context"),
        ("nope", "no store with context 'nope'"),
    ], ids=["omitted", "unknown"])
    @pytest.mark.parametrize("command", sorted(STORE_READERS))
    def test_a_store_file_needs_one_known_context(
            self, command, context, message, trial_stores, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = STORE_READERS[command].format(store=trial_stores, out=out).split()
        assert main(argv + ([] if context is None else ["--context", context])) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["by_trial.json",
                                                               "by_trial.json.meta.json"]


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

    def test_effectiveness_from_profiles_needs_a_mean_above_one_half(self, tmp_path, capsys):
        # Stored accuracies 0.25 and 0.75 average to exactly 0.5: not a correct vote.
        records = [
            HistoryRecord(
                trial="t", model=model, task="q", latency=1.0, temperature=0.0, id="o1",
                result="r", quality=5.0, gen_accuracy=accuracy, variance=0.0,
                review_accuracy=accuracy, accuracy=accuracy, elapsed="0:00:01", created="now",
            )
            for model, accuracy in (("low", 0.25), ("high", 0.75), ("top", 0.7500000000000002))
        ]
        write_history_csv(records, tmp_path / "h.csv")
        store, ensembles, out = tmp_path / "s.json", tmp_path / "e.json", tmp_path / "eval.csv"
        assert main(["ingest", str(tmp_path / "h.csv"), "--out", str(store)]) == 0
        ensembles.write_text('{"ensembles": [["low", "high"], ["low", "top"]]}')
        assert main(["eval", "--store", str(store), "--ensembles", str(ensembles),
                     "--metric", "effectiveness", "--out", str(out)]) == 0
        assert out.read_text() == "ensemble,effectiveness\nlow|high,0.0\nlow|top,1.0\n"
        assert "WARNING" not in capsys.readouterr().err

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

    def test_config_file_and_flag_precedence(self, store_path, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.9, "seed": 3}))
        chem, pool = tmp_path / "chem.csv", tmp_path / "pool.json"
        main(["chem", "--store", str(store_path), "--out", str(chem)])
        pool.write_text(json.dumps({"subsets": [["o3-mini", "gpt-4o"]]}))
        capsys.readouterr()
        assert main(["recommend", "--store", str(store_path), "--chem", str(chem),
                     "--pool", str(pool), "--out", str(tmp_path / "rec.json"),
                     "--config", str(config), "--alpha", "0.25"]) == 0
        echoed = json.loads(
            capsys.readouterr().out.splitlines()[0].removeprefix("config: ")
        )
        assert echoed["alpha"] == 0.25  # flag beats file
        assert echoed["seed"] == 3  # file beats default, for a setting recommend does not read

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


def _python(*args: str, hash_seed: str | None = None) -> subprocess.CompletedProcess:
    """Run this interpreter on the package sources in a subprocess, capturing its output."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, *args], env=env, timeout=120, capture_output=True, text=True,
    )


def _run_python(*args: str, hash_seed: str | None = None) -> str:
    """Run this interpreter on the package sources in a subprocess; return stdout."""
    done = _python(*args, hash_seed=hash_seed)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_no_module_that_no_stage_runs():
    # Only what the import adds counts, so a site hook that loads one first passes.
    added = _run_python("-c", (
        "import sys; before = set(sys.modules); import llmchem.cli; "
        "print(*sorted(set(sys.modules) - before), sep='\\n')"
    ))
    assert "llmchem.cli" in added.split()
    unused = {"numpy", "dataclasses", "inspect", "statistics", "logging", "llmchem.mig",
              "llmchem.audit"}
    assert unused & set(added.split()) == set()


def test_a_chem_run_loads_no_graph_module(store_path, tmp_path):
    argv = ["chem", "--store", str(store_path), "--out", str(tmp_path / "chem.csv")]
    out = _run_python("-c", (
        "import sys; from llmchem.cli import main; "
        f"print(main({argv!r}), 'llmchem.mig' in sys.modules)"
    ))
    assert out.splitlines()[-1] == "0 False"


def test_the_package_reaches_its_submodules_and_exports_on_first_use():
    out = _run_python("-c", (
        "import llmchem; "
        "print(llmchem.mig.subset_key('ba'), llmchem.audit.AUDIT_SIZE_GUARD, "
        "llmchem.cheme.__module__, callable(llmchem.recommend), hasattr(llmchem, 'nosuch'))"
    ))
    assert out.split() == ["a,b", "12", "llmchem.chemistry", "True", "False"]


def test_check_output_does_not_depend_on_the_hash_seed(store_path):
    runs = [
        _run_python("-m", "llmchem.cli", "check", "--store", str(store_path), hash_seed=seed)
        for seed in ("0", "1")
    ]
    assert "INFO submodularity" in runs[0]
    assert runs[0] == runs[1]


GRADES = "grader,output_id,grade\ng1,o1,5.0\ng2,o1,6.0\n"
HISTORY = ",".join(HISTORY_COLUMNS).encode() + b"\nt,m,q,1.0,0.7,o1,r,5.0,1.0,0.1,0.9,0.9,e,c\n"


def _store_of(count: int) -> bytes:
    """A valid profile-store file holding one store of ``count`` models."""
    profiles = [{"model": f"m{i:02d}", "quality": 5.0, "accuracy": 0.9} for i in range(count)]
    store = {"context_key": "all", "profiles": profiles}
    return json.dumps({"version": 1, "stores": [store]}).encode()


#: Fault -> (CLI arguments, bad file name, its bytes (None: a directory),
#: fragments the message must hold besides the file's path).  ``{bad}`` is the
#: bad file, ``{tmp}`` the test's directory; the store, history, grades,
#: ground truth, results and ensembles there are valid.  The same fields are
#: filled into the arguments and the fragments.
BAD_INPUTS = {
    "config-json": ("ingest {history} --out {tmp}/s.json --config {bad}", "c.json",
                    b'{"alpha": ', ["invalid JSON"]),
    "config-not-object": ("ingest {history} --out {tmp}/s.json --config {bad}", "c.json",
                          b"[1]", ["JSON object"]),
    "config-type": ("ingest {history} --out {tmp}/s.json --config {bad}", "c.json",
                    b'{"alpha": "x"}', ["'alpha'", "finite number"]),
    "config-int": ("ingest {history} --out {tmp}/s.json --config {bad}", "c.json",
                   b'{"seed": true}', ["'seed'", "integer"]),
    "ensembles-json": ("eval --store {store} --ensembles {bad} --metric ci --out {tmp}/e.csv",
                       "e.json", b'{"ensembles": ', ["invalid JSON"]),
    "ensembles-schema": ("eval --store {store} --ensembles {bad} --metric ci --out {tmp}/e.csv",
                         "e.json", b'{"ensembles": [5]}', ["'ensembles'"]),
    "ensembles-repeated-model": (
        "eval --store {store} --ensembles {bad} --metric ci --out {tmp}/e.csv",
        "e.json", b'{"ensembles": [["o3-mini", "o3-mini"]]}', ["twice"]),
    "ensembles-unknown-model": (
        "eval --store {store} --ensembles {bad} --metric ci --out {tmp}/e.csv",
        "e.json", b'{"ensembles": [["nope"]]}', ["models not in the store {store}: ['nope']"]),
    "results-short-row": (
        "score --grades {grades} --ground-truth {gt} --results {bad} --out {tmp}/s.json",
        "r.csv", b"model,output_id,result\ng1,o1\n", ["row 2, field 'result'"]),
    "results-repeated-key": (
        "score --grades {grades} --ground-truth {gt} --results {bad} --out {tmp}/s.json",
        "r.csv", b"model,output_id,result\nm1,o1,yes\nm1,o1,yes\n",
        ["duplicate result for ('m1', 'o1')", "row 3, field 'output_id'"]),
    "results-empty-model": (
        "score --grades {grades} --ground-truth {gt} --results {bad} --out {tmp}/s.json",
        "r.csv", b"model,output_id,result\nm1,o1,yes\n,o1,no\n",
        ["model name is empty", "row 3, field 'model'"]),
    "history-no-records": ("ingest {bad} --out {tmp}/s.json", "h.csv",
                           ",".join(HISTORY_COLUMNS).encode() + b"\n", ["at least one record"]),
    "history-encoding": ("ingest {bad} --out {tmp}/s.json", "h.csv", b"\xff", ["utf-8"]),
    "history-nul-model": (
        "ingest {bad} --out {tmp}/s.json", "h.csv",
        HISTORY.replace(b"t,m,", b"t,m\0,") + b"t,m,q,1.0,0.7,o2,r,5.0,1.0,0.1,0.9,0.9,e,c\n",
        ["unreadable CSV: record contains NUL (in {bad}, row 2)"]),
    # A line longer than csv.field_size_limit() is left to csv.reader, which rejects it.
    "history-field-too-long": (
        "ingest {bad} --out {tmp}/s.json", "h.csv",
        HISTORY.replace(b"t,m,q,", b"t,m," + b"q" * (csv.field_size_limit() + 1) + b","),
        ["unreadable CSV: field larger than field limit"]),
    "history-repeated-across-files": (
        "ingest {bad} {bad} --out {tmp}/s.json", "h.csv", HISTORY,
        ["duplicate (trial, model, id) key ('t', 'm', 'o1'), first read from", "row 2, field 'id'"]),
    "store-encoding": ("chem --store {bad} --out {tmp}/c.csv", "s.json", b"\xff", ["utf-8"]),
    **{
        f"history-empty-{field}{suffix}": (
            argv, "h.csv", HISTORY + row, [f"{message} (in {{bad}}, row 3, field '{field}')"])
        for field, row, message in [
            ("trial", b",m,q,1.0,0.7,o2,r,5.0,1.0,0.1,0.9,0.9,e,c\n", "trial name is empty"),
            ("task", b"t,m,,1.0,0.7,o2,r,5.0,1.0,0.1,0.9,0.9,e,c\n", "task text is empty"),
            ("id", b"t,m,q,1.0,0.7,,r,5.0,1.0,0.1,0.9,0.9,e,c\n", "output id is empty"),
        ]
        for suffix, argv in [
            ("", "ingest {bad} --out {tmp}/s.json"),
            ("-eval", "eval --store {store} --ensembles {ensembles} --metric effectiveness "
                      "--history {bad} --out {tmp}/e.csv"),
        ]
    },
    "history-directory": ("ingest {bad} --out {tmp}/s.json", "h.csv", None, ["directory"]),
    "store-directory": ("chem --store {bad} --out {tmp}/c.csv", "s.json", None, ["directory"]),
    "grades-extra-field": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                           b"grader,output_id,grade\ng1,o1,5,extra\n", ["row 2)"]),
    "grades-nul": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                   b"grader,output_id,grade\ng1,o1,5\ng2\0,o1,6\n",
                   ["unreadable CSV: record contains NUL (in {bad}, row 3)"]),
    "grades-nan": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                   b"grader,output_id,grade\ng1,o1,5\ng2,o1,nan\n",
                   ["grade out of range: nan", "row 3, field 'grade'"]),
    "grades-out-of-range": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                            b"grader,output_id,grade\ng1,o1,10.5\ng2,o1,5\n",
                            ["grade out of range: 10.5", "row 2, field 'grade'"]),
    "grades-not-a-number": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                            b"grader,output_id,grade\ng1,o1,abc\n",
                            ["grade is not a number: 'abc'", "row 2, field 'grade'"]),
    "grades-empty-grader": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                            b"grader,output_id,grade\ng1,o1,5\n,o1,6\n",
                            ["grader name is empty", "row 3, field 'grader'"]),
    "grades-empty-output": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                            b"grader,output_id,grade\ng1,,6\n",
                            ["output id is empty", "row 2, field 'output_id'"]),
    "results-empty-output": (
        "score --grades {grades} --ground-truth {gt} --results {bad} --out {tmp}/s.json",
        "r.csv", b"model,output_id,result\nm1,o1,yes\nm1,,x\n",
        ["output id is empty", "row 3, field 'output_id'"]),
    "ground-truth-empty-output": (
        "score --grades {grades} --ground-truth {bad} --results {results} --out {tmp}/s.json",
        "gt.csv", b"output_id,reference\n,x\n", ["output id is empty", "row 2, field 'output_id'"]),
    "grades-header-only": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                           b"grader,output_id,grade\n", ["a grades CSV needs at least one grade"]),
    "ground-truth-header-only": (
        "score --grades {grades} --ground-truth {bad} --results {results} --out {tmp}/s.json",
        "gt.csv", b"output_id,reference\n", ["a ground-truth CSV needs at least one reference"]),
    "results-header-only": ("score --grades {grades} --results {bad} --out {tmp}/s.json", "r.csv",
                            b"model,output_id,result\n", ["a results CSV needs at least one result"]),
    "grades-duplicate": ("score --grades {bad} --out {tmp}/s.json", "g.csv",
                         b"grader,output_id,grade\ng1,o1,5\ng2,o1,6\n\ng1,o1,7\n",
                         ["duplicate grade for ('g1', 'o1')", "row 4, field 'output_id'"]),
    "chem-extra-field": ("recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
                         "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,0.5,9\n", ["row 2)"]),
    "chem-empty-name": ("recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
                        "c.csv", b"model_a,model_b,chemistry\ngemini-2.0-flash,,1.0\n",
                        ["row 2, field 'model_b'"]),
    "chem-unknown-name": ("recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
                          "c.csv", b"model_a,model_b,chemistry\nzz,gpt-4o,1.0\n",
                          ["'zz'", "row 2, field 'model_a'"]),
    "chem-self-pair": ("recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
                       "c.csv", b"model_a,model_b,chemistry\ngpt-4o,gpt-4o,1.0\n",
                       ["row 2, field 'model_b'"]),
    "chem-missing-pairs": (
        "recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
        "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,0.5\n", ["missing pairs"]),
    "chem-nan": ("recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
                 "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,nan\n",
                 ["row 2, field 'chemistry'"]),
    "chem-not-a-number": (
        "recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
        "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,x\n",
        ["chemistry is not a number: 'x'", "row 2, field 'chemistry'"]),
    "chem-negative": ("recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
                      "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,-0.5\n",
                      ["row 2, field 'chemistry'"]),
    "store-quality-type": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                           b'{"version": 1, "stores": [{"context_key": "all", "profiles": '
                           b'[{"model": "m", "quality": "abc", "accuracy": 0.5}]}]}', ["'abc'"]),
    "store-stores-type": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                          b'{"version": 1, "stores": 3}', ["'stores'"]),
    "store-no-stores": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                        b'{"version": 1, "stores": []}', ["non-empty 'stores' list"]),
    "store-no-profiles": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                          b'{"version": 1, "stores": [{"context_key": "all", "profiles": []}]}',
                          ["'profiles' must be a non-empty list"]),
    "store-repeated-model": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                             b'{"version": 1, "stores": [{"context_key": "all", "profiles": '
                             b'[{"model": "m", "quality": 5, "accuracy": 0.5}, '
                             b'{"model": "m", "quality": 6, "accuracy": 0.6}]}]}',
                             ["model 'm' is listed twice"]),
    "store-repeated-context": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                               b'{"version": 1, "stores": ['
                               b'{"context_key": "all", "profiles": [{"model": "m", "quality": 5, '
                               b'"accuracy": 0.5}, {"model": "n", "quality": 6, "accuracy": 0.6}]}, '
                               b'{"context_key": "all", "profiles": [{"model": "m", "quality": 5, '
                               b'"accuracy": 0.5}]}]}',
                               ["context 'all' has more than one store"]),
    "store-context-null": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                           b'{"version": 1, "stores": [{"context_key": null, "profiles": '
                           b'[{"model": "m", "quality": 5, "accuracy": 0.5}]}]}',
                           ["context_key None is not a string"]),
    "store-quality-string": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                             b'{"version": 1, "stores": [{"context_key": "all", "profiles": '
                             b'[{"model": "m", "quality": "5", "accuracy": 0.5}]}]}',
                             ["quality '5' of model 'm' is not a number"]),
    "store-accuracy-bool": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                            b'{"version": 1, "stores": [{"context_key": "all", "profiles": '
                            b'[{"model": "m", "quality": 5, "accuracy": true}]}]}',
                            ["accuracy True of model 'm' is not a number"]),
    "store-quality-overflow": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                               b'{"version": 1, "stores": [{"context_key": "all", "profiles": '
                               b'[{"model": "m", "quality": 1' + b"0" * 400 + b', '
                               b'"accuracy": 0.5}]}]}', ["int too large to convert to float"]),
    "store-model-type": ("chem --store {bad} --out {tmp}/c.csv", "s.json",
                         b'{"version": 1, "stores": [{"context_key": "all", "profiles": '
                         b'[{"model": 7, "quality": 5, "accuracy": 0.5}]}]}', ["model name 7"]),
    "pool-unknown-model": (
        "recommend --store {store} --chem {chem} --pool {bad} --out {tmp}/r.json",
        "p.json", b'{"subsets": [["zz"]]}', ["models not in the store {store}: ['zz']"]),
    "pool-schema": (
        "recommend --store {store} --chem {chem} --pool {bad} --out {tmp}/r.json",
        "p.json", b'{"subsets": [5]}', ["'subsets'"]),
    "pool-empty": (
        "recommend --store {store} --chem {chem} --pool {bad} --out {tmp}/r.json",
        "p.json", b'{"subsets": []}', ["'subsets'"]),
    "store-one-model": ("chem --store {bad} --out {tmp}/c.csv", "s.json", _store_of(1),
                        ["error: chemistry needs at least two models (in "]),
    "store-one-model-brute-force": (
        "chem --store {bad} --brute-force --out {tmp}/c.csv", "s.json", _store_of(1),
        ["error: chemistry needs at least two models (in "]),
    "store-17-models-brute-force": (
        "chem --store {bad} --brute-force --out {tmp}/c.csv", "s.json", _store_of(17),
        ["error: exhaustive scoring supports at most 16 models, got 17 (in "]),
    "store-21-models": ("chem --store {bad} --out {tmp}/c.csv", "s.json", _store_of(21),
                        ["error: a chemistry cost table supports 1..20 models, got 21 (in "]),
    "store-not-object": ("chem --store {bad} --out {tmp}/c.csv", "s.json", b"[]",
                         ["not a profile-store file"]),
    "store-no-version": ("chem --store {bad} --out {tmp}/c.csv", "s.json", b'{"stores": []}',
                         ["not a profile-store file"]),
    "chem-reversed-pair": (
        "recommend --store {store} --chem {bad} --pool {tmp}/p.json --out {tmp}/r.json",
        "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,0.5\no3-mini,gpt-4o,0.5\n",
        ["duplicate pair 'gpt-4o,o3-mini'", "row 3)"]),
    "chem-reversed-pair-eval": (
        "eval --store {store} --ensembles {ensembles} --metric correlation --chem {bad} "
        "--out {tmp}/e.csv",
        "c.csv", b"model_a,model_b,chemistry\ngpt-4o,o3-mini,0.5\no3-mini,gpt-4o,0.5\n",
        ["duplicate pair 'gpt-4o,o3-mini'", "row 3)"]),
}


@pytest.mark.parametrize("fault", sorted(BAD_INPUTS))
def test_bad_input_exits_1_naming_the_file(fault, store_path, history_fixture, tmp_path, capsys):
    argv, name, data, fragments = BAD_INPUTS[fault]
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    if data is None:
        bad.mkdir()
    else:
        bad.write_bytes(data)
    (tmp_path / "grades.csv").write_text(GRADES)
    (tmp_path / "gt.csv").write_text("output_id,reference\no1,true\n")
    (tmp_path / "results.csv").write_text("model,output_id,result\ng1,o1,true\n")
    (tmp_path / "ensembles.json").write_text('{"ensembles": [["gpt-4o", "o3-mini"]]}')
    chem = tmp_path / "chem.csv"
    assert main(["chem", "--store", str(store_path), "--out", str(chem)]) == 0
    capsys.readouterr()
    paths = dict(bad=bad, tmp=tmp_path, store=store_path, history=history_fixture, chem=chem,
                 grades=tmp_path / "grades.csv", gt=tmp_path / "gt.csv",
                 results=tmp_path / "results.csv", ensembles=tmp_path / "ensembles.json")
    args = argv.format(**paths).split()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    for fragment in fragments:
        assert fragment.format(**paths) in err
    out = Path(args[args.index("--out") + 1])
    assert not out.exists()
    assert not out.with_name(out.name + ".meta.json").exists()


def test_an_internal_fault_exits_2_and_writes_nothing(store_path, tmp_path, capsys, monkeypatch):
    def boom(model_set):
        raise RuntimeError("boom")

    monkeypatch.setattr("llmchem.cli.profile_chemistry", boom)
    out = tmp_path / "out" / "chem.csv"
    out.parent.mkdir()
    capsys.readouterr()
    assert main(["chem", "--store", str(store_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert list(out.parent.iterdir()) == []


def _one_ulp_up(table):
    """``table`` with its first pair's score raised to the next float."""
    a, b, value = table.pairs()[0]
    return table.replace(scores={**table.scores, pair_key(a, b): math.nextafter(value, math.inf)})


def _one_monotonicity_violation(real):
    def patched(*args, **kwargs):
        report = real(*args, **kwargs)
        return report.replace(monotonicity=report.monotonicity.replace(violations=1))
    return patched


def _nonzero_if_homogeneous(real):
    def patched(backend):
        table = real(backend)
        homogeneous = len({(p.quality, p.accuracy) for p in backend.profiles}) == 1
        return _one_ulp_up(table) if homogeneous else table
    return patched


#: Name patched -> (the module it is patched in, wrapper of the real function,
#: the one FAIL line that ``check`` must then print on the fixture store).
CHECK_FAULTS = {
    "audit_cost_properties": ("llmchem.audit", _one_monotonicity_violation,
                              "FAIL monotonicity: 1/1000 violations"),
    "chem_table_bruteforce": ("llmchem.audit", _nonzero_if_homogeneous,
                              "FAIL homogeneity probe: max chemistry 5e-324"),
    "profile_chemistry": ("llmchem.audit", lambda real: lambda ms: _one_ulp_up(real(ms)),
                          "FAIL graph-vs-exhaustive on 4 usable models: 1 mismatch(es)"),
}


@pytest.mark.parametrize("name", sorted(CHECK_FAULTS))
def test_a_failed_check_section_exits_2(name, store_path, capsys, monkeypatch):
    module, wrap, line = CHECK_FAULTS[name]
    real = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(f"{module}.{name}", wrap(real))
    capsys.readouterr()
    assert main(["check", "--store", str(store_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [text for text in lines if text.startswith("FAIL")] == [line]
    assert lines[-1] == "check: 1 failure(s)"


def test_check_on_one_model_skips_both_pair_sections(tmp_path, capsys):
    store = tmp_path / "store.json"
    store.write_bytes(_store_of(1))
    assert main(["check", "--store", str(store)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "SKIP homogeneity probe: needs at least 2 models" in lines
    assert "SKIP graph-vs-exhaustive: needs at least 2 usable models" in lines
    assert lines[-1] == "check: all asserted sections passed"


def test_check_sections_audit_the_first_twelve_names_and_skip_pair_sections_below_two():
    generated = random_model_set(random.Random(7), 13)
    model_set = generated.replace(profiles=generated.profiles[::-1])  # not in name order
    lines = list(audit.check_sections(model_set, seed=3))
    assert lines[0] == ("", "check: auditing the first 12 of 13 models")
    first = model_set.replace(profiles=tuple(model_set.profile(f"m{i:02d}") for i in range(12)))
    report = audit.audit_cost_properties(first, trials=1000, seed=3)
    gaps = report.submodularity
    assert lines[1:4] == [
        *(("PASS" if section.clean else "FAIL",
           f"{section.name}: {section.violations}/{section.trials} violations")
          for section in (report.monotonicity, report.linearity)),
        ("INFO", f"submodularity (diagnostic): {gaps.violations}/{gaps.trials} violations, "
                 f"worst gap {gaps.worst!r}"),
    ]
    assert [status for status, _ in lines[4:]] == ["PASS", "PASS"]

    solo = ModelSet(profiles=(ModelProfile("solo", quality=5.0, accuracy=0.9),))
    lines = list(audit.check_sections(solo, seed=3))
    assert [status for status, _ in lines] == ["PASS", "PASS", "INFO", "SKIP", "SKIP"]
    assert lines[3:] == [("SKIP", "homogeneity probe: needs at least 2 models"),
                         ("SKIP", "graph-vs-exhaustive: needs at least 2 usable models")]


#: Subcommand -> arguments whose input files do not exist in ``{tmp}``.
MISSING_INPUTS = {
    "ingest": "ingest {tmp}/h.csv --out {tmp}/s.json",
    "score": "score --grades {tmp}/g.csv --out {tmp}/s.json",
    "chem": "chem --store {tmp}/s.json --out {tmp}/c.csv",
    "recommend": "recommend --store {tmp}/s.json --chem {tmp}/c.csv --pool {tmp}/p.json "
                 "--out {tmp}/r.json",
    "map": "map --store {tmp}/s.json --ensemble a,b --out {tmp}/m.csv",
    "eval": "eval --store {tmp}/s.json --ensembles {tmp}/e.json --metric ci --out {tmp}/e.csv",
    "check": "check --store {tmp}/s.json",
}


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--empty-cost", "inf")])
def test_non_finite_flag_exits_1_naming_the_key(tmp_path, capsys, flag, value):
    command = {"--alpha": "recommend", "--empty-cost": "chem"}[flag]
    rc = main(MISSING_INPUTS[command].format(tmp=tmp_path).split() + [flag, value])
    assert rc == 1
    key = flag.removeprefix("--").replace("-", "_")
    assert f"'{key}'" in capsys.readouterr().err


def test_integral_config_values_echo_unchanged(history_fixture, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 1, "lambda": 0.25}))
    out = tmp_path / "store.json"
    assert main(["ingest", str(history_fixture), "--out", str(out), "--config", str(config)]) == 0
    echoed = capsys.readouterr().out.splitlines()[0]
    assert '"alpha": 1,' in echoed and '"lambda": 0.25,' in echoed
    meta = json.loads((tmp_path / "store.json.meta.json").read_text())
    assert meta["config"]["alpha"] == 1 and meta["config"]["lambda"] == 0.25


#: Case -> (subcommand, flags, config file payload or None, key, where the
#: message says it came from).  A flag goes to a subcommand that reads it; the
#: config file may set any key on any subcommand.
OUT_OF_RANGE = {
    "used-threshold-flag": ("chem", ["--used-threshold", "7"], None, "used_threshold",
                            "on the command line"),
    "used-threshold-file": ("ingest", [], {"used_threshold": 7}, "used_threshold",
                            "in {config}"),
    "grid-size": ("map", ["--grid-size", "1"], None, "grid_size", "on the command line"),
    "tau": ("chem", ["--tau", "-1"], None, "tau", "on the command line"),
    "beta": ("recommend", ["--beta", "0"], None, "beta", "on the command line"),
    "alpha": ("recommend", ["--alpha", "1.5"], None, "alpha", "on the command line"),
    "max-iters": ("recommend", ["--max-iters", "0"], None, "max_iters", "on the command line"),
    # Integers beyond the float range: each compares below math.inf, but
    # float() of it raises OverflowError.
    "alpha-beyond-floats": ("recommend", [], {"alpha": 10**400}, "alpha", "in {config}"),
    "tau-beyond-floats": ("chem", [], {"tau": 10**400}, "tau", "in {config}"),
    "empty-cost-beyond-floats": ("chem", [], {"empty_cost": -10**400}, "empty_cost",
                                 "in {config}"),
    "grid-size-beyond-floats": ("map", ["--grid-size", str(10**400)], None, "grid_size",
                                "on the command line"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_config_exits_1_naming_key_and_source(case, tmp_path, capsys):
    command, flags, payload, key, where = OUT_OF_RANGE[case]
    config = tmp_path / "config.json"
    if payload is not None:
        config.write_text(json.dumps(payload))
        flags = flags + ["--config", str(config)]
    # The inputs do not exist: the range check must fail before any is read.
    assert main(MISSING_INPUTS[command].format(tmp=tmp_path).split() + flags) == 1
    captured = capsys.readouterr()
    assert f"config key '{key}' {where.format(config=config)} is out of range" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == ([config] if payload is not None else [])


@pytest.mark.parametrize("argv", MISSING_INPUTS.values())
def test_every_subcommand_checks_config_ranges_first(argv, tmp_path, capsys):
    # The inputs do not exist: the range check must fail before any is read.
    # Every subcommand checks every key of the config file, read by it or not.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"used_threshold": 7}))
    assert main(argv.format(tmp=tmp_path).split() + ["--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert f"config key 'used_threshold' in {config} is out of range" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


def test_default_config_line_is_pinned(history_fixture, tmp_path, capsys):
    assert main(["ingest", str(history_fixture), "--out", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        'config: {"alpha": 0.5, "beta": 0.5, "empty_cost": 1.0, "grid_size": 50, '
        '"lambda": 0.5, "max_iters": 50, "seed": 0, "tau": 0.0, "used_threshold": 0.5}'
    )


def test_shared_flag_defaults_in_help_are_pinned(capsys):
    for entry, command in {
        "--alpha ALPHA inter/intra loss balance (default 0.5)": "recommend",
        "--beta BETA subset size penalty (default 0.5)": "recommend",
        "--lambda LAM coverage/diversity trade-off (default 0.5)": "map",
        "--tau TAU chemistry report threshold (default 0.0)": "chem",
        "--used-threshold USED_THRESHOLD accuracy cut-off for usable outputs (default 0.5)": "chem",
        "--empty-cost EMPTY_COST cost of a configuration with no usable output (default 1.0)":
            "chem",
        "--max-iters MAX_ITERS hill-climb budget per seed (default 50)": "recommend",
        "--grid-size GRID_SIZE chemistry map resolution (default 50)": "map",
        "--seed SEED seed for audits and diagnostics (default 0)": "check",
    }.items():
        assert main([command, "--help"]) == 0
        assert entry in " ".join(capsys.readouterr().out.split())


#: Subcommand -> the shared settings it reads, and so the only ones it takes as flags.
READS = {
    "ingest": set(),
    "score": set(),
    "chem": {"tau", "used_threshold", "empty_cost"},
    "recommend": {"alpha", "beta", "max_iters"},
    "map": {"lambda", "grid_size"},
    "eval": {"lambda"},
    "check": {"seed", "used_threshold", "empty_cost"},
}
SHARED = ("alpha", "beta", "lambda", "tau", "used_threshold", "empty_cost", "max_iters",
          "grid_size", "seed")


def _shared_flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = (action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices


def test_each_subcommand_declares_exactly_the_settings_it_reads():
    declared = {}
    for command, parser in _subparsers(build_parser()).items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert "--config" in flags
        declared[command] = {key for key in SHARED if _shared_flag(key) in flags}
    assert declared == READS
    assert sum(map(len, declared.values())) == 12


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_settings_a_subcommand_reads(command, capsys):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert "--config" in listed
    assert listed & {_shared_flag(key) for key in SHARED} == {
        _shared_flag(key) for key in READS[command]
    }


@pytest.mark.parametrize("key", SHARED)
@pytest.mark.parametrize("command", sorted(READS))
def test_a_shared_flag_is_taken_only_by_a_subcommand_that_reads_it(command, key, tmp_path, capsys):
    argv = MISSING_INPUTS[command].format(tmp=tmp_path).split() + [_shared_flag(key), "2"]
    if key in READS[command]:
        assert getattr(build_parser().parse_args(argv), key) == 2
        return
    # The inputs do not exist: the flag must be rejected before any is read.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: unrecognized arguments: {_shared_flag(key)} 2\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_score_rejects_the_hill_climb_budget(tmp_path, capsys):
    """``score`` counts consensus rounds with --consensus-max-iters; --max-iters is not its flag."""
    grades, out = tmp_path / "g.csv", tmp_path / "c.json"
    grades.write_text(GRADES)
    assert main(["score", "--grades", str(grades), "--max-iters", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: unrecognized arguments: --max-iters 1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [grades]


def test_score_without_ground_truth_blends_review_accuracy_at_three_quarters(tmp_path, capsys):
    grades, results, out = tmp_path / "g.csv", tmp_path / "r.csv", tmp_path / "c.json"
    grades.write_text(GRADES)
    results.write_text("model,output_id,result\nm,o1,yes\ng1,o1,yes\n")
    assert main(["score", "--grades", str(grades), "--results", str(results),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    review = payload["review_accuracy"]["g1"]
    assert payload["models"] == {
        "m": {"generation_accuracy": 0.0, "review_accuracy": 0.5,
              "has_ground_truth": False, "accuracy": 0.75 * 0.5},
        "g1": {"generation_accuracy": 0.0, "review_accuracy": review,
               "has_ground_truth": False, "accuracy": 0.75 * review},
    }
    meta = json.loads((tmp_path / "c.json.meta.json").read_text())
    assert set(meta["inputs"]) == {"grades", "results"}


ALL_COMMANDS = ["ingest", "score", "chem", "recommend", "map", "eval", "check"]


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_subcommand_help_matches_the_full_parser(command, capsys):
    help_text = _subparsers(build_parser())[command].format_help()
    assert main([command, "--help"]) == 0
    assert capsys.readouterr() == (help_text, "")


@pytest.mark.parametrize("argv, code, out, err", [
    (["--version"], 0, f"llmchem {__version__}\n", ""),
    ([], 1, "", "usage error: the following arguments are required: command\n"),
    (["nope"], 1, "", "usage error: argument command: invalid choice: 'nope' (choose from "
                      "'ingest', 'score', 'chem', 'recommend', 'map', 'eval', 'check')\n"),
], ids=["version", "empty", "unknown"])
def test_top_level_runs_are_pinned(argv, code, out, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def test_top_level_help_matches_the_full_parser(capsys):
    help_text = build_parser().format_help()
    assert main(["--help"]) == 0
    assert capsys.readouterr() == (help_text, "")
    assert "{" + ",".join(ALL_COMMANDS) + "}" in help_text


@pytest.fixture()
def built(monkeypatch) -> list[str]:
    """The names of the subparsers built from here on (list it after fixtures that run main)."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


def test_a_run_builds_only_its_own_subparser(store_path, built, tmp_path):
    assert main(["chem", "--store", str(store_path), "--out", str(tmp_path / "c.csv")]) == 0
    assert built == ["chem"]


def test_main_takes_the_subcommand_from_sys_argv(store_path, built, tmp_path, monkeypatch):
    out = tmp_path / "c.csv"
    monkeypatch.setattr(sys, "argv", ["llmchem", "chem", "--store", str(store_path),
                                      "--out", str(out)])
    assert main() == 0
    assert built == ["chem"]
    assert out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["nope"]])
def test_a_run_without_a_subcommand_builds_them_all(argv, built, capsys):
    main(argv)
    assert built == ALL_COMMANDS


def test_build_parser_builds_every_subcommand_by_default():
    assert list(_subparsers(build_parser())) == ALL_COMMANDS
    assert list(_subparsers(build_parser("map"))) == ["map"]


#: Subcommand flag outside the config -> (argv template, out-of-range value, domain message).
OUT_OF_RANGE_FLAGS = {
    "--consensus-max-iters": (
        "score --grades {tmp}/g.csv --out {tmp}/c.json", "0", "max_iters must be >= 1, got 0"
    ),
    "--consensus-tol": (
        "score --grades {tmp}/g.csv --out {tmp}/c.json", "0",
        "tol must be finite and > 0, got 0.0",
    ),
    "--size-cap": (
        "recommend --store {tmp}/s.json --chem {tmp}/c.csv --pool {tmp}/p.json "
        "--out {tmp}/r.json", "0", "size_cap must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("flag", sorted(OUT_OF_RANGE_FLAGS))
def test_out_of_range_subcommand_flag_exits_1_naming_the_flag(flag, tmp_path, capsys):
    argv, value, message = OUT_OF_RANGE_FLAGS[flag]
    # The inputs do not exist: the range check must fail before any is read.
    assert main(argv.format(tmp=tmp_path).split() + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {flag} is out of range: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _partial_history(path: Path) -> Path:
    """A history in which gpt-4o and o3-mini share task a; each answers one task alone."""
    records = [
        HistoryRecord(
            trial="t1", model=model, task=task, latency=1.0, temperature=0.7, id=f"{task}{model}",
            result="", quality=5.0, gen_accuracy=0.9, variance=0.0, review_accuracy=0.9,
            accuracy=0.9, elapsed="", created="",
        )
        for task, model in (("a", "gpt-4o"), ("a", "o3-mini"), ("b", "gpt-4o"), ("c", "o3-mini"))
    ]
    write_history_csv(records, path)
    return path


def test_eval_history_warns_per_ensemble_and_rejects_an_ensemble_with_no_full_task(
    store_path, history_fixture, tmp_path, caplog, capsys
):
    history = _partial_history(tmp_path / "partial.csv")
    ensembles = tmp_path / "ensembles.json"
    ensembles.write_text(json.dumps({"ensembles": [["gpt-4o", "o3-mini"], ["gpt-4o"]]}))
    argv = ["eval", "--store", str(store_path), "--ensembles", str(ensembles),
            "--metric", "effectiveness", "--history", str(history)]
    with caplog.at_level("WARNING"):
        assert main(argv + ["--out", str(tmp_path / "e.csv")]) == 0
    assert caplog.messages == [
        "skipped 2 task(s) lacking records for some members",
        "skipped 1 task(s) lacking records for some members",
    ]
    assert read_csv(tmp_path / "e.csv") == [
        {"ensemble": "gpt-4o|o3-mini", "effectiveness": "1.0"},
        {"ensemble": "gpt-4o", "effectiveness": "1.0"},
    ]
    ensembles.write_text(json.dumps({"ensembles": [["gpt-4o", "qwen2.5:32b"]]}))
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "none.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: no task has records for every member of ensemble 1: "
        f"['gpt-4o', 'qwen2.5:32b'] (in {history})\n"
    )
    assert not (tmp_path / "none.csv").exists()


def test_a_cli_process_prints_each_warning_as_level_and_text_on_stderr(store_path, tmp_path):
    ensembles = tmp_path / "ensembles.json"
    ensembles.write_text(json.dumps({"ensembles": [["gpt-4o", "o3-mini"]]}))
    done = _python("-m", "llmchem.cli", "eval", "--store", str(store_path),
                   "--ensembles", str(ensembles), "--metric", "effectiveness",
                   "--history", str(_partial_history(tmp_path / "partial.csv")),
                   "--out", str(tmp_path / "e.csv"))
    assert (done.returncode, done.stderr) == (
        0, "WARNING skipped 2 task(s) lacking records for some members\n"
    )
    store = tmp_path / "extra.json"
    store.write_text(json.dumps({**json.loads(_store_of(2)), "x": 1}))
    done = _python("-m", "llmchem.cli", "chem", "--store", str(store),
                   "--out", str(tmp_path / "c.csv"))
    assert (done.returncode, done.stderr) == (0, "WARNING ignoring unknown top-level keys: ['x']\n")


@pytest.mark.parametrize("flag, metric", [
    ("--chem", "effectiveness"), ("--chem", "ci"),
    ("--history", "ci"), ("--history", "correlation"),
])
def test_eval_rejects_an_input_flag_its_metric_does_not_read(flag, metric, tmp_path, capsys):
    reader = {"--chem": "correlation", "--history": "effectiveness"}[flag]
    # The inputs do not exist: the flag must be rejected before any is read.
    argv = (f"eval --store {tmp_path}/s.json --ensembles {tmp_path}/e.json --metric {metric} "
            f"{flag} {tmp_path}/x.csv --out {tmp_path}/e.csv")
    assert main(argv.split()) == 1
    assert capsys.readouterr().err == (
        f"usage error: {flag} is read only by --metric {reader}, not by --metric {metric}\n"
    )
    assert list(tmp_path.iterdir()) == []


LAMBDA_WITH_EFFECTIVENESS = (
    "usage error: --lambda is read only by --metric ci or --metric correlation, "
    "not by --metric effectiveness\n"
)


@pytest.mark.parametrize("history", [False, True])
def test_eval_effectiveness_rejects_lambda_before_any_file_is_read(history, tmp_path, capsys):
    argv = (f"eval --store {tmp_path}/s.json --ensembles {tmp_path}/e.json "
            f"--metric effectiveness --lambda 0.3 --out {tmp_path}/e.csv").split()
    assert main(argv + ([f"--history={tmp_path}/h.csv"] if history else [])) == 1
    assert capsys.readouterr() == ("", LAMBDA_WITH_EFFECTIVENESS)
    assert list(tmp_path.iterdir()) == []


def test_eval_lambda_flag_goes_with_ci_or_correlation_and_the_config_key_with_any(
        store_path, tmp_path, capsys):
    ensembles, chem = tmp_path / "e.json", tmp_path / "chem.csv"
    ensembles.write_text(json.dumps({"ensembles": [["o3-mini", "gpt-4o"]]}))
    assert main(["chem", "--store", str(store_path), "--out", str(chem)]) == 0
    argv = ["eval", "--store", str(store_path), "--ensembles", str(ensembles)]
    for metric in ("ci", "correlation"):
        out = tmp_path / f"{metric}.csv"
        extra = ["--chem", str(chem)] if metric == "correlation" else []
        assert main(argv + ["--metric", metric, "--lambda", "0.3", "--out", str(out)] + extra) == 0
        assert json.loads(out.with_name(out.name + ".meta.json").read_text())["config"][
            "lambda"] == 0.3
    # The config file is pipeline-wide: effectiveness takes its lambda key.
    config, out = tmp_path / "config.json", tmp_path / "eff.csv"
    config.write_text(json.dumps({"lambda": 0.3}))
    assert main(argv + ["--metric", "effectiveness", "--config", str(config),
                        "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv + ["--metric", "effectiveness", "--lambda", "0.3",
                        "--out", str(tmp_path / "flag.csv")]) == 1
    assert capsys.readouterr() == ("", LAMBDA_WITH_EFFECTIVENESS)
    assert not (tmp_path / "flag.csv").exists()


#: (subcommand, input dest, case) -> (arguments with that input left out, or
#: given where it is not read; what the usage error must name).  No input
#: exists, and neither does the ``--config`` file added to every case.
PRE_READ = {
    ("ingest", "csv", "missing"): ("ingest --out {tmp}/s.json", ["csv"]),
    ("score", "grades", "missing"): ("score --out {tmp}/o.json", ["--grades"]),
    ("score", "ground_truth", "without-results"): (
        "score --grades {tmp}/g.csv --ground-truth {tmp}/gt.csv --out {tmp}/o.json",
        ["--ground-truth is read only with --results"]),
    ("chem", "store", "missing"): ("chem --out {tmp}/c.csv", ["--store"]),
    ("recommend", "store", "missing"): (
        "recommend --chem {tmp}/c.csv --pool {tmp}/p.json --out {tmp}/r.json", ["--store"]),
    ("recommend", "chem", "missing"): (
        "recommend --store {tmp}/s.json --pool {tmp}/p.json --out {tmp}/r.json", ["--chem"]),
    ("recommend", "pool", "missing"): (
        "recommend --store {tmp}/s.json --chem {tmp}/c.csv --out {tmp}/r.json", ["--pool"]),
    ("map", "store", "missing"): ("map --ensemble a,b --out {tmp}/m.csv", ["--store"]),
    ("eval", "store", "missing"): (
        "eval --ensembles {tmp}/e.json --metric ci --out {tmp}/e.csv", ["--store"]),
    ("eval", "ensembles", "missing"): (
        "eval --store {tmp}/s.json --metric ci --out {tmp}/e.csv", ["--ensembles"]),
    ("eval", "chem", "missing"): (
        "eval --store {tmp}/s.json --ensembles {tmp}/e.json --metric correlation "
        "--out {tmp}/e.csv", ["--metric correlation requires --chem"]),
    ("eval", "chem", "with-ci"): (
        "eval --store {tmp}/s.json --ensembles {tmp}/e.json --metric ci --chem {tmp}/c.csv "
        "--out {tmp}/e.csv", ["--chem is read only by --metric correlation, not by --metric ci"]),
    ("eval", "history", "with-correlation"): (
        "eval --store {tmp}/s.json --ensembles {tmp}/e.json --metric correlation "
        "--history {tmp}/h.csv --out {tmp}/e.csv",
        ["--history is read only by --metric effectiveness, not by --metric correlation"]),
    ("check", "store", "missing"): ("check", ["--store"]),
}


def test_pre_read_cases_cover_every_required_or_conditional_input():
    rules = {(command, dest) for command, inputs in _INPUTS.items()
             for dest, when in inputs.items() if when != "if given"}
    assert {(command, dest) for command, dest, _ in PRE_READ} == rules


@pytest.mark.parametrize("case", sorted(PRE_READ), ids="-".join)
def test_input_rules_are_checked_before_any_file_is_read(case, tmp_path, capsys):
    argv, fragments = PRE_READ[case]
    argv = argv.format(tmp=tmp_path).split() + ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    for fragment in fragments:
        assert fragment in captured.err
    assert "No such file" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _stream_argv(command: str, histories: list[Path], store: Path, tmp: Path, out: Path) -> list[str]:
    if command == "ingest":
        return ["ingest", *map(str, histories), "--out", str(out)]
    ensembles = tmp / "ensembles.json"
    ensembles.write_text(json.dumps({"ensembles": [["gpt-4o", "o3-mini"]]}))
    (history,) = histories
    return ["eval", "--store", str(store), "--ensembles", str(ensembles),
            "--metric", "effectiveness", "--history", str(history), "--out", str(out)]


#: A history row after the fixture's ten valid ones: fault -> (row, message).
#: ``{path}`` is the history file.
LATE_FAULTS = {
    "non-number": ("t9,o3-mini,q,1.0,0.7,o9,r,5.0,1.0,0.1,0.9,high,e,c",
                   "accuracy is not a number: 'high' (in {path}, row 12, field 'accuracy')"),
    "empty-model": ("t9,,q,1.0,0.7,o9,r,5.0,1.0,0.1,0.9,0.9,e,c",
                    "model name is empty (in {path}, row 12, field 'model')"),
    "repeated-key": ("liar-bench-01,o3-mini,q,1.0,0.7,out-002,r,5.0,1.0,0.1,0.9,0.9,e,c",
                     "duplicate (trial, model, id) key ('liar-bench-01', 'o3-mini', 'out-002') "
                     "(in {path}, row 12, field 'id')"),
}


@pytest.mark.parametrize("command", ["ingest", "eval"])
@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
def test_a_bad_row_after_valid_rows_exits_1_and_writes_nothing(
    command, fault, store_path, history_fixture, tmp_path, capsys
):
    """The history is streamed, yet nothing is written before its last row passes."""
    row, message = LATE_FAULTS[fault]
    history = tmp_path / "history.csv"
    history.write_text(history_fixture.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    capsys.readouterr()
    assert main(_stream_argv(command, [history], store_path, tmp_path, out)) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=history)}\n"
    assert list(out.parent.iterdir()) == []


def test_a_key_repeated_in_a_second_file_after_valid_rows_writes_nothing(
    history_fixture, tmp_path, capsys
):
    second = tmp_path / "second.csv"
    row, _ = LATE_FAULTS["repeated-key"]
    second.write_text(
        ",".join(HISTORY_COLUMNS) + "\nt9,o3-mini,q,1.0,0.7,o9,r,5.0,1.0,0.1,0.9,0.9,e,c\n"
        + row + "\n", encoding="utf-8"
    )
    out = tmp_path / "out" / "store.json"
    out.parent.mkdir()
    assert main(["ingest", str(history_fixture), str(second), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: duplicate (trial, model, id) key ('liar-bench-01', 'o3-mini', 'out-002'), "
        f"first read from {history_fixture} (in {second}, row 3, field 'id')\n"
    )
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize("command", ["ingest", "eval"])
def test_a_header_only_history_exits_1_and_writes_nothing(command, store_path, tmp_path, capsys):
    history = tmp_path / "empty.csv"
    history.write_text(",".join(HISTORY_COLUMNS) + "\n", encoding="utf-8")
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    capsys.readouterr()
    assert main(_stream_argv(command, [history], store_path, tmp_path, out)) == 1
    assert capsys.readouterr().err == (
        f"error: a history CSV needs at least one record (in {history})\n"
    )
    assert list(out.parent.iterdir()) == []
