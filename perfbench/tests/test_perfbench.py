"""Tests of the benchmark itself: generator, span arithmetic, output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Span, layer_metrics, self_time_ns  # noqa: E402

INPUT_FILES = [
    "ensembles.json",
    "grades.csv",
    "ground_truth.csv",
    "history.csv",
    "pool.json",
    "results.csv",
]

#: A workload small enough to run the whole pipeline in about a second.
TINY = gen.Workload(
    name="tiny", why="test", usable=4, unusable=1, tasks=6, trials=2,
    pool_subsets=4, pool_sizes=(2, 3), map_members=2, grid_size=4,
    ensembles=4, ensemble_sizes=(2, 3),
    graders=5, outputs=20, density=0.3,
)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_writes_identical_bytes_for_a_seed(tmp_path, name):
    w = gen.WORKLOADS[name]
    first = gen.generate(w, 7, tmp_path / "a")
    second = gen.generate(w, 7, tmp_path / "b")
    assert first == second
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == INPUT_FILES
    for filename in INPUT_FILES:
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()
    gen.generate(w, 8, tmp_path / "c")
    history = (tmp_path / "a" / "history.csv").read_bytes()
    assert (tmp_path / "c" / "history.csv").read_bytes() != history


def test_generated_history_parses_with_the_intended_usable_split(tmp_path):
    from llmchem.history import HISTORY_COLUMNS, build_profiles, parse_history_csv

    assert gen.HISTORY_COLUMNS == HISTORY_COLUMNS
    w = gen.WORKLOADS["sparse15"]
    gen.generate(w, 3, tmp_path)
    (store,) = build_profiles(parse_history_csv(tmp_path / "history.csv"))
    usable = [p for p in store.profiles.values() if p.accuracy >= gen.USED_THRESHOLD]
    assert (len(store.profiles), len(usable)) == (w.models, w.usable)


def test_self_time_subtracts_children_and_hot_totals():
    root = Span(0, "cli.chem", "chem", None, start=0, end=100)
    build = Span(1, "mig.build_mig", "chem", 0, start=10, end=30)
    score = Span(2, "chemistry.cheme", "chem", 0, start=40, end=90,
                 hot={"mig.CoverLookup.cover": [5, 20]})
    assert self_time_ns(root, [build, score]) == 100 - 20 - 50
    assert self_time_ns(score, []) == 50 - 20


def test_layer_metrics_on_a_hand_built_tree():
    tree = [
        Span(0, "cli.chem", "chem", None, start=0, end=1_000_000_000),
        Span(1, "chemistry.cheme", "chem", 0, start=100_000_000, end=900_000_000,
             counters={"pairs_positive": 3, "cover.distinct": 4, "cover.repeat": 6,
                       "cover.exact": 1, "cover.absent": 2},
             hot={"mig.CoverLookup.cover": [10, 500_000_000]}),
        Span(2, "chemistry.chem_table_bruteforce", "oracle", None, start=0, end=250_000_000),
    ]
    metrics = layer_metrics(tree, ["chem"])
    assert metrics["cli.chem.s"] == 1.0
    assert metrics["cli.chem.self_s"] == pytest.approx(0.2)
    assert metrics["chemistry.cheme.s"] == pytest.approx(0.8)
    assert metrics["chemistry.cheme.self_s"] == pytest.approx(0.3)
    assert metrics["mig.CoverLookup.cover.calls"] == 10
    assert metrics["mig.cover.memo_hit_ratio"] == pytest.approx(0.6)
    assert metrics["mig.cover.exact_ratio"] == pytest.approx(0.25)
    assert metrics["mig.cover.absent"] == 2
    assert metrics["chemistry.pairs_positive"] == 3
    # The exhaustive scorer runs only in the reference step and is timed there.
    assert metrics["chemistry.chem_table_bruteforce.s"] == pytest.approx(0.25)


def _worker(tmp_path: Path, tag: str, stages: list[dict], traced: bool) -> dict:
    plan_path, result_path = tmp_path / f"plan-{tag}.json", tmp_path / f"result-{tag}.json"
    plan = {"stages": stages, "trace": traced, "repeat_min_s": 0.0}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
        env=run.child_env(), cwd=ROOT, check=True, timeout=120,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _run_tiny(tmp_path: Path, traced: bool) -> tuple[dict, dict, Path]:
    """The reference run and one pipeline run of TINY: (oracle, run, work dir)."""
    inp, out, oracle = tmp_path / "inputs", tmp_path / "out", tmp_path / "oracle"
    out.mkdir(parents=True)
    oracle.mkdir()
    sizes = gen.generate(TINY, 1, inp)
    reference = _worker(tmp_path, "oracle", run.oracle_plan(inp, oracle), traced)
    result = _worker(tmp_path, "run", run.stage_plan(TINY, sizes, inp, out), traced)
    return reference, result, tmp_path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    _, result, work = _run_tiny(tmp_path_factory.mktemp("tiny"), traced=False)
    return result, work


def test_checks_pass_on_real_outputs(tiny_run):
    result, work = tiny_run
    out, exact = work / "out", work / "oracle" / "chem_exact.csv"
    assert checks.check_exit_codes(result["stages"]) == []
    assert checks.check_same_bytes(out / "chem.csv", exact, "chem") == []
    assert checks.check_recommendation(out / "rec.json", out / "chem.csv") == []
    digests = checks.digests(out)
    assert set(digests) == set(checks.PRIMARY_OUTPUTS)
    assert "missing" not in digests.values()
    assert checks.check_repeatable(digests, dict(digests)) == []


def test_exit_code_check_fails_on_nonzero_exit():
    failures = checks.check_exit_codes([{"id": "chem", "rc": 0}, {"id": "map", "rc": 1}])
    assert [stage for stage, _ in failures] == ["map"]


def test_chemistry_check_fails_on_a_tampered_table(tiny_run, tmp_path):
    _, work = tiny_run
    exact = work / "oracle" / "chem_exact.csv"
    tampered = tmp_path / "chem.csv"
    lines = (work / "out" / "chem.csv").read_text(encoding="utf-8").splitlines()
    a, b, value = lines[1].split(",")
    lines[1] = f"{a},{b},{float(value) + 1e-9!r}"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_same_bytes(tampered, exact, "chem")
    assert checks.check_same_bytes(tmp_path / "absent.csv", exact, "chem")


def test_recommendation_check_fails_on_a_tampered_loss_or_subset(tiny_run, tmp_path):
    out = tiny_run[1] / "out"
    rec = json.loads((out / "rec.json").read_text(encoding="utf-8"))
    meta = (out / "rec.json.meta.json").read_text(encoding="utf-8")
    members = sorted({m for line in (out / "chem.csv").read_text().splitlines()[1:]
                      for m in line.split(",")[:2]})
    other = next(m for m in members if m not in rec["subset"])
    for tampered in (
        dict(rec, loss=rec["loss"] + 1e-9),
        dict(rec, subset=sorted(rec["subset"] + [other])),
    ):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(tampered), encoding="utf-8")
        (tmp_path / "rec.json.meta.json").write_text(meta, encoding="utf-8")
        assert checks.check_recommendation(path, out / "chem.csv")


def test_repeatability_check_names_the_stage_whose_output_changed():
    first = {"chem.csv": "aa", "map.csv": "bb"}
    assert checks.check_repeatable(first, {"chem.csv": "aa", "map.csv": "cc"}) == [
        ("map", "map.csv changed between runs")
    ]


def test_traced_run_reports_every_per_layer_metric_in_benchmark_json(tmp_path):
    reference, result, _ = _run_tiny(tmp_path, traced=True)
    assert all(stage["rc"] == 0 for stage in reference["stages"] + result["stages"])
    assert result["numpy_imported"] is False
    metrics = run.per_layer([result], reference)
    metrics["trace.untraced_run_s"] = 1.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in metrics
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    for name in ("history.parse_history_csv.rows", "core.cost.calls",
                 "chemistry.chem_table_bruteforce.s",
                 "mig.CoverLookup.cover.calls", "recommend.subset_loss.calls",
                 "consensus.iterations", "complementarity.complementarity_index.calls"):
        assert metrics[name] > 0, name
