"""The parts of ``scripts/bench_pairs.py`` that run no benchmark: quartiles, pair
counts, the claim check, the alternating pair loop on a fake runner, and the
working-tree files copied for the change side."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_use_the_inclusive_method():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_pair_counts_leave_ties_out():
    assert bench_pairs.pair_counts([5.0, 5.0, 5.0, 5.0], [4.0, 6.0, 5.0, 3.0]) == (2, 1)


def test_summary_holds_both_sides_and_the_median_change():
    entry = bench_pairs.summarise("MB", [10.0, 12.0, 11.0], [5.0, 6.0, 5.5])
    assert entry["parent"] == {"q1": 10.5, "median": 11.0, "q3": 11.5}
    assert entry["change"] == {"q1": 5.25, "median": 5.5, "q3": 5.75}
    assert (entry["change_lower_in_pairs"], entry["change_higher_in_pairs"]) == (3, 0)
    assert entry["median_change_pct"] == -50.0
    assert entry["parent_runs"] == [10.0, 12.0, 11.0]


def _block(parent: list[float], change: list[float]) -> dict:
    return {"pairs": len(parent),
            "end_to_end": {"peak_rss_mb": bench_pairs.summarise("MB", parent, change)}}


PARENT = [62.0, 61.5, 62.2, 61.8, 62.0, 61.9, 62.1, 61.7, 62.0, 61.6]


@pytest.mark.parametrize("change, target, met", [
    ([33.0] * 10, 40.0, True),
    ([33.0] * 10, 30.0, False),  # above the target
    ([33.0] * 8 + [63.0] * 2, 40.0, False),  # lower in 8 of 10 pairs only
    ([p - 0.1 for p in PARENT], 62.0, False),  # lower in every pair, within the parent's IQR
], ids=["met", "target", "pairs", "iqr"])
def test_claim_needs_target_pairs_and_more_than_the_parent_iqr(change, target, met):
    claim = bench_pairs.check_claim(_block(PARENT, change), "bulk40k", "peak_rss_mb", target)
    assert claim["met"] is met
    assert claim["parent_median"] == 61.95
    assert claim["parent_iqr"] == pytest.approx(0.275)


def test_pairs_alternate_and_clear_before_each_pair():
    calls: list[tuple] = []

    def runner(side: str, workload: str, seed: int) -> dict:
        calls.append((side, seed))
        value = 2.0 if side == "parent" else 1.0
        return {
            "result": {"attempted": 7, "failed": 1 if side == "change" and seed == 2 else 0,
                       "metrics": {"run_s": {"value": value + seed / 100, "unit": "s"}}},
            "digests": {"chem.csv": "aa"},
            "numpy": "numpy imported: False",
        }

    block = bench_pairs.run_pairs(runner, "dense14", [1, 2], 3,
                                  before_pair=lambda: calls.append(("clear",)))
    assert calls == [("clear",), ("parent", 1), ("change", 1),
                     ("clear",), ("change", 2), ("parent", 2),
                     ("clear",), ("parent", 1), ("change", 1)]
    assert block["seeds"] == [1, 2, 1]
    assert block["stages_attempted"] == {"parent": 21, "change": 21}
    assert block["stages_failed"] == {"parent": 0, "change": 1}
    assert block["output_digests_identical"] is True
    assert block["numpy_imported"] == ["numpy imported: False"]
    assert block["end_to_end"]["run_s"]["parent_runs"] == [2.01, 2.02, 2.01]
    assert block["end_to_end"]["run_s"]["change_lower_in_pairs"] == 3


def test_a_pair_with_other_digests_is_reported():
    def runner(side: str, workload: str, seed: int) -> dict:
        return {"result": {"attempted": 1, "failed": 0,
                           "metrics": {"run_s": {"value": 1.0, "unit": "s"}}},
                "digests": {"chem.csv": side}, "numpy": "numpy imported: False"}

    assert bench_pairs.run_pairs(runner, "dense14", [1], 2)["output_digests_identical"] is False


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("51-60") == list(range(51, 61))
    assert bench_pairs.parse_seeds("3,5") == [3, 5]


METRICS = ["run_s", "peak_rss_mb"]


def _refuse(*args, **kwargs):
    raise AssertionError(f"ran {args}")


def test_claim_parts_are_checked_against_the_run():
    assert bench_pairs.parse_claim("bulk40k:peak_rss_mb:40", ["bulk40k"], METRICS) == (
        "bulk40k", "peak_rss_mb", 40.0)
    for text, message in [
        ("bulk40k:peak_rss_mb", "expected WORKLOAD:METRIC:TARGET"),
        ("bulk40:peak_rss_mb:40", "workload 'bulk40' is not among --workloads bulk40k"),
        ("bulk40k:peak_rss:40", "metric 'peak_rss' is not one of run_s, peak_rss_mb"),
        ("bulk40k:peak_rss_mb:forty", "target 'forty' is not a number"),
    ]:
        with pytest.raises(ValueError, match=message):
            bench_pairs.parse_claim(text, ["bulk40k"], METRICS)


@pytest.mark.parametrize("claim", ["sparse15:peak_rss_mb:40", "bulk40k:peak_rss:40"])
def test_a_bad_claim_is_a_usage_error_before_anything_runs(claim, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs.subprocess, "run", _refuse)
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", _refuse)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--seeds", "1", "--workloads", "bulk40k",
                          "--claim", claim, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--claim: " in capsys.readouterr().err
    assert not out.exists()


def test_the_run_length_is_the_benchmarks(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs.subprocess, "run", _refuse)
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", _refuse)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--seeds", "1", "--seconds", "10",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seconds 10" in capsys.readouterr().err


def _git(root: Path, *args: str) -> None:
    subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def test_the_change_side_copies_the_working_tree_files(tmp_path):
    root = tmp_path / "checkout"
    (root / "src").mkdir(parents=True)
    _git(root, "init", "-q")
    files = {".gitignore": "*.log\nbuild/\n", "src/tracked.py": "x = 1\n", "gone.txt": "old\n"}
    for name, text in files.items():
        (root / name).write_text(text)
    _git(root, "add", ".")
    (root / "src/tracked.py").write_text("x = 2\n")  # edited, not staged
    (root / "gone.txt").unlink()  # staged, then deleted
    (root / "untracked.txt").write_text("new\n")
    (root / "run.log").write_text("ignored\n")
    (root / "build").mkdir()
    (root / "build" / "out.bin").write_text("ignored\n")
    assert sorted(bench_pairs.checkout_files(root)) == [
        ".gitignore", "src/tracked.py", "untracked.txt"]
    dest = tmp_path / "pairs" / "change"
    bench_pairs.copy_checkout(root, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/tracked.py", "untracked.txt"]
    assert (dest / "src/tracked.py").read_text() == "x = 2\n"
