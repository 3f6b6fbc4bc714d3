"""Run the benchmark on a parent commit and on this checkout in alternating pairs.

Usage, from the repository root (standard library only):

    python3 scripts/bench_pairs.py --parent REF --seeds 51-60 --out BENCH_N.json \\
        [--workloads dense14,sparse15,bulk40k] [--pairs N] [--change TEXT] \\
        [--claim WORKLOAD:METRIC:TARGET]

Both sides run from sibling directories of one temporary directory (under
``TMPDIR``), so their paths have the same length and neither runs from the
checkout: ``change/`` holds a copy of this checkout's working-tree files (the
files ``git ls-files --cached --others --exclude-standard`` lists that exist
on disk), and ``parent/`` the parent's files, unpacked with ``git archive``,
with ``change/perfbench/`` copied over its own, so both sides run the same
benchmark code.  For every workload, pair ``i`` runs ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once on each side, on seed
``seeds[i % len(seeds)]``, with ``T`` the ``run_seconds`` of
``BENCHMARK.json``; the parent runs first in even pairs and the change in odd
ones.  Before every pair, each ``__pycache__``
under both sides' ``src/`` is removed, so neither side imports bytecode the
other has to compile (under ``PYTHONDONTWRITEBYTECODE=1`` a stale cache on
one side shows in ``setup_s``).  The directory is removed at the end.

The output holds, per workload and end-to-end metric, each side's median and
inclusive quartiles, its runs, the pairs in which the change read lower or
higher and the median change in %; the stages attempted and failed; and
whether every pair's primary-output digests were identical.  With
``--claim``, the claim block states whether the change's median is at or
below TARGET, lower in at least 9 of 10 pairs, and lower than the parent's
median by more than the parent's interquartile range.  A claim whose workload
is not among ``--workloads`` or whose metric is not an end-to-end metric of
``BENCHMARK.json`` is a usage error, reported before anything runs.

Exit status: 0 when the file is written (and the claim, if any, is met), 1
when the claim is not met, 2 when a benchmark run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: Share of pairs in which a claimed metric must read lower.
CLAIM_PAIR_SHARE = 0.9

#: (side, workload, seed) -> one run: ``result`` (run.py's final JSON line),
#: ``digests``, ``numpy`` (its "numpy imported" line) and ``host``.
Runner = Callable[[str, str, int], dict]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pair_counts(parent: list[float], change: list[float]) -> tuple[int, int]:
    """Pairs in which the change read lower, and pairs in which it read higher."""
    lower = sum(1 for p, c in zip(parent, change) if c < p)
    higher = sum(1 for p, c in zip(parent, change) if c > p)
    return lower, higher


def summarise(unit: str, parent: list[float], change: list[float]) -> dict:
    """One metric's block: each side's quartiles and runs, pair counts, median change."""
    sides = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}
    lower, higher = pair_counts(parent, change)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "unit": unit,
        **sides,
        "change_lower_in_pairs": lower,
        "change_higher_in_pairs": higher,
        "median_change_pct": round((change_median - parent_median) / parent_median * 100, 2),
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
    }


def check_claim(block: dict, workload: str, metric: str, target: float) -> dict:
    """Whether the change reads ``metric`` at or below ``target`` and reliably lower.

    Reliably lower: lower in at least ``CLAIM_PAIR_SHARE`` of the pairs, and
    by more than the parent's interquartile range in the median.
    """
    entry = block["end_to_end"][metric]
    parent_median, change_median = entry["parent"]["median"], entry["change"]["median"]
    parent_iqr = round(entry["parent"]["q3"] - entry["parent"]["q1"], 6)
    required = math.ceil(CLAIM_PAIR_SHARE * block["pairs"])
    return {
        "workload": workload,
        "metric": metric,
        "target": f"<= {target} {entry['unit']}, lower in at least {required} of "
                  f"{block['pairs']} pairs, by more than the parent's interquartile range",
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": parent_iqr,
        "change_lower_in_pairs": entry["change_lower_in_pairs"],
        "met": change_median <= target
        and entry["change_lower_in_pairs"] >= required
        and parent_median - change_median > parent_iqr,
    }


def run_pairs(runner: Runner, workload: str, seeds: list[int], pairs: int,
              before_pair: Callable[[], None] = lambda: None) -> dict:
    """One workload's block from ``pairs`` alternating pairs of runs."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    used = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        used.append(seed)
        before_pair()
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(runner(side, workload, seed))
    metrics = runs["parent"][0]["result"]["metrics"]
    return {
        "seeds": used,
        "pairs": pairs,
        "stages_attempted": {side: sum(r["result"]["attempted"] for r in runs[side])
                             for side in SIDES},
        "stages_failed": {side: sum(r["result"]["failed"] for r in runs[side]) for side in SIDES},
        "output_digests_identical": all(
            p["digests"] == c["digests"] for p, c in zip(runs["parent"], runs["change"])
        ),
        "numpy_imported": sorted({r["numpy"] for side in SIDES for r in runs[side]}),
        "end_to_end": {
            name: summarise(
                metrics[name]["unit"],
                *([r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES),
            )
            for name in metrics
        },
    }


def perfbench_runner(roots: dict[str, Path], seconds: float) -> Runner:
    """A runner that starts ``perfbench/run.py`` in each side's root and reads its output."""

    def run(side: str, workload: str, seed: int) -> dict:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        print(f"{side} {workload} seed {seed}", file=sys.stderr, flush=True)
        proc = subprocess.run(argv, cwd=roots[side], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{side} {workload} seed {seed} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        found = {"result": json.loads(lines[-1])}
        for line in lines:
            if line.startswith("digests "):
                found["digests"] = json.loads(line[len("digests "):])
            elif line.startswith("host "):
                found["host"] = json.loads(line[len("host "):])
            elif line.startswith("numpy imported:"):
                found["numpy"] = line
        return found

    return run


def checkout_files(root: Path) -> list[str]:
    """The working-tree files of the checkout at ``root``: tracked or not ignored, and on disk."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, stdout=subprocess.PIPE).stdout.decode()
    return [name for name in listed.split("\0") if name and (root / name).is_file()]


def copy_checkout(root: Path, dest: Path) -> None:
    """Copy :func:`checkout_files` of ``root`` to the same relative paths under ``dest``."""
    for name in checkout_files(root):
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / name, dest / name)


def clear_bytecode(roots: dict[str, Path]) -> None:
    for root in roots.values():
        for cache in list((root / "src").rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)


def parse_seeds(text: str) -> list[int]:
    """``51-60`` or ``51,53,57``."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def parse_claim(text: str, workloads: list[str],
                metrics: list[str]) -> tuple[str, str, float]:
    """``WORKLOAD:METRIC:TARGET`` as its parts, checked against what will run."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected WORKLOAD:METRIC:TARGET, got {text!r}")
    workload, metric, target = parts
    if workload not in workloads:
        raise ValueError(f"workload {workload!r} is not among --workloads {','.join(workloads)}")
    if metric not in metrics:
        raise ValueError(f"metric {metric!r} is not one of {', '.join(metrics)}")
    try:
        return workload, metric, float(target)
    except ValueError:
        raise ValueError(f"target {target!r} is not a number") from None


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REF")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--pairs", type=int, help="pairs per workload (default: one per seed)")
    parser.add_argument("--change", default="", help="one line describing the change")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC:TARGET")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    pairs = args.pairs or len(args.seeds)
    claim = None
    if args.claim:
        try:
            claim = parse_claim(args.claim, workloads,
                                [metric["name"] for metric in spec["end_to_end"]])
        except ValueError as exc:
            parser.error(f"--claim: {exc}")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    roots = {side: tmp / side for side in SIDES}
    parent = roots["parent"]
    try:
        copy_checkout(ROOT, roots["change"])
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        parent.mkdir()
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        shutil.rmtree(parent / "perfbench")
        shutil.copytree(roots["change"] / "perfbench", parent / "perfbench")
        runner = perfbench_runner(roots, spec["run_seconds"])
        hosts = []

        def recording(side: str, workload: str, seed: int) -> dict:
            found = runner(side, workload, seed)
            hosts.append(found["host"])
            return found

        blocks = {w: run_pairs(recording, w, args.seeds, pairs, lambda: clear_bytecode(roots))
                  for w in workloads}
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    seeds = f"{args.seeds[0]}-{args.seeds[-1]}" if len(args.seeds) > 1 else str(args.seeds[0])
    host = hosts[0]
    record: dict = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {spec['run_seconds']:g} --trace 0",
        "method": (
            f"{pairs} pairs per workload on seeds {seeds}, made by scripts/bench_pairs.py: "
            f"the parent ({args.parent}, unpacked by git archive, with the change's "
            "perfbench/ copied in) and the change (a copy of the checkout's working-tree "
            "files), each in a sibling directory of one temporary directory, run one after "
            "the other, the side that runs first alternating from pair to pair, every "
            "__pycache__ under both sides' src/ removed before each pair. Values are the "
            "benchmark's own medians per run (reference seconds, MB); here medians and "
            "quartiles (inclusive method) over the runs of each side, and the number of "
            "pairs in which the change read lower or higher."
        ),
        "host": {
            "cpu_model": host["cpu_model"],
            "nproc": host["nproc"],
            "python": f"{host['implementation']} {host['python']}",
            "platform": host["platform"],
        },
    }
    if claim is not None:
        workload, metric, target = claim
        record["claim"] = check_claim(blocks[workload], workload, metric, target)
    record["workloads"] = blocks
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if claim is not None:
        print(f"claim {'met' if record['claim']['met'] else 'NOT met'}: "
              + json.dumps(record["claim"]))
        return 0 if record["claim"]["met"] else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
