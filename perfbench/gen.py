"""Seeded input generator for the benchmark workloads (stdlib only).

Each workload is a fixed set of sizes; the seed picks every number inside
them.  The same (workload, seed) writes the same bytes, and the program under
test only ever sees the files written here:

    history.csv          ingest / eval --history input (exact HISTORY_COLUMNS)
    pool.json            recommend candidate pool
    ensembles.json       eval ensembles
    grades.csv           score grade matrix (grader,output_id,grade)
    ground_truth.csv     score references (output_id,reference)
    results.csv          score generator outputs (model,output_id,result)

Run ``python3 perfbench/gen.py --workload dense14 --seed 1 --out DIR`` to
write one workload's inputs by hand.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Same order as ``llmchem.history.HISTORY_COLUMNS``; the benchmark checks
#: that they agree before it runs anything.
HISTORY_COLUMNS = (
    "trial",
    "model",
    "task",
    "latency",
    "temperature",
    "id",
    "result",
    "quality",
    "gen_accuracy",
    "variance",
    "review_accuracy",
    "accuracy",
    "elapsed",
    "created",
)

#: Accuracy cut-off the CLI uses by default (``--used-threshold``).
USED_THRESHOLD = 0.5


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; the seed fills in every value."""

    name: str
    why: str
    usable: int  # models whose mean accuracy lands at or above the threshold
    unusable: int  # models whose mean accuracy lands below it
    tasks: int
    trials: int
    pool_subsets: int
    pool_sizes: tuple[int, int]  # inclusive size range, cycled in order
    map_members: int
    grid_size: int
    ensembles: int
    ensemble_sizes: tuple[int, int]
    graders: int
    outputs: int
    density: float  # chance of a grade per cell beyond the two fixed graders

    @property
    def models(self) -> int:
        return self.usable + self.unusable

    def model_names(self) -> list[str]:
        return [f"model-{i:02d}" for i in range(self.models)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense14",
            why=(
                "14 models, all usable, pool 20x3, 4-member map, 30 ensembles: build_mig "
                "materialises all 16384 nodes, so graph construction, core.cost and cheme "
                "dominate the run"
            ),
            usable=14, unusable=0, tasks=100, trials=3,
            pool_subsets=20, pool_sizes=(3, 3), map_members=4, grid_size=50,
            ensembles=30, ensemble_sizes=(2, 5),
            graders=14, outputs=150, density=0.5,
        ),
        Workload(
            name="sparse15",
            why=(
                "15 models, 8 usable, pool of 60 subsets of 2-6: a 256-node graph, so cheme "
                "spends its time on CoverLookup miss scans over 2^15 contexts; recommend "
                "is heavy"
            ),
            usable=8, unusable=7, tasks=100, trials=3,
            pool_subsets=60, pool_sizes=(2, 6), map_members=4, grid_size=50,
            ensembles=30, ensemble_sizes=(2, 5),
            graders=15, outputs=150, density=0.5,
        ),
        Workload(
            name="bulk40k",
            why=(
                "40000-row history (8 models x 500 tasks x 10 trials), 100x1000 grades at "
                "10%, 150x150 map, 50 ensembles: parsing, consensus and complementarity "
                "dominate; chemistry is trivial"
            ),
            usable=8, unusable=0, tasks=500, trials=10,
            pool_subsets=10, pool_sizes=(2, 4), map_members=8, grid_size=150,
            ensembles=50, ensemble_sizes=(2, 6),
            graders=100, outputs=1000, density=0.08,
        ),
    )
}


def _num(value: float) -> str:
    """Shortest float text after rounding, so bytes depend only on the seed."""
    return repr(round(value, 6))


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, value))


def _model_targets(w: Workload, rng: random.Random) -> dict[str, tuple[float, float]]:
    """(quality, accuracy) centre per model; accuracy sits 0.06+ off the threshold."""
    targets = {}
    for i, name in enumerate(w.model_names()):
        if i < w.usable:
            accuracy = rng.uniform(USED_THRESHOLD + 0.06, 0.93)
        else:
            accuracy = rng.uniform(0.08, USED_THRESHOLD - 0.06)
        targets[name] = (rng.uniform(2.5, 9.3), accuracy)
    return targets


def _write_history(w: Workload, rng: random.Random, path: Path) -> dict[str, float]:
    """Write the history CSV; returns each model's mean accuracy as written."""
    targets = _model_targets(w, rng)
    sums = {name: 0.0 for name in targets}
    counts = {name: 0 for name in targets}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        for trial in range(w.trials):
            for task in range(w.tasks):
                for name, (quality_c, accuracy_c) in targets.items():
                    quality = round(_clamp(quality_c + rng.uniform(-0.5, 0.5), 0.0, 10.0), 6)
                    accuracy = round(_clamp(accuracy_c + rng.uniform(-0.05, 0.05), 0.0, 1.0), 6)
                    gen = 1.0 if rng.random() < accuracy else 0.0
                    variance = rng.uniform(0.0, 2.0)
                    latency = rng.uniform(0.5, 60.0)
                    sums[name] += accuracy
                    counts[name] += 1
                    writer.writerow([
                        f"trial-{trial:02d}",
                        name,
                        f"task-{task:04d}",
                        _num(latency),
                        "0.7",
                        f"out-{task:04d}",
                        f"answer {rng.randrange(4)}",
                        _num(quality),
                        _num(gen),
                        _num(variance),
                        _num(1.0 / (1.0 + variance)),
                        _num(accuracy),
                        f"0:00:{int(latency) % 60:02d}",
                        f"2025-06-{trial + 1:02d} 12:00:00",
                    ])
    return {name: sums[name] / counts[name] for name in sums}


def _distinct_subsets(
    rng: random.Random, names: list[str], count: int, sizes: tuple[int, int]
) -> list[list[str]]:
    """``count`` distinct subsets whose sizes cycle through ``sizes``.

    The sizes are fixed by position, not drawn, so the work each subset causes
    downstream does not change with the seed.
    """
    cycle = range(sizes[0], sizes[1] + 1)
    seen: set[tuple[str, ...]] = set()
    out: list[list[str]] = []
    while len(out) < count:
        subset = tuple(sorted(rng.sample(names, cycle[len(out) % len(cycle)])))
        if subset not in seen:
            seen.add(subset)
            out.append(list(subset))
    return out


def _write_grades(w: Workload, rng: random.Random, directory: Path) -> int:
    """Write grades, ground truth and results CSVs; returns the grade count.

    The first graders are the models themselves, so the score stage blends
    their review accuracy into the per-model report.
    """
    models = w.model_names()
    graders = models[: w.graders] + [
        f"grader-{i:03d}" for i in range(max(0, w.graders - len(models)))
    ]
    noise = {g: rng.uniform(0.2, 2.5) for g in graders}
    truth = [rng.uniform(1.0, 9.0) for _ in range(w.outputs)]
    grades = 0
    with open(directory / "grades.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["grader", "output_id", "grade"])
        for o in range(w.outputs):
            # Two fixed graders guarantee every output is graded and can be
            # compared against a leave-one-out consensus.
            fixed = {graders[o % len(graders)], graders[(o + 1) % len(graders)]}
            for g in graders:
                if g in fixed or rng.random() < w.density:
                    grade = _clamp(truth[o] + rng.gauss(0.0, noise[g]), 0.0, 10.0)
                    writer.writerow([g, f"o{o:05d}", _num(grade)])
                    grades += 1
    with open(directory / "ground_truth.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["output_id", "reference"])
        for o in range(w.outputs):
            writer.writerow([f"o{o:05d}", f"answer {o % 7}"])
    with open(directory / "results.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model", "output_id", "result"])
        for o in range(w.outputs):
            text = f"answer {o % 7}" if rng.random() < 0.6 else f"answer {rng.randrange(7, 10)}"
            writer.writerow([models[o % len(models)], f"o{o:05d}", text])
    return grades


def generate(w: Workload, seed: int, directory: Path) -> dict:
    """Write every input file of workload ``w`` for ``seed`` into ``directory``.

    Returns the sizes actually written, for the run record.
    """
    rng = random.Random(f"perfbench:{w.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    means = _write_history(w, rng, directory / "history.csv")
    names = w.model_names()
    usable = sorted(m for m, mean in means.items() if mean >= USED_THRESHOLD)
    if len(usable) != w.usable:
        raise RuntimeError(
            f"{w.name} seed {seed}: {len(usable)} usable models, expected {w.usable}"
        )
    pool = _distinct_subsets(rng, names, w.pool_subsets, w.pool_sizes)
    (directory / "pool.json").write_text(
        json.dumps({"query_context": w.name, "subsets": pool}, indent=1) + "\n",
        encoding="utf-8",
    )
    ensembles = _distinct_subsets(rng, names, w.ensembles, w.ensemble_sizes)
    (directory / "ensembles.json").write_text(
        json.dumps({"ensembles": ensembles}, indent=1) + "\n", encoding="utf-8"
    )
    map_members = sorted(rng.sample(usable, w.map_members))
    grades = _write_grades(w, rng, directory)
    return {
        "models": w.models,
        "usable": len(usable),
        "history_rows": w.models * w.tasks * w.trials,
        "pool_subsets": len(pool),
        "ensembles": len(ensembles),
        "map_members": map_members,
        "grid_size": w.grid_size,
        "graders": w.graders,
        "outputs": w.outputs,
        "grades": grades,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sizes = generate(WORKLOADS[args.workload], args.seed, args.out)
    print(json.dumps(sizes, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
