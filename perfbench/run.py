"""End-to-end and per-layer benchmark of the llmchem CLI pipeline (stdlib only).

Usage, from the repository root:

    python3 perfbench/run.py --workload dense14 --seed 1 --seconds 35 --trace 0

The benchmark generates the workload's input files from the seed (``gen.py``)
and times fresh interpreters importing ``llmchem.cli`` (``setup_s``).  It then
computes the reference chemistry table once, with ``llmchem ingest`` and
``llmchem chem --brute-force`` outside every timed region, and repeats timed
workload runs for ``--seconds``.  Each run is a fresh interpreter
(``worker.py``) that imports ``llmchem.cli`` and calls ``main`` once per stage:

    ingest -> score -> chem -> recommend -> map
           -> eval --metric correlation -> eval --metric effectiveness --history

After every run the outputs are checked (``checks.py``); a stage that exits
non-zero or writes an output that fails a check counts as failed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``
(stages run), ``failed`` (stages failed) and ``metrics``:

* ``--trace 0``: the end-to-end metrics, each the median over every call
  (``run_s``: over every run's pass) in reference seconds (see
  ``calibration.py``), and the median peak memory of the runs.
* ``--trace 1``: untraced and traced runs alternate; the per-layer metrics
  are medians over the traced runs (``spans.py``), with the traced and
  untraced ``run_s`` side by side as the tracing overhead.  The span dump and
  the per-layer table are written next to the run record.

Everything is written under ``.perfbench_out/<workload>-s<seed>/`` in the
repository root.  Workers run with ``PYTHONHASHSEED=0`` so that set and dict
layouts, and the timings that depend on them, repeat from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
from calibration import kernel_seconds, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed for setup_s (after one untimed warm-up import).
SETUP_SAMPLES = 11
#: Fewest timed runs per invocation, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Stages shorter than this are re-called within a run (see worker.py).
REPEAT_MIN_S = 0.4
#: Longest a single worker may take before it counts as failed.
WORKER_TIMEOUT_S = 170

#: Consensus rounds per score stage.  The tolerance passed with it is too tight
#: to stop earlier, so every seed runs the same number of rounds; left to
#: converge, the count varies from 8 to 10 between seeds and score_s with it.
CONSENSUS_ROUNDS = 5
#: Hill-climb budget per pool subset.  Nearly every subset of every seed uses
#: it up, so recommend does about the same number of neighbourhood scans on
#: every input; with the default budget the descent length, and recommend_s
#: with it, varies about 10 % between seeds.
HILL_CLIMB_STEPS = 3

#: Pipeline stages, in order; every workload runs all of them.
STAGES = ("ingest", "score", "chem", "recommend", "map", "eval_corr", "eval_hist")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ingest_s": "s",
    "score_s": "s",
    "chem_s": "s",
    "recommend_s": "s",
    "map_s": "s",
    "eval_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", ".s_per_iteration")) or name.startswith("trace."):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def stage_plan(w: gen.Workload, sizes: dict, inp: Path, out: Path) -> list[dict]:
    """The CLI argument vector of every pipeline stage, in order."""
    store, chem = str(out / "store.json"), str(out / "chem.csv")
    ensembles = str(inp / "ensembles.json")
    argvs = {
        "ingest": ["ingest", str(inp / "history.csv"), "--out", store],
        "score": ["score", "--grades", str(inp / "grades.csv"),
                  "--ground-truth", str(inp / "ground_truth.csv"),
                  "--results", str(inp / "results.csv"),
                  "--consensus-max-iters", str(CONSENSUS_ROUNDS), "--consensus-tol", "1e-12",
                  "--out", str(out / "consensus.json")],
        "chem": ["chem", "--store", store, "--out", chem],
        "recommend": ["recommend", "--store", store, "--chem", chem,
                      "--pool", str(inp / "pool.json"), "--max-iters", str(HILL_CLIMB_STEPS),
                      "--out", str(out / "rec.json")],
        "map": ["map", "--store", store, "--ensemble", ",".join(sizes["map_members"]),
                "--grid-size", str(w.grid_size), "--out", str(out / "map.csv")],
        "eval_corr": ["eval", "--store", store, "--ensembles", ensembles,
                      "--metric", "correlation", "--chem", chem,
                      "--out", str(out / "eval_corr.csv")],
        "eval_hist": ["eval", "--store", store, "--ensembles", ensembles,
                      "--metric", "effectiveness", "--history", str(inp / "history.csv"),
                      "--out", str(out / "eval_hist.csv")],
    }
    return [{"id": stage, "argv": argvs[stage]} for stage in STAGES]


def oracle_plan(inp: Path, oracle: Path) -> list[dict]:
    """Ingest into a separate directory and score it with the exhaustive enumerator."""
    store = str(oracle / "store.json")
    return [
        {"id": "oracle_ingest", "argv": ["ingest", str(inp / "history.csv"), "--out", store]},
        {"id": "chem_exact", "argv": ["chem", "--brute-force", "--store", store,
                                      "--out", str(oracle / "chem_exact.csv")]},
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(plan: dict, work: Path, tag: str) -> dict | None:
    """Run one worker process; None when it crashed or timed out."""
    plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {tag} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"worker {tag} failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure_setup() -> list[float]:
    """Reference seconds from spawning a fresh interpreter to its ``import llmchem.cli``.

    The child reports the monotonic clock once the import is done, so process
    exit and reaping stay out of the figure.
    """
    argv = [sys.executable, "-c", "import time, llmchem.cli; print(time.perf_counter())"]
    env = child_env()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)  # writes bytecode
    samples = []
    before = kernel_seconds()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60,
                              stdout=subprocess.PIPE, text=True)
        elapsed = float(proc.stdout) - start
        after = kernel_seconds()
        samples.append(to_reference(elapsed, (before + after) / 2))
        before = after
    return samples


def host_record(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def check_run(result: dict | None, out: Path, reference: Path,
              first_digests: dict | None) -> tuple[set[str], dict]:
    """Failed stage ids of one run, and the digests of its primary outputs."""
    if result is None:
        return set(STAGES), {}
    failures = checks.check_exit_codes(result["stages"])
    failures += checks.check_same_bytes(out / "chem.csv", reference, "chem")
    failures += checks.check_recommendation(out / "rec.json", out / "chem.csv")
    digests = checks.digests(out)
    if first_digests is not None:
        failures += checks.check_repeatable(first_digests, digests)
    for stage, message in failures:
        print(f"check failed: {stage}: {message}", file=sys.stderr)
    return {stage for stage, _ in failures}, digests


def pass_s(run: dict) -> float:
    """Reference seconds of one run's pass: each stage's first call, summed."""
    return sum(to_reference(s["calls"][0], s["kernel"][0]) for s in run["stages"])


def end_to_end(runs: list[dict], setup: list[float]) -> dict[str, float]:
    """Median of each timing in reference seconds; median peak memory."""

    def stage_s(stage: str) -> float:
        return statistics.median(
            to_reference(call, kernel)
            for r in runs for s in r["stages"] if s["id"] == stage
            for call, kernel in zip(s["calls"], s["kernel"])
        )

    return {
        "run_s": statistics.median(pass_s(r) for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ingest_s": stage_s("ingest"),
        "score_s": stage_s("score"),
        "chem_s": stage_s("chem"),
        "recommend_s": stage_s("recommend"),
        "map_s": stage_s("map"),
        "eval_s": stage_s("eval_corr") + stage_s("eval_hist"),
    }


def per_layer(traced: list[dict], oracle: dict) -> dict[str, float]:
    """Median over the traced runs of each per-layer metric.

    Span times are scaled to reference seconds by the median kernel time of
    the process that recorded them.
    """
    from spans import Span, layer_metrics

    def scaled_spans(run: dict, first_id: int) -> list[Span]:
        kernel = statistics.median(k for s in run["stages"] for k in s["kernel"])
        scale = to_reference(1.0, kernel)
        return [
            Span(o["id"] + first_id,
                 o["name"], o["stage"],
                 None if o["parent"] is None else o["parent"] + first_id,
                 round(o["start_ns"] * scale), round(o["end_ns"] * scale),
                 o["counters"],
                 {name: [calls, round(ns * scale)] for name, (calls, ns) in o["hot"].items()})
            for o in run["spans"]
        ]

    per_run = []
    for r in traced:
        # The oracle ran in another process: give its spans ids after the run's.
        spans = scaled_spans(r, 0) + scaled_spans(oracle, len(r["spans"]))
        layers = layer_metrics(spans, list(STAGES))
        layers["trace.run_s"] = pass_s(r)
        per_run.append(layers)
    return {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}


def write_layer_table(path: Path, metrics: dict[str, float]) -> None:
    lines = [f"{'metric':<48} {'value':>16}  unit"]
    for name in sorted(metrics):
        lines.append(f"{name:<48} {metrics[name]:>16.6g}  {layer_unit(name)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the llmchem CLI pipeline.")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "llmchem" / "cli.py").is_file():
        print(f"error: no llmchem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import llmchem.history

    if Path(llmchem.history.__file__).resolve().parent != SRC / "llmchem":
        print(f"error: imported llmchem from {llmchem.history.__file__}", file=sys.stderr)
        return 2
    if tuple(llmchem.history.HISTORY_COLUMNS) != gen.HISTORY_COLUMNS:
        print("error: the generator's history columns differ from llmchem's", file=sys.stderr)
        return 2

    w = gen.WORKLOADS[args.workload]
    work = OUT / f"{w.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inp, out, oracle = work / "inputs", work / "out", work / "oracle"
    out.mkdir(parents=True)
    oracle.mkdir()
    sizes = gen.generate(w, args.seed, inp)
    stages = stage_plan(w, sizes, inp, out)
    setup = measure_setup()

    plan = {"stages": oracle_plan(inp, oracle), "trace": bool(args.trace), "repeat_min_s": 0.0}
    result = run_worker(plan, work, "oracle")
    if result is None or any(s["rc"] != 0 for s in result["stages"]):
        print("error: the exhaustive-chemistry reference run failed", file=sys.stderr)
        return 2
    oracle_run = result
    numpy_imported = result["numpy_imported"]

    # Untraced runs only, or untraced and traced runs alternating.
    kinds = (False, True) if args.trace else (False,)
    runs: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    first_digests = None
    cycle_s: list[float] = []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for traced in kinds:
            plan = {"stages": stages, "trace": traced, "repeat_min_s": REPEAT_MIN_S}
            result = run_worker(plan, work, "traced" if traced else "run")
            bad, digests = check_run(result, out, oracle / "chem_exact.csv", first_digests)
            attempted += len(stages)
            failed += len(bad)
            if result is not None:
                first_digests = first_digests or digests
                runs[traced].append(result)
                numpy_imported |= result["numpy_imported"]
        cycle_s.append(time.perf_counter() - cycle_start)
        # Stop before a further cycle would end past --seconds.
        elapsed = time.perf_counter() - started
        if len(cycle_s) >= (1 if args.trace else MIN_RUNS) and (
            elapsed + statistics.median(cycle_s) > args.seconds
        ):
            break
    measured_s = time.perf_counter() - started

    if not runs[False] or (args.trace and not runs[True]):
        print("error: no run completed", file=sys.stderr)
        return 2
    e2e = end_to_end(runs[False], setup)
    record = {
        "workload": w.name,
        "why": w.why,
        "sizes": sizes,
        "host": host_record(args.seed),
        "numpy_imported": numpy_imported,
        "measured_s": measured_s,
        "run_samples": [
            {"peak_rss_mb": r["peak_rss_mb"],
             "stages": {s["id"]: {"calls": s["calls"], "kernel": s["kernel"]}
                        for s in r["stages"]}}
            for r in runs[False]
        ],
        "setup_samples": setup,
        "end_to_end": e2e,
        "digests": first_digests,
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace:
        metrics = per_layer(runs[True], oracle_run)
        metrics["trace.untraced_run_s"] = e2e["run_s"]
        units = {name: layer_unit(name) for name in metrics}
        record["per_layer"] = metrics
        record["traced_runs"] = len(runs[True])
        (work / "trace_spans.json").write_text(
            json.dumps({"runs": [r["spans"] for r in runs[True]], "oracle": oracle_run["spans"]}),
            encoding="utf-8",
        )
        write_layer_table(work / "layers.txt", metrics)
    else:
        metrics, units = e2e, END_TO_END_UNITS
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("host " + json.dumps(record["host"], sort_keys=True))
    print(f"numpy imported: {numpy_imported}")
    print("digests " + json.dumps(first_digests, sort_keys=True))
    print(f"runs: {len(runs[False])} untraced, {len(runs[True])} traced in {measured_s:.1f} s; "
          f"record in {work.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
