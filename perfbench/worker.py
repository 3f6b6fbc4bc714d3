"""One timed workload run in a fresh interpreter.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json``

The plan lists the CLI stages to run, in order, as ``llmchem.cli.main``
argument vectors.  The worker imports ``llmchem.cli`` once, then calls
``main`` once per stage, timing the calibration kernel of ``calibration.py``
between calls.  Without tracing, a stage whose first call is shorter than
``repeat_min_s`` is then called again until its calls add up to that long, so
short stages get more samples.  With tracing, the pass runs once under the
wrappers of ``spans.py`` and its spans go into the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from calibration import kernel_seconds

MAX_REPEATS = 40


def _call(main, argv: list[str]) -> tuple[int, float]:
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = main(argv)
    return rc, time.perf_counter() - start


def run_pass(plan: dict, tracer) -> dict:
    """Call every stage once, then repeat the short ones; time the kernel between calls.

    Each stage record holds its call times and, per call, the mean of the
    calibration-kernel times measured right before and right after it.
    """
    from llmchem.cli import main

    stages = []
    before = kernel_seconds()
    for stage in plan["stages"]:
        if tracer is not None:
            tracer.stage = stage["id"]
            span = tracer.open(f"cli.{stage['id']}")
        rc, elapsed = _call(main, stage["argv"])
        if tracer is not None:
            tracer.close(span)
        after = kernel_seconds()
        stages.append({"id": stage["id"], "rc": rc, "calls": [elapsed],
                       "kernel": [(before + after) / 2]})
        before = after
    if tracer is None:
        for stage, record in zip(plan["stages"], stages):
            calls = record["calls"]
            if calls[0] >= plan["repeat_min_s"]:
                continue
            before = kernel_seconds()
            repeats = []
            while calls[0] + sum(repeats) < plan["repeat_min_s"] and len(repeats) < MAX_REPEATS:
                rc, elapsed = _call(main, stage["argv"])
                record["rc"] = record["rc"] or rc
                repeats.append(elapsed)
            kernel = (before + kernel_seconds()) / 2
            calls.extend(repeats)
            record["kernel"].extend([kernel] * len(repeats))
    return {"stages": stages}


def main(argv: list[str]) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    import llmchem.cli  # noqa: F401 - import cost belongs to setup_s, not to a stage

    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    result = run_pass(plan, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy_imported"] = "numpy" in sys.modules
    if tracer is not None:
        result["spans"] = [span.to_obj() for span in tracer.spans]
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
