"""Run the CLI pipelines under Python interpreters and check the bytes they write.

Usage, from the repository root (standard library only):

    python3 scripts/cross_interpreter.py [PYTHON ...]
    python3 scripts/cross_interpreter.py --expect tests/data/golden.json [PYTHON ...]
    python3 scripts/cross_interpreter.py --write tests/data/golden.json [PYTHON ...]

With no interpreter given they come from ``LLMCHEM_INTERPRETERS``, a list of
interpreter paths separated by ``os.pathsep``, or else the one running this
script.  Each interpreter runs four pipelines on the package in ``src/``,
each in a run directory of its own:

* ``sample``: inputs derived from ``tests/data/history_sample.csv`` (grades,
  references and results for ``score``, a candidate pool and ensembles), then
  ingest, score (with and without ``--ground-truth``), chem (graph and
  exhaustive), recommend, map, eval (ci, correlation, effectiveness with and
  without ``--history``) and check;
* ``dense14``, ``sparse15`` and ``bulk40k``: the benchmark workloads' inputs
  at seed 1 (``perfbench/gen.py``), then the stages ``perfbench/run.py``'s
  ``stage_plan`` runs, and check.

The stages run in the run directory on relative paths, because ``store.json``
records its history's path and every later sidecar records the digest of
``store.json``.  Each output file (primary outputs, ``.meta.json`` sidecars,
``map.csv.summary.json``) and each stage's combined stdout and stderr is
hashed with SHA-256 after the run directory is replaced by ``<run>`` and the
repository root by ``<root>``.  Every interpreter's digests must equal those
of the manifest given with ``--expect``, or else the first interpreter's;
``--write`` saves the first interpreter's digests as a manifest.

Exit status: 0 when every digest matches, 1 when some file differs, 2 when a
stage fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "tests" / "data" / "history_sample.csv"
ENV_VAR = "LLMCHEM_INTERPRETERS"

PIPELINES = ("sample", "dense14", "sparse15", "bulk40k")

#: Sample pipeline stage -> argument vector, on paths relative to the run
#: directory: inputs in ``in/``, outputs in ``out/``; ``{ensemble}`` is the
#: map's members.
STAGES = {
    "ingest": "ingest in/history.csv --out out/store.json",
    "score": "score --grades in/grades.csv --ground-truth in/ground_truth.csv "
             "--results in/results.csv --out out/consensus.json",
    "score_nogt": "score --grades in/grades.csv --results in/results.csv "
                  "--out out/consensus_nogt.json",
    "chem": "chem --store out/store.json --out out/chem.csv",
    "chem_exact": "chem --brute-force --store out/store.json --out out/chem_exact.csv",
    "recommend": "recommend --store out/store.json --chem out/chem.csv --pool in/pool.json "
                 "--out out/rec.json",
    "map": "map --store out/store.json --ensemble {ensemble} --out out/map.csv",
    "eval_ci": "eval --store out/store.json --ensembles in/ensembles.json --metric ci "
               "--out out/eval_ci.csv",
    "eval_corr": "eval --store out/store.json --ensembles in/ensembles.json "
                 "--metric correlation --chem out/chem.csv --out out/eval_corr.csv",
    "eval_hist": "eval --store out/store.json --ensembles in/ensembles.json "
                 "--metric effectiveness --history in/history.csv --out out/eval_hist.csv",
    "eval_eff": "eval --store out/store.json --ensembles in/ensembles.json --metric effectiveness "
                "--out out/eval_eff.csv",
    "check": "check --store out/store.json",
}


def write_inputs(directory: Path) -> list[str]:
    """Copy the sample history and derive the score, recommend and eval inputs from it.

    Every other model grades each output at the output's recorded quality
    shifted by a per-grader offset; half of the outputs get their own text as
    the reference answer.  Returns the model names, sorted.
    """
    shutil.copyfile(SAMPLE, directory / "history.csv")
    with SAMPLE.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    models = sorted({row["model"] for row in rows})
    grades, references, results = [], [], []
    for number, row in enumerate(rows):
        for index, grader in enumerate(models):
            if grader != row["model"]:
                grade = float(row["quality"]) + 0.37 * (index - 2)
                grades.append([grader, row["id"], repr(min(10.0, max(0.0, grade)))])
        if number % 2 == 0:
            references.append([row["id"], row["result"]])
        results.append([row["model"], row["id"], row["result"]])
    tables = {
        "grades.csv": (["grader", "output_id", "grade"], grades),
        "ground_truth.csv": (["output_id", "reference"], references),
        "results.csv": (["model", "output_id", "result"], results),
    }
    for name, (header, body) in tables.items():
        with (directory / name).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(body)
    pool = [list(pair) for pair in itertools.combinations(models, 2)] + [models]
    ensembles = [list(group) for size in (2, 3) for group in itertools.combinations(models, size)]
    (directory / "pool.json").write_text(json.dumps({"subsets": pool}), encoding="utf-8")
    (directory / "ensembles.json").write_text(
        json.dumps({"ensembles": ensembles}), encoding="utf-8"
    )
    return models


def _perfbench():
    """``perfbench/gen.py`` and ``perfbench/run.py`` (standard library only at import).

    perfbench is not a package and its modules import each other by name, so
    its directory goes on the module path.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import run

    return gen, run


def prepare(pipeline: str, run: Path) -> dict[str, list[str]]:
    """Write the pipeline's inputs into ``run/in``; return its stages' argument vectors."""
    inputs = run / "in"
    inputs.mkdir(parents=True)
    (run / "out").mkdir()
    if pipeline == "sample":
        ensemble = ",".join(write_inputs(inputs)[:3])
        return {name: argv.format(ensemble=ensemble).split() for name, argv in STAGES.items()}
    gen, bench = _perfbench()
    workload = gen.WORKLOADS[pipeline]
    sizes = gen.generate(workload, 1, inputs)
    plan = bench.stage_plan(workload, sizes, Path("in"), Path("out"))
    return {**{stage["id"]: stage["argv"] for stage in plan}, "check": STAGES["check"].split()}


def run_pipeline(python: str, pipeline: str, run: Path) -> dict[str, bytes]:
    """Run one pipeline under ``python``; return every output file and stage log, normalised."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    found = {}
    for stage, argv in prepare(pipeline, run).items():
        done = subprocess.run(
            [python, "-m", "llmchem.cli", *argv], env=env, cwd=run, timeout=300,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{python}: {pipeline} {stage} exited {done.returncode}:\n"
                + done.stdout.decode("utf-8", "replace")
            )
        found[f"{stage}.log"] = done.stdout
    found.update((path.name, path.read_bytes()) for path in (run / "out").iterdir())
    return {
        name: data.replace(str(run).encode(), b"<run>").replace(str(ROOT).encode(), b"<root>")
        for name, data in found.items()
    }


def digests(python: str) -> dict[str, str]:
    """``pipeline/file`` -> SHA-256 of every output and stage log of every pipeline."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for pipeline in PIPELINES:
            files = run_pipeline(python, pipeline, Path(tmp) / pipeline)
            found.update(
                (f"{pipeline}/{name}", hashlib.sha256(data).hexdigest())
                for name, data in files.items()
            )
    return dict(sorted(found.items()))


def version(python: str) -> str:
    done = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON")
    manifest = parser.add_mutually_exclusive_group()
    manifest.add_argument("--expect", type=Path, metavar="FILE",
                          help="compare every digest with this manifest")
    manifest.add_argument("--write", type=Path, metavar="FILE",
                          help="save the first interpreter's digests as a manifest")
    args = parser.parse_args(argv)
    pythons = args.pythons or [
        p for p in os.environ.get(ENV_VAR, "").split(os.pathsep) if p
    ] or [sys.executable]
    try:
        runs = [(f"{python} ({version(python)})", digests(python)) for python in pythons]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.write is not None:
        args.write.write_text(json.dumps(runs[0][1], indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(runs[0][1])} digests to {args.write}")
    if args.expect is not None:
        reference, against = json.loads(args.expect.read_text(encoding="utf-8")), args.expect
    else:
        (against, reference), runs = runs[0], runs[1:]
    differs = False
    for label, found in runs:
        changed = sorted(
            name for name in reference.keys() | found.keys() if reference.get(name) != found.get(name)
        )
        differs |= bool(changed)
        verdict = f"differs in {', '.join(changed)}" if changed else "identical"
        print(f"{label}: {verdict} vs {against}")
    print(f"{len(pythons)} interpreter(s), {len(reference)} digests each: "
          f"{'DIFFERENT' if differs else 'all identical'}")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
