"""Run the sample CLI pipeline under several Python interpreters and diff the bytes.

Usage, from the repository root (standard library only):

    python3 scripts/cross_interpreter.py /usr/bin/python3.10 /usr/bin/python3.12 ...

With no arguments the interpreters come from ``LLMCHEM_INTERPRETERS``, a
list of interpreter paths separated by ``os.pathsep``.  The inputs are derived
once from ``tests/data/history_sample.csv``: grades, references and results
for ``score``, a candidate pool and ensembles.  Each interpreter then runs
ingest, score, chem (graph and exhaustive), recommend, map, eval (ci,
correlation, effectiveness with ``--history``) and check on the package in
``src/``, in a directory of its own.  Every primary output and the combined
stdout and stderr, with the run directory replaced by ``<run>``, must equal
the first interpreter's.  The ``.meta.json`` sidecars hold input paths and are
not compared.

Exit status: 0 when every interpreter matches, 1 when some output differs,
2 when a stage fails.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "tests" / "data" / "history_sample.csv"
ENV_VAR = "LLMCHEM_INTERPRETERS"

#: Files every run writes and that must match byte for byte.
PRIMARY_OUTPUTS = (
    "store.json",
    "consensus.json",
    "chem.csv",
    "chem_exact.csv",
    "rec.json",
    "map.csv",
    "map.csv.summary.json",
    "eval_ci.csv",
    "eval_corr.csv",
    "eval_hist.csv",
)


def write_inputs(directory: Path) -> list[str]:
    """Derive the score, recommend and eval inputs from the sample history.

    Every other model grades each output at the output's recorded quality
    shifted by a per-grader offset; half of the outputs get their own text as
    the reference answer.  Returns the model names, sorted.
    """
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


def stages(inputs: Path, out: Path, models: list[str]) -> list[list[str]]:
    """Argument vectors of the pipeline, in order."""
    store, chem = str(out / "store.json"), str(out / "chem.csv")
    ensembles = str(inputs / "ensembles.json")
    eval_args = ["eval", "--store", store, "--ensembles", ensembles, "--metric"]
    return [
        ["ingest", str(SAMPLE), "--out", store],
        ["score", "--grades", str(inputs / "grades.csv"),
         "--ground-truth", str(inputs / "ground_truth.csv"),
         "--results", str(inputs / "results.csv"), "--out", str(out / "consensus.json")],
        ["chem", "--store", store, "--out", chem],
        ["chem", "--brute-force", "--store", store, "--out", str(out / "chem_exact.csv")],
        ["recommend", "--store", store, "--chem", chem, "--pool", str(inputs / "pool.json"),
         "--out", str(out / "rec.json")],
        ["map", "--store", store, "--ensemble", ",".join(models[:3]),
         "--out", str(out / "map.csv")],
        eval_args + ["ci", "--out", str(out / "eval_ci.csv")],
        eval_args + ["correlation", "--chem", chem, "--out", str(out / "eval_corr.csv")],
        eval_args + ["effectiveness", "--history", str(SAMPLE),
                     "--out", str(out / "eval_hist.csv")],
        ["check", "--store", store],
    ]


def run_pipeline(python: str, inputs: Path, out: Path, models: list[str]) -> dict[str, bytes]:
    """Run every stage under ``python``; return the primary outputs and the log."""
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    log = []
    for argv in stages(inputs, out, models):
        done = subprocess.run(
            [python, "-m", "llmchem.cli", *argv], env=env, cwd=ROOT, timeout=300,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{python}: {argv[0]} exited {done.returncode}:\n{done.stdout}")
        log.append(f"$ {' '.join(argv)}\n{done.stdout}")
    text = "".join(log).replace(str(out), "<run>").replace(str(inputs), "<inputs>")
    outputs = {name: (out / name).read_bytes() for name in PRIMARY_OUTPUTS}
    outputs["stdout"] = text.encode("utf-8")
    return outputs


def version(python: str) -> str:
    done = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    pythons = list(argv if argv is not None else sys.argv[1:])
    if not pythons:
        pythons = [p for p in os.environ.get(ENV_VAR, "").split(os.pathsep) if p]
    if not pythons:
        print(f"no interpreters given: pass paths or set {ENV_VAR}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir()
        models = write_inputs(inputs)
        try:
            runs = [
                run_pipeline(python, inputs, work / f"run{i}", models)
                for i, python in enumerate(pythons)
            ]
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    first = f"{pythons[0]} ({version(pythons[0])})"
    differs = False
    for python, outputs in zip(pythons[1:], runs[1:]):
        changed = [name for name in outputs if outputs[name] != runs[0][name]]
        differs |= bool(changed)
        verdict = f"differs in {', '.join(changed)}" if changed else "identical"
        print(f"{python} ({version(python)}): {verdict} vs {first}")
    print(f"{len(pythons)} interpreter(s), {len(runs[0])} outputs each: "
          f"{'DIFFERENT' if differs else 'all identical'}")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
