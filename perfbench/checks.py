"""Output checks that feed the benchmark's error rate.

Each check returns a list of ``(stage, message)`` failures; an empty list
means the outputs passed.  A stage fails when it exits non-zero or when any
check on an output it wrote fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Primary output file -> the stage that writes it.
PRIMARY_OUTPUTS = {
    "consensus.json": "score",
    "chem.csv": "chem",
    "rec.json": "recommend",
    "map.csv": "map",
    "eval_corr.csv": "eval_corr",
    "eval_hist.csv": "eval_hist",
}

Failure = tuple[str, str]


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of each primary output in ``out_dir``."""
    out = {}
    for name in PRIMARY_OUTPUTS:
        path = out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


def check_exit_codes(stages: list[dict]) -> list[Failure]:
    """Every stage must exit with code 0."""
    return [(s["id"], f"exit code {s['rc']}") for s in stages if s["rc"] != 0]


def check_same_bytes(path: Path, reference: Path, stage: str) -> list[Failure]:
    """``path`` must hold exactly the bytes of ``reference``."""
    if not path.exists() or not reference.exists():
        return [(stage, f"{path.name} or {reference.name} is missing")]
    if path.read_bytes() != reference.read_bytes():
        return [(stage, f"{path.name} differs from {reference.name}")]
    return []


def check_recommendation(rec_path: Path, chem_path: Path) -> list[Failure]:
    """The reported loss must equal ``subset_loss`` recomputed on the chemistry CSV.

    Loss weights and the size cap come from the run's own ``.meta.json``
    sidecar, so the check follows whatever configuration the stage used.
    """
    from llmchem.chemistry import ChemistryTable
    from llmchem.recommend import LossParams, chem_totals, subset_loss

    try:
        rec = json.loads(rec_path.read_text(encoding="utf-8"))
        meta = json.loads(
            rec_path.with_name(rec_path.name + ".meta.json").read_text(encoding="utf-8")
        )
        table = ChemistryTable.from_csv(chem_path)
        config = meta["config"]
        params = LossParams(
            alpha=config["alpha"],
            beta=config["beta"],
            max_iters=config["max_iters"],
            size_cap=meta["size_cap"],
        )
        loss = subset_loss(rec["subset"], table, chem_totals(table), params)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # LLMChemError is a ValueError
        return [("recommend", f"cannot recompute the loss: {exc!r}")]
    if loss != rec["loss"]:
        return [("recommend", f"reported loss {rec['loss']!r} != recomputed {loss!r}")]
    return []


def check_repeatable(first: dict[str, str], current: dict[str, str]) -> list[Failure]:
    """Primary outputs must be byte-identical across the runs of one invocation."""
    return [
        (PRIMARY_OUTPUTS[name], f"{name} changed between runs")
        for name in sorted(first)
        if current.get(name) != first[name]
    ]
