"""The sample pipeline writes the same bytes under every interpreter in ``LLMCHEM_INTERPRETERS``.

``scripts/cross_interpreter.py`` runs the CLI pipeline on the sample history
under each interpreter and diffs the primary outputs and the log.  The full
check needs the other interpreters, so it skips unless the variable names
them, e.g. ``LLMCHEM_INTERPRETERS=/usr/bin/python3.10:/usr/bin/python3.13``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cross_interpreter.py"
INTERPRETERS = os.environ.get("LLMCHEM_INTERPRETERS", "")


def _check(*pythons: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *pythons], timeout=600,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


@pytest.mark.skipif(not INTERPRETERS, reason="LLMCHEM_INTERPRETERS is not set")
def test_sample_pipeline_bytes_match_across_interpreters():
    pythons = [sys.executable] + [p for p in INTERPRETERS.split(os.pathsep) if p]
    done = _check(*pythons)
    assert done.returncode == 0, done.stdout
    assert done.stdout.endswith("all identical\n")


def test_check_runs_every_stage_under_this_interpreter():
    done = _check(sys.executable)
    assert done.returncode == 0, done.stdout
    assert done.stdout == "1 interpreter(s), 11 outputs each: all identical\n"
