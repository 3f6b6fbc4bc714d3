"""The CLI pipelines write the same bytes under every interpreter in ``LLMCHEM_INTERPRETERS``.

``scripts/cross_interpreter.py`` runs the CLI pipelines under each interpreter
and diffs the digests of every output and stage log.  The check needs the
other interpreters, so it skips unless the variable names them, e.g.
``LLMCHEM_INTERPRETERS=/usr/bin/python3.10:/usr/bin/python3.13``.  Under this
interpreter alone the pipelines run in ``test_golden.py``.
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
def test_pipeline_bytes_match_across_interpreters():
    pythons = [sys.executable] + [p for p in INTERPRETERS.split(os.pathsep) if p]
    done = _check(*pythons)
    assert done.returncode == 0, done.stdout
    assert done.stdout.endswith("all identical\n")

