"""Every output, sidecar and stage log of four CLI pipelines keeps its committed SHA-256.

``scripts/cross_interpreter.py --expect tests/data/golden.json`` runs the
sample pipeline and the dense14, sparse15 and bulk40k benchmark workloads at
seed 1 under this interpreter, and names each file whose digest differs from
the manifest's: 32 digests for the sample pipeline (its ``eval`` runs ci,
correlation, and effectiveness with and without ``--history``) and 23 for each
workload.  A change meant to alter bytes regenerates the manifest with
``--write tests/data/golden.json`` and names the files whose digests moved.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cross_interpreter.py"
MANIFEST = ROOT / "tests" / "data" / "golden.json"


def test_every_output_sidecar_and_log_matches_its_golden_digest():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--expect", str(MANIFEST), sys.executable], timeout=300,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert done.returncode == 0, done.stdout
    assert done.stdout.endswith("1 interpreter(s), 101 digests each: all identical\n")
