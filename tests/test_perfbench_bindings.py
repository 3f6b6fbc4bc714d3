"""perfbench's traced run wraps llmchem functions by name, so each must stay bound.

``perfbench/spans.install`` raises when a name it wraps is gone; several of
them are library surface the CLI never calls.  This runs it as the benchmark
does, in a fresh process with ``perfbench/`` and ``src/`` on the path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_tracer_binds_every_name_it_wraps():
    path = os.pathsep.join(str(ROOT / part) for part in ("perfbench", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
