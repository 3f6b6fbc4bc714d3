"""Host-speed calibration: a fixed pure-Python kernel timed next to each stage.

On a shared VM the whole machine runs at different speeds from one minute to
the next (two-fold throttled phases were seen on a 2-vCPU Xeon VM), which
moves every wall-clock figure together.  The benchmark therefore times this
kernel right before and right after each stage call and reports the call in
reference seconds:

    reference_s = measured_s * REFERENCE_S / kernel_s

where ``kernel_s`` is the mean of the two adjacent kernel timings.  The kernel
does the same kind of work as llmchem's hot loops (frozenset construction,
dict lookups, small sorts), so a slow phase slows both alike.  The kernel is
part of the benchmark, never of the program, so a change to llmchem moves
``measured_s`` and leaves ``kernel_s`` alone.
"""

from __future__ import annotations

import time

#: Kernel time the reference seconds are expressed against: the kernel's
#: unthrottled time on a 2-vCPU Xeon VM under CPython 3.11.
REFERENCE_S = 0.025

_NAMES = tuple(f"model-{i:02d}" for i in range(13))


def _kernel() -> int:
    memo: dict[frozenset[str], list[str]] = {}
    total = 0
    for mask in range(1 << 12):
        subset = frozenset(n for i, n in enumerate(_NAMES) if mask >> i & 1)
        memo[subset] = sorted(subset)[:3]
        for name in _NAMES[:3]:
            total += len(memo.get(subset - {name}, ()))
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def to_reference(measured_s: float, kernel_s: float) -> float:
    """``measured_s`` in reference seconds, given the adjacent kernel time."""
    return measured_s * REFERENCE_S / kernel_s
