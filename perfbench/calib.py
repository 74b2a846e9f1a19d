"""Host-speed calibration: a fixed reference kernel timed next to every op.

On a small shared host the same pure-Python loop can run at less than half
speed for tens of milliseconds at a time, and slow stretches are correlated.
A raw op time therefore mixes hornlog's cost with the host's momentary speed.
The benchmark runs this kernel between consecutive ops (and around each
setup) and converts each interval as

    calibrated = wall * NOMINAL_KERNEL_S / mean(kernel before, kernel after)

so a stretch that slows the op also slows its neighbouring kernels and
cancels out.  The kernel is allocation-heavy stdlib work (dict, deque, tuple,
Counter, frozen dataclasses), like hornlog's own inner loops, because a plain
arithmetic loop tracks the host's slowdowns much less closely.  It runs with
the cyclic garbage collector paused, so the program's live heap cannot change
its time.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, deque
from dataclasses import dataclass

# Median kernel time measured once with this benchmark (Python 3.11, 2-core
# x86-64 container).  Calibrated times are "ms at this nominal host speed";
# only their ratios between commits matter, so the constant never changes.
NOMINAL_KERNEL_S = 0.0100

_ROUNDS = 5200


@dataclass(frozen=True)
class _Cell:
    key: tuple[int, int]
    weight: int


def reference_kernel() -> int:
    """Fixed work of about 10 ms; returns a checksum of what it built."""
    table: dict[tuple[int, int], _Cell] = {}
    window: deque[_Cell] = deque()
    counts: Counter[int] = Counter()
    total = 0
    for i in range(_ROUNDS):
        key = (i % 97, i % 31)
        cell = _Cell(key, i)
        table[key] = cell
        window.append(cell)
        counts[key[0]] += 1
        if len(window) > 48:
            old = window.popleft()
            if table.get(old.key) is old:
                del table[old.key]
            total += old.weight
    return total + len(table) + counts.most_common(1)[0][1]


def kernel_seconds() -> float:
    """Wall time of one reference-kernel run, with the cyclic GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed


def calibrated(wall: float, kernel_before: float, kernel_after: float) -> float:
    """Convert a wall interval to nominal host speed."""
    return wall * NOMINAL_KERNEL_S / ((kernel_before + kernel_after) / 2)
