"""Frozen calibration loop: the benchmark's yardstick for host speed.

Host CPU speed on a shared machine drifts (seconds to minutes), so raw
seconds from two runs of unchanged code can differ by tens of percent.
The loop below is timed right before and after every timed unit; the
run's ``c_run`` is the mean of every calibration point of the run (one
before the first unit, one after each), and a calibrated time is
``raw * C_REF / c_run``.

FROZEN: do not edit :class:`_Cell`, :func:`_kernel`, :data:`LOOP_N`,
:data:`SAMPLES` or :data:`C_REF`.  Every calibrated number ever
recorded is relative to them; changing any of them silently rescales
the whole history.  The loop is pure Python and imports nothing from
``repro``, so no change to the program under test can move it.
"""

from __future__ import annotations

import gc
import time

#: iterations of :func:`_kernel` per sample.
LOOP_N = 60_000
#: samples per calibration point (their mean is kept).
SAMPLES = 40
#: reference seconds of one sample; fixed once, never re-measured.
C_REF = 0.020

#: objects the kernel walks (as many as fit a few hundred KiB).
_CELLS = 2000


class _Cell:
    __slots__ = ("value", "items", "tags")

    def __init__(self, value: int) -> None:
        self.value = value
        self.items = [value, value + 1]
        self.tags = {"k": value}


def _kernel(n: int) -> int:
    """Attribute, list and dict access on small slotted objects, picked
    in a scattered order, with a little list churn: the same kind of
    interpreter work as the simulator's warp and cache bookkeeping.  Of
    the loops tried, its time tracked a whole ``generate_all`` run most
    closely on this kind of host."""
    cells = [_Cell(i) for i in range(_CELLS)]
    acc = 0
    for i in range(n):
        cell = cells[(i * 7919) % _CELLS]
        acc += cell.value + cell.items[1] + cell.tags["k"]
        if acc & 1:
            cell.items.append(i)
            cell.items.pop()
        else:
            acc ^= len(cell.items)
    return acc


def warm_up(seconds: float = 1.5) -> None:
    """Spin the loop so an idle core has ramped up before the first
    sample (a core fresh from idle runs the loop slower for ~1 s)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        _kernel(LOOP_N)


def sample() -> float:
    """One calibration point: mean seconds of :data:`SAMPLES` runs
    (under a second).  The host flips between fast and slow
    phases every second or so; the mean weighs them by time, as a
    timed unit does, where a median would pick one.  The cyclic
    collector is paused so the size of the caller's heap cannot move
    the sample."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            _kernel(LOOP_N)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sum(times) / len(times)
