"""Pure helpers of the benchmark: calibration, percentiles, error rate,
span self time and the per-layer ledger.  No I/O, no ``repro`` import;
``test_bench.py`` covers each."""

from __future__ import annotations

import math

#: two calibration samples of one unit disagreeing by more than this
#: share (of the smaller) mean the host was disturbed mid-unit: re-run.
#: The host's ordinary fast and slow phases differ by up to ~1.7x.
CALIB_TOLERANCE = 1.0

#: a percentile is reported only with at least this many samples beyond.
TAIL_SAMPLES = 10


def calibrated(raw_s: float, factor: float,
               cpu_s: float | None = None) -> float:
    """Raw host seconds of one unit -> calibrated seconds.

    ``factor`` is the run's ``C_REF / c_run``.  Without ``cpu_s`` the
    whole unit is taken as CPU work and scales by ``factor``.  With
    ``cpu_s`` (CPU seconds the program's processes used in the unit)
    only that part scales: the rest of the wall time is spent waiting
    on timers, sockets and disks, which run at the same speed whatever
    the host's CPU phase, and is kept as measured.  CPU time above the
    wall time (processes running side by side) counts as all-CPU.
    """
    if cpu_s is None:
        return raw_s * factor
    cpu = min(cpu_s, raw_s)
    return cpu * factor + (raw_s - cpu)


def calibration_disagrees(c_before: float, c_after: float,
                          tolerance: float = CALIB_TOLERANCE) -> bool:
    return abs(c_before - c_after) / min(c_before, c_after) > tolerance


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (a value that was measured)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def reportable(n: int, p: float) -> bool:
    """The rule: a percentile exists only with ``TAIL_SAMPLES`` beyond."""
    return n > 0 and samples_beyond(n, p) >= TAIL_SAMPLES


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


# -- spans ---------------------------------------------------------------
# A span is (id, name, start, end, parent, attrs); parent 0 = root.

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list] = {}
    for sid, _name, start, end, parent, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, *_ in spans
    }


def ledger(spans, wall_s: float) -> dict:
    """Per-layer self time, plus the rows that close the sum to wall.

    ``rows`` partition the time inside root spans by layer.
    ``unattributed_s`` is wall time outside every root span (start-up,
    imports, glue).  Root spans must not overlap within one thread;
    ``wall_s`` is summed over the threads that own roots.
    ``residual_s`` is the accounting error: negative where child spans
    overlap each other or leave their parent (time two rows both
    hold).  By construction
    ``sum(rows) + unattributed_s + residual_s == wall_s``.
    """
    selfs = self_times(spans)
    rows: dict[str, float] = {}
    for sid, name, *_ in spans:
        rows[name] = rows.get(name, 0.0) + selfs[sid]
    ids = {s[0] for s in spans}
    # roots of different threads (clients) may overlap in time: each
    # counts in full, since wall is summed over those threads too.
    in_roots = sum(s[3] - s[2] for s in spans
                   if s[4] == 0 or s[4] not in ids)
    attributed = sum(rows.values())
    return {
        "rows": dict(sorted(rows.items(), key=lambda kv: -kv[1])),
        "unattributed_s": wall_s - in_roots,
        "residual_s": in_roots - attributed,
        "wall_s": wall_s,
    }


def inclusive(spans, name: str) -> tuple[int, float]:
    """(count, seconds) of the outermost spans called ``name``: nested
    same-name spans under another span of that name are not added
    twice."""
    by_id = {s[0]: s for s in spans}
    count = 0
    total = 0.0
    for s in spans:
        if s[1] != name:
            continue
        parent = by_id.get(s[4])
        nested = False
        while parent is not None:
            if parent[1] == name:
                nested = True
                break
            parent = by_id.get(parent[4])
        if not nested:
            count += 1
            total += s[3] - s[2]
    return count, total
