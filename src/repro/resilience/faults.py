"""Deterministic, seeded fault injection for the execution stack.

Real profiling runs fail in ugly ways: worker processes die, kernels
hang past any reasonable deadline, cache shards get truncated by a
crashed writer, profiler CSV exports arrive mangled, and transient
collection errors appear and vanish between replay passes.  This module
lets tests and CI *manufacture* every one of those failures on demand,
reproducibly: each potential fault site asks a pure function of
``(seed, site, key, attempt)`` whether to fire, so two runs with the
same plan observe bit-identical fault schedules — across processes,
pool sizes, and scheduling orders.

A plan is a comma-separated spec string, accepted both from the
``GPU_TOPDOWN_FAULTS`` environment variable and the ``--inject-faults``
CLI flag::

    seed=7,engine.worker@0.5,sim.hang,cache.entry@0.25,hang=0.2

* ``seed=N`` — decision seed (default 0);
* ``SITE@RATE`` — fire at ``SITE`` with probability ``RATE`` per
  (cell, attempt); a bare ``SITE`` means rate 1.0;
* ``hang=SECONDS`` — sleep duration of the ``sim.hang`` site.

Supported sites (each has one fixed failure mode):

========================  ====================================================
``engine.transient``      :class:`~repro.errors.TransientFaultError` before a
                          cell is dispatched (flaky pass; always retryable)
``engine.worker``         worker-process death: ``os._exit`` inside a pool
                          worker, :class:`~repro.errors.WorkerCrashError`
                          when running in-process
``sim.hang``              the simulated kernel sleeps ``hang=`` seconds
                          (cycle-budget overrun), tripping the engine's
                          per-cell deadline
``cache.write``           writer crash immediately before the atomic write
                          of a result-cache shard (the previous entry, or
                          none, stays)
``cache.entry``           truncate a just-written cache shard (torn write
                          discovered by a later reader)
``profiler.metrics``      drop roughly half of a kernel's collected metric
                          values (partially-collected metric set)
``profiler.csv``          mangle lines of a profiler CSV export before
                          parsing
``service.submit``        :class:`~repro.errors.TransientFaultError` while
                          admitting a job submission (the HTTP layer answers
                          503 ``transient``; resubmission re-rolls)
``service.worker``        :class:`~repro.errors.WorkerCrashError` in a
                          service worker at job pickup (retried under the
                          job retry budget, then quarantined)
``store.evict``           crash mid-eviction in the result store: the victim
                          shard is already unlinked, the size index not yet
                          rewritten (rebuilt on the next open)
========================  ====================================================
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import (
    ResilienceError,
    TransientFaultError,
    WorkerCrashError,
)
from repro.sim.rng import stable_str_hash, uniform

#: every named injection site (see the module docstring table).
FAULT_SITES = (
    "engine.transient",
    "engine.worker",
    "sim.hang",
    "cache.write",
    "cache.entry",
    "profiler.metrics",
    "profiler.csv",
    "service.submit",
    "service.worker",
    "store.evict",
)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable fault schedule."""

    #: decision seed; same seed ⇒ same fault schedule everywhere.
    seed: int = 0
    #: per-site firing probability in [0, 1] (absent site ⇒ 0).
    rates: Mapping[str, float] = None  # type: ignore[assignment]
    #: sleep duration of the ``sim.hang`` site, seconds.
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.rates is None:
            object.__setattr__(self, "rates", {})

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``seed=N,SITE@RATE,...`` spec string."""
        seed = 0
        hang_s = 30.0
        rates: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[5:])
                except ValueError:
                    raise ResilienceError(
                        f"fault spec: bad seed in {part!r}"
                    ) from None
                continue
            if part.startswith("hang="):
                try:
                    hang_s = float(part[5:])
                except ValueError:
                    raise ResilienceError(
                        f"fault spec: bad hang duration in {part!r}"
                    ) from None
                if hang_s < 0:
                    raise ResilienceError("fault spec: hang must be >= 0")
                continue
            site, sep, rate_text = part.partition("@")
            if site not in FAULT_SITES:
                raise ResilienceError(
                    f"fault spec: unknown site {site!r} "
                    f"(known: {', '.join(FAULT_SITES)})"
                )
            try:
                rate = float(rate_text) if sep else 1.0
            except ValueError:
                raise ResilienceError(
                    f"fault spec: bad rate in {part!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ResilienceError(
                    f"fault spec: rate must be in [0, 1], got {rate}"
                )
            rates[site] = rate
        return cls(seed=seed, rates=rates, hang_s=hang_s)

    def spec_string(self) -> str:
        """Round-trippable spec (ships the plan to spawned workers)."""
        parts = [f"seed={self.seed}", f"hang={self.hang_s}"]
        parts += [f"{site}@{rate}" for site, rate in sorted(self.rates.items())]
        return ",".join(parts)

    @property
    def empty(self) -> bool:
        return not any(self.rates.values())


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named sites.

    Stateless by design: every decision is a pure function of
    ``(plan.seed, site, key, attempt)``, so decisions agree across
    worker processes and are reproducible run-to-run.  Retries pass an
    incremented ``attempt``, re-rolling the decision — a site at rate
    1.0 therefore fails every retry (and ends quarantined), while a
    fractional rate models a genuinely transient fault.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def decide(self, site: str, key: str, attempt: int = 0) -> bool:
        """Should ``site`` fire for ``key`` on this ``attempt``?"""
        rate = self.plan.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        u = uniform(
            self.plan.seed,
            stable_str_hash(site),
            stable_str_hash(key),
            attempt,
        )
        return u < rate

    # -- raising sites ----------------------------------------------------
    def fire_transient(self, key: str, attempt: int = 0) -> None:
        if self.decide("engine.transient", key, attempt):
            raise TransientFaultError(
                f"injected transient fault for {key!r} "
                f"(attempt {attempt})"
            )

    def fire_worker_crash(self, key: str, attempt: int = 0) -> None:
        """Kill the current pool worker (or raise when in-process)."""
        if not self.decide("engine.worker", key, attempt):
            return
        if _IN_POOL_WORKER:
            # a real worker death: the parent sees BrokenProcessPool
            # and must recover by re-dispatching on a fresh pool.
            os._exit(3)
        raise WorkerCrashError(
            f"injected worker crash for {key!r} (attempt {attempt})"
        )

    def fire_cache_write(self, key: str) -> None:
        if self.decide("cache.write", key):
            raise ResilienceError(
                f"injected crash during cache write of {key!r}"
            )

    def fire_service_submit(self, key: str, attempt: int = 0) -> None:
        """Transient admission failure (HTTP 503; resubmission re-rolls)."""
        if self.decide("service.submit", key, attempt):
            raise TransientFaultError(
                f"injected submission fault for job {key!r} "
                f"(attempt {attempt})"
            )

    def fire_service_worker(self, key: str, attempt: int = 0) -> None:
        """Service-worker death at job pickup (threads raise; no exit)."""
        if self.decide("service.worker", key, attempt):
            raise WorkerCrashError(
                f"injected service worker crash for job {key!r} "
                f"(attempt {attempt})"
            )

    def fire_store_evict(self, key: str) -> None:
        """Crash between a victim unlink and the size-index rewrite."""
        if self.decide("store.evict", key):
            raise ResilienceError(
                f"injected crash while evicting {key!r} from the store"
            )

    # -- corrupting sites -------------------------------------------------
    def maybe_hang(self, key: str, attempt: int = 0) -> None:
        if self.decide("sim.hang", key, attempt):
            time.sleep(self.plan.hang_s)

    def corrupt_entry(self, path, key: str) -> bool:
        """Truncate a just-written cache shard (torn write)."""
        if not self.decide("cache.entry", key):
            return False
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        return True

    def corrupt_metrics(
        self, key: str, metrics: Mapping[str, float]
    ) -> dict[str, float]:
        """Drop a deterministic ~half of the collected metric values."""
        if not self.decide("profiler.metrics", key):
            return dict(metrics)
        return {
            name: value
            for name, value in metrics.items()
            if uniform(
                self.plan.seed,
                stable_str_hash("profiler.metrics/drop"),
                stable_str_hash(key),
                stable_str_hash(name),
            )
            >= 0.5
        }

    def corrupt_text(self, key: str, text: str) -> str:
        """Mangle a deterministic subset of a CSV export's lines."""
        if not self.decide("profiler.csv", key):
            return text
        lines = text.splitlines()
        out = []
        for i, line in enumerate(lines):
            u = uniform(
                self.plan.seed,
                stable_str_hash("profiler.csv/line"),
                stable_str_hash(key),
                i,
            )
            if i > 0 and u < 0.3:
                # truncate the row mid-field — parsers must skip it.
                out.append(line[: max(1, len(line) // 2)])
            elif i > 0 and u < 0.4:
                continue  # drop the row entirely
            else:
                out.append(line)
        return "\n".join(out) + ("\n" if text.endswith("\n") else "")


#: the no-op injector (empty plan); shared default.
NULL_INJECTOR = FaultInjector(FaultPlan())

#: name of the environment variable carrying a fault spec.
FAULTS_ENV = "GPU_TOPDOWN_FAULTS"

_ACTIVE: list[FaultInjector] = []
_ENV_CACHE: tuple[str | None, FaultInjector] | None = None
#: set in pool workers (via fork inheritance or the spawn initializer)
#: so ``engine.worker`` can genuinely kill the process.
_IN_POOL_WORKER = False


def active_injector() -> FaultInjector:
    """The injector in effect: innermost :func:`install_faults` block,
    else one parsed from ``GPU_TOPDOWN_FAULTS``, else the no-op."""
    if _ACTIVE:
        return _ACTIVE[-1]
    global _ENV_CACHE
    spec = os.environ.get(FAULTS_ENV)
    if _ENV_CACHE is None or _ENV_CACHE[0] != spec:
        injector = (
            FaultInjector(FaultPlan.parse(spec)) if spec else NULL_INJECTOR
        )
        _ENV_CACHE = (spec, injector)
    return _ENV_CACHE[1]


@contextmanager
def install_faults(spec: "str | FaultPlan | None") -> Iterator[FaultInjector]:
    """Install a fault plan for the duration of the block."""
    if spec is None:
        plan = FaultPlan()
    elif isinstance(spec, FaultPlan):
        plan = spec
    else:
        plan = FaultPlan.parse(spec)
    injector = FaultInjector(plan)
    _ACTIVE.append(injector)
    try:
        yield injector
    finally:
        _ACTIVE.remove(injector)


def worker_init(spec_string: str) -> None:
    """Pool-worker initializer: re-install the parent's plan.

    Needed for spawn-based pools (fork inherits ``_ACTIVE`` for free);
    also marks the process as a pool worker so ``engine.worker`` faults
    exit the process instead of raising.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    if spec_string:
        _ACTIVE.append(FaultInjector(FaultPlan.parse(spec_string)))


__all__ = [
    "FAULT_SITES",
    "FAULTS_ENV",
    "FaultInjector",
    "FaultPlan",
    "NULL_INJECTOR",
    "active_injector",
    "install_faults",
    "worker_init",
]
