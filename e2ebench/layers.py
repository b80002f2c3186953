"""Outside-in layer tracer: wraps ``repro`` public functions with spans.

Nothing in ``repro`` is edited.  :func:`install` replaces a fixed set of
module functions and class methods with wrappers that record a span
``(id, name, start, end, parent, attrs)`` per call, held in memory and
written once by :meth:`Tracer.dump` when the traced process ends.  A
call into a layer already open on the same thread (a layer re-entering
itself, e.g. ``EvictingResultCache.load`` calling the base ``load``) is
not a new span.  Counters are kept at the same boundaries so ratios are
measured where the work happens.

Timestamps are ``time.perf_counter()``: CLOCK_MONOTONIC on Linux, one
clock for every process, so daemon spans can be placed under the client
spans of the same job.

Used only by the benchmark's launchers (``launch.py``); the untraced
timed runs never import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.instances: dict[str, list] = defaultdict(list)
        self.marks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def add_span(self, name: str, start: float, end: float,
                 attrs: dict | None = None) -> None:
        """Record a span measured elsewhere (e.g. a queue wait), parented
        to whatever span is open on this thread."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        self.spans.append((next(self._ids), name, start, end, parent, attrs))

    def wrap(self, fn, name: str, *, count: str | None = None,
             on_enter=None, on_exit=None, attrs=None):
        """Span-recording wrapper around ``fn``.

        ``count`` is incremented on every call, re-entrant ones too;
        ``on_enter(args, kwargs)`` runs before the call and its value
        goes to ``on_exit(args, kwargs, result, token)``; ``attrs(args,
        kwargs)`` gives the span's attributes.
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.count(count)
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            token = on_enter(args, kwargs) if on_enter is not None else None
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.spans.append((
                    sid, name, t0, t1, parent,
                    attrs(args, kwargs) if attrs is not None else None,
                ))
            if on_exit is not None:
                on_exit(args, kwargs, result, token)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write spans, counters and end-of-run instance stats."""
        engines = self.instances.get("engine", [])
        stores = self.instances.get("store", [])
        doc = {
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            "engine": {
                "executed": sum(e.stats.sim_calls for e in engines),
                "memo_hits": sum(e.stats.memo_hits for e in engines),
            },
            "evictions": sum(getattr(s, "evictions", 0) for s in stores),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _patch_function(module, attr: str, wrapper) -> None:
    """Replace ``module.attr`` and every ``repro`` module's alias of it
    (``from x import f`` copies the reference)."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _patch_method(cls, attr: str, tracer: Tracer, name: str, **kw) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, **kw))


def _register(tracer: Tracer, cls, key: str) -> None:
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.instances[key].append(self)

    cls.__init__ = __init__


def _file_bytes(cache, fingerprint: str) -> int:
    try:
        return cache.path_for(fingerprint).stat().st_size
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the ledger names.  Imports the layer
    modules first so module-level aliases exist to be patched."""
    import repro.core.analyzer as analyzer
    import repro.experiments as experiments_pkg
    import repro.experiments.generate_all as generate_all
    import repro.pmu.cupti as cupti
    import repro.resilience.checkpoint as checkpoint
    import repro.service.journal as sjournal
    import repro.service.manager as manager
    import repro.sim.caches as caches
    import repro.sim.engine as engine
    import repro.sim.fingerprint as fingerprint
    import repro.sim.gpu  # noqa: F401  (holds a sim_fingerprint alias)
    import repro.sim.result_cache as result_cache
    import repro.sim.sm as sm
    import repro.sim.specialize as specialize

    # -- experiments: the bundle driver, each stage's run and render ----
    generate_all.generate_all = tracer.wrap(
        generate_all.generate_all, "experiments.generate_all")
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(experiments_pkg.__path__):
        if info.name in ("generate_all", "runner"):
            continue
        mod = importlib.import_module(f"repro.experiments.{info.name}")
        for attr, layer in (("run", "experiments.run"),
                            ("render", "experiments.render")):
            if callable(getattr(mod, attr, None)):
                setattr(mod, attr, tracer.wrap(getattr(mod, attr), layer))

    # -- keying ----------------------------------------------------------
    _patch_function(fingerprint, "sim_fingerprint", tracer.wrap(
        fingerprint.sim_fingerprint, "sim.fingerprint",
        count="sim.fingerprint.calls"))

    # -- engine ----------------------------------------------------------
    _register(tracer, engine.ExecutionEngine, "engine")
    E = engine.ExecutionEngine
    _patch_method(E, "simulate", tracer, "sim.engine",
                  on_exit=lambda a, k, r, t: tracer.count("engine.launches"))
    _patch_method(E, "simulate_batch", tracer, "sim.engine",
                  on_exit=lambda a, k, r, t: tracer.count(
                      "engine.launches", len(a[1])))
    _patch_method(E, "simulate_replicas", tracer, "sim.engine",
                  on_exit=lambda a, k, r, t: tracer.count(
                      "engine.launches", len(r)))

    # -- result cache ----------------------------------------------------
    _register(tracer, result_cache.EvictingResultCache, "store")

    def load_exit(a, k, result, token):
        tracer.count("result_cache.loads")
        if result is not None:
            tracer.count("result_cache.hits")
            tracer.count("result_cache.read_bytes", _file_bytes(a[0], a[1]))

    def store_exit(a, k, result, token):
        tracer.count("result_cache.stores")
        tracer.count("result_cache.written_bytes", _file_bytes(a[0], a[1]))

    for cls in (result_cache.SimResultCache,
                result_cache.EvictingResultCache):
        _patch_method(cls, "load", tracer, "sim.result_cache.load",
                      on_exit=load_exit)
        _patch_method(cls, "store", tracer, "sim.result_cache.store",
                      on_exit=store_exit)

    # -- specialization --------------------------------------------------
    def driver_enter(a, k):
        return len(specialize._DRIVER_CACHE)

    def driver_exit(a, k, result, before):
        grew = len(specialize._DRIVER_CACHE) > before
        tracer.count("specialize.builds" if grew else "specialize.hits")

    specialize.driver_for = tracer.wrap(
        specialize.driver_for, "sim.specialize",
        on_enter=driver_enter, on_exit=driver_exit)
    specialize.generate_driver_source = tracer.wrap(
        specialize.generate_driver_source, "sim.specialize.codegen",
        on_exit=lambda a, k, r, t: tracer.count(
            "specialize.source_bytes", len(r)))
    specialize._compile_source = tracer.wrap(
        specialize._compile_source, "sim.specialize.compile")
    _patch_method(specialize._RuntimeTables, "block_tables", tracer,
                  "sim.specialize.tables")

    # -- SM cycle loop and memory model ----------------------------------
    def sm_exit(a, k, counters, token):
        tracer.count("sm.runs")
        tracer.count("sm.cycles", counters.cycles_elapsed)
        tracer.count("caches.l1_accesses", counters.l1_sector_accesses)
        tracer.count("caches.l1_hits", counters.l1_sector_hits)
        tracer.count("caches.l2_accesses", counters.l2_sector_accesses)
        tracer.count("caches.l2_hits", counters.l2_sector_hits)

    _patch_method(sm.SMSimulator, "run", tracer, "sim.sm", on_exit=sm_exit)
    for attr in ("access_global", "access_global_span",
                 "access_constant", "access_constant_sector"):
        _patch_method(caches.MemoryHierarchy, attr, tracer, "sim.caches",
                      count="caches.calls")

    # -- PMU, analysis ---------------------------------------------------
    _patch_method(cupti.CuptiSession, "collect", tracer, "pmu.collect",
                  on_exit=lambda a, k, r, t: tracer.count(
                      "pmu.replay_passes", r.plan.num_passes))
    _patch_method(analyzer.TopDownAnalyzer, "analyze_kernel", tracer,
                  "core.analyzer", count="analyzer.kernels")
    for attr in ("analyze_application", "analyze_invocations"):
        _patch_method(analyzer.TopDownAnalyzer, attr, tracer,
                      "core.analyzer")

    # -- journals --------------------------------------------------------
    _patch_method(checkpoint.RunJournal, "record", tracer,
                  "resilience.checkpoint")
    _patch_method(sjournal.ServiceJournal, "_append", tracer,
                  "service.journal",
                  attrs=lambda a, k: {"job": a[1].get("job")})

    # -- service manager -------------------------------------------------
    M = manager.ServiceManager

    def submit_exit(a, k, result, token):
        record, created = result
        if created:
            tracer.marks[record.job_id] = time.perf_counter()

    _patch_method(M, "submit", tracer, "service.manager.submit",
                  on_exit=submit_exit,
                  attrs=lambda a, k: {"job": _job_of(a[1])})

    def execute_enter(a, k):
        job_id = a[2]
        queued = tracer.marks.pop(job_id, None)
        if queued is not None:
            tracer.add_span("service.manager.queue_wait", queued,
                            time.perf_counter(), {"job": job_id})

    _patch_method(M, "_execute_one", tracer, "service.manager.job",
                  on_enter=execute_enter,
                  attrs=lambda a, k: {"job": a[2]})
    _patch_method(M, "result_doc", tracer, "service.manager.result",
                  attrs=lambda a, k: {"job": a[1]})


def _job_of(doc) -> str | None:
    from repro.service.jobs import JobSpec

    try:
        return JobSpec.from_doc(doc).job_id
    except Exception:  # noqa: BLE001 -- a bad spec has no job id
        return None
