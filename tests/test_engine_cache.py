"""Content fingerprints, the aliasing regression, and the persistent
simulation-result cache (write → reload → identical, corruption → miss).
"""

from __future__ import annotations

import json

import pytest

from repro.arch import get_gpu
from repro.core.analyzer import TopDownAnalyzer
from repro.core.tables import metric_names_for_level
from repro.errors import SimulationError
from repro.io.counters_json import counters_from_doc, counters_to_doc
from repro.isa import AccessKind, LaunchConfig, ProgramBuilder
from repro.profilers import tool_for
from repro.sim import (
    DEFAULT_CONFIG,
    GPUSimulator,
    SimConfig,
    SimResultCache,
    engine_context,
    fingerprint,
    sim_fingerprint,
)
from repro.sim.engine import current_engine
from repro.sim.fingerprint import content_digest, content_key
from repro.sim.result_cache import RESULT_SCHEMA
from repro.sim.specialize import SPECIALIZE_SCHEMA, specialization_key

from tests.conftest import build_stream_kernel


def _kernel(name="k", *, iterations=4, working_set=1 << 18):
    b = ProgramBuilder(name)
    b.pattern("x", AccessKind.STREAM, working_set_bytes=working_set)
    r0 = b.ldg("x")
    b.stg("x", b.ffma(r0, r0))
    return b.build(iterations=iterations)


LAUNCH = LaunchConfig(blocks=8, threads_per_block=128)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_equal_content(self, turing):
        a = _kernel()
        b = _kernel()
        assert a is not b
        assert sim_fingerprint(a, LAUNCH, turing, DEFAULT_CONFIG) == \
            sim_fingerprint(b, LAUNCH, turing, DEFAULT_CONFIG)

    @pytest.mark.parametrize("variant", [
        lambda: _kernel(iterations=5),
        lambda: _kernel(working_set=1 << 19),
        lambda: _kernel(name="other"),
    ])
    def test_differs_for_different_programs(self, turing, variant):
        base = sim_fingerprint(_kernel(), LAUNCH, turing, DEFAULT_CONFIG)
        assert sim_fingerprint(
            variant(), LAUNCH, turing, DEFAULT_CONFIG
        ) != base

    def test_differs_for_launch_spec_and_config(self, turing, pascal):
        prog = _kernel()
        base = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        assert sim_fingerprint(
            prog, LaunchConfig(blocks=9, threads_per_block=128),
            turing, DEFAULT_CONFIG,
        ) != base
        assert sim_fingerprint(prog, LAUNCH, pascal, DEFAULT_CONFIG) != base
        assert sim_fingerprint(
            prog, LAUNCH, turing, SimConfig(seed=1)
        ) != base

    def test_key_is_pinned(self, turing):
        """Persistent caches stay valid only while keys do: a change here
        needs a FINGERPRINT_SCHEMA bump."""
        assert sim_fingerprint(_kernel(), LAUNCH, turing, DEFAULT_CONFIG) \
            == "9d3c935a0a00f433df40918e40a77091d9bff9668cbaa16bfd20e42cd68fabd2"


class TestIdentityMemo:
    def test_equal_content_distinct_objects_get_the_digest(self, turing):
        config = SimConfig(seed=3)
        for prog in (_kernel(), _kernel()):  # content-equal, distinct
            parts = (prog, LAUNCH, turing, config)
            assert content_key(*parts) == content_digest(*parts)
            assert sim_fingerprint(*parts) == content_digest(*parts)

    def test_same_objects_are_encoded_once(self, turing, monkeypatch):
        prog, config = _kernel(), SimConfig(seed=4)
        first = sim_fingerprint(prog, LAUNCH, turing, config)

        def boom(_obj):
            raise AssertionError("memoized input re-canonicalized")

        monkeypatch.setattr(fingerprint, "canonicalize", boom)
        assert sim_fingerprint(prog, LAUNCH, turing, config) == first

    def test_specialization_key_is_the_digest(self, turing):
        prog = _kernel()
        config = SimConfig(scheduler="gto", dispatch_stall_rate=0.0)
        assert specialization_key(prog, turing, config) == content_digest(
            SPECIALIZE_SCHEMA, prog, turing, "gto",
            config.bank_conflict_rate > 0.0, False,
        )

    def test_memo_is_bounded(self, turing, monkeypatch):
        monkeypatch.setattr(fingerprint, "KEY_MEMO_MAX", 3)
        for seed in range(10):
            sim_fingerprint(_kernel(), LAUNCH, turing, SimConfig(seed=seed))
            assert len(fingerprint._ENCODINGS) <= 3


# ---------------------------------------------------------------------------
# engine memo scope
# ---------------------------------------------------------------------------

class TestEngineMemoScope:
    def test_default_engine_keeps_no_memo(self, turing):
        """Outside any engine_context the process-lifetime default engine
        simulates every launch its caller's simulators miss."""
        stats = current_engine().stats
        before = (stats.sim_calls, stats.memo_hits)
        for _ in range(2):
            GPUSimulator(turing).launch(_kernel(), LAUNCH)
        assert (stats.sim_calls, stats.memo_hits) == (
            before[0] + 2, before[1]
        )


# ---------------------------------------------------------------------------
# the id(program) aliasing regression (satellite fix)
# ---------------------------------------------------------------------------

class TestCacheAliasing:
    def test_equal_shaped_distinct_programs_do_not_collide(self, turing):
        """Two different programs with identical shape (same instruction
        count, same launch) must never serve each other's cached result
        — the failure mode of the old ``id(program)`` key after the
        allocator reuses a freed address."""
        sim = GPUSimulator(turing)
        small = sim.launch(_kernel(working_set=1 << 14), LAUNCH)
        large = sim.launch(_kernel(working_set=1 << 22), LAUNCH)
        # same geometry, very different working sets: hit rates differ.
        assert small.counters.l1_sector_hits != large.counters.l1_sector_hits

    def test_content_equal_programs_share_the_cached_result(
        self, turing, monkeypatch
    ):
        sim = GPUSimulator(turing)
        first = sim.launch(_kernel(), LAUNCH)

        def boom(*_a, **_k):  # any re-simulation is a cache failure
            raise AssertionError("content-equal launch re-simulated")

        monkeypatch.setattr(GPUSimulator, "launch_uncached", boom)
        again = sim.launch(_kernel(), LAUNCH)  # distinct object, equal content
        assert again is first

    def test_id_reuse_cannot_alias(self, turing):
        """Simulate the GC scenario directly: a program dies, a different
        program is allocated (possibly at the same address), and the
        simulator must re-simulate rather than reuse the stale entry."""
        sim = GPUSimulator(turing)
        results = []
        for ws in (1 << 14, 1 << 22, 1 << 14, 1 << 22):
            prog = _kernel(working_set=ws)  # old object freed each turn
            results.append(sim.launch(prog, LAUNCH).counters.l1_sector_hits)
            del prog
        assert results[0] == results[2]
        assert results[1] == results[3]
        assert results[0] != results[1]


# ---------------------------------------------------------------------------
# counters codec
# ---------------------------------------------------------------------------

class TestCountersCodec:
    def test_round_trip_exact(self, turing):
        result = GPUSimulator(turing).launch(build_stream_kernel(), LAUNCH)
        counters = result.per_sm[0]
        doc = json.loads(json.dumps(counters_to_doc(counters)))
        assert counters_from_doc(doc) == counters

    def test_malformed_docs_raise(self):
        with pytest.raises(SimulationError):
            counters_from_doc("not a dict")
        with pytest.raises(SimulationError):
            counters_from_doc({"inst_executed": 1})
        good = counters_to_doc(
            GPUSimulator(get_gpu("NVIDIA GTX 1070")).launch(
                _kernel(), LAUNCH
            ).per_sm[0]
        )
        bad = dict(good)
        bad["state_cycles"] = {"NO_SUCH_STATE": 3}
        with pytest.raises(SimulationError):
            counters_from_doc(bad)


# ---------------------------------------------------------------------------
# persistent result cache
# ---------------------------------------------------------------------------

class TestPersistentCache:
    def test_store_then_load_identical(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        result = GPUSimulator(turing).launch(prog, LAUNCH)
        cache.store(key, result)
        loaded = cache.load(key, prog, LAUNCH, turing)
        assert loaded is not None
        assert loaded.per_sm == result.per_sm
        assert loaded.duration_cycles == result.duration_cycles
        assert loaded.working_set_bytes == result.working_set_bytes
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_unknown_key(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        assert cache.load("ab" * 32, _kernel(), LAUNCH, turing) is None
        assert cache.stats.misses == 1

    def test_corrupted_entry_is_ignored(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, GPUSimulator(turing).launch(prog, LAUNCH))
        cache.path_for(key).write_text("{ truncated garbage")
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 1

    def test_old_schema_version_is_ignored(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, GPUSimulator(turing).launch(prog, LAUNCH))
        path = cache.path_for(key)
        doc = json.loads(path.read_text())
        assert doc["schema"] == RESULT_SCHEMA
        doc["schema"] = "repro/sim-result@0"
        path.write_text(json.dumps(doc))
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 1

    def test_engine_resimulates_and_heals_corrupt_entry(
        self, turing, tmp_path
    ):
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        with engine_context(cache_dir=tmp_path) as engine:
            baseline = GPUSimulator(turing).launch(prog, LAUNCH)
            assert engine.cache.stats.stores == 1
            engine.cache.path_for(key).write_text("garbage")
        with engine_context(cache_dir=tmp_path) as engine:
            healed = GPUSimulator(turing).launch(prog, LAUNCH)
            assert engine.cache.stats.corrupt == 1
            assert engine.cache.stats.stores == 1  # rewritten
        assert healed.per_sm == baseline.per_sm
        with engine_context(cache_dir=tmp_path) as engine:
            reloaded = GPUSimulator(turing).launch(prog, LAUNCH)
            assert engine.cache.stats.hits == 1
        assert reloaded.per_sm == baseline.per_sm


# ---------------------------------------------------------------------------
# cached analysis round trip (cache write → reload → identical result)
# ---------------------------------------------------------------------------

class TestWarmRunEquivalence:
    def test_topdown_result_identical_from_warm_cache(
        self, turing, tmp_path
    ):
        from repro.lint import bundled_suites

        app = bundled_suites()["synth"].get("stream_dram")
        metrics = metric_names_for_level(turing.compute_capability, 3)
        analyzer = TopDownAnalyzer(turing)

        def analyze():
            tool = tool_for(turing, config=SimConfig(seed=0))
            return analyzer.analyze_application(
                tool.profile_application(app, metrics)
            )

        baseline = analyze()
        with engine_context(cache_dir=tmp_path) as engine:
            cold = analyze()
            assert engine.cache.stats.stores > 0
        with engine_context(cache_dir=tmp_path) as engine:
            warm = analyze()
            assert engine.cache.stats.hits > 0
            assert engine.stats.sim_calls == 0
        assert cold.values == baseline.values
        assert warm.values == baseline.values
