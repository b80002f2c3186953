"""The compiled-driver production loop: bit-identity, caching, fallback.

The perf claim lives in ``benchmarks/test_bench_simcore.py``; this
file pins the *correctness* half of the contract:

* randomized and directed kernels produce counters bit-identical to
  the frozen reference scan (and the specializer accepts — does not
  silently fall back on — every shape it claims to support);
* the numpy-vectorized roll tables match the scalar SplitMix64 path
  bit for bit;
* programs at the specializer's decline boundaries run bit-identically
  to the reference on either side of each limit; declined ones run on
  the reference loop itself, with the fallback visible in
  observability, and the production class refuses them outright;
* the driver cache (in-process + persisted source) and the per-run
  table cache behave: hits/misses counted, corrupt persisted sources
  regenerated, reuse bit-identical;
* the engine threads the persisted-source directory through.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.arch import get_gpu
from repro.errors import SimulationError
from repro.io.counters_json import counters_to_doc
from repro.isa import AccessKind, Instruction, LaunchConfig, ProgramBuilder
from repro.isa.instruction import MemoryRef
from repro.isa.opcodes import Opcode
from repro.obs.runtime import obs_context
from repro.sim import SimConfig
from repro.sim.caches import SectorCache
from repro.sim.gpu import GPUSimulator
from repro.sim.rng import mix64
from repro.sim.sm import SMSimulator, make_sm_simulator
from repro.sim.sm_reference import ReferenceSMSimulator
from repro.sim.specialize import (
    MAX_BODY_LEN,
    MAX_DYNAMIC_TOKENS,
    MAX_REGISTER_ID,
    check_supported,
    clear_driver_cache,
    driver_for,
    source_dir,
    specialization_key,
)
from tests.test_property_sim import small_programs

SPEC = get_gpu("rtx4000")


def _run(cls, program, launch, config, **kw):
    return cls(SPEC, program, launch, config, **kw).run()


def _assert_identical(spz, ref, label):
    if counters_to_doc(spz) != counters_to_doc(ref):
        detail = "\n".join(spz.diff(ref)) or "(doc-level difference)"
        pytest.fail(f"{label}: specialized diverged\n{detail}")


# ----------------------------------------------------------------------
# directed kernels: the semantics the codegen had to preserve
# ----------------------------------------------------------------------
def _barrier_drain_kernel():
    b = ProgramBuilder("barrier_drain")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 20,
              stride_elements=4)
    r = b.ldg("x")
    b.barrier()
    r = b.ffma(r, r)
    b.sts("x", r)
    b.membar()
    b.stg("x", r)
    return b.build(iterations=6)


def _divergence_kernel():
    b = ProgramBuilder("divergent")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 22,
              stride_elements=32)
    r = b.ldg("x")
    b.branch(if_length=2, else_length=1, taken_fraction=0.7)
    r = b.ffma(r, r)
    b.stg("x", r)
    b.imad(r, r)
    return b.build(iterations=5)


def _constant_kernel():
    b = ProgramBuilder("const_reads")
    b.pattern("c", AccessKind.UNIFORM, working_set_bytes=1 << 16)
    r = b.ldc("c")
    r = b.imad(r, r)
    b.stg("c", r)
    return b.build(iterations=10)


DIRECTED = {
    "barrier_drain": _barrier_drain_kernel,
    "divergent": _divergence_kernel,
    "const_reads": _constant_kernel,
}


@pytest.mark.parametrize("kernel", sorted(DIRECTED))
@pytest.mark.parametrize("scheduler", ["gto", "lrr"])
def test_directed_cases_match_reference(kernel, scheduler):
    program = DIRECTED[kernel]()
    for seed in (0, 7):
        for blocks, tpb in ((3, 128), (9, 256), (1, 32)):
            launch = LaunchConfig(blocks=blocks, threads_per_block=tpb)
            config = SimConfig(seed=seed, scheduler=scheduler)
            assert check_supported(program, SPEC) is None
            kw = dict(blocks_assigned=blocks)
            ref = _run(ReferenceSMSimulator, program, launch, config,
                       **kw)
            spz = _run(SMSimulator, program, launch, config,
                       **kw)
            _assert_identical(
                spz, ref, f"{kernel}/{scheduler}/s{seed}/{blocks}x{tpb}"
            )
            spz.validate()


@given(
    program=small_programs(),
    blocks=st.sampled_from([1, 5, 17]),
    tpb=st.sampled_from([32, 96, 256]),
    scheduler=st.sampled_from(["gto", "lrr"]),
    seed=st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_random_kernels_match_reference(program, blocks, tpb, scheduler,
                                        seed):
    launch = LaunchConfig(blocks=blocks, threads_per_block=tpb)
    config = SimConfig(seed=seed, scheduler=scheduler)
    # every generated shape must be *accepted*: a silent fallback here
    # would make the equivalence claim vacuous.
    assert check_supported(program, SPEC) is None
    spz = _run(SMSimulator, program, launch, config,
               blocks_assigned=blocks)
    ref = _run(ReferenceSMSimulator, program, launch, config,
               blocks_assigned=blocks)
    _assert_identical(spz, ref, f"{program.name}/{scheduler}")
    spz.validate()


def _reference_shared_l2(program, launch, config):
    """The serial share_l2 path of GPUSimulator.launch_uncached, with
    every SM on the reference loop."""
    l2 = SectorCache(SPEC.memory.l2)
    return [
        counters_to_doc(ReferenceSMSimulator(
            SPEC, program, launch, config, sm_index=i, shared_l2=l2,
        ).run())
        for i in range(config.simulated_sms)
    ]


def test_shared_l2_serial_path_matches_reference():
    """share_l2 launches take the serial path; the inline L1/L2 probe
    must mutate the *shared* cache exactly like the reference loop."""
    program = _divergence_kernel()
    launch = LaunchConfig(blocks=6, threads_per_block=128)
    config = SimConfig(seed=3, share_l2=True, simulated_sms=2)
    result = GPUSimulator(SPEC, config).launch_uncached(program, launch)
    assert [counters_to_doc(c) for c in result.per_sm] == (
        _reference_shared_l2(program, launch, config)
    )


# ----------------------------------------------------------------------
# numpy roll tables vs the scalar SplitMix64 path
# ----------------------------------------------------------------------
def test_numpy_rolls_bit_identical_to_scalar():
    from repro.sim.specialize import _mix64_np, _u01_np

    xs = [0, 1, 2, 1 << 63, (1 << 64) - 1, 0xDEADBEEF]
    xs += [mix64(i * 977) for i in range(64)]
    arr = np.array(xs, dtype=np.uint64)
    mixed = _mix64_np(arr)
    for i, x in enumerate(xs):
        assert int(mixed[i]) == mix64(x)
    u = _u01_np(mixed)
    for i, x in enumerate(xs):
        assert float(u[i]) == mix64(x) / float(1 << 64)


# ----------------------------------------------------------------------
# decline boundaries: the reference loop runs what the driver declines
# ----------------------------------------------------------------------
def _body_kernel(n):
    """A load, ``n - 2`` dependent ALU ops and a store: body length n."""
    b = ProgramBuilder(f"body{n}")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 20,
              stride_elements=4)
    r = b.ldg("x")
    for i in range(n - 2):
        r = b.ffma(r, r) if i % 3 else b.iadd(r)
    b.stg("x", r)
    return b.build(iterations=1)


def _tokens_kernel(iterations):
    """A one-instruction ALU body: ``iterations`` dynamic tokens (no
    memory traffic, so the reference runs of 64k tokens stay cheap)."""
    b = ProgramBuilder(f"tokens{iterations}")
    b.iadd()
    return b.build(iterations=iterations)


def _register_kernel(reg):
    """Load into register ``reg`` and consume it: highest id is reg."""
    b = ProgramBuilder(f"reg{reg}")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 20,
              stride_elements=8)
    b.emit(Instruction(Opcode.LDG, dst=reg, mem=MemoryRef(pattern="x")))
    r = b.ffma(reg, reg)
    b.stg("x", r)
    return b.build(iterations=4)


#: limit -> (program exactly at it, program one step past it, blocks).
#: The 64k-token programs launch one block: a reference run of one warp
#: over 64k tokens already takes about a second.
BOUNDARIES = {
    "MAX_BODY_LEN": (lambda: _body_kernel(MAX_BODY_LEN),
                     lambda: _body_kernel(MAX_BODY_LEN + 1), 2),
    "MAX_DYNAMIC_TOKENS": (lambda: _tokens_kernel(MAX_DYNAMIC_TOKENS),
                           lambda: _tokens_kernel(MAX_DYNAMIC_TOKENS + 1),
                           1),
    "MAX_REGISTER_ID": (lambda: _register_kernel(MAX_REGISTER_ID - 1),
                        lambda: _register_kernel(MAX_REGISTER_ID), 2),
}


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
@pytest.mark.parametrize("limit", sorted(BOUNDARIES))
def test_decline_boundary_matches_reference(limit, past):
    program = BOUNDARIES[limit][past]()
    launch = LaunchConfig(blocks=BOUNDARIES[limit][2], threads_per_block=32)
    config = SimConfig(seed=1)
    reason = check_supported(program, SPEC)
    assert (reason is not None) == past, reason

    # plain: one SM through the factory vs the reference loop.
    with obs_context(enabled=True) as obs:
        sim = make_sm_simulator(SPEC, program, launch, config)
        counters = sim.run()
        assert obs.metrics.counter("sim.specialize_fallbacks") == int(past)
    assert type(sim) is (ReferenceSMSimulator if past else SMSimulator)
    ref = ReferenceSMSimulator(SPEC, program, launch, config).run()
    _assert_identical(counters, ref, f"{limit}/{'past' if past else 'at'}")

    # share_l2: both SMs on one L2, through the serial launch path.
    shared = SimConfig(seed=1, share_l2=True, simulated_sms=2)
    with obs_context(enabled=True) as obs:
        result = GPUSimulator(SPEC, shared).launch_uncached(program, launch)
        assert obs.metrics.counter("sim.specialize_fallbacks") == (
            2 if past else 0
        )
    assert [counters_to_doc(c) for c in result.per_sm] == (
        _reference_shared_l2(program, launch, shared)
    )


def test_declined_program_falls_back_bit_identical():
    program = _body_kernel(MAX_BODY_LEN + 1)
    launch = LaunchConfig(blocks=1, threads_per_block=32)
    config = SimConfig(seed=0)
    reason = check_supported(program, SPEC)
    assert reason is not None and "body length" in reason
    with obs_context(enabled=True) as obs:
        sim = make_sm_simulator(SPEC, program, launch, config)
        assert type(sim) is ReferenceSMSimulator
        fallback = sim.run()
        assert obs.metrics.counter("sim.specialize_fallbacks") == 1
    ref = _run(ReferenceSMSimulator, program, launch, config)
    assert counters_to_doc(fallback) == counters_to_doc(ref)


def test_production_class_refuses_declined_program():
    program = _tokens_kernel(MAX_DYNAMIC_TOKENS + 1)
    launch = LaunchConfig(blocks=1, threads_per_block=32)
    with pytest.raises(SimulationError, match="dynamic length"):
        SMSimulator(SPEC, program, launch, SimConfig(seed=0))


# ----------------------------------------------------------------------
# driver cache: metrics, persistence, table reuse
# ----------------------------------------------------------------------
def test_driver_cache_hit_miss_metrics():
    program = _constant_kernel()
    config = SimConfig(seed=0)
    clear_driver_cache()
    try:
        with obs_context(enabled=True) as obs:
            d1 = driver_for(program, SPEC, config)
            d2 = driver_for(program, SPEC, config)
            assert d1 is d2
            assert obs.metrics.counter("sim.specialize_misses") == 1
            assert obs.metrics.counter("sim.specialize_hits") == 1
    finally:
        clear_driver_cache()


def test_source_persistence_roundtrip(tmp_path):
    program = _divergence_kernel()
    config = SimConfig(seed=1)
    launch = LaunchConfig(blocks=2, threads_per_block=64)
    key = specialization_key(program, SPEC, config)
    path = tmp_path / f"{key}.py"
    clear_driver_cache()
    try:
        with source_dir(tmp_path):
            first = _run(SMSimulator, program, launch, config)
            assert path.is_file(), "generated source not persisted"
            text = path.read_text(encoding="utf-8")

            # a fresh process (simulated by clearing the in-process
            # cache) loads the persisted source instead of re-running
            # codegen, bit-identically.
            clear_driver_cache()
            again = _run(SMSimulator, program, launch, config)
            assert counters_to_doc(again) == counters_to_doc(first)

            # a corrupt persisted source (truncated write, not valid
            # python) is regenerated, not trusted.
            path.write_text("def drive(sim:\n    (", encoding="utf-8")
            clear_driver_cache()
            healed = _run(SMSimulator, program, launch,
                          config)
            assert counters_to_doc(healed) == counters_to_doc(first)
            assert path.read_text(encoding="utf-8") == text

            # ...as is one that parses but lacks the entry point.
            path.write_text("x = 1\n", encoding="utf-8")
            clear_driver_cache()
            healed = _run(SMSimulator, program, launch,
                          config)
            assert counters_to_doc(healed) == counters_to_doc(first)
            assert path.read_text(encoding="utf-8") == text
    finally:
        clear_driver_cache()


def test_runtime_table_cache_reused_across_runs():
    program = DIRECTED["barrier_drain"]()
    launch = LaunchConfig(blocks=4, threads_per_block=128)
    config = SimConfig(seed=5)
    clear_driver_cache()
    try:
        first = _run(SMSimulator, program, launch, config)
        driver = driver_for(program, SPEC, config)
        assert driver.tables_cache, "per-run table cache not populated"
        keys = set(driver.tables_cache)
        again = _run(SMSimulator, program, launch, config)
        assert set(driver.tables_cache) == keys
        assert counters_to_doc(again) == counters_to_doc(first)
    finally:
        clear_driver_cache()


# ----------------------------------------------------------------------
# engine plumbing
# ----------------------------------------------------------------------
def test_engine_context_threads_source_dir(tmp_path):
    from repro.sim import specialize
    from repro.sim.engine import engine_context

    with engine_context(jobs=1, cache_dir=tmp_path):
        assert specialize._SOURCE_DIR == tmp_path / "specialized"
    assert specialize._SOURCE_DIR is None
