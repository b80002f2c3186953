"""Cycle-level simulation of one streaming multiprocessor.

The model follows the paper's §III pipeline sketch: per sub-partition a
warp scheduler selects among resident warps, a dispatch unit issues at
most ``dispatch_units_per_subpartition`` instructions per cycle, a
scoreboard blocks instructions whose operands are in flight, and
functional units / memory queues provide the structural hazards.

Per cycle every resident warp is assigned exactly one
:class:`~repro.sim.stall_reasons.WarpState` — the invariant the PMU
metrics rely on (``Σ state_cycles == warp_active_cycles``).

Two cycle loops implement that model, counter for counter identical:

* :class:`SMSimulator` — the production loop.  Its cycle loop is a
  driver compiled per program by :mod:`repro.sim.specialize`;
  warps sleeping on a timed wait cost nothing until they wake, and
  cycles with no ready warp are skipped in bulk.
* :class:`~repro.sim.sm_reference.ReferenceSMSimulator` — the frozen
  per-cycle scan of the seed revision, kept as the behavioural
  oracle.  It inherits this class's construction and warp/block
  bookkeeping and brings its own loop and issue path.

:func:`make_sm_simulator` picks between them: a program the
specializer declines (:func:`repro.sim.specialize.check_supported`)
runs on the reference loop.  Bit-identity is pinned by
``tests/test_sim_equivalence.py``, ``tests/test_specialize.py`` and
the golden fixture ``tests/data/golden_sim_counters.json``.
"""

from __future__ import annotations

from repro.arch.spec import GPUSpec
from repro.errors import SimulationError
from repro.isa.opcodes import ALL_OP_CLASSES
from repro.isa.program import KernelProgram, LaunchConfig
from repro.obs.runtime import active_obs
from repro.sim.address_gen import AddressGenerator, build_generators
from repro.sim.caches import MemoryHierarchy, SectorCache
from repro.sim.config import SimConfig
from repro.sim.counters import EventCounters
from repro.sim.functional_units import DrainQueue, PipeSet
from repro.sim.rng import hash_u64
from repro.sim.stall_reasons import ALL_STATES
from repro.sim.warp import Warp

#: sentinel ready_cycle for barrier blocking (released by a sibling warp).
_BARRIER_WAIT = 1 << 60


class SMSimulator:
    """Simulates the blocks assigned to one SM and collects its events.

    Runs the program's compiled driver, so the program must be one the
    specializer accepts; :func:`make_sm_simulator` routes the others to
    the reference loop.
    """

    def __init__(
        self,
        spec: GPUSpec,
        program: KernelProgram,
        launch: LaunchConfig,
        config: SimConfig,
        *,
        sm_index: int = 0,
        blocks_assigned: int | None = None,
        shared_l2: SectorCache | None = None,
    ) -> None:
        if type(self).run is SMSimulator.run:
            # this object runs the compiled driver (a subclass with its
            # own run(), i.e. the reference loop, accepts any program).
            from repro.sim import specialize

            reason = specialize.check_supported(program, spec)
            if reason is not None:
                raise SimulationError(
                    f"kernel {program.name!r} cannot run on the compiled "
                    f"driver: {reason} (make_sm_simulator routes it to "
                    "the reference loop)"
                )
        self.spec = spec
        self.program = program
        self.launch = launch
        self.config = config
        self.sm_index = sm_index
        total = blocks_assigned
        if total is None:
            total = _blocks_for_sm(launch.blocks, spec.sm_count, sm_index)
        self.blocks_total = total

        self.counters = EventCounters()
        # the L2 is a device-level resource: when several SMs are
        # simulated they share one array, so inter-SM interference (and
        # constructive sharing) is real.  Per-SM statistics are taken as
        # deltas around this SM's run.
        l2 = shared_l2 if shared_l2 is not None else SectorCache(
            spec.memory.l2
        )
        self._l2_base = (l2.accesses, l2.hits)
        self.memory = MemoryHierarchy(
            l1=SectorCache(spec.memory.l1),
            l2=l2,
            constant=SectorCache(spec.memory.constant),
            dram_latency=spec.memory.dram_latency,
        )
        self.generators: dict[str, AddressGenerator] = build_generators(
            program.pattern_table, config.seed
        )
        n_smsp = spec.sm.subpartitions
        self.pipes = [PipeSet(spec.sm) for _ in range(n_smsp)]
        mem = spec.memory
        self.lg_queue = [DrainQueue(mem.lg_queue_entries) for _ in range(n_smsp)]
        # the MIO/TEX paths drain slower than the LG path (shared memory
        # and texture pipes are narrower), so sustained pressure backs
        # the queues up into mio/tex_throttle stalls.
        self.mio_queue = [
            DrainQueue(mem.mio_queue_entries, drain_interval=2)
            for _ in range(n_smsp)
        ]
        self.tex_queue = [
            DrainQueue(mem.tex_queue_entries, drain_interval=2)
            for _ in range(n_smsp)
        ]
        self.dispatch_busy_until = [0] * n_smsp

        # warp/block bookkeeping of the per-cycle reference loop (the
        # compiled driver keeps the same state in its own locals).
        self.warps: list[Warp] = []
        self.smsp_warps: list[list[Warp]] = [[] for _ in range(n_smsp)]
        self._rr: list[int] = [0] * n_smsp
        self._greedy: list[int] = [-1] * n_smsp  # GTO: last issued warp
        self._gto = config.scheduler == "gto"
        self._barrier_arrivals: dict[int, int] = {}
        self._block_live_warps: dict[int, int] = {}
        self._next_block = 0
        self._spawn_pending = 0
        self._exiting: set[int] = set()  # warp ids draining after EXIT

        # driver accumulators: plain lists indexed by the enums' int
        # ``idx`` (state cycles, op-class counts) plus the four
        # per-issue counters (issued, executed, thread_exec, replay),
        # folded into the EventCounters when run() finishes.
        self._sc = [0] * len(ALL_STATES)
        self._cls = [0] * len(ALL_OP_CLASSES)
        self._hot = [0, 0, 0, 0]
        # run() statistics, exported as obs metrics (docs/OBSERVABILITY.md).
        self._processed_cycles = 0
        self._skipped_cycles = 0
        self._wake_events = 0
        # inputs of the driver's per-warp roll tables: the shared prefix
        # of every pseudo-random roll, hash_u64(seed, warp_id) ==
        # mix64(_seed_acc ^ warp_id), and the hiccup rates.
        self._seed_acc = hash_u64(config.seed)
        self._bank_rate = config.bank_conflict_rate
        self._disp_rate = config.dispatch_stall_rate
        self._lsu_width = mem.lsu_sectors_per_cycle

        # i-cache pressure: probability that a fetch-group boundary misses.
        footprint = program.footprint_instructions
        capacity = spec.sm.icache_capacity_instructions
        over = max(0, footprint - capacity)
        self._fetch_miss_p = min(0.92, over / max(footprint, 1))
        self._fetch_group = spec.sm.fetch_group_size

        # resident-block limit: CUDA occupancy rules (warp slots, shared
        # memory, registers, block slots) capped by the config.
        from repro.arch.occupancy import KernelResources, theoretical_occupancy

        occupancy = theoretical_occupancy(
            spec, launch,
            KernelResources(
                registers_per_thread=program.registers_per_thread,
                shared_bytes_per_block=launch.shared_bytes_per_block,
            ),
        )
        self.occupancy = occupancy
        self.max_concurrent_blocks = max(
            1, min(occupancy.blocks_per_sm, config.max_resident_blocks)
        )

    # ------------------------------------------------------------------
    # block / warp management (used by the per-cycle reference loop)
    # ------------------------------------------------------------------
    def _spawn_block(self, cycle: int) -> None:
        """Make the next pending block resident and create its warps."""
        block_id = self._next_block
        self._next_block += 1
        wpb = self.launch.warps_per_block
        self._block_live_warps[block_id] = wpb
        self._barrier_arrivals[block_id] = 0
        base_id = (self.sm_index << 24) | (block_id << 8)
        fetch_latency = self.spec.sm.icache_miss_latency
        for w in range(wpb):
            smsp = (block_id * wpb + w) % self.spec.sm.subpartitions
            warp = Warp(warp_id=base_id + w, block_id=block_id, smsp=smsp)
            # cold instruction fetch, slightly staggered per warp.
            warp.ready_cycle = cycle + fetch_latency + (w & 3)
            self.warps.append(warp)
            self.smsp_warps[smsp].append(warp)
        self.counters.blocks_launched += 1
        self.counters.warps_launched += wpb

    def _retire_warp(self, warp: Warp, cycle: int) -> None:
        """Mark a warp exited; schedule replacement blocks lazily.

        ``_release_barrier`` comes from the loop that issues ``BAR``
        (the reference)."""
        warp.exited = True
        self._exiting.discard(warp.warp_id)
        block = warp.block_id
        remaining = self._block_live_warps[block] - 1
        self._block_live_warps[block] = remaining
        if remaining == 0:
            del self._block_live_warps[block]
            self._barrier_arrivals.pop(block, None)
            if self._next_block < self.blocks_total:
                self._spawn_pending += 1
        elif (
            self._barrier_arrivals.get(block, 0) >= remaining > 0
        ):
            # a warp exited while siblings wait at a barrier that is now
            # complete without it — release them.
            self._release_barrier(block, cycle)

    def _end_of_cycle_spawn(self, cycle: int) -> None:
        """Purge exited warps and make replacement blocks resident."""
        for lst in self.smsp_warps:
            lst[:] = [w for w in lst if not w.exited]
        self.warps = [w for w in self.warps if not w.exited]
        while self._spawn_pending > 0 and self._next_block < self.blocks_total:
            self._spawn_pending -= 1
            self._spawn_block(cycle + 1)
        self._spawn_pending = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> EventCounters:
        """Simulate until every assigned block completes; return events.

        Counter-for-counter identical to
        :class:`~repro.sim.sm_reference.ReferenceSMSimulator`.
        """
        c = self.counters
        if self.blocks_total == 0:
            return c
        try:
            self._run_loop()
        finally:
            # fold the list-indexed driver accumulators into the
            # enum-keyed counter dicts, also when the loop raises
            # (deadlock / max_cycles) so partial counters stay sane.
            self._fold_fast_counters()
        # copy memory-system statistics into the counter record.
        c.l1_sector_accesses = self.memory.l1.accesses
        c.l1_sector_hits = self.memory.l1.hits
        c.l2_sector_accesses = self.memory.l2.accesses - self._l2_base[0]
        c.l2_sector_hits = self.memory.l2.hits - self._l2_base[1]
        c.constant_accesses = self.memory.constant.accesses
        c.constant_hits = self.memory.constant.hits
        c.dram_accesses = self.memory.dram_accesses
        c.validate()
        self._record_obs_metrics()
        return c

    def _run_loop(self) -> None:
        """Run the program's compiled driver (looked up per run, so the
        driver cache and its metrics see every run)."""
        from repro.sim import specialize

        specialize.driver_for(self.program, self.spec, self.config).drive(self)

    def _fold_fast_counters(self) -> None:
        """Fold ``_sc`` / ``_cls`` / ``_hot`` into the EventCounters."""
        c = self.counters
        for state, n in zip(ALL_STATES, self._sc):
            if n:
                c.state_cycles[state] += n
        self._sc = [0] * len(ALL_STATES)
        for op_class, n in zip(ALL_OP_CLASSES, self._cls):
            if n:
                c.inst_by_class[op_class] += n
        self._cls = [0] * len(ALL_OP_CLASSES)
        hot = self._hot
        c.inst_issued += hot[0]
        c.inst_executed += hot[1]
        c.thread_inst_executed += hot[2]
        c.replay_transactions += hot[3]
        self._hot = [0, 0, 0, 0]

    def _record_obs_metrics(self) -> None:
        """Export loop statistics as deterministic obs counters.

        Safe under the counters determinism contract: how many cycles
        the loop processed / skipped and how many warp wake-ups it
        served are pure functions of the inputs and the seed — nothing
        host-order or clock dependent (docs/OBSERVABILITY.md).
        """
        metrics = active_obs().metrics
        if metrics.enabled:
            metrics.inc("sim.processed_cycles", self._processed_cycles)
            metrics.inc("sim.skipped_cycles", self._skipped_cycles)
            metrics.inc("sim.wake_events", self._wake_events)


def make_sm_simulator(spec: GPUSpec, program: KernelProgram,
                      launch: LaunchConfig, config: SimConfig,
                      **kwargs) -> SMSimulator:
    """Construct the simulator for one SM of a launch.

    The factory behind every plain simulation entry point
    (:meth:`GPUSimulator.launch_uncached`'s serial path and the
    engine's per-SM pool task).  A program the specializer accepts runs
    on :class:`SMSimulator`; one it declines runs on the frozen
    reference loop, visibly: a ``sim.specialize_fallbacks`` count and a
    ``sim.specialize_fallback`` trace instant per SM run.
    """
    from repro.sim import specialize

    reason = specialize.check_supported(program, spec)
    if reason is None:
        return SMSimulator(spec, program, launch, config, **kwargs)
    obs = active_obs()
    if obs.metrics.enabled:
        obs.metrics.inc("sim.specialize_fallbacks")
    obs.tracer.instant(
        "sim.specialize_fallback", cat="sim",
        kernel=program.name, reason=reason,
    )
    from repro.sim.sm_reference import ReferenceSMSimulator

    return ReferenceSMSimulator(spec, program, launch, config, **kwargs)


def _blocks_for_sm(total_blocks: int, sm_count: int, sm_index: int) -> int:
    """Blocks landing on ``sm_index`` under round-robin distribution."""
    base = total_blocks // sm_count
    return base + (1 if sm_index < total_blocks % sm_count else 0)
