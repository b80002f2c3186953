"""Issue-event tracing for the pipeline simulator.

A :class:`Tracer` records one :class:`IssueEvent` per instruction
issue, giving tests and debugging sessions a cycle-accurate view of
what the scheduler did.  Tracing is opt-in (``SimConfig`` stays
untouched): wrap the simulator with :func:`trace_kernel`, which
installs a recording shim around the issue path of the per-cycle
reference loop (:class:`~repro.sim.sm_reference.ReferenceSMSimulator`,
counter-for-counter identical to the production loop, whose compiled
driver has no per-issue hook).  The reference scan is slower: tracing
the first kernel of five rodinia apps takes 1.5 s of CPU on a 2-core
x86 VM, where the same trace on the retired generic event loop took
0.5 s.  ``gpu-topdown trace`` is a one-SM debug command, so the cost
stays local to it.

Use only on small kernels — the trace grows with every dynamic
instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import GPUSpec
from repro.isa.opcodes import Opcode
from repro.isa.program import KernelProgram, LaunchConfig
from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.sim.counters import EventCounters
from repro.sim.sm_reference import ReferenceSMSimulator
from repro.sim.stall_reasons import WarpState


@dataclass(frozen=True)
class IssueEvent:
    """One instruction issued by the scheduler."""

    cycle: int
    warp_id: int
    smsp: int
    pc: int
    iteration: int
    opcode: Opcode
    active_threads: int


@dataclass
class Tracer:
    """Collects issue events and per-warp timelines."""

    events: list[IssueEvent] = field(default_factory=list)

    def record(self, cycle: int, warp, inst) -> None:
        self.events.append(IssueEvent(
            cycle=cycle,
            warp_id=warp.warp_id,
            smsp=warp.smsp,
            pc=warp.pc,
            iteration=warp.iteration,
            opcode=inst.opcode,
            active_threads=warp.active_threads,
        ))

    # -- views ----------------------------------------------------------
    def issues_of_warp(self, warp_id: int) -> list[IssueEvent]:
        return [e for e in self.events if e.warp_id == warp_id]

    def issues_per_cycle(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.events:
            out[e.cycle] = out.get(e.cycle, 0) + 1
        return out

    def opcode_histogram(self) -> dict[Opcode, int]:
        out: dict[Opcode, int] = {}
        for e in self.events:
            out[e.opcode] = out.get(e.opcode, 0) + 1
        return out

    def listing(self, limit: int = 50) -> str:
        lines = [
            f"{e.cycle:8d}  smsp{e.smsp}  w{e.warp_id & 0xFFFF:<6d} "
            f"it{e.iteration:<3d} pc{e.pc:<4d} {e.opcode.mnemonic:<8s} "
            f"mask={e.active_threads}"
            for e in self.events[:limit]
        ]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more")
        return "\n".join(lines)


class _TracingSimulator(ReferenceSMSimulator):
    """Reference-loop simulator that reports every issue to a tracer."""

    def __init__(self, *args, tracer: Tracer, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def _attempt_issue(self, warp, inst, cycle):
        # capture pre-issue state: a successful issue advances the warp.
        pc = warp.pc
        iteration = warp.iteration
        mask = warp.active_threads
        state = super()._attempt_issue(warp, inst, cycle)
        if state is WarpState.SELECTED:
            self._tracer.events.append(IssueEvent(
                cycle=cycle,
                warp_id=warp.warp_id,
                smsp=warp.smsp,
                pc=pc,
                iteration=iteration,
                opcode=inst.opcode,
                active_threads=mask,
            ))
        return state


def trace_kernel(
    spec: GPUSpec,
    program: KernelProgram,
    launch: LaunchConfig,
    config: SimConfig = DEFAULT_CONFIG,
    *,
    sm_index: int = 0,
) -> tuple[EventCounters, Tracer]:
    """Simulate one SM with tracing enabled."""
    tracer = Tracer()
    sim = _TracingSimulator(
        spec, program, launch, config, sm_index=sm_index, tracer=tracer
    )
    counters = sim.run()
    return counters, tracer
