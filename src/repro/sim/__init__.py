"""Cycle-level GPU hardware substrate.

This subpackage is the stand-in for the physical GPUs the paper
profiled: it executes synthetic kernel programs on a modelled SM
pipeline and produces the raw hardware events the PMU layer exposes.
"""

from repro.sim.address_gen import SECTOR_BYTES, AddressGenerator
from repro.sim.caches import MemoryHierarchy, SectorCache
from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.sim.counters import EventCounters
from repro.sim.engine import (
    ExecutionEngine,
    current_engine,
    engine_context,
    resolve_jobs,
)
from repro.sim.fingerprint import sim_fingerprint
from repro.sim.functional_units import DrainQueue, PipeSet
from repro.sim.gpu import GPUSimulator, KernelSimResult, simulate_kernel
from repro.sim.result_cache import SimResultCache
from repro.sim.sm import SMSimulator, make_sm_simulator
from repro.sim.stall_reasons import ALL_STATES, STALL_STATES, WarpState
from repro.sim.trace import IssueEvent, Tracer, trace_kernel
from repro.sim.warp import Warp

__all__ = [
    "ALL_STATES",
    "AddressGenerator",
    "make_sm_simulator",
    "DEFAULT_CONFIG",
    "DrainQueue",
    "EventCounters",
    "ExecutionEngine",
    "GPUSimulator",
    "IssueEvent",
    "Tracer",
    "trace_kernel",
    "KernelSimResult",
    "MemoryHierarchy",
    "PipeSet",
    "SECTOR_BYTES",
    "STALL_STATES",
    "SMSimulator",
    "SectorCache",
    "SimConfig",
    "SimResultCache",
    "Warp",
    "WarpState",
    "current_engine",
    "engine_context",
    "resolve_jobs",
    "sim_fingerprint",
    "simulate_kernel",
]
