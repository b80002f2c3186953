"""Unit tests for Warp state transitions and EventCounters."""

import pytest

from repro.isa.opcodes import OpClass
from repro.sim.counters import EventCounters
from repro.sim.stall_reasons import ALL_STATES, STALL_STATES, WarpState
from repro.sim.warp import Warp


class TestWarpDivergence:
    def _warp(self):
        return Warp(warp_id=1, block_id=0, smsp=0)

    def test_if_only_region(self):
        w = self._warp()
        w.pc = 4
        w.enter_region(4, if_length=3, else_length=0, taken_fraction=0.25)
        assert w.active_threads == 8
        for expected in (8, 8, 8, 32):
            w.advance_pc(body_len=100, iterations=1)
            # mask applies through the region, reconverges after
            assert w.active_threads == expected or w.pc <= 5

    def test_if_else_region_phases(self):
        w = self._warp()
        w.pc = 0
        w.enter_region(0, if_length=2, else_length=2, taken_fraction=0.75)
        assert w.active_threads == 24
        w.advance_pc(100, 1)  # pc 1 (if)
        assert w.active_threads == 24
        w.advance_pc(100, 1)  # pc 2 (if done)
        w.advance_pc(100, 1)  # pc 3 -> else phase
        assert w.active_threads == 8
        w.advance_pc(100, 1)
        w.advance_pc(100, 1)
        assert w.active_threads == 32

    def test_zero_taken_clamps_to_one_thread(self):
        w = self._warp()
        w.enter_region(0, if_length=2, else_length=0, taken_fraction=0.0)
        assert w.active_threads == 1

    def test_wraparound_resets_region(self):
        w = self._warp()
        w.pc = 3
        w.enter_region(3, if_length=1, else_length=0, taken_fraction=0.5)
        at_exit = False
        for _ in range(10):
            at_exit = w.advance_pc(body_len=5, iterations=2)
            if at_exit:
                break
        assert at_exit
        assert w.active_threads == 32

    def test_advance_signals_exit(self):
        w = self._warp()
        assert not w.advance_pc(body_len=2, iterations=1)
        assert w.advance_pc(body_len=2, iterations=1)


class TestEventCounters:
    def test_state_taxonomy_complete(self):
        c = EventCounters()
        assert set(c.state_cycles) == set(ALL_STATES)
        assert WarpState.SELECTED not in STALL_STATES
        assert WarpState.NOT_SELECTED not in STALL_STATES
        assert len(STALL_STATES) == len(ALL_STATES) - 2

    def test_stall_fraction(self):
        c = EventCounters()
        c.warp_active_cycles = 200
        c.state_cycles[WarpState.BARRIER] = 50
        assert c.stall_fraction(WarpState.BARRIER) == pytest.approx(0.25)
        empty = EventCounters()
        assert empty.stall_fraction(WarpState.BARRIER) == 0.0

    def test_merge_accumulates(self):
        a, b = EventCounters(), EventCounters()
        a.inst_executed, b.inst_executed = 10, 20
        a.cycles_elapsed, b.cycles_elapsed = 100, 80
        a.state_cycles[WarpState.WAIT] = 5
        b.state_cycles[WarpState.WAIT] = 7
        a.inst_by_class[OpClass.FP32] = 3
        b.inst_by_class[OpClass.FP32] = 4
        a.merge(b)
        assert a.inst_executed == 30
        assert a.cycles_elapsed == 100   # max, not sum
        assert a.state_cycles[WarpState.WAIT] == 12
        assert a.inst_by_class[OpClass.FP32] == 7

    def test_validate_catches_inconsistency(self):
        c = EventCounters()
        c.inst_executed = 10
        c.inst_issued = 5      # issued < executed: impossible
        with pytest.raises(AssertionError):
            c.validate()

    def test_validate_state_conservation(self):
        c = EventCounters()
        c.warp_active_cycles = 10
        c.state_cycles[WarpState.SELECTED] = 4  # only 4 of 10 accounted
        with pytest.raises(AssertionError):
            c.validate()

    def test_total_stall_cycles(self):
        c = EventCounters()
        c.state_cycles[WarpState.SELECTED] = 100
        c.state_cycles[WarpState.NOT_SELECTED] = 50
        c.state_cycles[WarpState.WAIT] = 30
        c.state_cycles[WarpState.BARRIER] = 20
        assert c.total_stall_cycles == 50  # wait + barrier only
