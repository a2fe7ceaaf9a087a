"""Behavioural SP: the three-state CFSMD semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.processor import SPState, SyncProcessor
from repro.core.schedule import IOSchedule, SyncPoint


def _processor(points, run_width=None, inputs=("a", "b"), outputs=("y",)):
    schedule = IOSchedule(inputs, outputs, points)
    options = CompilerOptions(run_width=run_width) if run_width else None
    return SyncProcessor(compile_schedule(schedule, options))


ALL_READY_IN = 0b11
ALL_READY_OUT = 0b1


class TestResetState:
    def test_first_cycle_is_reset(self):
        sp = _processor([SyncPoint({"a"})])
        action = sp.step(ALL_READY_IN, ALL_READY_OUT)
        assert action.state is SPState.RESET
        assert not action.enable
        assert sp.state is SPState.READ_OP

    def test_reset_returns_to_power_up(self):
        sp = _processor([SyncPoint({"a"}, run=3)])
        power_up = sp.save_state()
        first = sp.step(ALL_READY_IN, ALL_READY_OUT)
        sp.step(ALL_READY_IN, ALL_READY_OUT)
        sp.load_state(power_up)
        assert sp.state is SPState.RESET
        assert sp.addr == 0
        assert sp.cycles == 0
        assert sp.step(ALL_READY_IN, ALL_READY_OUT) == first


class TestReadOpState:
    def test_stalls_until_ready(self):
        sp = _processor([SyncPoint({"a"})])
        sp.step(0, 0)  # reset
        for _ in range(5):
            action = sp.step(0b10, ALL_READY_OUT)  # wrong port ready
            assert action.stalled
        action = sp.step(0b01, ALL_READY_OUT)
        assert action.enable
        assert action.pop_mask == 0b01

    def test_output_backpressure_stalls(self):
        sp = _processor([SyncPoint(set(), {"y"})])
        sp.step(0, 0)
        action = sp.step(ALL_READY_IN, 0)
        assert action.stalled
        action = sp.step(ALL_READY_IN, 1)
        assert action.enable
        assert action.push_mask == 1

    def test_unconditional_op_fires_immediately(self):
        sp = _processor([SyncPoint(run=2)])
        sp.step(0, 0)
        action = sp.step(0, 0)
        assert action.enable

    def test_masked_ports_only(self):
        # Port b not ready must not block an op waiting on a.
        sp = _processor([SyncPoint({"a"})])
        sp.step(0, 0)
        action = sp.step(0b01, 0)  # y full, b empty: irrelevant
        assert action.enable

    def test_addr_advances_modulo(self):
        sp = _processor([SyncPoint({"a"}), SyncPoint({"b"})])
        sp.step(0, 0)
        assert sp.addr == 0
        sp.step(ALL_READY_IN, ALL_READY_OUT)
        assert sp.addr == 1
        sp.step(ALL_READY_IN, ALL_READY_OUT)
        assert sp.addr == 0
        assert sp.periods_completed == 1


class TestFreeRunState:
    def test_run_cycles_unconditional(self):
        sp = _processor([SyncPoint({"a"}, run=3)])
        sp.step(0, 0)  # reset
        sp.step(ALL_READY_IN, ALL_READY_OUT)  # fire
        for _ in range(3):
            action = sp.step(0, 0)  # nothing ready: still enabled
            assert action.enable
            assert action.state is SPState.FREE_RUN
            assert action.pop_mask == 0
        assert sp.state is SPState.READ_OP

    def test_enabled_cycles_accounting(self):
        sp = _processor([SyncPoint({"a"}, run=4)])
        sp.step(0, 0)
        for _ in range(10):
            sp.step(ALL_READY_IN, ALL_READY_OUT)
        # Period = 5 enabled cycles; 10 steps = 2 periods.
        assert sp.enabled_cycles == 10
        assert sp.periods_completed == 2

    def test_zero_run_stays_in_read(self):
        sp = _processor([SyncPoint({"a"}), SyncPoint({"b"})])
        sp.step(0, 0)
        sp.step(ALL_READY_IN, ALL_READY_OUT)
        assert sp.state is SPState.READ_OP


class TestContinuationOps:
    def test_split_program_execution(self):
        sp = _processor([SyncPoint({"a"}, run=10)], run_width=2)
        sp.step(0, 0)
        enabled = 0
        for _ in range(30):
            if sp.step(ALL_READY_IN, ALL_READY_OUT).enable:
                enabled += 1
        assert enabled >= 22  # two periods of 11 enabled cycles

    def test_continuation_does_not_pop(self):
        sp = _processor([SyncPoint({"a"}, run=10)], run_width=2)
        sp.step(0, 0)
        pops = 0
        for _ in range(11):  # exactly one period (1 + 10 enabled cycles)
            action = sp.step(ALL_READY_IN, ALL_READY_OUT)
            if action.pop_mask:
                pops += 1
        assert pops == 1  # only the head op pops


class TestTrace:
    def test_trace_length(self):
        sp = _processor([SyncPoint({"a"}, run=1)])
        actions = sp.trace(ALL_READY_IN, ALL_READY_OUT, 10)
        assert len(actions) == 10
        assert sp.cycles == 10

    def test_current_op_property(self):
        sp = _processor([SyncPoint({"a"}), SyncPoint({"b"})])
        assert sp.current_op.in_mask == 0b01
        sp.step(0, 0)
        sp.step(ALL_READY_IN, ALL_READY_OUT)
        assert sp.current_op.in_mask == 0b10


class TestThroughputInvariants:
    @given(
        st.lists(st.integers(0, 3), min_size=30, max_size=120),
        st.integers(0, 5),
    )
    @settings(max_examples=50)
    def test_never_pops_unready_port(self, readiness, run):
        sp = _processor([SyncPoint({"a"}, run=run), SyncPoint({"b"}, {"y"})])
        for word in readiness:
            in_ready = word & 0b11
            out_ready = (word >> 1) & 1
            action = sp.step(in_ready, out_ready)
            # A pop strobe implies the port was ready this cycle.
            assert action.pop_mask & ~in_ready == 0
            assert action.push_mask & ~out_ready == 0

    @given(st.integers(1, 20))
    @settings(max_examples=30)
    def test_full_throughput_periods(self, n_periods):
        sp = _processor([SyncPoint({"a"}, run=2), SyncPoint({"b"}, {"y"})])
        period = 4  # (a + 2 run cycles) + (b/y sync)
        sp.step(0, 0)  # reset
        for _ in range(n_periods * period):
            sp.step(ALL_READY_IN, ALL_READY_OUT)
        assert sp.periods_completed == n_periods
