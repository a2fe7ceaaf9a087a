"""The four wrapper styles: functional equivalence and policy differences."""

from __future__ import annotations

import pytest

from repro.core.compiler import CompilerOptions
from repro.core.equivalence import RTLShell, Stimulus, _build_single
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import synthesize_wrapper
from repro.core.wrappers import (
    WRAPPER_STYLES,
    CombinationalWrapper,
    FSMWrapper,
    ShiftRegisterWrapper,
    SPWrapper,
    make_wrapper,
)
from repro.lis.pearl import FunctionPearl, PearlError
from repro.lis.shell import ShellError
from repro.lis.simulator import Simulation
from repro.lis.stream import burst_gaps
from repro.lis.system import System

from tests.conftest import make_adder_pearl, make_passthrough_pearl


def _adder_system(shell_cls, schedule, gaps_a=None, gaps_b=None, **kw):
    pearl = make_adder_pearl(schedule)
    shell = shell_cls(pearl, **kw)
    system = System("t")
    system.add_patient(shell)
    system.connect_source("sa", range(100), shell, "a", gaps=gaps_a)
    system.connect_source(
        "sb", range(100, 200), shell, "b", latency=2, gaps=gaps_b
    )
    sink = system.connect_sink(shell, "y", "snk")
    return shell, sink, Simulation(system)


class TestFunctionalEquality:
    def test_sp_fsm_comb_same_outputs(self, simple_schedule):
        results = {}
        for name, cls in [
            ("sp", SPWrapper),
            ("fsm", FSMWrapper),
            ("comb", CombinationalWrapper),
        ]:
            _shell, sink, sim = _adder_system(cls, simple_schedule)
            sim.run(300)
            results[name] = list(sink.received)
        assert results["sp"] == results["fsm"]
        # The combinational wrapper computes the same stream, possibly
        # lagging (it over-synchronizes): must be a prefix.
        n = len(results["comb"])
        assert results["comb"] == results["sp"][:n]
        assert n >= len(results["sp"]) - 2
        assert results["sp"][:3] == [100, 102, 104]

    def test_sp_fsm_identical_cycle_behaviour(self, simple_schedule):
        """The paper: the SP is functionally equivalent to the FSM —
        same enables on the same cycles, not just same data."""
        traces = {}
        for name, cls in [("sp", SPWrapper), ("fsm", FSMWrapper)]:
            pearl = make_adder_pearl(simple_schedule)
            shell = cls(pearl)
            shell.trace_enable = []
            system = System("t")
            system.add_patient(shell)
            system.connect_source(
                "sa", range(60), shell, "a", gaps=burst_gaps(2, 1)
            )
            system.connect_source(
                "sb", range(60), shell, "b", gaps=burst_gaps(3, 2)
            )
            system.connect_sink(
                shell, "y", "snk", stalls=burst_gaps(4, 1)
            )
            Simulation(system).run(400)
            traces[name] = list(shell.trace_enable)
        assert traces["sp"] == traces["fsm"]

    def test_sp_with_narrow_counter_same_outputs(self, simple_schedule):
        _shell1, sink1, sim1 = _adder_system(SPWrapper, simple_schedule)
        _shell2, sink2, sim2 = _adder_system(
            SPWrapper,
            simple_schedule,
            options=CompilerOptions(run_width=1),
        )
        sim1.run(400)
        sim2.run(400)
        assert sink1.received == sink2.received


class TestOverSynchronization:
    def test_comb_wrapper_stalls_more_on_jitter(self, simple_schedule):
        """Carloni's wrapper tests all ports always; with one jittery
        input it must stall at least as much as the SP."""
        gaps = burst_gaps(1, 2)
        _sp, sink_sp, sim_sp = _adder_system(
            SPWrapper, simple_schedule, gaps_b=gaps
        )
        _cb, sink_cb, sim_cb = _adder_system(
            CombinationalWrapper, simple_schedule, gaps_b=gaps
        )
        r_sp = sim_sp.run(300)
        r_cb = sim_cb.run(300)
        assert (
            r_cb.shell_stalled["adder"] >= r_sp.shell_stalled["adder"]
        )
        assert len(sink_cb.received) <= len(sink_sp.received)

    def test_comb_equals_scheduled_on_uniform(self, uniform_1in_1out):
        """For a uniform schedule the combinational wrapper loses
        nothing — the regime Carloni designed for."""
        def run(cls):
            pearl = make_passthrough_pearl(uniform_1in_1out)
            shell = cls(pearl)
            system = System("u")
            system.add_patient(shell)
            system.connect_source("s", range(40), shell, "x")
            sink = system.connect_sink(shell, "y", "k")
            Simulation(system).run(200)
            return len(sink.received)

        assert run(CombinationalWrapper) == run(SPWrapper)


class TestShiftRegisterWrapper:
    def test_works_with_matched_pattern(self, simple_schedule):
        pattern = [False] * 3 + [True] * simple_schedule.period_cycles
        shell, sink, sim = _adder_system(
            ShiftRegisterWrapper, simple_schedule, pattern=pattern
        )
        sim.run(200)
        assert sink.received[:3] == [100, 102, 104]

    def test_raises_on_missing_input(self, simple_schedule):
        # Full-speed pattern but tokens arrive only every 3rd cycle.
        shell, _sink, sim = _adder_system(
            ShiftRegisterWrapper,
            simple_schedule,
            gaps_a=burst_gaps(1, 5),
        )
        with pytest.raises(ShellError):
            sim.run(200)

    def test_raises_on_output_backpressure(self, uniform_1in_1out):
        pearl = make_passthrough_pearl(uniform_1in_1out)
        shell = ShiftRegisterWrapper(
            pearl, pattern=[False, False] + [True]
        )
        system = System("bp")
        system.add_patient(shell)
        system.connect_source("s", range(50), shell, "x")
        system.connect_sink(
            shell, "y", "k", stalls=[True] + [False] * 9
        )
        with pytest.raises(ShellError):
            Simulation(system).run(300)

    def test_never_fires_pattern_rejected(self, simple_schedule):
        with pytest.raises(ShellError):
            ShiftRegisterWrapper(
                make_adder_pearl(simple_schedule), pattern=[False, False]
            )

    def test_partial_period_pattern_rejected(self, simple_schedule):
        with pytest.raises(ShellError):
            ShiftRegisterWrapper(
                make_adder_pearl(simple_schedule),
                pattern=[True] * (simple_schedule.period_cycles + 1),
            )


class TestLongSchedules:
    def test_wait_dominated_schedule(self, long_wait_schedule):
        collected = []

        def fn(index, popped):
            if index < 30:
                collected.append(popped["x"])
                return {}
            return {"y": sum(collected[-30:])}

        pearl = FunctionPearl("acc", long_wait_schedule, fn)
        shell = SPWrapper(pearl)
        system = System("acc")
        system.add_patient(shell)
        system.connect_source("s", range(90), shell, "x")
        sink = system.connect_sink(shell, "y", "k")
        Simulation(system).run(400)
        assert len(sink.received) >= 2
        assert sink.received[0] == sum(range(30))

    def test_periods_counted(self, long_wait_schedule):
        collected = []

        def fn(index, popped):
            if index < 30:
                collected.append(popped["x"])
                return {}
            return {"y": 0}

        shell = SPWrapper(FunctionPearl("acc", long_wait_schedule, fn))
        system = System("acc")
        system.add_patient(shell)
        system.connect_source("s", range(64), shell, "x")
        system.connect_sink(shell, "y", "k")
        Simulation(system).run(300)
        assert shell.periods_completed == 2


class TestFactory:
    def test_all_styles_constructible(self, simple_schedule):
        for style in WRAPPER_STYLES:
            shell = make_wrapper(style, make_adder_pearl(simple_schedule))
            assert shell.style == style

    def test_unknown_style_rejected(self, simple_schedule):
        with pytest.raises(ShellError):
            make_wrapper("quantum", make_adder_pearl(simple_schedule))

    def test_pearl_schedule_violation_detected(self, simple_schedule):
        def bad_fn(index, popped):
            return {"y": 1}  # pushes y at point 0 too

        pearl = FunctionPearl("bad", simple_schedule, bad_fn)
        shell = SPWrapper(pearl)
        system = System("bad")
        system.add_patient(shell)
        system.connect_source("sa", range(10), shell, "a")
        system.connect_source("sb", range(10), shell, "b")
        system.connect_sink(shell, "y", "k")
        with pytest.raises(PearlError):
            Simulation(system).run(50)

    def test_utilization_bounds(self, simple_schedule):
        shell, _sink, sim = _adder_system(SPWrapper, simple_schedule)
        sim.run(100)
        assert 0.0 < shell.utilization(100) <= 1.0


def _contract_shell(style, schedule):
    """A shell of ``style`` around a pearl that omits ``y`` at sync
    point 1 (``rtl-*`` styles as ``rtl-<kind>-<engine>``)."""
    pearl = FunctionPearl("bad", schedule, lambda index, popped: {})
    if style.startswith("rtl-"):
        _rtl, kind, engine = style.split("-")
        synth = synthesize_wrapper(schedule, kind)
        return RTLShell(
            pearl, synth.module, program=synth.program, engine=engine
        )
    if style == "shiftreg":
        # Idle one cycle so the first fire finds its input.
        return ShiftRegisterWrapper(pearl, prefix=[False])
    return make_wrapper(style, pearl)


class TestPearlContract:
    """One output-contract check, in the one firing protocol: every
    style raises the same error, with the same text, at the same
    cycle."""

    @pytest.mark.parametrize(
        "style",
        [
            "fsm",
            "sp",
            "combinational",
            "shiftreg",
            "rtl-sp-compiled",
            "rtl-sp-interp",
            "rtl-fsm-compiled",
            "rtl-fsm-interp",
        ],
    )
    def test_wrong_outputs_raise_pearl_error(self, simple_schedule, style):
        shell = _contract_shell(style, simple_schedule)
        stimulus = Stimulus(
            tokens={"a": list(range(10)), "b": list(range(10))}
        )
        system = _build_single(shell, stimulus, "contract")[0]
        with pytest.raises(PearlError) as caught:
            Simulation(system).run(30)
        assert type(caught.value) is PearlError
        assert str(caught.value) == (
            "pearl 'bad' cycle 3: sync point 1 produced [], "
            "schedule says ['y']"
        )
