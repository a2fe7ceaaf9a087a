"""RTL-in-the-loop equivalence: generated wrappers vs behavioural shells."""

from __future__ import annotations

import pytest

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.equivalence import (
    EquivalenceError,
    RTLShell,
    Stimulus,
    _build_single,
    co_simulate,
)
from repro.core.operations import Operation, SPProgram
from repro.core.rtlgen import (
    generate_comb_wrapper,
    generate_fsm_wrapper,
    generate_shiftreg_wrapper,
    generate_sp_wrapper,
)
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import FSMWrapper, SPWrapper
from repro.lis.simulator import Simulation
from repro.lis.stream import burst_gaps
from repro.rtl.ast import Const
from repro.rtl.module import Assign

from tests.conftest import make_adder_pearl, make_passthrough_pearl


JITTERY = Stimulus(
    tokens={"a": list(range(60)), "b": list(range(100, 160))},
    gaps={"a": burst_gaps(2, 1), "b": burst_gaps(3, 2)},
    stalls={"y": burst_gaps(5, 1)},
    in_latency={"b": 2},
)


class TestSPEquivalence:
    def test_sp_rtl_equals_behavioural(self, simple_schedule):
        program = compile_schedule(simple_schedule)
        module = generate_sp_wrapper(program, schedule=simple_schedule)
        result = co_simulate(
            SPWrapper(make_adder_pearl(simple_schedule)),
            RTLShell(
                make_adder_pearl(simple_schedule), module, program=program
            ),
            JITTERY,
            500,
        )
        assert result.traces_match
        assert result.outputs_match
        assert len(result.outputs_a["y"]) > 10

    def test_sp_rtl_with_continuations(self, simple_schedule):
        options = CompilerOptions(run_width=1)
        program = compile_schedule(simple_schedule, options)
        assert any(not op.is_head for op in program.ops)
        module = generate_sp_wrapper(program, schedule=simple_schedule)
        result = co_simulate(
            SPWrapper(make_adder_pearl(simple_schedule), options=options),
            RTLShell(
                make_adder_pearl(simple_schedule), module, program=program
            ),
            JITTERY,
            500,
        )
        assert result.traces_match
        assert result.outputs_match

    def test_wait_heavy_schedule(self, long_wait_schedule):
        from repro.lis.pearl import FunctionPearl

        def make_pearl():
            buf = []

            def fn(index, popped):
                if index < 30:
                    buf.append(popped["x"])
                    return {}
                return {"y": sum(buf[-30:])}

            return FunctionPearl("acc", long_wait_schedule, fn)

        program = compile_schedule(long_wait_schedule)
        module = generate_sp_wrapper(program, schedule=long_wait_schedule)
        stim = Stimulus(
            tokens={"x": list(range(120))},
            gaps={"x": burst_gaps(4, 1)},
        )
        result = co_simulate(
            SPWrapper(make_pearl()),
            RTLShell(make_pearl(), module, program=program),
            stim,
            600,
        )
        assert result.traces_match
        assert result.outputs_match


class TestFSMEquivalence:
    @pytest.mark.parametrize("encoding", ["binary", "onehot"])
    def test_fsm_rtl_equals_behavioural(self, simple_schedule, encoding):
        module = generate_fsm_wrapper(simple_schedule, encoding=encoding)
        result = co_simulate(
            FSMWrapper(make_adder_pearl(simple_schedule)),
            RTLShell(make_adder_pearl(simple_schedule), module),
            JITTERY,
            500,
        )
        assert result.traces_match
        assert result.outputs_match

    def test_sp_rtl_equals_fsm_rtl(self, simple_schedule):
        """The paper's functional-equivalence claim, at the RTL level."""
        program = compile_schedule(simple_schedule)
        sp_module = generate_sp_wrapper(program, schedule=simple_schedule)
        fsm_module = generate_fsm_wrapper(simple_schedule)
        result = co_simulate(
            RTLShell(
                make_adder_pearl(simple_schedule),
                sp_module,
                program=program,
            ),
            RTLShell(make_adder_pearl(simple_schedule), fsm_module),
            JITTERY,
            500,
        )
        # SP spends one extra power-up cycle in RESET: traces may be
        # shifted by one stall; outputs must agree exactly.
        assert result.outputs_match
        assert sum(result.enable_a) == pytest.approx(
            sum(result.enable_b), abs=1
        )


class TestCombShiftregRTL:
    def test_comb_rtl_on_uniform_schedule(self, uniform_1in_1out):
        module = generate_comb_wrapper(uniform_1in_1out)
        from repro.core.wrappers import CombinationalWrapper

        stim = Stimulus(
            tokens={"x": list(range(40))},
            gaps={"x": burst_gaps(3, 1)},
        )
        result = co_simulate(
            CombinationalWrapper(make_passthrough_pearl(uniform_1in_1out)),
            RTLShell(make_passthrough_pearl(uniform_1in_1out), module),
            stim,
            300,
        )
        assert result.traces_match
        assert result.outputs_match

    def test_shiftreg_rtl_on_steady_stream(self, uniform_1in_1out):
        # Activation delayed so the pipeline has data when it fires.
        activation = [False] * 2 + [True]
        module = generate_shiftreg_wrapper(uniform_1in_1out, activation)
        from repro.core.wrappers import ShiftRegisterWrapper

        # The blind pattern fires every 3rd cycle forever: the source
        # must never run dry within the simulated horizon.
        stim = Stimulus(tokens={"x": list(range(150))})
        result = co_simulate(
            ShiftRegisterWrapper(
                make_passthrough_pearl(uniform_1in_1out),
                pattern=activation,
            ),
            RTLShell(make_passthrough_pearl(uniform_1in_1out), module),
            stim,
            300,
        )
        assert result.outputs_match


class TestDivergenceDetection:
    def test_corrupted_rom_detected(self, simple_schedule):
        """Flipping one mask bit in the operations memory must raise."""
        program = compile_schedule(simple_schedule)
        bad_ops = list(program.ops)
        bad_ops[1] = Operation(
            in_mask=0b01,  # should be 0b10
            out_mask=bad_ops[1].out_mask,
            run=bad_ops[1].run,
            point_index=bad_ops[1].point_index,
        )
        bad_program = SPProgram(program.fmt, tuple(bad_ops))
        module = generate_sp_wrapper(bad_program, schedule=simple_schedule)
        shell = RTLShell(
            make_adder_pearl(simple_schedule), module, program=program
        )
        with pytest.raises(EquivalenceError):
            co_simulate(
                SPWrapper(make_adder_pearl(simple_schedule)),
                shell,
                JITTERY,
                400,
            )

    # The error texts below are pinned byte for byte under both RTL
    # engines: the compiled engine checks one packed strobe word and
    # decodes the masks only to build these messages.

    @staticmethod
    def _first_error(shell) -> str:
        stimulus = Stimulus(
            tokens={"a": list(range(20)), "b": list(range(20))},
            in_latency={"b": 3},
        )
        system = _build_single(shell, stimulus, "pinned")[0]
        with pytest.raises(EquivalenceError) as caught:
            Simulation(system).run(50)
        return str(caught.value)

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_strobe_while_disabled_text(self, simple_schedule, engine):
        module = generate_fsm_wrapper(simple_schedule)
        module.assigns[:] = [
            Assign(a.target, Const(1, 1)) if a.target.name == "a_pop" else a
            for a in module.assigns
        ]
        shell = RTLShell(
            make_adder_pearl(simple_schedule), module, engine=engine
        )
        assert self._first_error(shell) == (
            "'adder' cycle 0: pop/push strobes asserted while ip_enable low"
        )

    @staticmethod
    def _sp_shell(schedule, engine, index, **changes):
        """An SP shell whose RTL runs op ``index`` with ``changes``
        while the shell expects the untampered program."""
        program = compile_schedule(schedule)
        ops = list(program.ops)
        fields = dict(
            in_mask=ops[index].in_mask,
            out_mask=ops[index].out_mask,
            run=ops[index].run,
            point_index=ops[index].point_index,
        )
        ops[index] = Operation(**{**fields, **changes})
        module = generate_sp_wrapper(
            SPProgram(program.fmt, tuple(ops)), schedule=schedule
        )
        return RTLShell(
            make_adder_pearl(schedule), module, program=program,
            engine=engine,
        )

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_script_mismatch_text(self, simple_schedule, engine):
        shell = self._sp_shell(simple_schedule, engine, 1, in_mask=0b01)
        assert self._first_error(shell) == (
            "'adder' cycle 3: RTL strobes (pop=0x1, push=0x1) != expected "
            "(pop=0x2, push=0x1) at script position 1"
        )

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_strobe_during_free_run_text(self, simple_schedule, engine):
        shell = self._sp_shell(simple_schedule, engine, 0, run=0)
        assert self._first_error(shell) == (
            "'adder' cycle 3: strobes asserted during an expected "
            "free-run cycle"
        )

    def test_result_reports_divergence_cycle(self, simple_schedule):
        from repro.core.equivalence import CoSimResult

        result = CoSimResult(
            cycles=3,
            enable_a=[True, False, True],
            enable_b=[True, True, True],
            outputs_a={},
            outputs_b={},
        )
        assert not result.traces_match
        assert result.first_divergence() == 1
