"""The oracle pipeline (`repro.verify.oracles`).

Unit tests drive each oracle with hand-built (often deliberately
divergent) `StyleRun` maps — no simulation — then check that
`run_pipeline` composes them and that `run_case` is exactly the
registry fold plus the pipeline fold.
"""

from __future__ import annotations

import pytest

from repro.sched.generate import random_topology
from repro.verify import (
    BEHAVIOURAL_STYLES,
    CaseOutcome,
    StyleRun,
    VerifyCase,
    run_case,
    run_styles,
)
from repro.verify.oracles import (
    AnalyticBoundsOracle,
    CycleExactOracle,
    ExceptionOracle,
    Oracle,
    RelayOccupancyOracle,
    StreamPrefixOracle,
    default_pipeline,
    run_pipeline,
)


def _case(seed=0, styles=("fsm", "sp"), **kwargs):
    defaults = dict(
        index=0,
        seed=seed,
        cycles=120,
        topology=random_topology(seed),
        styles=tuple(styles),
    )
    defaults.update(kwargs)
    return VerifyCase(**defaults)


def _run(streams=None, traces=None, executed=10, error=None,
         relay_peak=None, periods=None):
    return StyleRun(
        streams=streams or {},
        traces=traces or {},
        periods=periods or {},
        executed=executed,
        error=error,
        relay_peak=relay_peak,
    )


def _outcome():
    return CaseOutcome(index=0, seed=0)


class TestExceptionOracle:
    def test_error_runs_become_divergences_in_style_order(self):
        case = _case(styles=("fsm", "sp", "combinational"))
        runs = {
            "fsm": _run(),
            "sp": _run(error="RuntimeError: boom"),
            "combinational": _run(error="ValueError: bust"),
        }
        outcome = _outcome()
        ExceptionOracle().check(case, runs, outcome)
        assert [d.style for d in outcome.divergences] == [
            "sp", "combinational"
        ]
        assert all(
            d.check == "exception" for d in outcome.divergences
        )

    def test_clean_runs_are_silent(self):
        case = _case()
        outcome = _outcome()
        ExceptionOracle().check(
            case, {"fsm": _run(), "sp": _run()}, outcome
        )
        assert outcome.ok


class TestStreamPrefixOracle:
    def test_reference_is_first_clean_style(self):
        case = _case(styles=("fsm", "sp"))
        runs = {
            "fsm": _run(error="dead"),
            "sp": _run(streams={"snk0": [1, 2]}),
        }
        outcome = _outcome()
        StreamPrefixOracle().check(case, runs, outcome)
        # fsm errored, sp is reference: nothing to compare against.
        assert outcome.ok

    def test_mismatch_detected_against_reference(self):
        case = _case(styles=("fsm", "sp"))
        runs = {
            "fsm": _run(streams={"snk0": [1, 2, 3]}),
            "sp": _run(streams={"snk0": [1, 9]}),
        }
        outcome = _outcome()
        StreamPrefixOracle().check(case, runs, outcome)
        assert not outcome.ok
        assert outcome.divergences[0].check == "streams"
        assert outcome.divergences[0].style == "sp"

    def test_a_shared_run_is_not_compared_with_itself(self):
        """One lockstep system can stand for several styles: a style
        whose run is the reference run itself adds no check, while an
        equal but separate run is still compared."""
        case = _case(styles=("fsm", "rtl-fsm", "sp"))
        shared = _run(streams={"snk0": [1, 2], "snk1": [3]})
        runs = {
            "fsm": shared,
            "rtl-fsm": shared,
            "sp": _run(streams={"snk0": [1, 2], "snk1": [3]}),
        }
        outcome = _outcome()
        StreamPrefixOracle().check(case, runs, outcome)
        assert outcome.ok and outcome.checks == 2

    def test_all_errored_runs_skip_silently(self):
        case = _case(styles=("fsm", "sp"))
        runs = {"fsm": _run(error="x"), "sp": _run(error="y")}
        outcome = _outcome()
        StreamPrefixOracle().check(case, runs, outcome)
        assert outcome.ok and outcome.checks == 0


class TestCycleExactOracle:
    def test_trace_mismatch_detected(self):
        case = _case(styles=("sp", "rtl-sp"))
        runs = {
            "sp": _run(traces={"p0": [True, False]}),
            "rtl-sp": _run(traces={"p0": [True, True]}),
        }
        outcome = _outcome()
        CycleExactOracle().check(case, runs, outcome)
        assert not outcome.ok
        assert outcome.divergences[0].check == "trace"
        assert outcome.divergences[0].style == "rtl-sp"

    def test_errored_pair_member_skips(self):
        case = _case(styles=("sp", "rtl-sp"))
        runs = {
            "sp": _run(traces={"p0": [True]}),
            "rtl-sp": _run(error="dead"),
        }
        outcome = _outcome()
        CycleExactOracle().check(case, runs, outcome)
        assert outcome.ok and outcome.checks == 0


class TestRelayOccupancyOracle:
    def test_over_capacity_detected(self):
        case = _case()
        runs = {"fsm": _run(relay_peak=("ch.rs1", 3))}
        outcome = _outcome()
        RelayOccupancyOracle().check(case, runs, outcome)
        assert not outcome.ok
        assert outcome.divergences[0].check == "relay"
        assert outcome.divergences[0].subject == "ch.rs1"

    def test_at_capacity_is_clean(self):
        case = _case()
        runs = {"fsm": _run(relay_peak=("ch.rs1", 2))}
        outcome = _outcome()
        RelayOccupancyOracle().check(case, runs, outcome)
        assert outcome.ok and outcome.checks == 1


class TestAnalyticBoundsOracle:
    def test_impossible_period_rate_detected(self):
        # Find a uniform topology whose marked graph has actual
        # cycles, so per-process loop bounds exist.
        from repro.verify.oracles import uniform_loop_bounds

        for seed in range(500):
            topology = random_topology(seed)
            if topology.uniform and uniform_loop_bounds(topology):
                break
        else:
            pytest.fail("no uniform cyclic topology found")
        case = _case(seed=seed, topology=topology, styles=("fsm",))
        impossible = _run(
            executed=100,
            periods={
                node.name: 10_000 for node in topology.processes
            },
        )
        outcome = _outcome()
        AnalyticBoundsOracle().check(case, {"fsm": impossible}, outcome)
        assert not outcome.ok
        assert outcome.divergences[0].check == "analytic"


class TestPipeline:
    def test_default_pipeline_shape_and_order(self):
        names = [type(o).__name__ for o in default_pipeline()]
        assert names == [
            "ExceptionOracle",
            "StreamPrefixOracle",
            "CycleExactOracle",
            "RelayOccupancyOracle",
            "AnalyticBoundsOracle",
            "PerturbationOracle",
        ]

    def test_custom_pipeline_is_respected(self):
        class Marker(Oracle):
            def check(self, case, runs, outcome):
                outcome.checks += 1

        case = _case()
        outcome = _outcome()
        run_pipeline(case, {}, outcome, pipeline=(Marker(), Marker()))
        assert outcome.checks == 2
        assert outcome.ok

    def test_run_case_is_registry_fold_plus_pipeline_fold(self):
        case = _case(seed=4, styles=BEHAVIOURAL_STYLES)
        via_run_case = run_case(case)
        runs = run_styles(
            case.topology, case.styles, case.cycles,
            case.deadlock_window, engine=case.engine,
        )
        manual = CaseOutcome(
            index=case.index,
            seed=case.seed,
            topology_stats=case.topology.stats(),
        )
        run_pipeline(case, runs, manual)
        assert manual.checks == via_run_case.checks
        assert manual.divergences == via_run_case.divergences

    def test_pipeline_reports_injected_divergence_end_to_end(self):
        # A fake run map with one corrupted token must surface through
        # the full default pipeline exactly once.
        case = _case(styles=("fsm", "sp"))
        runs = run_styles(
            case.topology, case.styles, case.cycles,
            case.deadlock_window,
        )
        sink = next(iter(runs["sp"].streams), None)
        if sink is None or not runs["sp"].streams[sink]:
            pytest.skip("topology moved no tokens")
        runs["sp"].streams[sink][0] ^= 0xFFFF
        outcome = _outcome()
        run_pipeline(case, runs, outcome)
        streams = [
            d for d in outcome.divergences if d.check == "streams"
        ]
        assert len(streams) == 1
        assert streams[0].subject == sink
