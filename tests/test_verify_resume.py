"""Dynamic variants resumed from their base run's checkpoint.

A dynamic perturbation variant is its base topology plus a stall plan,
so its run is the base run until the plan's first stall.  The base run
pauses there for a checkpoint (``Simulation.run(checkpoint_at=...)``)
and the variant resumes from it (``run(resume=...)``) instead of
building a system and re-running the prefix.  Every test here compares
a resumed run with a fresh build under the same plan, field by field:
the run summary, sink streams and arrival cycles, enable traces, and
the relay, port, source, shell and pearl counters.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import FSMWrapper
from repro.lis.pearl import FunctionPearl, PassthroughPearl
from repro.lis.signals import CheckpointError
from repro.lis.simulator import Simulation
from repro.lis.stall import LinkStall, derive_stall_plan
from repro.lis.system import System
from repro.sched.generate import (
    PROFILE_PRESETS,
    random_topology,
    topology_link_names,
)
from repro.verify import (
    BatchConfig,
    BatchRunner,
    build_system,
    run_case,
    run_styles,
    telemetry,
)
from repro.verify import lockstep, perturb
from repro.verify.cases import relay_peak_occupancy
from repro.verify.lockstep import LockstepShell

CYCLES = 300
WINDOW = 64
#: The perturb-dynamic benchmark workload's styles.
STYLES = ("fsm", "sp", "rtl-sp", "rtl-fsm")
#: Every single style and lockstep pair those styles build.
BUILDS = (
    ("fsm", None), ("sp", None), ("rtl-sp", None), ("rtl-fsm", None),
    ("rtl-sp", "sp"), ("rtl-fsm", "fsm"),
)


def _small(seed):
    return random_topology(seed, PROFILE_PRESETS["small"])


def _plan(topology, seed):
    return derive_stall_plan(
        topology_link_names(topology), random.Random(seed), CYCLES
    )


def _observe(system, shells, sinks, result):
    """Everything a run leaves behind that a verify case (or anyone)
    could read."""
    return (
        result,
        result.cycles,
        result.deadlocked,
        relay_peak_occupancy(system),
        {
            name: (
                list(sink.received),
                sink.first_arrival_cycle,
                sink.last_arrival_cycle,
            )
            for name, sink in sinks.items()
        },
        [
            (
                station.tokens_forwarded,
                station.full_cycles,
                station.max_occupancy,
                list(station._buffer),
            )
            for station in system.relay_stations
        ],
        [
            (source.tokens_sent, source.blocked_cycles, source._pending)
            for source in system.sources.values()
        ],
        {
            name: (
                list(shell.trace_enable),
                shell.enabled_cycles,
                shell.stall_cycles,
                shell.periods_completed,
                shell._script_pos,
                shell.pearl.local_cycle,
                shell.pearl._acc,
                [
                    (
                        list(port._fifo),
                        port.stall_cycles,
                        getattr(port, "tokens_received", None),
                        getattr(port, "tokens_sent", None),
                    )
                    for port in shell._ports()
                ],
            )
            for name, shell in shells.items()
        },
    )


def _fresh(topology, style, reference, engine, plan):
    built = build_system(
        topology, style, trace=True, engine=engine, reference=reference
    )
    result = Simulation(built[0], plan).run(CYCLES, WINDOW)
    return _observe(*built, result)


def _base(topology, style, reference, engine, pause):
    """A built base system and the checkpoint its run took at
    ``pause``."""
    built = build_system(
        topology, style, trace=True, engine=engine, reference=reference
    )
    result = Simulation(built[0]).run(CYCLES, WINDOW, checkpoint_at=pause)
    assert result.checkpoint is not None
    return built, result.checkpoint


def _resumed(built, checkpoint, plan):
    result = Simulation(built[0], plan).run(
        CYCLES, WINDOW, resume=checkpoint
    )
    return _observe(*built, result)


def _engines(style):
    return ("compiled", "interp") if style.startswith("rtl") else (None,)


class TestResumeParity:
    """A resumed run equals a fresh build under the same plan."""

    @pytest.mark.parametrize("seed", range(20))
    def test_every_build_and_engine(self, seed):
        topology = _small(seed)
        plan = _plan(topology, seed)
        first = min(stall.start for stall in plan)
        for style, reference in BUILDS:
            for engine in _engines(style):
                built, checkpoint = _base(
                    topology, style, reference, engine, first
                )
                assert _resumed(built, checkpoint, plan) == _fresh(
                    topology, style, reference, engine, plan
                ), (style, reference, engine)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_variants_resume_from_one_checkpoint(self, seed):
        """Each restore undoes the other variant's run, so the second
        variant (first stall later than the checkpoint) and a repeat
        of the first both equal fresh builds."""
        topology = _small(seed)
        plans = [_plan(topology, seed * 7 + k) for k in range(2)]
        first = min(stall.start for plan in plans for stall in plan)
        for style, reference in BUILDS:
            for engine in _engines(style):
                built, checkpoint = _base(
                    topology, style, reference, engine, first
                )
                for plan in (*plans, plans[0]):
                    assert _resumed(built, checkpoint, plan) == _fresh(
                        topology, style, reference, engine, plan
                    ), (style, reference, engine)

    def test_first_stall_at_cycle_zero(self):
        topology = _small(2)
        link = topology_link_names(topology)[0]
        plan = (LinkStall(link, 0, 5), LinkStall(link, 40, 3))
        for style, reference in BUILDS:
            built, checkpoint = _base(topology, style, reference, None, 0)
            assert checkpoint.cycle == 0
            assert _resumed(built, checkpoint, plan) == _fresh(
                topology, style, reference, None, plan
            ), (style, reference)

    def test_stall_window_starting_at_the_checkpoint(self):
        topology = _small(3)
        links = topology_link_names(topology)
        plan = (LinkStall(links[0], 120, 9), LinkStall(links[-1], 125, 2))
        for style, reference in BUILDS:
            built, checkpoint = _base(
                topology, style, reference, None, 120
            )
            assert checkpoint.cycle == 120 and not checkpoint.stopped
            assert _resumed(built, checkpoint, plan) == _fresh(
                topology, style, reference, None, plan
            ), (style, reference)

    def test_base_deadlocks_before_the_first_stall(self):
        """Topology ``small`` seed 1 deadlocks at cycle 91 under fsm:
        the checkpoint is where the run stopped, and a variant
        stalling later stops there too."""
        topology = _small(1)
        plan = (LinkStall(topology_link_names(topology)[0], 150, 4),)
        built, checkpoint = _base(topology, "fsm", None, None, 150)
        assert checkpoint.stopped and checkpoint.cycle == 91
        resumed = _resumed(built, checkpoint, plan)
        assert resumed == _fresh(topology, "fsm", None, None, plan)
        assert resumed[0].deadlocked and resumed[0].cycles == 91

    def test_restore_after_reset_and_between_runs(self):
        """A run checkpoint restores after a power-up restore and a
        short run; a checkpoint taken between runs restarts from its
        cycle."""
        topology = _small(5)
        plan = _plan(topology, 5)
        first = min(stall.start for stall in plan)
        system, shells, sinks = build_system(
            topology, "rtl-fsm", trace=True, reference="fsm"
        )
        simulation = Simulation(system)
        power_up = simulation.checkpoint()
        result = simulation.run(CYCLES, WINDOW, checkpoint_at=first)
        built, checkpoint = (system, shells, sinks), result.checkpoint
        simulation.restore(power_up)
        simulation.run(37)
        assert _resumed(built, checkpoint, plan) == _fresh(
            topology, "rtl-fsm", "fsm", None, plan
        )
        simulation.restore(power_up)
        simulation.run(50)
        between = simulation.checkpoint()
        tail = simulation.run(70)
        simulation.run(20)
        simulation.restore(between)
        assert simulation.run(70) == tail


class TestResumeContract:
    def test_plan_stalling_before_the_checkpoint_is_rejected(self):
        topology = _small(0)
        link = topology_link_names(topology)[0]
        built, checkpoint = _base(topology, "fsm", None, None, 100)
        simulation = Simulation(built[0], (LinkStall(link, 99, 2),))
        with pytest.raises(ValueError, match="stall plan differs"):
            simulation.run(CYCLES, WINDOW, resume=checkpoint)

    def test_checkpoint_of_another_system_is_rejected(self):
        topology = _small(0)
        _built, checkpoint = _base(topology, "fsm", None, None, 100)
        other, _shells, _sinks = build_system(topology, "fsm")
        with pytest.raises(ValueError, match="another system"):
            Simulation(other).restore(checkpoint)

    def test_undeclared_blocks_cannot_checkpoint(self):
        """A pearl or shell class that is not declared
        ``checkpointed`` (a subclass of a declared one included) may
        keep state a checkpoint does not know: no checkpoint."""
        topology = _small(0)
        system, shells, _sinks = build_system(topology, "fsm")
        shell = next(iter(shells.values()))
        shell.pearl = FunctionPearl(
            shell.pearl.name, shell.pearl.schedule, lambda i, p: {}
        )
        with pytest.raises(CheckpointError, match="FunctionPearl"):
            Simulation(system).checkpoint()
        assert Simulation(system).run(
            2, checkpoint_at=1
        ).checkpoint is None

        class Subclassed(FSMWrapper):
            pass

        with pytest.raises(CheckpointError, match="Subclassed"):
            Simulation(_passthrough(Subclassed, range(5))).checkpoint()
        Simulation(_passthrough(FSMWrapper, range(5))).checkpoint()

    def test_one_shot_source_cannot_checkpoint(self):
        system = _passthrough(FSMWrapper, iter(range(5)))
        with pytest.raises(CheckpointError, match="one-shot"):
            Simulation(system).checkpoint()


def _passthrough(shell_class, tokens):
    """One passthrough process between a source of ``tokens`` and a
    sink."""
    schedule = IOSchedule(["i"], ["o"], [SyncPoint({"i"}, {"o"})])
    system = System("passthrough")
    shell = system.add_patient(
        shell_class(PassthroughPearl("p", schedule))
    )
    system.connect_source("src", tokens, shell, "i")
    system.connect_sink(shell, "o", "snk")
    return system


class TestRunStylesResume:
    """``run_styles`` keeps the base systems and resumes from them."""

    @pytest.mark.parametrize("engine", ("compiled", "interp"))
    @pytest.mark.parametrize("seed", range(6))
    def test_resumed_style_runs_equal_fresh(self, seed, engine):
        topology = _small(seed)
        plans = [_plan(topology, seed * 3 + k) for k in range(2)]
        first = min(stall.start for plan in plans for stall in plan)
        bases = {}
        base_runs = run_styles(
            topology, STYLES, CYCLES, WINDOW, engine=engine,
            checkpoint_at=first, bases=bases,
        )
        assert base_runs == run_styles(
            topology, STYLES, CYCLES, WINDOW, engine=engine
        )
        assert set(bases) == {("rtl-sp", "sp"), ("rtl-fsm", "fsm")}
        variant = replace(topology, name=topology.name + "~dynamic0")
        for plan in plans:
            resumed = run_styles(
                variant, STYLES, CYCLES, WINDOW, engine=engine,
                stalls=plan, bases=bases,
            )
            assert resumed == run_styles(
                variant, STYLES, CYCLES, WINDOW, engine=engine,
                stalls=plan,
            )

    def test_lockstep_pair_falling_back_after_the_checkpoint(
        self, monkeypatch
    ):
        """A resumed lockstep run that diverges after the checkpoint
        falls back to separate runs, exactly as a fresh one does; the
        base system then serves the next variant again."""
        topology = _small(4)
        plans = [_plan(topology, k) for k in (40, 41)]
        first = min(stall.start for plan in plans for stall in plan)
        bases = {}
        run_styles(
            topology, STYLES, CYCLES, WINDOW,
            checkpoint_at=first, bases=bases,
        )
        decide = LockstepShell._sync_ready

        def diverging(shell, cycle, ready):
            if cycle >= first + 5:
                shell._diverged(cycle)
            return decide(shell, cycle, ready)

        variant = replace(topology, name=topology.name + "~dynamic0")

        def variant_runs(plan, **kwargs):
            before = lockstep.lockstep_stats()
            runs = run_styles(
                variant, STYLES, CYCLES, WINDOW, stalls=plan, **kwargs
            )
            after = lockstep.lockstep_stats()
            return runs, {k: after[k] - before[k] for k in after}

        with monkeypatch.context() as patch:
            patch.setattr(LockstepShell, "_sync_ready", diverging)
            resumed = variant_runs(plans[0], bases=bases)
            fresh = variant_runs(plans[0])
        assert resumed == fresh
        assert resumed[1] == {"runs": 2, "fallbacks": 2}
        assert variant_runs(plans[1], bases=bases) == variant_runs(plans[1])


# -- whole cases --------------------------------------------------------------


def _dynamic_cases(count, seed, **overrides):
    config = dict(
        cases=count, seed=seed, jobs=1, profile="small", styles=STYLES,
        perturb=2, perturb_dynamic=True, perturb_styles="all",
    )
    config.update(overrides)
    from repro.verify import make_cases

    return make_cases(BatchConfig(**config))


def _observed(cases):
    """Outcomes of ``cases`` and the telemetry counters and span
    counts their runs recorded."""
    session = telemetry.activate(telemetry.TelemetrySession())
    try:
        outcomes = [run_case(case) for case in cases]
    finally:
        telemetry.deactivate()
    rollup = session.rollup
    spans = {name: rollup.spans.get(name, {}).get("count", 0)
             for name in ("build", "simulate")}
    return outcomes, rollup.counters, spans


class TestCaseResume:
    @pytest.mark.parametrize("engine", ("compiled", "interp"))
    def test_outcomes_equal_fresh_variants(self, engine, monkeypatch):
        cases = _dynamic_cases(8, 27, engine=engine)
        resumed, counters, spans = _observed(cases)
        # Every base and dynamic-variant run of a case: two lockstep
        # pairs each.
        assert counters["perturb.resumed_runs"] == 2 * len(cases)
        assert counters["perturb.resumed_cycles"] > 0
        assert "perturb.fresh_variant_runs" not in counters
        # A resumed run emits a simulate span but builds nothing.
        assert spans == {"build": 4 * len(cases), "simulate": 6 * len(cases)}
        monkeypatch.setattr(perturb, "first_stall", lambda *args: None)
        fresh, counters, spans = _observed(cases)
        assert fresh == resumed
        assert counters["perturb.fresh_variant_runs"] == 2 * len(cases)
        assert spans == {"build": 6 * len(cases), "simulate": 6 * len(cases)}

    def test_resumed_cycles_are_the_skipped_prefixes(self):
        (case,) = _dynamic_cases(1, 31)
        (variant,) = [v for v in perturb.case_variants(case) if v.stalls]
        first = min(stall.start for stall in variant.stalls)
        _outcomes, counters, _spans = _observed([case])
        # Unless a base run stopped earlier, both pairs skip [0, first).
        assert counters["perturb.resumed_cycles"] <= 2 * first
        assert counters["perturb.resumed_runs"] == 2

    def test_reference_mode_builds_fresh(self):
        """``--perturb-styles reference`` runs variants under ``fsm``
        alone, which no base run built (it ran in lockstep with
        ``rtl-fsm``): every dynamic-variant run builds fresh, and
        says so."""
        cases = _dynamic_cases(4, 27, perturb_styles="reference")
        _outcomes, counters, _spans = _observed(cases)
        assert "perturb.resumed_runs" not in counters
        assert counters["perturb.fresh_variant_runs"] == len(cases)

    def test_unperturbed_cases_take_no_checkpoint(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an unperturbed run took a checkpoint")

        monkeypatch.setattr(Simulation, "_checkpoint", refuse)
        for case in _dynamic_cases(3, 27, perturb=0, perturb_dynamic=False):
            assert run_case(case).ok
        for case in _dynamic_cases(3, 27, perturb_dynamic=False):
            assert run_case(case).ok

    def test_campaign_counters_reach_the_metrics(self):
        session = telemetry.activate(telemetry.TelemetrySession())
        try:
            report = BatchRunner(
                BatchConfig(
                    cases=3, seed=27, jobs=1, profile="small",
                    styles=STYLES, perturb=2, perturb_dynamic=True,
                    perturb_styles="all",
                )
            ).run()
        finally:
            telemetry.deactivate()
        assert report.ok
        assert session.rollup.counters["perturb.resumed_runs"] == 6
        assert "perturb: 6 dynamic-variant run(s) resumed" in (
            session.rollup.render()
        )
