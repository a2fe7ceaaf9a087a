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

from repro.core.equivalence import RTLShell
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
from repro.verify.lockstep import LockstepShell, Riders
from tests.conftest import hold_one_fire as _holding

CYCLES = 300
WINDOW = 64
#: The perturb-dynamic benchmark workload's styles.
STYLES = ("fsm", "sp", "rtl-sp", "rtl-fsm")
#: Every single style, lockstep pair and lockstep group (lead style,
#: riding styles) those styles build.
BUILDS = (
    ("fsm", ()), ("sp", ()), ("rtl-sp", ()), ("rtl-fsm", ()),
    ("rtl-sp", ("sp",)), ("rtl-fsm", ("fsm",)),
    ("rtl-sp", ("sp", "rtl-fsm", "fsm")),
)
#: The base-system keys of those styles: the group's lead, and the
#: regrouped FSM pair's when its styles detached before the checkpoint.
GROUP_BASES = ({"rtl-sp"}, {"rtl-sp", "rtl-fsm"})


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
        # Where a lockstep group's riders detached.
        [
            list(shell.detach.detached)
            for shell in shells.values()
            if isinstance(shell, LockstepShell)
        ],
    )


def _build(topology, style, riders, engine):
    return build_system(
        topology, style, trace=True, engine=engine,
        riders=Riders(riders) if riders else None,
    )


def _fresh(topology, style, riders, engine, plan):
    built = _build(topology, style, riders, engine)
    result = Simulation(built[0], plan).run(CYCLES, WINDOW)
    return _observe(*built, result)


def _base(topology, style, riders, engine, pause):
    """A built base system and the checkpoint its run took at
    ``pause``."""
    built = _build(topology, style, riders, engine)
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
        for build in BUILDS:
            for engine in _engines(build[0]):
                built, checkpoint = _base(topology, *build, engine, first)
                assert _resumed(built, checkpoint, plan) == _fresh(
                    topology, *build, engine, plan
                ), (build, engine)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_variants_resume_from_one_checkpoint(self, seed):
        """Each restore undoes the other variant's run, so the second
        variant (first stall later than the checkpoint) and a repeat
        of the first both equal fresh builds."""
        topology = _small(seed)
        plans = [_plan(topology, seed * 7 + k) for k in range(2)]
        first = min(stall.start for plan in plans for stall in plan)
        for build in BUILDS:
            for engine in _engines(build[0]):
                built, checkpoint = _base(topology, *build, engine, first)
                for plan in (*plans, plans[0]):
                    assert _resumed(built, checkpoint, plan) == _fresh(
                        topology, *build, engine, plan
                    ), (build, engine)

    @pytest.mark.parametrize("seed, riding", [(0, False), (4, True)])
    def test_group_and_detached_bases(self, seed, riding):
        """Topology ``small`` seed 0's FSM styles detach at cycle 0,
        before the checkpoint (a detached base); seed 4's still ride
        there (a group base).  Either resumes exactly, under both RTL
        engines, with its riders where the checkpoint left them."""
        topology = _small(seed)
        plan = _plan(topology, seed)
        first = min(stall.start for stall in plan)
        group = BUILDS[-1]
        for engine in ("compiled", "interp"):
            built, checkpoint = _base(topology, *group, engine, first)
            resumed = _resumed(built, checkpoint, plan)
            assert resumed == _fresh(topology, *group, engine, plan)
            assert resumed[-1][0] == (
                [None] * 3 if riding else [None, 0, 0]
            )

    def test_first_stall_at_cycle_zero(self):
        topology = _small(2)
        link = topology_link_names(topology)[0]
        plan = (LinkStall(link, 0, 5), LinkStall(link, 40, 3))
        for build in BUILDS:
            built, checkpoint = _base(topology, *build, None, 0)
            assert checkpoint.cycle == 0
            assert _resumed(built, checkpoint, plan) == _fresh(
                topology, *build, None, plan
            ), build

    def test_stall_window_starting_at_the_checkpoint(self):
        topology = _small(3)
        links = topology_link_names(topology)
        plan = (LinkStall(links[0], 120, 9), LinkStall(links[-1], 125, 2))
        for build in BUILDS:
            built, checkpoint = _base(topology, *build, None, 120)
            assert checkpoint.cycle == 120 and not checkpoint.stopped
            assert _resumed(built, checkpoint, plan) == _fresh(
                topology, *build, None, plan
            ), build

    def test_base_deadlocks_before_the_first_stall(self):
        """Topology ``small`` seed 1 deadlocks at cycle 91 under fsm:
        the checkpoint is where the run stopped, and a variant
        stalling later stops there too."""
        topology = _small(1)
        plan = (LinkStall(topology_link_names(topology)[0], 150, 4),)
        built, checkpoint = _base(topology, "fsm", (), None, 150)
        assert checkpoint.stopped and checkpoint.cycle == 91
        resumed = _resumed(built, checkpoint, plan)
        assert resumed == _fresh(topology, "fsm", (), None, plan)
        assert resumed[0].deadlocked and resumed[0].cycles == 91

    def test_restore_after_reset_and_between_runs(self):
        """A run checkpoint restores after a power-up restore and a
        short run; a checkpoint taken between runs restarts from its
        cycle."""
        topology = _small(5)
        plan = _plan(topology, 5)
        first = min(stall.start for stall in plan)
        system, shells, sinks = build_system(
            topology, "rtl-fsm", trace=True, riders=Riders(("fsm",))
        )
        simulation = Simulation(system)
        power_up = simulation.checkpoint()
        result = simulation.run(CYCLES, WINDOW, checkpoint_at=first)
        built, checkpoint = (system, shells, sinks), result.checkpoint
        simulation.restore(power_up)
        simulation.run(37)
        assert _resumed(built, checkpoint, plan) == _fresh(
            topology, "rtl-fsm", ("fsm",), None, plan
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
        built, checkpoint = _base(topology, "fsm", (), None, 100)
        simulation = Simulation(built[0], (LinkStall(link, 99, 2),))
        with pytest.raises(ValueError, match="stall plan differs"):
            simulation.run(CYCLES, WINDOW, resume=checkpoint)

    def test_checkpoint_of_another_system_is_rejected(self):
        topology = _small(0)
        _built, checkpoint = _base(topology, "fsm", (), None, 100)
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
        # A group base, or (the FSM styles detached before the
        # checkpoint) a base for the rest of the group beside the
        # regrouped FSM pair's.
        assert set(bases) in GROUP_BASES
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

    def test_riders_detaching_after_the_checkpoint(self, monkeypatch):
        """A resumed lockstep run whose riders disagree after the
        checkpoint detaches them, exactly as a fresh one does; the base
        system then serves the next variant again.  Seed 4's FSM
        styles ride to the end: a group base."""
        _detach_after_the_checkpoint(monkeypatch, 4)

    def test_detached_base_riders_detaching_after_the_checkpoint(
        self, monkeypatch
    ):
        """The same from a detached base: seed 0's FSM styles detach at
        cycle 0, so the group's base and the regrouped FSM pair's base
        each lose a rider."""
        _detach_after_the_checkpoint(monkeypatch, 0)

    @pytest.mark.parametrize("seed", (0, 4))
    def test_lead_raising_after_the_checkpoint(self, monkeypatch, seed):
        """A resumed run whose lead raises after the checkpoint runs
        the lead alone, built fresh, and regroups the rest, exactly as
        a fresh variant does; the base serves the next variant
        again."""
        topology, plans, bases, variant_runs = _variant_setup(seed)
        first = min(stall.start for plan in plans for stall in plan)
        victim = topology.processes[0].name
        decide = RTLShell._sync_ready

        def raising(self, cycle, ready):
            if (
                self.name == victim
                and cycle > first + 5
                and self.module.name == "sp_wrapper"
            ):
                raise RuntimeError("lead bug")
            return decide(self, cycle, ready)

        with monkeypatch.context() as patch:
            patch.setattr(RTLShell, "_sync_ready", raising)
            session = telemetry.activate(
                telemetry.TelemetrySession(buffered=True)
            )
            try:
                resumed = variant_runs(plans[0], bases=bases)
            finally:
                telemetry.deactivate()
            fresh = variant_runs(plans[0])
        assert resumed[0] == fresh[0]
        assert resumed[0]["rtl-sp"].error == "RuntimeError: lead bug"
        # The lead alone is a system of its own, not the base again.
        assert ("build", "rtl-sp", None) in [
            (r["name"], r["style"], r.get("riders"))
            for r in session.drain()
            if r["kind"] == "span"
        ]
        assert all(
            resumed[0][style].error is None
            for style in ("fsm", "sp", "rtl-fsm")
        )
        assert resumed[1]["fallbacks"] == 1
        assert set(bases) in GROUP_BASES and "rtl-sp" in bases
        again = variant_runs(plans[1], bases=bases)
        assert again[0] == variant_runs(plans[1])[0]


def _variant_setup(seed):
    """Topology ``small`` ``seed``, two stall plans, the base systems
    its ``STYLES`` runs kept at their earliest first stall, and a
    function running a dynamic variant under a plan: (runs, the
    lockstep counters that moved)."""
    topology = _small(seed)
    plans = [_plan(topology, k) for k in (40, 41)]
    first = min(stall.start for plan in plans for stall in plan)
    bases = {}
    run_styles(
        topology, STYLES, CYCLES, WINDOW,
        checkpoint_at=first, bases=bases,
    )
    assert set(bases) == GROUP_BASES[seed == 0]
    variant = replace(topology, name=topology.name + "~dynamic0")

    def variant_runs(plan, **kwargs):
        before = lockstep.lockstep_stats()
        runs = run_styles(
            variant, STYLES, CYCLES, WINDOW, stalls=plan, **kwargs
        )
        after = lockstep.lockstep_stats()
        return runs, {
            k: after[k] - before.get(k, 0)
            for k in after
            if after[k] != before.get(k, 0)
        }

    return topology, plans, bases, variant_runs


def _detach_after_the_checkpoint(monkeypatch, seed):
    """Resume the variants of topology ``small`` ``seed`` with one
    process's RTL fires held back after the checkpoint, and compare
    with fresh builds."""
    topology, plans, bases, variant_runs = _variant_setup(seed)
    first = min(stall.start for plan in plans for stall in plan)
    with monkeypatch.context() as patch:
        # Every RTL shell of one process holds back one fire after
        # the checkpoint: rtl-fsm agrees with the rtl-sp lead, or with
        # its own lead once regrouped, and sp and fsm detach.
        _holding(patch, RTLShell, topology.processes[0].name, first + 5)
        resumed = variant_runs(plans[0], bases=bases)
        fresh = variant_runs(plans[0])
    assert resumed[0] == fresh[0]
    assert "fallbacks" not in resumed[1]
    assert sum(
        n for key, n in resumed[1].items() if key.startswith("detached.")
    ) == 2
    # The separate runs show the flip itself, not an exception.
    runs = resumed[0]
    for checked, reference in (("rtl-sp", "sp"), ("rtl-fsm", "fsm")):
        assert runs[checked].error is runs[reference].error is None
        assert runs[checked].traces != runs[reference].traces
    # A detached base resumes without the FSM styles, which a fresh
    # build still carries until cycle 0: only the runs must match.
    again, fresh = variant_runs(plans[1], bases=bases), variant_runs(
        plans[1]
    )
    assert again[0] == fresh[0]
    assert again[1]["runs"] == fresh[1]["runs"]


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
        # Each case has one dynamic variant, which resumes every system
        # its base runs built: the group, and the regrouped FSM pair
        # when the FSM styles detached.  Both kinds occur.
        runs = counters["perturb.resumed_runs"]
        assert len(cases) < runs < 2 * len(cases)
        assert counters["perturb.resumed_cycles"] > 0
        assert "perturb.fresh_variant_runs" not in counters
        monkeypatch.setattr(perturb, "first_stall", lambda *args: None)
        fresh, fresh_counters, fresh_spans = _observed(cases)
        assert fresh == resumed
        # The fresh path builds those systems instead.
        assert fresh_counters["perturb.fresh_variant_runs"] == runs
        # A resumed run emits a simulate span but builds nothing.
        assert spans == {
            "build": fresh_spans["build"] - runs,
            "simulate": fresh_spans["simulate"],
        }

    def test_resumed_cycles_are_the_skipped_prefixes(self):
        (case,) = _dynamic_cases(1, 31)
        (variant,) = [v for v in perturb.case_variants(case) if v.stalls]
        first = min(stall.start for stall in variant.stalls)
        before = lockstep.lockstep_stats()
        _outcomes, counters, _spans = _observed([case])
        # Unless a base run stopped earlier, each resumed system skips
        # [0, first): here only the group's, whose riders rode to the
        # end of the base run and of both variants.
        assert lockstep.lockstep_stats() == {
            **before, "runs": before["runs"] + 3,
            "grouped": before["grouped"] + 3,
        }
        assert counters["perturb.resumed_runs"] == 1
        assert counters["perturb.resumed_cycles"] <= first

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
        counters = session.rollup.counters
        resumed = counters["perturb.resumed_runs"]
        # One resumed group per case, plus a regrouped FSM pair per
        # case whose FSM styles detached before the checkpoint.
        assert 3 < resumed <= 6
        summary = session.rollup.render()
        assert f"perturb: {resumed:.0f} dynamic-variant run(s) resumed" in (
            summary
        )
        assert (
            f"{counters['lockstep.grouped']:.0f} system(s) carried "
            "several pairs"
        ) in summary
