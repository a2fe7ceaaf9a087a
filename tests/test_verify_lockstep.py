"""Lockstep simulation of cycle-exact styles, grouped.

``run_styles`` simulates the cycle-exact pairs in lockstep groups, with
:class:`~repro.verify.lockstep.LockstepShell` shells taking the lead
style's decisions every cycle and those of the styles riding along.
One rule: a riding style that decides differently from the lead or
raises in a decision detaches by itself (before cycle 0 when it walks
a different script) and regroups with the other detached styles; a
run that raises runs its lead alone and regroups the rest.  The
result must equal simulating every style separately through
``simulate_topology``, field by field, and keep the order of
``styles``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.equivalence import RTLShell
from repro.core.wrappers import FSMWrapper, SPWrapper
from repro.lis import compile_fabric
from repro.lis.simulator import Simulation
from repro.lis.stall import derive_stall_plan
from repro.sched.generate import (
    PROFILE_PRESETS,
    random_topology,
    topology_link_names,
)
from repro.verify import cases, telemetry
from repro.verify.cases import (
    MixPearl,
    StyleRun,
    build_system,
    run_styles,
    simulate_topology,
)
from repro.verify.lockstep import (
    LockstepShell,
    Riders,
    lockstep_groups,
    lockstep_stats,
)
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import SHIFTREG_STYLES, styles_for_traffic
from repro.verify.telemetry import TelemetrySession
from tests.conftest import hold_one_fire

CYCLES = 200
WINDOW = 64
DYNAMIC_STYLES = ("fsm", "sp", "rtl-sp", "rtl-fsm")
#: Topologies (random profile) whose FSM styles rtl-fsm and fsm detach
#: from the rtl-sp lead at cycle 0 (the SP's reset cycle), and ones
#: they ride to the end.
DETACHING_SEEDS = (0, 3)
RIDING_SEEDS = (2, 4)


def _separately(
    topology, styles, engine=None, stalls=(), trace=True, activations=None
) -> dict[str, StyleRun]:
    """Every style simulated on its own (shift-register styles get the
    FSM-planned activation)."""
    if activations is None and any(
        style in SHIFTREG_STYLES for style in styles
    ):
        activations = cases._plan_activations(
            topology, CYCLES, WINDOW, {}, engine=engine, stalls=stalls
        )
    return {
        style: simulate_topology(
            topology, style, CYCLES, WINDOW, engine=engine, trace=trace,
            activations=activations, stalls=stalls,
        )
        for style in styles
    }


def _assert_same(got: dict[str, StyleRun], want: dict[str, StyleRun]):
    assert list(got) == list(want)
    for style, run in want.items():
        for field in (
            "streams", "traces", "periods", "executed", "relay_peak",
            "deadlocked", "error",
        ):
            assert getattr(got[style], field) == getattr(run, field), (
                style, field,
            )


def _moved(before: dict, after: dict) -> dict[str, int]:
    """The lockstep counters that moved between two snapshots, with
    every ``detached.<cycle>`` summed as ``detached``."""
    moved: dict[str, int] = {}
    for key, value in after.items():
        name = "detached" if key.startswith("detached.") else key
        moved[name] = moved.get(name, 0) + value - before.get(key, 0)
    return {key: value for key, value in moved.items() if value}


def _lockstepped(topology, styles, **kwargs) -> dict[str, StyleRun]:
    """``run_styles`` with every group in lockstep and no run raising:
    one run per group with riders, plus at most one per two detached
    styles (a regrouped pair)."""
    before = lockstep_stats()
    runs = run_styles(topology, styles, CYCLES, WINDOW, **kwargs)
    moved = _moved(before, lockstep_stats())
    groups = [group for group in lockstep_groups(styles) if len(group) > 1]
    assert "fallbacks" not in moved
    assert 0 <= moved["runs"] - len(groups) <= moved.get("detached", 0) / 2
    assert moved.get("grouped", 0) <= sum(len(g) > 2 for g in groups)
    return runs


class TestParity:
    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_topologies(self, seed, engine):
        topology = random_topology(seed)
        styles = styles_for_traffic("random")
        _assert_same(
            _lockstepped(topology, styles, engine=engine),
            _separately(topology, styles, engine=engine),
        )

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("seed", range(20))
    def test_regular_topologies(self, seed, engine):
        topology = random_topology(seed, PROFILE_PRESETS["regular"])
        styles = styles_for_traffic("regular")
        _assert_same(
            _lockstepped(topology, styles, engine=engine),
            _separately(topology, styles, engine=engine),
        )

    @pytest.mark.parametrize("trace", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_dynamic_stall_plans(self, seed, trace):
        topology = random_topology(seed, PROFILE_PRESETS["small"])
        stalls = derive_stall_plan(
            topology_link_names(topology), random.Random(seed), CYCLES
        )
        assert stalls
        runs = _lockstepped(
            topology, DYNAMIC_STYLES, stalls=stalls, trace=trace
        )
        _assert_same(
            runs,
            _separately(topology, DYNAMIC_STYLES, stalls=stalls, trace=trace),
        )
        assert all(bool(run.traces) == trace for run in runs.values())

    def test_both_styles_share_the_lockstep_run(self):
        runs = _lockstepped(random_topology(1), ("fsm", "rtl-fsm"))
        assert runs["fsm"] is runs["rtl-fsm"]
        # A group whose riders ride to the end: all four share it.
        runs = _lockstepped(random_topology(1), DYNAMIC_STYLES)
        assert len({id(run) for run in runs.values()}) == 1

    def test_lockstep_shells_take_the_lowered_fabric(self):
        system, shells, _sinks = build_system(
            random_topology(2), "rtl-sp", riders=Riders(("sp",))
        )
        assert system.name.endswith(":rtl-sp")
        assert all(type(s) is LockstepShell for s in shells.values())
        assert compile_fabric.lowerable(system.blocks)
        before = compile_fabric.cache_stats()
        Simulation(system).run(CYCLES, deadlock_window=WINDOW)
        after = compile_fabric.cache_stats()
        assert after["lowered"] == before["lowered"] + 1
        assert after["reference"] == before["reference"]

    def test_reset_then_rerun(self):
        # Restoring the power-up checkpoint must restore both decisions
        # too (the SP processor, the RTL simulator), or the rerun would
        # diverge.
        topology = random_topology(6)

        def observe(style, *riders):
            system, shells, sinks = build_system(
                topology, style, trace=True,
                riders=Riders(riders) if riders else None,
            )
            simulation = Simulation(system)
            power_up = simulation.checkpoint()
            simulation.run(55)
            simulation.restore(power_up)
            simulation.run(CYCLES, deadlock_window=WINDOW)
            return (
                {name: shell.trace_enable for name, shell in shells.items()},
                {name: list(sink.received) for name, sink in sinks.items()},
            )

        assert observe("rtl-sp", "sp") == observe("rtl-sp") == observe("sp")

    def test_spans_name_the_checked_style(self):
        session = telemetry.activate(TelemetrySession(buffered=True))
        try:
            _lockstepped(random_topology(3), ("fsm", "rtl-fsm", "sp"))
        finally:
            telemetry.deactivate()
        spans = [
            (r["name"], r["style"], r.get("riders"))
            for r in session.drain()
            if r["kind"] == "span"
        ]
        assert spans == [
            ("build", "rtl-fsm", ("fsm",)),
            ("simulate", "rtl-fsm", ("fsm",)),
            ("build", "sp", None),
            ("simulate", "sp", None),
        ]

    @pytest.mark.parametrize("seed", DETACHING_SEEDS[:1] + RIDING_SEEDS[:1])
    def test_group_spans_name_their_riders(self, seed):
        session = telemetry.activate(TelemetrySession(buffered=True))
        try:
            _lockstepped(random_topology(seed), DYNAMIC_STYLES)
        finally:
            telemetry.deactivate()
        spans = [
            (r["name"], r["style"], r.get("riders"))
            for r in session.drain()
            if r["kind"] == "span"
        ]
        # Styles that detach at cycle 0 still rode into it.
        group = [
            ("build", "rtl-sp", ("sp", "rtl-fsm", "fsm")),
            ("simulate", "rtl-sp", ("sp", "rtl-fsm", "fsm")),
        ]
        detached = [
            ("build", "rtl-fsm", ("fsm",)),
            ("simulate", "rtl-fsm", ("fsm",)),
        ]
        assert spans == group + (detached if seed in DETACHING_SEEDS else [])


def _group_runs(topology, styles=None, **kwargs):
    """run_styles over ``styles`` (default: the random style set), with
    the lockstep counters that moved and the cycles styles detached
    at."""
    styles = styles_for_traffic("random") if styles is None else styles
    before = lockstep_stats()
    runs = run_styles(topology, styles, CYCLES, WINDOW, **kwargs)
    after = lockstep_stats()
    cycles = [
        int(key.rpartition(".")[2])
        for key, n in after.items()
        if key.startswith("detached.") and n != before.get(key, 0)
    ]
    return runs, _moved(before, after), cycles


class TestFallback:
    """What a disagreement or an exception does: a riding style
    detaches on its own; a run that raises runs its lead alone."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rtl_decision_flip(self, monkeypatch, seed):
        """Every RTL shell of one process holds back a fire: rtl-fsm
        still agrees with the rtl-sp lead (or, regrouped, leads), and
        sp and fsm detach on their own, with nothing raising."""
        topology = random_topology(seed)
        # From cycle 20 on: seed 1 deadlocks at cycle 91, its last fire
        # well before cycle 30.
        hold_one_fire(
            monkeypatch, RTLShell, topology.processes[0].name, 20
        )
        styles = styles_for_traffic("random")
        runs, moved, cycles = _group_runs(topology)
        assert "fallbacks" not in moved
        assert max(cycles) >= 20
        separate = _separately(topology, styles)
        _assert_same(runs, separate)
        assert runs["rtl-sp"] is not runs["sp"]
        assert runs["rtl-fsm"] is not runs["fsm"]
        # The separate runs show the flip itself: both RTL styles fire
        # one cycle late, and nothing raises.
        for checked, reference in (("rtl-sp", "sp"), ("rtl-fsm", "fsm")):
            assert separate[checked].error is None
            assert separate[reference].error is None
            assert separate[checked].traces != separate[reference].traces

    def test_behavioural_side_exception(self, monkeypatch):
        """The behavioural rider raises in its decision, and in the
        same cycle the RTL lead pushes into a full port: the run raises,
        so the lead runs alone and the rider regroups on its own; each
        separate run reports its own exception."""
        # Activations planned for the unstalled topology, run under a
        # stall plan: the shift-register shells fire into an irregular
        # stream, and the behavioural one raises.
        topology = random_topology(0, PROFILE_PRESETS["regular"])
        plans = plan_topology_activations(topology, CYCLES, WINDOW)
        monkeypatch.setattr(
            cases, "_plan_activations", lambda *args, **kwargs: plans
        )
        stalls = derive_stall_plan(
            topology_link_names(topology), random.Random(3), CYCLES,
            max_events=4, max_duration=30,
        )
        styles = ("shiftreg", "rtl-shiftreg")
        runs, moved, _cycles = _group_runs(
            topology, styles, stalls=stalls
        )
        assert moved == {"runs": 1, "fallbacks": 1}
        _assert_same(
            runs,
            _separately(topology, styles, stalls=stalls, activations=plans),
        )
        assert "static schedule violated" in runs["shiftreg"].error
        assert "push on full output port" in runs["rtl-shiftreg"].error

    @pytest.mark.parametrize("seed", DETACHING_SEEDS + RIDING_SEEDS)
    def test_lead_exception_runs_the_lead_alone(self, monkeypatch, seed):
        """The rtl-sp lead raises: its run is discarded, rtl-sp runs
        alone and reports it, sp runs alone, and the FSM styles regroup
        as a pair led by rtl-fsm."""
        topology = random_topology(seed)
        clean = _group_runs(topology)[0]
        decide = RTLShell._sync_ready

        def raising(self, cycle, ready):
            if cycle >= 25 and self.module.name == "sp_wrapper":
                raise RuntimeError("lead bug")
            return decide(self, cycle, ready)

        monkeypatch.setattr(RTLShell, "_sync_ready", raising)
        runs, moved, _cycles = _group_runs(topology)
        assert moved["fallbacks"] == 1 and moved["runs"] == 2
        assert runs["rtl-sp"].error == "RuntimeError: lead bug"
        for style in ("sp", "rtl-fsm", "fsm", "combinational"):
            assert runs[style] == clean[style]
        assert runs["rtl-fsm"] is runs["fsm"] is not runs["sp"]
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )

    def test_different_scripts_refuse_lockstep(self, monkeypatch):
        """``sp`` walking another script than its ``rtl-sp`` lead on one
        process detaches before cycle 0 (counted at cycle 0) and runs
        alone; the other styles ride on."""
        topology = random_topology(RIDING_SEEDS[0])
        victim = topology.processes[0].name
        build = SPWrapper.__init__

        def rescripted(self, pearl, *args, **kwargs):
            build(self, pearl, *args, **kwargs)
            if pearl.name == victim:
                first = self._script[0]
                self._script = [
                    dataclasses.replace(first, run=first.run + 1),
                    *self._script[1:],
                ]

        monkeypatch.setattr(SPWrapper, "__init__", rescripted)
        runs, moved, cycles = _group_runs(topology)
        assert moved == {"runs": 1, "grouped": 1, "detached": 1}
        assert cycles == [0]
        assert runs["rtl-sp"] is runs["rtl-fsm"] is runs["fsm"]
        assert runs["sp"] is not runs["rtl-sp"]
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )

    def test_rider_with_a_different_script_detaches_before_cycle_0(self):
        topology = random_topology(4)
        node = topology.processes[0]
        pearl = MixPearl(node.name, node.schedule)
        riders = FSMWrapper(pearl), SPWrapper(pearl), FSMWrapper(pearl)
        first = riders[1]._script[0]
        riders[1]._script = [
            dataclasses.replace(first, run=first.run + 1),
            *riders[1]._script[1:],
        ]
        detach = Riders(("fsm", "sp", "fsm"))
        shell = LockstepShell(FSMWrapper(pearl), riders, detach)
        assert shell.detach is detach
        assert detach.detached == [None, -1, None]
        assert detach.riding == (0, 2)
        assert detach.riding_at(0) == ("fsm", "fsm")


class TestRiders:
    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("seed", DETACHING_SEEDS + RIDING_SEEDS)
    def test_detaching_and_riding_groups(self, seed, engine):
        topology = random_topology(seed)
        runs, moved, cycles = _group_runs(topology, engine=engine)
        _assert_same(
            runs,
            _separately(topology, styles_for_traffic("random"), engine),
        )
        if seed in DETACHING_SEEDS:
            assert cycles == [0]
            assert moved == {"runs": 2, "grouped": 1, "detached": 2}
            assert runs["rtl-fsm"] is runs["fsm"] is not runs["sp"]
        else:
            assert moved == {"runs": 1, "grouped": 1}
            assert runs["rtl-fsm"] is runs["fsm"] is runs["sp"]
        assert runs["rtl-sp"] is runs["sp"]

    @pytest.mark.parametrize("seed", RIDING_SEEDS)
    def test_flip_in_a_rider_pair(self, monkeypatch, seed):
        """Both FSM styles of one process hold back a fire at cycle 30
        (the two agree, so their pair is sound): both detach from the
        SP lead, the SP styles' runs are unchanged, the regrouped FSM
        pair's own lockstep run shows the late fire, and nothing
        raises."""
        topology = random_topology(seed)
        clean = _group_runs(topology)[0]
        victim = topology.processes[0].name
        hold_one_fire(monkeypatch, FSMWrapper, victim, 30)
        hold_one_fire(
            monkeypatch, RTLShell, victim, 30,
            only=lambda shell: shell.module.name == "fsm_wrapper",
        )
        runs, moved, cycles = _group_runs(topology)
        assert moved == {"runs": 2, "grouped": 1, "detached": 2}
        assert cycles[0] >= 30
        for style in ("sp", "rtl-sp", "combinational"):
            assert runs[style] == clean[style]
        assert runs["rtl-fsm"] is runs["fsm"]
        assert runs["fsm"].error is None
        assert runs["fsm"].traces != clean["fsm"].traces
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )

    @pytest.mark.parametrize("seed", RIDING_SEEDS)
    def test_flip_in_one_rider_decision(self, monkeypatch, seed):
        """Only ``fsm`` holds back a fire: ``fsm`` detaches alone, the
        other styles ride on unchanged, and its own run reports the
        trace difference with no exception."""
        topology = random_topology(seed)
        clean = _group_runs(topology)[0]
        hold_one_fire(
            monkeypatch, FSMWrapper, topology.processes[0].name, 30
        )
        runs, moved, cycles = _group_runs(topology)
        assert moved == {"runs": 1, "grouped": 1, "detached": 1}
        assert cycles[0] >= 30
        for style in ("sp", "rtl-sp", "rtl-fsm", "combinational"):
            assert runs[style] == clean[style]
        assert runs["rtl-fsm"] is runs["rtl-sp"] is not runs["fsm"]
        assert runs["fsm"].error is None
        assert runs["fsm"].traces != runs["rtl-fsm"].traces
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )

    @pytest.mark.parametrize("seed", DETACHING_SEEDS + RIDING_SEEDS)
    def test_held_fire_in_the_lead_s_reference(self, monkeypatch, seed):
        """``sp``, the reference of the ``rtl-sp`` lead, holds back a
        fire: ``sp`` detaches alone, no run raises, and its own run
        shows the trace difference with no exception."""
        topology = random_topology(seed)
        clean = _group_runs(topology)[0]
        hold_one_fire(
            monkeypatch, SPWrapper, topology.processes[0].name, 20
        )
        runs, moved, cycles = _group_runs(topology)
        assert "fallbacks" not in moved
        assert max(cycles) >= 20
        assert moved["detached"] == (3 if seed in DETACHING_SEEDS else 1)
        for style in ("rtl-sp", "rtl-fsm", "fsm", "combinational"):
            assert runs[style] == clean[style]
        assert runs["sp"].error is None
        assert runs["sp"].traces != runs["rtl-sp"].traces
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )

    def test_rider_exception_detaches(self, monkeypatch):
        """A riding decision that raises detaches that style alone; its
        own run then reports the exception."""
        topology = random_topology(RIDING_SEEDS[0])
        clean = _group_runs(topology)[0]
        decide = FSMWrapper._sync_ready

        def raising(self, cycle, ready):
            if cycle == 40:
                raise RuntimeError("rider bug")
            return decide(self, cycle, ready)

        monkeypatch.setattr(FSMWrapper, "_sync_ready", raising)
        runs, moved, cycles = _group_runs(topology)
        assert moved == {"runs": 1, "grouped": 1, "detached": 1}
        assert cycles == [40]
        for style in ("sp", "rtl-sp", "rtl-fsm", "combinational"):
            assert runs[style] == clean[style]
        assert runs["fsm"].error == "RuntimeError: rider bug"
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )


class TestOrder:
    @pytest.mark.parametrize(
        "styles",
        [
            ("rtl-fsm", "sp", "fsm", "rtl-sp"),
            ("rtl-sp", "combinational", "sp"),
            ("rtl-shiftreg", "sp", "shiftreg", "rtl-fsm", "fsm"),
        ],
    )
    def test_runs_follow_styles(self, styles):
        topology = random_topology(5, PROFILE_PRESETS["regular"])
        runs = _lockstepped(topology, styles)
        assert list(runs) == list(styles)
        _assert_same(runs, _separately(topology, styles))

    def test_pairs(self):
        # Each cycle-exact pair joins its group checked style first; a
        # style in no pair is a group of its own.
        assert lockstep_groups(("rtl-fsm", "fsm", "combinational")) == (
            ("rtl-fsm", "fsm"),
            ("combinational",),
        )
        # shiftreg needs a planned activation and fsm does not.
        assert lockstep_groups(("fsm", "shiftreg")) == (
            ("fsm",), ("shiftreg",),
        )
        assert lockstep_groups(("rtl-fsm", "no-such-style")) == (
            ("rtl-fsm",), ("no-such-style",),
        )
        # The styles left over after a detach regroup the same way.
        assert lockstep_groups(("sp", "rtl-fsm", "fsm")) == (
            ("sp",), ("rtl-fsm", "fsm"),
        )

    def test_groups(self):
        assert lockstep_groups(styles_for_traffic("regular")) == (
            ("rtl-sp", "sp", "rtl-fsm", "fsm"),
            ("combinational",),
            ("rtl-shiftreg", "shiftreg"),
        )
        # The first pair in styles order leads, in order of first
        # appearance of any member.
        assert lockstep_groups(("rtl-fsm", "sp", "fsm", "rtl-sp")) == (
            ("rtl-fsm", "fsm", "rtl-sp", "sp"),
        )
        assert lockstep_groups(("fsm", "rtl-fsm")) == (("rtl-fsm", "fsm"),)
