"""Lockstep simulation of cycle-exact style pairs and groups.

``run_styles`` simulates the cycle-exact pairs in lockstep groups, with
:class:`~repro.verify.lockstep.LockstepShell` shells taking both
styles' decisions every cycle (and those of the rider pairs riding
along), and falls back to separate runs when the primary pair
disagrees or anything raises; a rider pair that disagrees detaches and
runs as a pair of its own.  Its result must equal simulating every
style separately through ``simulate_topology``, field by field, and
keep the order of ``styles``.
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
    LockstepDivergence,
    LockstepShell,
    Riders,
    lockstep_groups,
    lockstep_pairs,
    lockstep_stats,
)
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import SHIFTREG_STYLES, styles_for_traffic
from repro.verify.telemetry import TelemetrySession
from tests.conftest import hold_one_fire

CYCLES = 200
WINDOW = 64
DYNAMIC_STYLES = ("fsm", "sp", "rtl-sp", "rtl-fsm")
#: Topologies (random profile) whose rider pair rtl-fsm/fsm detaches
#: from the primary rtl-sp/sp at cycle 0 (the SP's reset cycle), and
#: ones it rides to the end.
DETACHING_SEEDS = (0, 3)
RIDING_SEEDS = (2, 4)


def _separately(
    topology, styles, engine=None, stalls=(), trace=True, activations=None
) -> dict[str, StyleRun]:
    """Every style simulated on its own, the way ``run_styles`` falls
    back (shift-register styles get the FSM-planned activation)."""
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
    """``run_styles`` with every group in lockstep and no fallback: one
    run per group, plus one per rider pair that detached."""
    before = lockstep_stats()
    runs = run_styles(topology, styles, CYCLES, WINDOW, **kwargs)
    moved = _moved(before, lockstep_stats())
    groups = lockstep_groups(styles)
    assert "fallbacks" not in moved
    assert moved["runs"] == len(groups) + moved.get("detached", 0)
    assert moved.get("grouped", 0) <= sum(len(g) > 1 for g in groups)
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
            random_topology(2), "rtl-sp", reference="sp"
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

        def observe(style, reference=None):
            system, shells, sinks = build_system(
                topology, style, trace=True, reference=reference
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
            (r["name"], r["style"], r.get("reference"))
            for r in session.drain()
            if r["kind"] == "span"
        ]
        assert spans == [
            ("build", "rtl-fsm", "fsm"),
            ("simulate", "rtl-fsm", "fsm"),
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
            (r["name"], r["style"], r.get("reference"), r.get("riders"))
            for r in session.drain()
            if r["kind"] == "span"
        ]
        group = [
            ("build", "rtl-sp", "sp", ("rtl-fsm", "fsm")),
            ("simulate", "rtl-sp", "sp", ("rtl-fsm", "fsm")),
        ]
        detached = [
            ("build", "rtl-fsm", "fsm", None),
            ("simulate", "rtl-fsm", "fsm", None),
        ]
        assert spans == group + (detached if seed in DETACHING_SEEDS else [])


class TestFallback:
    @pytest.mark.parametrize("seed", range(4))
    def test_rtl_decision_flip(self, monkeypatch, seed):
        topology = random_topology(seed)
        # From cycle 20 on: seed 1 deadlocks at cycle 91, its last fire
        # well before cycle 30.
        hold_one_fire(
            monkeypatch, RTLShell, topology.processes[0].name, 20
        )
        styles = styles_for_traffic("random")
        before = lockstep_stats()
        runs = run_styles(topology, styles, CYCLES, WINDOW)
        fallbacks = lockstep_stats()["fallbacks"] - before["fallbacks"]
        assert fallbacks >= 1
        separate = _separately(topology, styles)
        _assert_same(runs, separate)
        # The separate runs show the flip itself: both RTL styles fire
        # one cycle late, and nothing raises.
        for checked, reference in (("rtl-sp", "sp"), ("rtl-fsm", "fsm")):
            assert separate[checked].error is None
            assert separate[reference].error is None
            assert separate[checked].traces != separate[reference].traces

    def test_behavioural_side_exception(self, monkeypatch):
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
        before = lockstep_stats()
        runs = run_styles(topology, styles, CYCLES, WINDOW, stalls=stalls)
        assert lockstep_stats()["fallbacks"] == before["fallbacks"] + 1
        _assert_same(
            runs,
            _separately(topology, styles, stalls=stalls, activations=plans),
        )
        assert "static schedule violated" in runs["shiftreg"].error

    def test_different_scripts_refuse_lockstep(self):
        topology = random_topology(4)
        node = topology.processes[0]
        pearl = MixPearl(node.name, node.schedule)
        lead, companion = FSMWrapper(pearl), SPWrapper(pearl)
        first = companion._script[0]
        companion._script = [
            dataclasses.replace(first, run=first.run + 1),
            *companion._script[1:],
        ]
        with pytest.raises(LockstepDivergence, match="different scripts"):
            LockstepShell(lead, companion)

    def test_rider_with_a_different_script_detaches_before_cycle_0(self):
        topology = random_topology(4)
        node = topology.processes[0]
        pearl = MixPearl(node.name, node.schedule)
        rider = FSMWrapper(pearl), FSMWrapper(pearl)
        first = rider[1]._script[0]
        rider[1]._script = [
            dataclasses.replace(first, run=first.run + 1),
            *rider[1]._script[1:],
        ]
        riders = Riders((("fsm", "fsm"),))
        shell = LockstepShell(
            FSMWrapper(pearl), FSMWrapper(pearl), [rider], riders
        )
        assert shell.detach is riders
        assert riders.detached == [-1] and riders.riding == ()



class TestRiders:
    def _group_runs(self, topology, **kwargs):
        """run_styles over the random style set, with the lockstep
        counters that moved and the cycles riders detached at."""
        styles = styles_for_traffic("random")
        before = lockstep_stats()
        runs = run_styles(topology, styles, CYCLES, WINDOW, **kwargs)
        after = lockstep_stats()
        cycles = [
            int(key.rpartition(".")[2])
            for key, n in after.items()
            if key.startswith("detached.") and n != before.get(key, 0)
        ]
        return runs, _moved(before, after), cycles

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("seed", DETACHING_SEEDS + RIDING_SEEDS)
    def test_detaching_and_riding_groups(self, seed, engine):
        topology = random_topology(seed)
        runs, moved, cycles = self._group_runs(topology, engine=engine)
        _assert_same(
            runs,
            _separately(topology, styles_for_traffic("random"), engine),
        )
        if seed in DETACHING_SEEDS:
            assert cycles == [0]
            assert moved == {"runs": 2, "grouped": 1, "detached": 1}
            assert runs["rtl-fsm"] is runs["fsm"] is not runs["sp"]
        else:
            assert moved == {"runs": 1, "grouped": 1}
            assert runs["rtl-fsm"] is runs["fsm"] is runs["sp"]
        assert runs["rtl-sp"] is runs["sp"]

    @pytest.mark.parametrize("seed", RIDING_SEEDS)
    def test_flip_in_a_rider_pair(self, monkeypatch, seed):
        """Both FSM styles of one process hold back a fire at cycle 30
        (the two agree, so their pair is sound): the rider pair detaches
        from the SP lead, the primary pair's runs are unchanged, the
        rider pair's own lockstep run shows the late fire, and nothing
        falls back."""
        topology = random_topology(seed)
        clean = self._group_runs(topology)[0]
        victim = topology.processes[0].name
        hold_one_fire(monkeypatch, FSMWrapper, victim, 30)
        hold_one_fire(
            monkeypatch, RTLShell, victim, 30,
            only=lambda shell: shell.module.name == "fsm_wrapper",
        )
        runs, moved, cycles = self._group_runs(topology)
        assert moved == {"runs": 2, "grouped": 1, "detached": 1}
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
        """Only ``fsm`` holds back a fire: the rider pair detaches, the
        primary pair's runs are unchanged, and the rider pair's own
        lockstep run falls back to separate runs, which report the
        trace difference with no exception."""
        topology = random_topology(seed)
        clean = self._group_runs(topology)[0]
        hold_one_fire(
            monkeypatch, FSMWrapper, topology.processes[0].name, 30
        )
        runs, moved, cycles = self._group_runs(topology)
        assert moved == {
            "runs": 2, "grouped": 1, "detached": 1, "fallbacks": 1,
        }
        for style in ("sp", "rtl-sp", "rtl-fsm", "combinational"):
            assert runs[style] == clean[style]
        assert runs["fsm"].error is None
        assert runs["fsm"].traces != runs["rtl-fsm"].traces
        _assert_same(
            runs, _separately(topology, styles_for_traffic("random"))
        )

    def test_rider_exception_detaches(self, monkeypatch):
        """A rider decision that raises detaches its pair; the pair's
        own runs then report the exception."""
        topology = random_topology(RIDING_SEEDS[0])
        clean = self._group_runs(topology)[0]
        decide = FSMWrapper._sync_ready

        def raising(self, cycle, ready):
            if cycle == 40:
                raise RuntimeError("rider bug")
            return decide(self, cycle, ready)

        monkeypatch.setattr(FSMWrapper, "_sync_ready", raising)
        runs, moved, cycles = self._group_runs(topology)
        assert moved == {
            "runs": 2, "grouped": 1, "detached": 1, "fallbacks": 1,
        }
        assert runs["sp"] == clean["sp"]
        assert runs["fsm"].error == "RuntimeError: rider bug"


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
        assert lockstep_pairs(styles_for_traffic("regular")) == (
            ("rtl-sp", "sp"),
            ("rtl-fsm", "fsm"),
            ("rtl-shiftreg", "shiftreg"),
        )
        # shiftreg needs a planned activation and fsm does not.
        assert lockstep_pairs(("fsm", "shiftreg")) == ()
        assert lockstep_pairs(("rtl-fsm", "no-such-style")) == ()

    def test_groups(self):
        assert lockstep_groups(styles_for_traffic("regular")) == (
            (("rtl-sp", "sp"), ("rtl-fsm", "fsm")),
            (("rtl-shiftreg", "shiftreg"),),
        )
        # The first pair in styles order is the primary.
        assert lockstep_groups(("rtl-fsm", "sp", "fsm", "rtl-sp")) == (
            (("rtl-fsm", "fsm"), ("rtl-sp", "sp")),
        )
        assert lockstep_groups(("fsm", "rtl-fsm")) == (
            (("rtl-fsm", "fsm"),),
        )
