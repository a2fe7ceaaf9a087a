"""Lockstep simulation of cycle-exact style pairs.

``run_styles`` simulates each cycle-exact pair once, with
:class:`~repro.verify.lockstep.LockstepShell` shells taking both styles'
decisions every cycle, and falls back to separate runs when the pair
disagrees or either style raises.  Its result must equal simulating
every style separately through ``simulate_topology``, field by field,
and keep the order of ``styles``.
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
    lockstep_pairs,
    lockstep_stats,
)
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import SHIFTREG_STYLES, styles_for_traffic
from repro.verify.telemetry import TelemetrySession

CYCLES = 200
WINDOW = 64
DYNAMIC_STYLES = ("fsm", "sp", "rtl-sp", "rtl-fsm")


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


def _lockstepped(topology, styles, **kwargs) -> dict[str, StyleRun]:
    """``run_styles`` with every pair in lockstep and no fallback."""
    before = lockstep_stats()
    runs = run_styles(topology, styles, CYCLES, WINDOW, **kwargs)
    after = lockstep_stats()
    assert after["runs"] - before["runs"] == len(lockstep_pairs(styles))
    assert after["fallbacks"] == before["fallbacks"]
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


def _flipping(monkeypatch, victim: str, at: int) -> None:
    """Make each RTL shell of process ``victim`` flip its first sync
    decision from cycle ``at`` on (every run builds fresh shells, so
    every run sees the same bug)."""
    real = RTLShell._sync_ready

    def flipped(self, cycle):
        enabled = real(self, cycle)
        if self.name != victim or cycle < at or hasattr(self, "flipped"):
            return enabled
        self.flipped = cycle
        return not enabled

    monkeypatch.setattr(RTLShell, "_sync_ready", flipped)


class TestFallback:
    @pytest.mark.parametrize("seed", range(4))
    def test_rtl_decision_flip(self, monkeypatch, seed):
        topology = random_topology(seed)
        _flipping(monkeypatch, topology.processes[0].name, 30)
        styles = styles_for_traffic("random")
        before = lockstep_stats()
        runs = run_styles(topology, styles, CYCLES, WINDOW)
        fallbacks = lockstep_stats()["fallbacks"] - before["fallbacks"]
        assert fallbacks >= 1
        separate = _separately(topology, styles)
        _assert_same(runs, separate)
        assert any(
            run.error is not None or run.traces != separate["fsm"].traces
            for run in (separate["rtl-fsm"], separate["rtl-sp"])
        )

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
