"""Wrapper readiness read straight from the port FIFOs.

FSM, SP, combinational and RTL-in-the-loop shells test readiness on the
port deques they bind once (``Shell._readiness``, the ``RTLShell``
per-cycle driver) instead of the ``not_empty``/``not_full``
properties.  An input is then ready when its deque is non-empty, which
equals ``not_empty`` only because nothing has been popped yet when a
wrapper step starts; these tests pin that, under both the lowered
fabric and the reference loop, and check that ``RTLShell`` keeps its
simulator and bound driver across a checkpoint restore.
"""

from __future__ import annotations

import pytest

from repro.lis import compile_fabric
from repro.rtl import compile_sim
from repro.lis.simulator import Simulation
from repro.sched.generate import PROFILE_PRESETS, random_topology
from repro.verify.cases import build_system
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import styles_for_traffic

CYCLES = 150


def _watch_step_starts(shells, starts: list) -> None:
    """Record, at every wrapper-step start, whether any input port has
    popped or any output port has pushed this cycle already."""
    for shell in shells.values():
        step = shell._wrapper_step

        def checked(cycle, shell=shell, step=step):
            starts.append(
                any(p._popped for p in shell.in_ports.values())
                or any(p._pushed for p in shell.out_ports.values())
            )
            step(cycle)

        shell._wrapper_step = checked


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize(
    "profile, traffic", [("small", "random"), ("regular", "regular")]
)
@pytest.mark.parametrize("seed", range(3))
def test_nothing_popped_or_pushed_at_wrapper_step_start(
    seed, profile, traffic, reference
):
    topology = random_topology(seed, PROFILE_PRESETS[profile])
    activations = (
        plan_topology_activations(topology, CYCLES)
        if traffic == "regular"
        else None
    )
    for style in styles_for_traffic(traffic):
        system, shells, sinks = build_system(
            topology, style, activations=activations
        )
        starts: list[bool] = []
        _watch_step_starts(shells, starts)
        simulation = Simulation(system)
        if reference:
            simulation.add_watcher(lambda cycle: None)
        before = compile_fabric.cache_stats()
        simulation.run(CYCLES, deadlock_window=64)
        engine = "reference" if reference else "lowered"
        assert compile_fabric.cache_stats()[engine] == before[engine] + 1
        assert starts and not any(starts), style
        assert any(sink.received for sink in sinks.values()), style


def _run_restore_rerun(style: str, engine: str):
    """Streams of a run, then of a rerun after restoring the power-up
    checkpoint, plus the shells, the (simulator, driver) pairs their
    first run bound and the compiled transitions the rerun learned;
    ``engine="interp"`` drives the RTL by name."""
    system, shells, sinks = build_system(
        random_topology(6), style, engine=engine
    )
    simulation = Simulation(system)
    power_up = simulation.checkpoint()
    simulation.run(CYCLES)
    first = {name: list(sink.received) for name, sink in sinks.items()}
    bound = {name: (shell.rtl, shell._drive) for name, shell in shells.items()}
    simulation.restore(power_up)
    before = compile_sim.cache_stats()["transitions"]
    simulation.run(CYCLES)
    learned = compile_sim.cache_stats()["transitions"] - before
    second = {name: list(sink.received) for name, sink in sinks.items()}
    return first, second, shells, bound, learned


@pytest.mark.parametrize("style", ["rtl-sp", "rtl-fsm"])
def test_rtl_shell_keeps_its_driver_across_a_restore(style):
    first, second, shells, bound, learned = _run_restore_rerun(
        style, "compiled"
    )
    for name, shell in shells.items():
        rtl, drive = bound[name]
        assert drive is not None
        assert shell.rtl is rtl and shell._drive is drive
        # The restore rewound the simulator to just after the reset
        # edge; the rerun added one edge per cycle.
        assert shell.rtl.cycle == 1 + CYCLES
    # The rerun repeats the first run's transitions, all of them
    # already in the kept driver's table.
    assert learned == 0
    assert first == second
    assert any(second.values())
    # The kept driver must drive the restored state, as the by-name
    # engine does.
    assert (first, second) == _run_restore_rerun(style, "interp")[:2]
