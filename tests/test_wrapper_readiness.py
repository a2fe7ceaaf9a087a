"""The readiness word every wrapper decision reads.

A shell's decision hooks (``_sync_ready``/``_run_gate_ok``) receive one
int per cycle: bit *i* set when schedule input *i* is not empty, bit
*n_in + j* when schedule output *j* is not full.  The reference loop
builds it in ``Shell.consume`` and the lowered fabric inline from its
FIFO locals, which equals the ports' ``not_empty``/``not_full`` only
because nothing has been popped or pushed yet when a wrapper step
starts.  These tests pin that word, for every style, lockstep pair
(whose lead and companion must both receive it) and lockstep group
(whose riders receive it too, while they ride), under both fabric
engines and both RTL engines, and check that ``RTLShell`` keeps its
simulator and bound driver across a checkpoint restore.
"""

from __future__ import annotations

import pytest

from repro.lis import compile_fabric
from repro.rtl import compile_sim
from repro.lis.simulator import Simulation
from repro.sched.generate import PROFILE_PRESETS, random_topology
from repro.verify.cases import build_system
from repro.verify.lockstep import Riders, lockstep_groups, lockstep_pairs
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import styles_for_traffic

CYCLES = 150


def _port_word(shell) -> int:
    """The readiness word the ports' own properties give."""
    schedule = shell.pearl.schedule
    bits = [
        *(shell.in_ports[name].not_empty for name in schedule.inputs),
        *(shell.out_ports[name].not_full for name in schedule.outputs),
    ]
    return sum(bool(bit) << k for k, bit in enumerate(bits))


def _watch_decisions(shells, log: dict) -> None:
    """At every wrapper-step start, record the port word and whether
    any port has popped or pushed this cycle already; at every
    decision (of each shell, of a lockstep shell's lead and companion,
    and of its riders, counted apart) record whether it received that
    word."""
    for shell in shells.values():
        deciders = [shell]
        riders = []
        if hasattr(shell, "lead"):
            deciders += [shell.lead, shell.companion]
            riders = [rider for pair in shell.riders for rider in pair]
        log["deciders"] += len(deciders)
        word = []
        step = shell._wrapper_step

        def started(cycle, ready, shell=shell, step=step, word=word):
            word[:] = [_port_word(shell)]
            log["steps"] += 1
            log["dirty"] += any(
                p._popped for p in shell.in_ports.values()
            ) or any(p._pushed for p in shell.out_ports.values())
            log["nonzero"] += word[0] != 0
            step(cycle, ready)

        shell._wrapper_step = started
        for decider in deciders + riders:
            count = "decisions" if decider in deciders else "rides"
            for hook in ("_sync_ready", "_run_gate_ok"):
                def received(cycle, ready, decide=getattr(decider, hook),
                             word=word, count=count):
                    log[count] += 1
                    log["wrong"] += ready != word[0]
                    return decide(cycle, ready)

                setattr(decider, hook, received)


def _variants(styles):
    """Every style alone, every lockstep pair (style, reference), then
    every lockstep group with riders (style, reference, rider pairs)."""
    return (
        [(style, None, ()) for style in styles]
        + [(*pair, ()) for pair in lockstep_pairs(styles)]
        + [(*group[0], group[1:]) for group in lockstep_groups(styles)
           if len(group) > 1]
    )


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize(
    "profile, traffic", [("small", "random"), ("regular", "regular")]
)
@pytest.mark.parametrize("seed", range(3))
def test_nothing_popped_or_pushed_at_wrapper_step_start(
    seed, profile, traffic, reference
):
    """Each decision receives the port word of its step's start, and
    nothing is popped or pushed before it, under both RTL engines."""
    topology = random_topology(seed, PROFILE_PRESETS[profile])
    activations = (
        plan_topology_activations(topology, CYCLES)
        if traffic == "regular"
        else None
    )
    for engine in ("compiled", "interp"):
        for build in _variants(styles_for_traffic(traffic)):
            _check_decisions(
                topology, *build, engine, activations, reference
            )


def _check_decisions(
    topology, style, pair, riders, engine, activations, reference
):
    """Run one style (or lockstep pair or group) under one RTL engine
    and fabric engine, checking every decision's word."""
    label = f"{style}+{pair}{riders}/{engine}"
    detach = Riders(riders) if riders else None
    system, shells, sinks = build_system(
        topology, style, engine=engine, activations=activations,
        reference=pair, riders=detach,
    )
    log = dict.fromkeys(
        ("deciders", "steps", "dirty", "nonzero", "decisions", "rides",
         "wrong"), 0,
    )
    _watch_decisions(shells, log)
    simulation = Simulation(system)
    if reference:
        simulation.add_watcher(lambda cycle: None)
    before = compile_fabric.cache_stats()
    simulation.run(CYCLES, deadlock_window=64)
    fabric = "reference" if reference else "lowered"
    assert compile_fabric.cache_stats()[fabric] == before[fabric] + 1
    assert log["steps"] and not log["dirty"], label
    assert log["nonzero"] and not log["wrong"], label
    # One decision per step by the shell, its lead and companion.
    per_shell = log["deciders"] // len(shells)
    assert log["decisions"] == log["steps"] * per_shell, label
    # And one by each rider while it rides: on every step when it
    # never detaches, else at least its detaching decision.
    if detach is None:
        assert not log["rides"], label
    elif detach.riding:
        assert log["rides"] == log["steps"] * 2 * len(riders), label
    else:
        assert 0 < log["rides"] < log["steps"] * 2 * len(riders), label
    assert any(sink.received for sink in sinks.values()), label


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
