"""Settle-once clocking of the compiled RTL engine.

``CompiledSimulator.step`` clocks registers only and defers the settle
the interpreter runs at the end of every step until the environment is
next observed.  Every observation after an edge-only step must still
equal the interpreter's: ``peek``, ``peek_flat``, a poke followed by a
peek (the "pre-poke" view), ``env``, ``step(n > 1)`` and a peek of a
pruned (dead) net.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.rtlgen import generate_fsm_wrapper, generate_sp_wrapper
from repro.rtl.compile_sim import CompiledSimulator
from repro.rtl.module import Module
from repro.rtl.simulator import InterpSimulator
from repro.sched.generate import random_topology


def _pipeline() -> Module:
    """Registers feeding live nets and, inside an instance, a pruned
    one (top-level nets are never pruned)."""
    child = Module("tap")
    x = child.input("x", 8)
    ca = child.input("a", 8)
    child.assign(child.output("y", 8), x + 1)
    scratch = child.wire("scratch", 8)
    child.assign(scratch, x + ca + 3)  # feeds nothing: a pruned net
    m = Module("pipe")
    m.add_clock()
    rst = m.input("rst")
    a = m.input("a", 8)
    acc = m.wire("acc", 8)
    stage = m.wire("stage", 8)
    y = m.output("y", 8)
    z = m.output("z", 8)
    m.register(acc, acc + a, reset=rst)
    m.register(stage, acc, reset=rst)
    m.assign(y, acc + stage)
    m.instantiate(child, "u0", {"x": acc, "a": a, "y": z})
    return m


def _engines(module: Module):
    interp = InterpSimulator(module)
    compiled = CompiledSimulator(module)
    for sim in (interp, compiled):
        sim.poke("rst", 1)
        sim.step()
        sim.poke("rst", 0)
        sim.poke("a", 5)
        sim.step()
    return interp, compiled


def _flat_view(sim) -> dict[str, int]:
    return {name: sim.peek_flat(name) for name in sim.flat_names()}


def test_step_defers_the_settle():
    _interp, compiled = _engines(_pipeline())
    assert compiled._unsettled
    compiled.settle()
    assert not compiled._unsettled


def test_peek_after_edge_only_step():
    interp, compiled = _engines(_pipeline())
    for name in ("y", "z", "acc", "stage", "a"):
        assert compiled.peek(name) == interp.peek(name), name


def test_peek_flat_after_edge_only_step():
    interp, compiled = _engines(_pipeline())
    assert _flat_view(compiled) == _flat_view(interp)


def test_poke_then_peek_keeps_the_pre_poke_view():
    interp, compiled = _engines(_pipeline())
    for sim in (interp, compiled):
        sim.poke("a", 200)  # no settle: y still reflects the old inputs
    assert compiled.peek("y") == interp.peek("y")
    assert compiled.peek_flat("u0.scratch") == interp.peek_flat(
        "u0.scratch"
    )
    for sim in (interp, compiled):
        sim.settle()
    assert _flat_view(compiled) == _flat_view(interp)


def test_env_settles_first():
    interp, compiled = _engines(_pipeline())
    env = compiled.env
    assert not compiled._unsettled
    for name in ("y", "acc", "stage"):
        assert env[compiled.slot(name)] == interp.peek(name), name


@pytest.mark.parametrize("cycles", [2, 5])
def test_multi_cycle_step(cycles):
    interp, compiled = _engines(_pipeline())
    interp.step(cycles)
    compiled.step(cycles)
    assert compiled.cycle == interp.cycle
    assert _flat_view(compiled) == _flat_view(interp)


def test_dead_net_peek_after_edge_only_step():
    interp, compiled = _engines(_pipeline())
    assert not compiled.is_live(compiled._name_slot["u0.scratch"])
    for _ in range(2):
        assert compiled.peek_flat("u0.scratch") == interp.peek_flat(
            "u0.scratch"
        )
        interp.step()
        compiled.step()


@pytest.mark.parametrize("seed", range(4))
def test_wrapper_modules_observed_every_way(seed):
    """Generated SP/FSM wrappers under random pokes, observed through
    every access path after each edge-only step."""
    topology = random_topology(seed)
    node = topology.processes[0]
    program = compile_schedule(node.schedule, CompilerOptions(fuse=False))
    rng = random.Random(seed)
    for module in (
        generate_sp_wrapper(program, schedule=node.schedule),
        generate_fsm_wrapper(node.schedule),
    ):
        inputs = [p.name for p in module.input_ports if p.name != "clk"]
        interp = InterpSimulator(module)
        compiled = CompiledSimulator(module)
        for cycle in range(40):
            pokes = {name: rng.getrandbits(1) for name in inputs}
            # Every third cycle settles after its pokes; the others
            # observe the pre-poke view.
            settle = cycle % 3 == 0
            for sim in (interp, compiled):
                for name, value in pokes.items():
                    sim.poke(name, value)
                if settle:
                    sim.settle()
            assert _flat_view(compiled) == _flat_view(interp), cycle
            steps = 1 + cycle % 2
            interp.step(steps)
            compiled.step(steps)
