"""Settle-once clocking of the compiled RTL engine.

``CompiledSimulator.step`` clocks registers only and defers the settle
the interpreter runs at the end of every step until the environment is
next observed.  Every observation after an edge-only step must still
equal the interpreter's: ``peek``, ``peek_flat``, a poke followed by a
peek (the "pre-poke" view), ``step(n > 1)``, a peek of a net that feeds
nothing, and the per-cycle function ``fifo_driver`` returns, which
must also equal the interpreter's own ``fifo_driver``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.rtlgen import generate_fsm_wrapper, generate_sp_wrapper
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import synthesize_wrapper
from repro.rtl.compile_sim import CompiledSimulator
from repro.rtl.module import Module
from repro.rtl.simulator import InterpSimulator
from repro.sched.generate import random_topology


def _pipeline() -> Module:
    """Registers feeding nets at top level and, inside an instance, a
    net that feeds nothing."""
    child = Module("tap")
    x = child.input("x", 8)
    ca = child.input("a", 8)
    child.assign(child.output("y", 8), x + 1)
    scratch = child.wire("scratch", 8)
    child.assign(scratch, x + ca + 3)  # feeds nothing
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


@pytest.mark.parametrize("cycles", [2, 5])
def test_multi_cycle_step(cycles):
    interp, compiled = _engines(_pipeline())
    interp.step(cycles)
    compiled.step(cycles)
    assert compiled.cycle == interp.cycle
    assert _flat_view(compiled) == _flat_view(interp)


def test_dead_net_peek_after_edge_only_step():
    interp, compiled = _engines(_pipeline())
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


def _handshake() -> Module:
    """Two readiness inputs, two strobe outputs and a net that feeds
    nothing inside an instance: the shape of a FIFO-interfaced
    wrapper."""
    child = Module("tap")
    x = child.input("x")
    child.assign(child.output("y"), ~x)
    scratch = child.wire("scratch")
    child.assign(scratch, x ^ child.input("a"))  # feeds nothing
    m = Module("hs")
    m.add_clock()
    rst = m.input("rst")
    ready_in = m.input("in_not_empty")
    ready_out = m.input("out_not_full")
    state = m.wire("state")
    m.register(state, state ^ (ready_in & ready_out), reset=rst)
    m.assign(m.output("fire"), ready_in & ready_out & ~state)
    low = m.output("low")
    m.instantiate(child, "u0", {"x": state, "a": ready_in, "y": low})
    return m


def test_fifo_driver_equals_settle_then_step():
    """One bound call per cycle leaves every observation, the cycle
    counter and the lazy-settle mark as poke + settle + step do."""
    rng = random.Random(3)
    module = _handshake()
    interp = InterpSimulator(module)
    stepped = CompiledSimulator(module)
    driven = CompiledSimulator(module)
    for sim in (interp, stepped, driven):
        sim.poke("rst", 1)
        sim.step()
        sim.poke("rst", 0)
    fifo, out_fifo, pending = [], [], []
    cycle = driven.fifo_driver(
        [("in_not_empty", fifo)],
        [("out_not_full", out_fifo, pending, 2)],
        ["fire", "low", "in_not_empty"],
    )
    for _ in range(30):
        fifo[:] = [0] * rng.randrange(2)
        out_fifo[:] = [0] * rng.randrange(3)
        pending[:] = [0] * rng.randrange(2)
        ready = {
            "in_not_empty": int(bool(fifo)),
            "out_not_full": int(len(out_fifo) + len(pending) < 2),
        }
        for sim in (interp, stepped):
            for name, value in ready.items():
                sim.poke(name, value)
            sim.settle()
        expected = sum(
            interp.peek(name) << bit
            for bit, name in enumerate(("fire", "low", "in_not_empty"))
        )
        for sim in (interp, stepped):
            sim.step()
        assert cycle() == expected
        assert (driven.cycle, driven._unsettled) == (
            stepped.cycle, stepped._unsettled,
        )
        assert _flat_view(driven) == _flat_view(interp)


def _golden_schedule() -> IOSchedule:
    """The reference schedule of ``tests/test_rtl_golden.py``."""
    return IOSchedule(
        ["a", "b"],
        ["y", "status"],
        [
            SyncPoint({"a"}, frozenset(), run=1),
            SyncPoint({"a", "b"}, frozenset(), run=3),
            SyncPoint(frozenset(), {"y"}),
            SyncPoint(frozenset(), {"y", "status"}, run=2),
        ],
    )


@pytest.mark.parametrize("style", ["sp", "fsm", "shiftreg"])
def test_interp_fifo_driver_equals_compiled(style):
    """Both engines' ``fifo_driver`` functions, fed from the same
    FIFOs, return equal strobe words and leave equal cycle counters
    and flat views every cycle of a golden wrapper."""
    schedule = _golden_schedule()
    module = synthesize_wrapper(schedule, style, name=f"golden_{style}").module
    rng = random.Random(11)
    ins = [[] for _ in schedule.inputs]
    outs = [([], []) for _ in schedule.outputs]
    not_empty = [
        (f"{name}_not_empty", fifo)
        for name, fifo in zip(schedule.inputs, ins)
    ]
    not_full = [
        (f"{name}_not_full", fifo, pending, 2)
        for name, (fifo, pending) in zip(schedule.outputs, outs)
    ]
    strobes = [
        "ip_enable",
        *(f"{name}_pop" for name in schedule.inputs),
        *(f"{name}_push" for name in schedule.outputs),
    ]
    interp = InterpSimulator(module)
    compiled = CompiledSimulator(module)
    cycles = []
    for sim in (interp, compiled):
        sim.poke("rst", 1)
        sim.step()
        sim.poke("rst", 0)
        cycles.append(sim.fifo_driver(not_empty, not_full, strobes))
    interp_cycle, compiled_cycle = cycles
    fired = 0
    for cycle in range(80):
        for fifo in ins:
            fifo[:] = [0] * rng.randrange(2)
        for fifo, pending in outs:
            fifo[:] = [0] * rng.randrange(3)
            pending[:] = [0] * rng.randrange(2)
        word = interp_cycle()
        assert compiled_cycle() == word, cycle
        assert compiled.cycle == interp.cycle
        assert _flat_view(compiled) == _flat_view(interp), cycle
        fired += word & 1
    assert fired > 0
