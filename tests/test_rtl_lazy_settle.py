"""Observation parity of the compiled RTL engine's bound drivers.

``CompiledSimulator.step`` settles after every edge, as the
interpreter's does; the only deferred env state is a bound
``fifo_driver``'s pending ``materialize``.  Every observation must
equal the interpreter's: ``peek``, ``peek_flat``, a poke followed by a
peek (the "pre-poke" view), ``step(n > 1)``, a peek of a net that feeds
nothing, and the per-cycle function ``fifo_driver`` returns, which
must also equal the interpreter's own ``fifo_driver`` when both are
called with the same status bits every cycle.  The compiled
driver memoizes the wrapper's transitions and writes its state back
into the env only when something observes it, so the driver tests
also observe between driven cycles, poke a non-driven input (``rst``)
mid-run and run two simulators of one module.  The transition table's
state key is the set of slots the kernels' emitter reports ``settle``
does not write, so the parity suite over generated wrappers checks
those lists too.  Kernels run only at construction and on table
misses, which the workload test at the end counts.
"""

from __future__ import annotations

import random
import weakref

import pytest

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.rtlgen import (
    generate_fsm_wrapper,
    generate_shiftreg_wrapper,
    generate_sp_wrapper,
)
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import synthesize_wrapper
from repro.rtl import compile_sim
from repro.rtl.compile_sim import CompiledSimulator, cache_stats
from repro.rtl.module import Module
from repro.rtl.simulator import InterpSimulator
from repro.sched.generate import PROFILE_PRESETS, random_topology
from repro.verify import plan_topology_activations
from repro.verify.runner import BatchConfig, BatchRunner


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
    every access path after each step."""
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
    """One bound call per cycle leaves every observation and the cycle
    counter as poke + settle + step do."""
    rng = random.Random(3)
    module = _handshake()
    interp = InterpSimulator(module)
    stepped = CompiledSimulator(module)
    driven = CompiledSimulator(module)
    for sim in (interp, stepped, driven):
        sim.poke("rst", 1)
        sim.step()
        sim.poke("rst", 0)
    inputs = ("in_not_empty", "out_not_full")
    cycle = driven.fifo_driver(inputs, ["fire", "low", "in_not_empty"])
    for _ in range(30):
        bits = rng.getrandbits(2)
        for sim in (interp, stepped):
            for bit, name in enumerate(inputs):
                sim.poke(name, bits >> bit & 1)
            sim.settle()
        expected = sum(
            interp.peek(name) << bit
            for bit, name in enumerate(("fire", "low", "in_not_empty"))
        )
        for sim in (interp, stepped):
            sim.step()
        assert cycle(bits) == expected
        assert driven.cycle == stepped.cycle
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


def _golden_wrapper(style: str) -> Module:
    return synthesize_wrapper(
        _golden_schedule(), style, name=f"golden_{style}"
    ).module


def _topology_wrapper(seed: int, index: int, style: str) -> Module:
    """The SP or FSM wrapper of one process of a random topology."""
    node = random_topology(seed).processes[index]
    if style == "fsm":
        return generate_fsm_wrapper(node.schedule, name=f"fsm_{node.name}")
    program = compile_schedule(node.schedule, CompilerOptions(fuse=False))
    return generate_sp_wrapper(
        program, name=f"sp_{node.name}", schedule=node.schedule
    )


def _planned_shiftreg_wrapper(seed: int, index: int) -> Module:
    """The rtl-shiftreg wrapper of one process of a regular topology."""
    topology = random_topology(seed, PROFILE_PRESETS["regular"])
    node = topology.processes[index]
    plan = plan_topology_activations(topology, 150)[node.name]
    return generate_shiftreg_wrapper(
        node.schedule,
        activation=plan.pattern,
        name=f"sr_{node.name}",
        prefix=plan.prefix,
    )


class _Harness:
    """One wrapper under both engines, each driven through its own
    ``fifo_driver`` with the same random status bits every cycle: the
    wrapper's ``*_not_empty`` then ``*_not_full`` inputs, the order of
    ``RTLShell``'s readiness word."""

    def __init__(self, module: Module, seed: int) -> None:
        ports = [p.name for p in module.input_ports]
        inputs = [
            n.removesuffix("_not_empty")
            for n in ports if n.endswith("_not_empty")
        ]
        outputs = [
            n.removesuffix("_not_full")
            for n in ports if n.endswith("_not_full")
        ]
        self.rng = random.Random(seed)
        status = [
            *(f"{name}_not_empty" for name in inputs),
            *(f"{name}_not_full" for name in outputs),
        ]
        self.width = len(status)
        strobes = [
            "ip_enable",
            *(f"{name}_pop" for name in inputs),
            *(f"{name}_push" for name in outputs),
        ]
        self.interp = InterpSimulator(module)
        self.compiled = CompiledSimulator(module)
        self.drivers = []
        for sim in self.sims:
            sim.poke("rst", 1)
            sim.step()
            sim.poke("rst", 0)
            self.drivers.append(sim.fifo_driver(status, strobes))
        self.fired = 0

    @property
    def sims(self):
        return (self.interp, self.compiled)

    def assert_views_equal(self, label) -> None:
        assert self.compiled.cycle == self.interp.cycle, label
        assert _flat_view(self.compiled) == _flat_view(self.interp), label

    def drive(self, cycles: int, observe_every: int = 1) -> None:
        """Run ``cycles`` driven cycles on both engines with the same
        status bits, comparing the strobe word and cycle counter every
        cycle and the full flat view every ``observe_every`` cycles."""
        interp_cycle, compiled_cycle = self.drivers
        for cycle in range(cycles):
            bits = self.rng.getrandbits(self.width)
            word = interp_cycle(bits)
            assert compiled_cycle(bits) == word, cycle
            assert self.compiled.cycle == self.interp.cycle, cycle
            if (cycle + 1) % observe_every == 0:
                self.assert_views_equal(cycle)
            self.fired += word & 1


def _wrapper_cases():
    cases = [
        pytest.param(lambda s=style: _golden_wrapper(s), id=style)
        for style in ("sp", "fsm", "shiftreg")
    ]
    for seed in range(20):
        for index in range(2):
            for style in ("sp", "fsm"):
                cases.append(pytest.param(
                    lambda s=seed, i=index, k=style: _topology_wrapper(
                        s, i, k
                    ),
                    id=f"random{seed}-p{index}-{style}",
                ))
            cases.append(pytest.param(
                lambda s=seed, i=index: _planned_shiftreg_wrapper(s, i),
                id=f"regular{seed}-p{index}-shiftreg",
            ))
    return cases


@pytest.mark.parametrize("build", _wrapper_cases())
def test_interp_fifo_driver_equals_compiled(build):
    """Both engines' ``fifo_driver`` functions, called with the same
    status bits, return equal strobe words and leave equal cycle counters
    and flat views every cycle: golden wrappers, the SP/FSM wrappers
    of seeded random topologies and the planned shift-register
    wrappers of seeded regular topologies."""
    harness = _Harness(build(), seed=11)
    harness.drive(80)
    assert harness.fired > 0


@pytest.mark.parametrize("style", ["sp", "fsm", "shiftreg"])
def test_driver_then_poke_step_settle_then_driver(style):
    """Observations and edges between driven cycles: the memoized
    driver writes its state back before each, then takes its state
    from the env again."""
    harness = _Harness(_golden_wrapper(style), seed=5)
    interp, compiled = harness.sims
    harness.drive(20, observe_every=7)
    for sim in harness.sims:
        sim.poke("a_not_empty", 1)
        sim.poke("y_not_full", 1)
    # A poke without a settle keeps the pre-poke view.
    harness.assert_views_equal("poke")
    for sim in harness.sims:
        sim.settle()
    harness.assert_views_equal("settle")
    harness.drive(20, observe_every=5)
    for sim in harness.sims:
        sim.poke("b_not_empty", 1)
        sim.step(2)
    harness.assert_views_equal("step")
    harness.drive(20, observe_every=3)
    assert harness.fired > 0


@pytest.mark.parametrize("style", ["sp", "fsm", "shiftreg"])
def test_reset_poked_mid_run_changes_the_state(style):
    """``rst`` is not driven: poking it between driven cycles moves the
    wrapper to states the table has not seen."""
    harness = _Harness(_golden_wrapper(style), seed=7)
    harness.drive(30, observe_every=4)
    for sim in harness.sims:
        sim.poke("rst", 1)
    harness.drive(3)
    for sim in harness.sims:
        sim.poke("rst", 0)
    harness.drive(30)
    assert harness.fired > 0


def test_two_simulators_keep_independent_tables():
    """Two compiled simulators of one module, driven interleaved with
    different stimuli, each equal the interpreter; a third repeating
    the first one's stimulus recomputes every transition in a table of
    its own."""
    module = _golden_wrapper("sp")
    before = cache_stats()
    first = _Harness(module, seed=21)
    other = _Harness(module, seed=22)
    first.drive(15, observe_every=6)
    computed = cache_stats()["transitions"] - before["transitions"]
    for _ in range(3):
        other.drive(15, observe_every=4)
        first.drive(15, observe_every=6)
    assert first.fired > 0 and other.fired > 0
    assert cache_stats()["tables"] - before["tables"] == 2
    again = _Harness(module, seed=21)
    start = cache_stats()["transitions"]
    again.drive(15, observe_every=6)
    assert cache_stats()["transitions"] - start == computed > 0


def test_driver_may_drive_a_register():
    """A driven signal the edge also writes stays part of the state:
    its post-edge value, not the driven bit, is what an observation
    sees."""
    module = _handshake()
    rng = random.Random(4)
    sims = (InterpSimulator(module), CompiledSimulator(module))
    drivers = [
        sim.fifo_driver(["state", "in_not_empty"], ["fire", "low"])
        for sim in sims
    ]
    for cycle in range(36):
        bits = rng.getrandbits(2)
        if cycle % 6 == 0:
            for sim in sims:
                sim.poke("out_not_full", cycle % 12 == 0)
        assert drivers[1](bits) == drivers[0](bits), cycle
        if cycle % 4 == 3:
            assert _flat_view(sims[1]) == _flat_view(sims[0]), cycle


def test_kernels_run_only_at_construction_and_on_table_misses(monkeypatch):
    """Over real campaigns (regular traffic, and dynamic perturbation
    under four styles), ``settle`` runs twice per simulator (at
    construction and in the reset step) and ``edge`` once, plus one
    each per transition a driver table computed, plus one ``settle``
    per checkpoint that found the env stale (a dynamic variant's base
    run pauses for one, and materializing is its only observation): no
    other observation and no memoized cycle runs a kernel."""
    calls = {"settle": 0, "edge": 0, "sims": 0, "materialized": 0}
    init_plan = compile_sim._Plan.__init__
    init_sim = CompiledSimulator.__init__
    save_state = CompiledSimulator.save_state

    def counting_save(sim):
        calls["materialized"] += sim._pending is not None
        return save_state(sim)

    def counting_plan(plan, elab):
        init_plan(plan, elab)
        for name in ("settle", "edge"):
            def counted(env, _name=name, _kernel=getattr(plan, name)):
                calls[_name] += 1
                _kernel(env)

            setattr(plan, name, counted)

    def counting_sim(sim, *args, **kwargs):
        calls["sims"] += 1
        init_sim(sim, *args, **kwargs)

    # A fresh plan memo, so every plan the campaigns use counts.
    monkeypatch.setattr(
        compile_sim, "_PLAN_MEMO", weakref.WeakKeyDictionary()
    )
    monkeypatch.setattr(compile_sim._Plan, "__init__", counting_plan)
    monkeypatch.setattr(CompiledSimulator, "__init__", counting_sim)
    monkeypatch.setattr(CompiledSimulator, "save_state", counting_save)
    before = cache_stats()["transitions"]
    for cases, config in (
        (8, {"profile": "regular"}),
        (6, {
            "profile": "small",
            "styles": ("fsm", "sp", "rtl-sp", "rtl-fsm"),
            "perturb": 2,
            "perturb_dynamic": True,
            "perturb_styles": "all",
        }),
    ):
        report = BatchRunner(
            BatchConfig(cases=cases, seed=3, jobs=1, **config)
        ).run()
        assert report.ok
    transitions = cache_stats()["transitions"] - before
    assert transitions > 0
    assert calls["materialized"] > 0
    assert calls["settle"] == (
        2 * calls["sims"] + transitions + calls["materialized"]
    )
    assert calls["edge"] == calls["sims"] + transitions
