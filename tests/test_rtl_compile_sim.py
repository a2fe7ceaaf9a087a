"""Differential tests: compiled RTL engine vs the interpreter oracle.

The compiled engine must be observationally identical to the
interpreter — same peeks, same flat names, same cycle counts, same
errors — over the golden wrapper styles, seeded random topologies,
hierarchical designs, and the pruned-net corner cases.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.rtlgen import (
    generate_fsm_wrapper,
    generate_shiftreg_wrapper,
    generate_sp_wrapper,
)
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import SYNTH_STYLES, synthesize_wrapper
from repro.rtl import compile_sim
from repro.rtl.compile_sim import (
    CompiledSimulator,
    cache_stats,
    compile_design,
    reset_cache_stats,
)
from repro.rtl.module import Assign, Design, Module
from repro.rtl.simulator import (
    InterpSimulator,
    SimulationError,
    Simulator,
)
from repro.sched.generate import PROFILE_PRESETS, random_topology
from repro.verify import VerifyCase, plan_topology_activations, run_case


def _reference_schedule() -> IOSchedule:
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


def _assert_parity(module, cycles: int, seed: int) -> None:
    """Drive both engines with identical random pokes and compare the
    complete flat environment every cycle."""
    interp = InterpSimulator(module)
    compiled = CompiledSimulator(module)
    names = interp.flat_names()
    assert compiled.flat_names() == names
    inputs = [p.name for p in module.input_ports if p.name != "clk"]
    rng = random.Random(seed)
    for cycle in range(cycles):
        for name in inputs:
            value = rng.getrandbits(1)
            interp.poke(name, value)
            compiled.poke(name, value)
        interp.settle()
        compiled.settle()
        for name in names:
            assert interp.peek_flat(name) == compiled.peek_flat(name), (
                f"cycle {cycle}, signal {name!r}"
            )
        interp.step()
        compiled.step()
        assert interp.cycle == compiled.cycle == cycle + 1


class TestGoldenModuleParity:
    @pytest.mark.parametrize("style", SYNTH_STYLES)
    def test_golden_wrapper_styles(self, style):
        module = synthesize_wrapper(
            _reference_schedule(),
            style,
            name=f"par_{style.replace('-', '_')}",
        ).module
        # hash() is per-process randomized; index() keeps the stimulus
        # reproducible across runs.
        _assert_parity(
            module, cycles=150, seed=SYNTH_STYLES.index(style)
        )


class TestRandomTopologyParity:
    """Same pokes -> identical peeks, cycle counts and flat_names over
    the wrapper modules of >= 20 seeded random topologies."""

    @pytest.mark.parametrize("seed", range(20))
    def test_topology_wrappers(self, seed):
        topology = random_topology(seed)
        for node in topology.processes[:2]:
            program = compile_schedule(
                node.schedule, CompilerOptions(fuse=False)
            )
            sp = generate_sp_wrapper(
                program,
                name=f"sp_{node.name}",
                schedule=node.schedule,
            )
            _assert_parity(sp, cycles=60, seed=seed * 7 + 1)
            fsm = generate_fsm_wrapper(
                node.schedule, name=f"fsm_{node.name}"
            )
            _assert_parity(fsm, cycles=60, seed=seed * 7 + 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_planned_shiftreg_wrappers(self, seed):
        """The rtl-shiftreg style's modules: rings plus the one-shot
        prefix lines planned from a regular topology's FSM run."""
        topology = random_topology(seed, PROFILE_PRESETS["regular"])
        plans = plan_topology_activations(topology, 150)
        for node in topology.processes[:2]:
            plan = plans[node.name]
            module = generate_shiftreg_wrapper(
                node.schedule,
                activation=plan.pattern,
                name=f"sr_{node.name}",
                prefix=plan.prefix,
            )
            _assert_parity(
                module, cycles=len(plan.prefix) + 60, seed=seed * 7 + 3
            )


class TestHierarchyParity:
    def test_instances_alias_parent_slots(self):
        child = Module("child")
        child.add_clock()
        rst = child.input("rst")
        a = child.input("a", 8)
        y = child.output("y", 8)
        acc = child.wire("acc", 8)
        child.assign(y, acc + a)
        child.register(acc, acc + 1, reset=rst)
        parent = Module("parent")
        clk = parent.add_clock()
        prst = parent.input("rst")
        pa = parent.input("a", 8)
        mid = parent.wire("mid", 8)
        out = parent.output("out", 8)
        parent.instantiate(
            child, "u0", {"clk": clk, "rst": prst, "a": pa, "y": mid}
        )
        parent.instantiate(
            child, "u1", {"clk": clk, "rst": prst, "a": mid, "y": out}
        )
        _assert_parity(parent, cycles=40, seed=3)
        sim = CompiledSimulator(parent)
        sim.step(3)
        assert sim.peek_flat("u0.acc") == 3


class TestRunCaseEngineParity:
    """The whole differential-verification oracle must not care which
    engine simulates the RTL-in-the-loop styles."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_outcomes_identical(self, seed):
        topology = random_topology(seed)
        outcomes = {}
        for engine in ("interp", "compiled"):
            case = VerifyCase(
                index=0,
                seed=seed,
                cycles=150,
                topology=topology,
                engine=engine,
            )
            outcomes[engine] = run_case(case)
        a, b = outcomes["interp"], outcomes["compiled"]
        assert a.ok and b.ok
        assert a.checks == b.checks
        assert a.cycles_executed == b.cycles_executed
        assert a.sink_tokens == b.sink_tokens


class TestEngineDispatch:
    def test_default_is_compiled(self):
        m = Module("m")
        m.assign(m.output("y"), m.input("a"))
        assert isinstance(Simulator(m), CompiledSimulator)

    def test_explicit_interp(self):
        m = Module("m")
        m.assign(m.output("y"), m.input("a"))
        sim = Simulator(m, engine="interp")
        assert isinstance(sim, InterpSimulator)
        assert sim.engine == "interp"

    def test_unknown_engine_rejected(self):
        m = Module("m")
        m.assign(m.output("y"), m.input("a"))
        with pytest.raises(ValueError):
            Simulator(m, engine="verilator")

    def test_design_wrapper_accepted(self):
        m = Module("m")
        m.assign(m.output("y"), m.input("a"))
        sim = Simulator(Design(m))
        assert isinstance(sim, CompiledSimulator)


class TestErrorParity:
    def test_comb_loop_detected(self):
        m = Module("loop")
        a = m.wire("a")
        b = m.wire("b")
        m.assign(a, b)
        m.assign(b, a)
        m.assign(m.output("y"), a)
        with pytest.raises(SimulationError):
            CompiledSimulator(m)

    def test_multiple_drivers_detected(self):
        m = Module("multi")
        a = m.input("a")
        y = m.output("y")
        m.assign(y, a)
        m.assign(y, ~a)
        with pytest.raises(SimulationError):
            CompiledSimulator(m)

    def test_unknown_signal_raises(self):
        m = Module("m")
        m.assign(m.output("y"), m.input("a"))
        sim = CompiledSimulator(m)
        with pytest.raises(KeyError):
            sim.peek("nope")
        with pytest.raises(KeyError):
            sim.poke("nope", 1)


def _cloned_counter(names):
    """A counter module with configurable signal names."""
    m = Module(names["module"])
    m.add_clock()
    rst = m.input(names["rst"])
    en = m.input(names["en"])
    count = m.output(names["count"], 8)
    m.register(count, count + 1, enable=en, reset=rst)
    return m


class TestKernelCache:
    def test_same_module_hits_plan_memo(self):
        m = _cloned_counter(
            {"module": "c", "rst": "rst", "en": "en", "count": "q"}
        )
        assert compile_design(m) is compile_design(m)

    def test_mutated_module_recompiles(self):
        # The plan memo must notice post-compile mutation: the interp
        # oracle re-elaborates every construction, so the compiled
        # engine has to as well.
        m = Module("grow")
        a = m.input("a", 4)
        y = m.output("y", 4)
        m.assign(y, a + 1)
        first = Simulator(m)
        first.poke_settle("a", 1)
        assert first.peek("y") == 2
        z = m.output("z", 4)
        m.assign(z, a + 2)
        second = Simulator(m)
        second.poke_settle("a", 1)
        assert second.peek("z") == 3
        assert InterpSimulator(m).flat_names() == second.flat_names()
        # Direct list surgery (an existing pattern in this repo's
        # tests) must invalidate too, not just the builder methods.
        m.assigns[0] = Assign(y, a + 3)
        third = Simulator(m)
        third.poke_settle("a", 1)
        assert third.peek("y") == 4

    def test_different_rom_contents_do_not_share(self):
        def romod(contents):
            m = Module("r")
            addr = m.input("addr", 2)
            data = m.output("data", 8)
            m.rom("t", addr, data, contents)
            return m

        sims = [
            CompiledSimulator(romod(contents))
            for contents in ([1, 2, 3, 4], [4, 3, 2, 1])
        ]
        for sim in sims:
            sim.poke_settle("addr", 1)
        assert [sim.peek("data") for sim in sims] == [2, 3]


@pytest.fixture
def cold_kernels(monkeypatch):
    """An empty process-wide kernel cache and zeroed counters, so the
    forms a test compiles count as misses."""
    monkeypatch.setattr(compile_sim, "_KERNEL_CACHE", OrderedDict())
    reset_cache_stats()


def _kernel_counts(before: dict) -> dict:
    after = cache_stats()
    return {key: after[key] - before[key] for key in ("plans", "misses")}


class TestKernelForms:
    """Kernel sources carry no literal value: modules that differ only
    in constants, ROM images or reset values share one compile, and
    each plan binds its own values."""

    _SCHEDULE = IOSchedule(
        ["a"],
        ["y"],
        [
            SyncPoint({"a"}, frozenset(), run=1),
            SyncPoint(frozenset(), {"y"}),
        ],
    )

    @pytest.mark.parametrize(
        "first, second",
        [
            (([1, 1, 1, 0, 0, 0], ()), ([1, 0, 1, 1, 0, 0, 0, 0], ())),
            (([1, 1, 1, 0], [0, 1]), ([1, 0, 1, 1, 0], [1, 0])),
        ],
        ids=["ring", "ring-and-prefix"],
    )
    def test_shiftreg_rings_share_one_compile(
        self, cold_kernels, first, second
    ):
        modules = [
            generate_shiftreg_wrapper(
                self._SCHEDULE, activation=ring, prefix=prefix,
                name=f"sr{index}",
            )
            for index, (ring, prefix) in enumerate((first, second))
        ]
        before = cache_stats()
        plans = [compile_design(module) for module in modules]
        assert _kernel_counts(before) == {"plans": 2, "misses": 1}
        assert plans[0].settle.__code__ is plans[1].settle.__code__
        for index, module in enumerate(modules):
            _assert_parity(module, cycles=40, seed=index)

    def test_sp_rom_images_share_code_but_read_their_own(
        self, cold_kernels
    ):
        schedules = [
            IOSchedule(["a", "b"], ["y"], [
                SyncPoint({"a"}, frozenset(), run=1),
                SyncPoint({"b"}, {"y"}, run=2),
            ]),
            IOSchedule(["a", "b"], ["y"], [
                SyncPoint({"a", "b"}, frozenset(), run=3),
                SyncPoint(frozenset(), {"y"}),
            ]),
        ]
        modules = [
            generate_sp_wrapper(
                compile_schedule(schedule, CompilerOptions(fuse=False)),
                schedule=schedule,
                name=f"sp{index}",
            )
            for index, schedule in enumerate(schedules)
        ]
        images = [
            [rom.contents for rom in module.roms]
            + [rom.contents for i in module.instances for rom in i.module.roms]
            for module in modules
        ]
        assert images[0] != images[1]
        before = cache_stats()
        plans = [compile_design(module) for module in modules]
        assert _kernel_counts(before) == {"plans": 2, "misses": 1}
        assert plans[0].settle.__code__ is plans[1].settle.__code__
        assert plans[0].settle is not plans[1].settle
        for index, module in enumerate(modules):
            _assert_parity(module, cycles=60, seed=index)

    def test_mutated_module_still_reelaborates(self, cold_kernels):
        """A mutation to a cached form (the same text with another
        literal) elaborates a new plan bound to the new value."""
        m = Module("bump")
        a = m.input("a", 4)
        y = m.output("y", 4)
        m.assign(y, a + 1)
        before = cache_stats()
        first = CompiledSimulator(m)
        m.assigns[0] = Assign(y, a + 3)
        second = CompiledSimulator(m)
        assert _kernel_counts(before) == {"plans": 2, "misses": 1}
        for sim in (first, second):
            sim.poke_settle("a", 1)
        assert (first.peek("y"), second.peek("y")) == (2, 4)
        assert compile_design(m) is second._plan


class TestCacheStats:
    @staticmethod
    def _counter(name: str) -> Module:
        # A fresh module: its first compile always elaborates a plan
        # (the plan memo is keyed by module identity).
        m = Module(name)
        m.add_clock()
        rst = m.input("rst")
        en = m.input("en")
        count = m.output("q", 8)
        m.register(count, count + 1, enable=en, reset=rst)
        return m

    def test_fresh_compile_counts_a_timed_miss(self, cold_kernels):
        compile_design(self._counter("cs0"))
        stats = cache_stats()
        assert (stats["plans"], stats["misses"], stats["hits"]) == (1, 1, 0)
        assert stats["compile_ms"] > 0

    def test_plan_memo_hit_is_separate_from_kernel_hits(self, cold_kernels):
        # A plan-memo hit elaborates nothing; a structural twin
        # elaborates a plan but finds its kernel text compiled.  Either
        # way no kernel compiles, and the consult counts a hit.
        m = self._counter("cs3")
        compile_design(m)
        compile_design(m)  # same object, unchanged: plan memo
        compile_design(self._counter("cs3b"))  # same text: kernel cache
        stats = cache_stats()
        assert (stats["plans"], stats["misses"], stats["hits"]) == (2, 1, 2)
        assert stats["hits"] + stats["misses"] == 3

    def test_kernel_cache_is_bounded(self, cold_kernels, monkeypatch):
        monkeypatch.setattr(compile_sim, "KERNEL_CACHE_MAX", 2)
        for outputs in (1, 2, 3):  # three forms
            m = Module(f"fan{outputs}")
            a = m.input("a", 4)
            for k in range(outputs):
                m.assign(m.output(f"y{k}", 4), ~a)
            compile_design(m)
        assert cache_stats()["misses"] == 3
        assert len(compile_sim._KERNEL_CACHE) == 2

    def test_reset_zeroes_every_counter(self):
        compile_design(self._counter("cs4"))
        reset_cache_stats()
        stats = cache_stats()
        assert set(stats) == {
            "hits", "misses", "compile_ms", "plans", "transitions",
            "tables",
        }
        assert all(value == 0 for value in stats.values())

    def test_snapshot_is_a_copy(self):
        reset_cache_stats()
        before = cache_stats()
        before["misses"] = 999
        assert cache_stats()["misses"] == 0


class TestDeadNetPruning:
    def _design(self):
        child = Module("child")
        a = child.input("a", 8)
        y = child.output("y", 8)
        scratch = child.wire("scratch", 8)
        child.assign(y, a + 1)
        child.assign(scratch, a + 3)  # feeds nothing visible
        parent = Module("parent")
        pa = parent.input("a", 8)
        out = parent.output("out", 8)
        parent.instantiate(child, "u0", {"a": pa, "y": out})
        return parent

    def test_pruned_net_peeks_identically(self):
        interp = InterpSimulator(self._design())
        compiled = CompiledSimulator(self._design())
        for sim in (interp, compiled):
            sim.poke_settle("a", 5)
        assert interp.peek_flat("u0.scratch") == 8
        assert compiled.peek_flat("u0.scratch") == 8

    def test_lazy_refresh_is_exact_across_pokes(self):
        # A poke after settle must not leak into the lazily computed
        # pruned net: the peek still reflects the last settle.
        interp = InterpSimulator(self._design())
        compiled = CompiledSimulator(self._design())
        for sim in (interp, compiled):
            sim.poke_settle("a", 5)
            sim.poke("a", 200)  # no settle
        assert interp.peek_flat("u0.scratch") == 8
        assert compiled.peek_flat("u0.scratch") == 8


class TestFlatNameCache:
    """Regression: poke/peek must not rescan top.all_signals()."""

    def _counter(self):
        return _cloned_counter(
            {"module": "c", "rst": "rst", "en": "en", "count": "count"}
        )

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_lookup_does_not_rescan_signals(self, engine, monkeypatch):
        module = self._counter()
        sim = Simulator(module, engine=engine)

        def boom():  # pragma: no cover - called means regression
            raise AssertionError("all_signals() called after build")

        monkeypatch.setattr(module, "all_signals", boom)
        sim.poke("en", 1)
        sim.step(4)
        assert sim.peek("count") == 4

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_top_names_and_flat_names_resolve(self, engine):
        child = self._counter()
        parent = Module("p")
        clk = parent.add_clock()
        rst = parent.input("rst")
        en = parent.input("en")
        out = parent.output("out", 8)
        parent.instantiate(
            child,
            "c0",
            {"clk": clk, "rst": rst, "en": en, "count": out},
        )
        sim = Simulator(parent, engine=engine)
        sim.poke("en", 1)
        sim.step(2)
        assert sim.peek("out") == 2
        assert sim.peek_flat("out") == 2
