"""Differential tests: the lowered LIS fabric vs the reference loop.

``Simulation.run`` lowers systems of stock fabric blocks into one
generated run loop (:mod:`repro.lis.compile_fabric`); attaching a
watcher pins the object-level reference loop.  Both must leave
identical observable state — sink streams and arrival cycles, enable
traces, ``SimulationResult`` fields, relay, port, source and injector
counters, wire values, the cycle counter — and raise identical
exceptions, over the golden wrapper styles, seeded random and regular
topologies under every style, dynamic stall plans and deadlocks.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import random

import pytest

from repro.core.equivalence import RTLShell, Stimulus, _build_single
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import SYNTH_STYLES, synthesize_wrapper
from repro.core.wrappers import (
    CombinationalWrapper,
    FSMWrapper,
    ShiftRegisterWrapper,
    SPWrapper,
)
from repro.lis import compile_fabric
from repro.lis.pearl import FunctionPearl
from repro.lis.shell import Shell
from repro.lis.signals import VOID, Block
from repro.lis.simulator import Simulation
from repro.lis.stall import (
    StallInjector,
    apply_stall_plan,
    derive_stall_plan,
)
from repro.lis.stream import burst_gaps
from repro.lis.system import System
from repro.rtl.compile_sim import CompiledSimulator, cache_stats
from repro.sched.generate import (
    PROFILE_PRESETS,
    random_topology,
    topology_link_names,
)
from repro.verify.cases import MixPearl, build_system
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import styles_for_traffic

CYCLES = 200
WINDOW = 64


def _snapshot(system: System, simulation: Simulation, result) -> dict:
    """Everything a run leaves behind that a caller can observe."""
    ports = [
        port for shell in system.shells.values() for port in shell._ports()
    ]
    return {
        "result": dataclasses.asdict(result),
        "cycle": simulation.cycle,
        "sinks": {
            name: (
                list(sink.received),
                sink.first_arrival_cycle,
                sink.last_arrival_cycle,
            )
            for name, sink in system.sinks.items()
        },
        "sources": {
            name: (source.tokens_sent, source.blocked_cycles,
                   source.exhausted)
            for name, source in system.sources.items()
        },
        "traces": {
            name: shell.trace_enable
            for name, shell in system.shells.items()
        },
        "relays": [
            (
                relay.name, list(relay._buffer), relay.max_occupancy,
                relay.tokens_forwarded, relay.full_cycles,
            )
            for relay in system.relay_stations
        ],
        "ports": [
            (
                port.name, list(port._fifo), port.stall_cycles,
                getattr(port, "tokens_received", None),
                getattr(port, "tokens_sent", None),
            )
            for port in ports
        ],
        "injectors": [
            (block.name, block.stalled_cycles)
            for block in system.instruments
        ],
        "wires": [
            (link.name, link.data.value, link.stop.stop)
            for link in system.links
        ],
    }


def _observe(system: System, reference: bool, runs=((CYCLES, WINDOW),)):
    """Run ``system`` on one engine; a list with one snapshot (or the
    exception text and cycle) per ``(cycles, window)`` run."""
    for shell in system.shells.values():
        shell.trace_enable = []
    simulation = Simulation(system)
    if reference:
        simulation.add_watcher(lambda cycle: None)
    before = compile_fabric.cache_stats()
    observed = []
    for cycles, window in runs:
        try:
            result = simulation.run(cycles, deadlock_window=window)
        except Exception as exc:  # compared as text below
            observed.append(
                ("raised", type(exc).__name__, str(exc), simulation.cycle)
            )
            break
        observed.append(_snapshot(system, simulation, result))
    after = compile_fabric.cache_stats()
    engine = "reference" if reference else "lowered"
    assert after[engine] - before[engine] == len(observed)
    return observed


def _assert_parity(build, runs=((CYCLES, WINDOW),)):
    """``build()`` returns a fresh System; both engines must agree."""
    lowered = _observe(build(), reference=False, runs=runs)
    reference = _observe(build(), reference=True, runs=runs)
    assert lowered == reference
    return lowered


# -- golden wrapper styles -----------------------------------------------------


def _golden_schedule() -> IOSchedule:
    return IOSchedule(
        ["a", "b"],
        ["y", "z"],
        [
            SyncPoint({"a"}, frozenset(), run=1),
            SyncPoint({"a", "b"}, {"y"}, run=2),
            SyncPoint(frozenset(), {"y", "z"}),
        ],
    )


def _golden_pearl(name: str = "p") -> MixPearl:
    return MixPearl(name, _golden_schedule())


JITTERY = Stimulus(
    tokens={"a": list(range(80)), "b": list(range(100, 160))},
    gaps={"a": burst_gaps(2, 1), "b": burst_gaps(3, 2)},
    stalls={"y": burst_gaps(5, 1)},
    in_latency={"b": 3},
    out_latency={"z": 2},
)

REGULAR = Stimulus(
    tokens={"a": list(range(200)), "b": list(range(200))},
)


def _single(make_shell, stimulus: Stimulus):
    return lambda: _build_single(make_shell(), stimulus, "golden")[0]


class TestGoldenStyles:
    @pytest.mark.parametrize("style", SYNTH_STYLES)
    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_rtl_shell_styles(self, style, engine):
        def make():
            synth = synthesize_wrapper(_golden_schedule(), style)
            return RTLShell(
                _golden_pearl(), synth.module, program=synth.program,
                engine=engine,
            )

        for stimulus in (JITTERY, REGULAR):
            _assert_parity(_single(make, stimulus))

    @pytest.mark.parametrize(
        "wrapper",
        [SPWrapper, FSMWrapper, CombinationalWrapper, ShiftRegisterWrapper],
    )
    def test_behavioural_styles(self, wrapper):
        for stimulus in (JITTERY, REGULAR):
            _assert_parity(_single(lambda: wrapper(_golden_pearl()), stimulus))

    def test_shiftreg_violation_text_is_identical(self):
        observed = _assert_parity(
            _single(lambda: ShiftRegisterWrapper(_golden_pearl()), JITTERY)
        )
        kind, name, text, _cycle = observed[-1]
        assert (kind, name) == ("raised", "ShellError")
        assert "static schedule violated" in text


# -- seeded topologies under every style ---------------------------------------


def _topology_build(topology, style, activations=None, stalls=()):
    def build():
        system, _shells, _sinks = build_system(
            topology, style, activations=activations
        )
        if stalls:
            apply_stall_plan(system, stalls)
        return system

    return build


class TestTopologies:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_topologies(self, seed):
        topology = random_topology(seed)
        for style in styles_for_traffic("random"):
            _assert_parity(_topology_build(topology, style))

    @pytest.mark.parametrize("seed", range(20))
    def test_regular_topologies(self, seed):
        topology = random_topology(seed, PROFILE_PRESETS["regular"])
        plans = plan_topology_activations(topology, CYCLES, WINDOW)
        for style in styles_for_traffic("regular"):
            _assert_parity(_topology_build(topology, style, plans))

    @pytest.mark.parametrize("seed", range(10))
    def test_dynamic_stall_plans(self, seed):
        topology = random_topology(seed, PROFILE_PRESETS["small"])
        stalls = derive_stall_plan(
            topology_link_names(topology), random.Random(seed), CYCLES
        )
        assert stalls
        for style in ("fsm", "sp", "rtl-sp", "rtl-fsm"):
            _assert_parity(
                _topology_build(topology, style, stalls=stalls)
            )

    def test_stall_over_the_whole_run(self):
        topology = random_topology(3, PROFILE_PRESETS["small"])
        names = topology_link_names(topology)
        stalls = derive_stall_plan(
            names, random.Random(1), CYCLES, max_events=6, max_duration=90
        )
        observed = _assert_parity(
            _topology_build(topology, "fsm", stalls=stalls)
        )
        assert any(count for _name, count in observed[0]["injectors"])


# -- deadlocks, reruns, reset, fallbacks ----------------------------------------


def _passthrough_system(
    tokens, stalls=None, latency=3, sink_latency=None
) -> System:
    schedule = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
    pearl = FunctionPearl("p", schedule, lambda i, p: {"y": p["x"]})
    system = System("edge")
    shell = system.add_patient(FSMWrapper(pearl))
    system.connect_source("src", tokens, shell, "x", latency=latency)
    system.connect_sink(
        shell, "y", "snk", latency=sink_latency or latency, stalls=stalls
    )
    return system


class TestRunContract:
    def test_deadlock_early_exit_cycle(self):
        observed = _assert_parity(
            lambda: _passthrough_system(list(range(5))),
            runs=((500, 7),),
        )
        result = observed[0]["result"]
        assert result["deadlocked"]
        assert result["cycles"] < 500

    def test_deadlock_window_zero_and_none(self):
        for window in (0, 1, None):
            _assert_parity(
                lambda: _passthrough_system([1, 2]), runs=((40, window),)
            )

    def test_portless_shell_has_no_wires(self):
        def build():
            schedule = IOSchedule(
                [], [], [SyncPoint(frozenset(), frozenset(), run=1)]
            )
            system = System("portless")
            system.add_patient(
                FSMWrapper(FunctionPearl("p", schedule, lambda i, p: {}))
            )
            return system

        observed = _assert_parity(build, runs=((10, 3),))
        assert observed[0]["result"]["shell_periods"] == {"p": 5}

    def test_sink_limit_and_backpressure(self):
        def build():
            system = _passthrough_system(
                list(range(50)), stalls=[True, False, False]
            )
            system.sinks["snk"]._limit = 9
            return system

        _assert_parity(build)

    def test_two_consecutive_runs(self):
        _assert_parity(
            _topology_build(random_topology(4), "rtl-sp"),
            runs=((73, WINDOW), (120, WINDOW), (0, None), (31, None)),
        )

    def test_reset_then_rerun(self):
        def observe(reference):
            system = _topology_build(random_topology(6), "sp")()
            first = _observe(system, reference)
            simulation = Simulation(system)
            if reference:
                simulation.add_watcher(lambda cycle: None)
            simulation.run(55)
            simulation.reset()
            for shell in system.shells.values():
                shell.trace_enable = []
            result = simulation.run(CYCLES, deadlock_window=WINDOW)
            return first, _snapshot(system, simulation, result)

        assert observe(False) == observe(True)

    def test_step_then_run_composes(self):
        def observe(reference):
            system = _topology_build(random_topology(2), "fsm")()
            simulation = Simulation(system)
            if reference:
                simulation.add_watcher(lambda cycle: None)
            simulation.step(17)
            result = simulation.run(90)
            return _snapshot(system, simulation, result)

        assert observe(False) == observe(True)

    def test_watcher_takes_the_reference_loop(self):
        system = _passthrough_system([1, 2, 3])
        simulation = Simulation(system)
        seen = []
        simulation.add_watcher(seen.append)
        before = compile_fabric.cache_stats()
        simulation.run(25)
        after = compile_fabric.cache_stats()
        assert seen == list(range(25))
        assert after["reference"] - before["reference"] == 1
        assert after["lowered"] == before["lowered"]

    def test_non_stock_blocks_take_the_reference_loop(self):
        class Probe(Block):
            def __init__(self):
                super().__init__("probe")
                self.cycles = []

            def produce(self, cycle):
                self.cycles.append(cycle)

            def consume(self, cycle):
                pass

            def commit(self):
                pass

            def reset(self):
                self.cycles.clear()

        class EagerShell(FSMWrapper):
            def consume(self, cycle):
                Shell.consume(self, cycle)

        system = _passthrough_system([1, 2, 3])
        probe = system.add_instrument(Probe())
        assert not compile_fabric.lowerable(system.blocks)
        before = compile_fabric.cache_stats()
        Simulation(system).run(12)
        assert probe.cycles == list(range(12))
        assert (
            compile_fabric.cache_stats()["reference"] - before["reference"]
            == 1
        )

        schedule = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        pearl = FunctionPearl("q", schedule, lambda i, p: {"y": p["x"]})
        system = System("eager")
        shell = system.add_patient(EagerShell(pearl))
        system.connect_source("src", [1], shell, "x")
        sink = system.connect_sink(shell, "y", "snk")
        assert not compile_fabric.lowerable(system.blocks)
        Simulation(system).run(12)
        assert sink.received == [1]


# -- the code cache and the RTLShell glue ------------------------------------


def _corpus_builds():
    """Systems of every style for 20 random and 20 regular topologies,
    each with and without a dynamic stall plan."""
    for seed in range(20):
        for profile, traffic in (("small", "random"), ("regular", "regular")):
            topology = random_topology(seed, PROFILE_PRESETS[profile])
            plans = (
                plan_topology_activations(topology, CYCLES, WINDOW)
                if traffic == "regular"
                else None
            )
            stalls = derive_stall_plan(
                topology_link_names(topology), random.Random(seed), CYCLES
            )
            for style in styles_for_traffic(traffic):
                for plan in ((), stalls):
                    yield _topology_build(topology, style, plans, plan)


def _shape_system(
    gaps=None, stalls=None, limit=None, injector=False,
    swap_inputs=False, rewire=False,
) -> System:
    """Two sources into one shell into one sink, every channel with a
    relay station; each keyword changes one property of the shape."""
    schedule = IOSchedule(["a", "b"], ["y"], [SyncPoint({"a", "b"}, {"y"})])
    pearl = FunctionPearl("p", schedule, lambda i, p: {"y": p["a"]})
    system = System("shape")
    shell = system.add_patient(FSMWrapper(pearl))
    system.connect_source("sa", [1, 2], shell, "a", latency=2, gaps=gaps)
    system.connect_source("sb", [1, 2], shell, "b", latency=2)
    system.connect_sink(
        shell, "y", "snk", latency=2, stalls=stalls, limit=limit
    )
    if injector:
        system.add_instrument(StallInjector("stall", system.links[0], [3]))
    if swap_inputs:
        shell.in_ports = dict(reversed(list(shell.in_ports.items())))
    if rewire:
        first, second = system.relay_stations[:2]
        first._up_data = second._up_data
    return system


def _directed_pair(forward: bool) -> System:
    """Two shells joined by one unsegmented link, in the same block
    order; ``forward`` decides which end is the input, so only the two
    ports' directions differ."""
    make = {
        "in": IOSchedule(["a"], [], [SyncPoint({"a"}, frozenset())]),
        "out": IOSchedule([], ["a"], [SyncPoint(frozenset(), {"a"})]),
    }
    first, second = ("out", "in") if forward else ("in", "out")
    system = System("pair")
    shells = [
        system.add_patient(
            FSMWrapper(FunctionPearl(name, make[kind], lambda i, p: {}))
        )
        for name, kind in (("p", first), ("q", second))
    ]
    producer, consumer = shells if forward else shells[::-1]
    system.connect(producer, "a", consumer, "a")
    return system


class TestCodeCache:
    def test_styles_of_one_topology_share_one_entry(self):
        topology = random_topology(11)
        sources = {
            compile_fabric.lower_source(
                Simulation(build_system(topology, style)[0])
            )
            for style in ("fsm", "sp", "combinational", "rtl-sp")
        }
        assert len(sources) == 1

    def test_source_names_no_block(self):
        topology = random_topology(12)
        system = build_system(topology, "fsm")[0]
        source = compile_fabric.lower_source(Simulation(system))
        for block in system.blocks:
            assert block.name not in source

    def test_hit_after_first_compile(self):
        topology = random_topology(13, PROFILE_PRESETS["stress"])
        before = compile_fabric.cache_stats()
        for style in ("fsm", "sp"):
            Simulation(build_system(topology, style)[0]).run(5)
        after = compile_fabric.cache_stats()
        assert after["hits"] - before["hits"] >= 1
        assert after["lowered"] - before["lowered"] == 2

    def test_cache_is_bounded(self):
        # Distinct (source, sink) latencies give distinct shapes.
        for seed in range(compile_fabric.FABRIC_CACHE_MAX + 5):
            system = _passthrough_system(
                [1], latency=1 + seed % 9, sink_latency=1 + seed // 9
            )
            Simulation(system).run(1)
        size, capacity = compile_fabric.fabric_cache_info()
        assert size == capacity

    def test_equal_keys_iff_equal_source(self):
        texts: dict[tuple, set[str]] = {}
        for build in _corpus_builds():
            simulation = Simulation(build())
            key = compile_fabric.lower_shape(simulation)
            texts.setdefault(key, set()).add(
                compile_fabric.lower_source(simulation)
            )
        assert all(len(text) == 1 for text in texts.values())
        sources = [text.pop() for text in texts.values()]
        assert len(set(sources)) == len(sources)
        # Styles of one topology share a shape; stall plans and
        # topologies make distinct ones.
        assert 40 <= len(sources) < sum(1 for _ in _corpus_builds())

    @pytest.mark.parametrize(
        "change",
        [
            {"gaps": [True, False]},
            {"limit": 9},
            {"stalls": [True, False]},
            {"injector": True},
            {"swap_inputs": True},
            {"rewire": True},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_each_property_changes_the_key(self, change):
        base = Simulation(_shape_system())
        changed = Simulation(_shape_system(**change))
        assert compile_fabric.lower_shape(base) != (
            compile_fabric.lower_shape(changed)
        )
        assert compile_fabric.lower_source(base) != (
            compile_fabric.lower_source(changed)
        )

    def test_always_on_patterns_share_the_base_key(self):
        base = compile_fabric.lower_shape(Simulation(_shape_system()))
        for change in ({"gaps": [True, True]}, {"stalls": [True, True]}):
            assert compile_fabric.lower_shape(
                Simulation(_shape_system(**change))
            ) == base

    def test_port_direction_changes_the_key(self):
        forward, backward = (
            Simulation(_directed_pair(flag)) for flag in (True, False)
        )
        keys = [compile_fabric.lower_shape(s) for s in (forward, backward)]
        assert keys[0] != keys[1]
        # Nothing but the direction flags differ.
        flip = {True: False, False: True}
        blocks = [
            entry if entry[0] != "shell" else (
                *entry[:2],
                tuple((flip[p[0]], *p[1:]) for p in entry[2]),
            )
            for entry in keys[1][0]
        ]
        assert (tuple(blocks), *keys[1][1:]) == keys[0]
        _assert_parity(lambda: _directed_pair(True))

    def test_a_shape_hit_emits_no_text(self, monkeypatch):
        calls = []
        generate = compile_fabric._generate

        def counted(shape):
            calls.append(shape)
            return generate(shape)

        monkeypatch.setattr(compile_fabric, "_generate", counted)
        topology = random_topology(14, PROFILE_PRESETS["stress"])
        before = compile_fabric.cache_stats()
        Simulation(build_system(topology, "fsm")[0]).run(5)
        middle = compile_fabric.cache_stats()
        assert len(calls) == middle["misses"] - before["misses"]
        for style in ("sp", "combinational", "rtl-fsm"):
            Simulation(build_system(topology, style)[0]).run(5)
        after = compile_fabric.cache_stats()
        assert after["hits"] - middle["hits"] == 3
        assert len(calls) == middle["misses"] - before["misses"]
        assert after["lower_ms"] > middle["lower_ms"]


class TestProfilerLabels:
    def test_cprofile_keeps_every_fabric_run_loop(self):
        # cProfile keys its stats by (filename, line, function): each
        # generated run loop needs its own filename, or pstats merges
        # every lowered shape into one entry and drops their calls.
        from repro.verify import BatchConfig, BatchRunner

        profile = cProfile.Profile()
        before = compile_fabric.cache_stats()
        profile.enable()
        try:
            BatchRunner(
                BatchConfig(cases=5, seed=0, jobs=1, profile="regular")
            ).run()
        finally:
            profile.disable()
        lowered = compile_fabric.cache_stats()["lowered"] - before["lowered"]
        calls = sum(
            stats[1]
            for (filename, _line, name), stats in (
                pstats.Stats(profile).stats.items()
            )
            if filename.startswith("<compiled-fabric") and name == "run"
        )
        assert lowered > 0
        assert calls == lowered


class TestRTLShellGlue:
    def test_compiled_engine_skips_poke_and_peek(self, monkeypatch):
        calls = {"poke": 0, "peek": 0}
        for name in calls:
            original = getattr(CompiledSimulator, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(CompiledSimulator, name, counted)
        system = _topology_build(random_topology(5), "rtl-fsm")()
        setup = dict(calls)
        Simulation(system).run(CYCLES)
        assert calls == setup  # only the build-time reset pokes

    def test_one_bound_call_per_rtl_cycle(self, monkeypatch):
        # Settle and edge run inside the bound per-cycle function, not
        # through the simulator's methods.
        calls = []
        for name in ("settle", "step"):
            original = getattr(CompiledSimulator, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(CompiledSimulator, name, counted)
        system = _topology_build(random_topology(5), "rtl-sp")()
        calls.clear()  # the build-time reset settles and steps
        before = cache_stats()["tables"]
        Simulation(system).run(CYCLES)
        assert calls == []
        # One driver table per shell: each binds once.
        assert cache_stats()["tables"] - before == len(system.shells)

    @pytest.mark.parametrize("style", ["rtl-sp", "rtl-fsm", "rtl-shiftreg"])
    def test_bound_cycle_matches_the_interpreter(self, style):
        topology = random_topology(8, PROFILE_PRESETS["regular"])
        plans = plan_topology_activations(topology, CYCLES, WINDOW)

        def observe(engine):
            system, shells, sinks = build_system(
                topology, style, engine=engine, activations=plans
            )
            Simulation(system).run(CYCLES, deadlock_window=WINDOW)
            observed = {}
            for name, shell in shells.items():
                rtl = shell.rtl
                assert rtl.engine == engine
                top = shell.module
                observed[name] = (
                    rtl.cycle,
                    {s.name: rtl.peek(s.name) for s in top.all_signals()},
                    {
                        flat: rtl.peek_flat(flat)
                        for flat in _register_names(top)
                    },
                )
            streams = {n: list(sink.received) for n, sink in sinks.items()}
            return observed, streams

        compiled = observe("compiled")
        assert compiled == observe("interp")
        assert any(compiled[1].values())


def _register_names(module, prefix: str = "") -> list[str]:
    """Flat names of every register in ``module``'s hierarchy."""
    names = [prefix + reg.target.name for reg in module.registers]
    for instance in module.instances:
        names += _register_names(
            instance.module, f"{prefix}{instance.name}."
        )
    return names


def test_void_is_never_buffered_in_relays():
    system = _topology_build(random_topology(9), "sp")()
    Simulation(system).run(CYCLES)
    for relay in system.relay_stations:
        assert VOID not in relay._buffer
        assert relay.max_occupancy <= 2
