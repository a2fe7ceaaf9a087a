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

import dataclasses
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
from repro.lis.stall import apply_stall_plan, derive_stall_plan
from repro.lis.stream import burst_gaps
from repro.lis.system import System
from repro.rtl.compile_sim import CompiledSimulator
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


def test_void_is_never_buffered_in_relays():
    system = _topology_build(random_topology(9), "sp")()
    Simulation(system).run(CYCLES)
    for relay in system.relay_stations:
        assert VOID not in relay._buffer
        assert relay.max_occupancy <= 2
