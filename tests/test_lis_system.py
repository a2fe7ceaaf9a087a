"""System construction, sources/sinks, simulation mechanics."""

from __future__ import annotations

import pytest

from repro.core.wrappers import FSMWrapper, SPWrapper
from repro.lis.pearl import FunctionPearl, PassthroughPearl
from repro.lis.shell import ShellError
from repro.lis.simulator import Simulation
from repro.lis.stream import bernoulli_gaps, burst_gaps
from repro.lis.system import System, SystemError_
from repro.core.schedule import IOSchedule, SyncPoint

from tests.conftest import make_passthrough_pearl


def _simple_pipeline(latency=1):
    sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
    system = System("pipe")
    shell = system.add_patient(SPWrapper(PassthroughPearl("pass", sched)))
    system.connect_source("src", range(50), shell, "x", latency=latency)
    sink = system.connect_sink(shell, "y", "snk", latency=latency)
    return system, shell, sink


class TestSystemBuilding:
    def test_duplicate_patient_rejected(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("s")
        system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        with pytest.raises(SystemError_):
            system.add_patient(SPWrapper(make_passthrough_pearl(sched)))

    def test_unbound_port_fails_validation(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("s")
        shell = system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        system.connect_source("src", range(5), shell, "x")
        with pytest.raises(ShellError):
            system.validate()

    def test_empty_system_rejected(self):
        with pytest.raises(SystemError_):
            System("empty").validate()

    def test_double_binding_rejected(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("s")
        shell = system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        system.connect_source("src1", range(5), shell, "x")
        with pytest.raises(ShellError):
            system.connect_source("src2", range(5), shell, "x")

    def test_unknown_port_rejected(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("s")
        shell = system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        with pytest.raises(ShellError):
            system.connect_source("src", range(5), shell, "bogus")

    def test_relay_stations_inserted_per_latency(self):
        system, _shell, _sink = _simple_pipeline(latency=4)
        assert system.relay_station_count() == 2 * 3  # both channels

    def test_channel_records(self):
        system, _shell, _sink = _simple_pipeline(latency=2)
        assert len(system.channels) == 2
        assert all(c.latency == 2 for c in system.channels)


class TestSimulation:
    def test_tokens_flow_end_to_end(self):
        system, _shell, sink = _simple_pipeline()
        Simulation(system).run(200)
        assert sink.received == list(range(50))

    def test_latency_delays_first_arrival(self):
        system1, _s1, sink1 = _simple_pipeline(latency=1)
        system5, _s5, sink5 = _simple_pipeline(latency=5)
        Simulation(system1).run(100)
        Simulation(system5).run(100)
        assert sink5.first_arrival_cycle > sink1.first_arrival_cycle

    def test_results_summary(self):
        system, shell, sink = _simple_pipeline()
        result = Simulation(system).run(100)
        assert result.cycles == 100
        assert result.sink_tokens["snk"] == len(sink.received)
        assert result.shell_enabled[shell.name] == shell.enabled_cycles
        assert 0 <= result.utilization(shell.name) <= 1

    def test_run_until(self):
        system, _shell, sink = _simple_pipeline()
        sim = Simulation(system)
        cycles = sim.run_until(lambda: len(sink.received) >= 10)
        assert len(sink.received) >= 10
        assert cycles < 100

    def test_run_until_timeout(self):
        system, _shell, _sink = _simple_pipeline()
        sim = Simulation(system)
        with pytest.raises(RuntimeError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_deadlock_detection(self):
        # Adder with only one source connected to real data and the
        # other source exhausted -> stalls forever.
        sched = IOSchedule(
            ["a", "b"], ["y"],
            [SyncPoint({"a"}, set()), SyncPoint({"b"}, {"y"})],
        )
        system = System("dead")
        shell = system.add_patient(SPWrapper(make_adder_pearl_like(sched)))
        system.connect_source("sa", range(100), shell, "a")
        system.connect_source("sb", range(2), shell, "b")  # runs dry
        system.connect_sink(shell, "y", "snk")
        result = Simulation(system).run(500, deadlock_window=50)
        assert result.deadlocked
        assert result.cycles < 500

    def test_reset_restores_initial_state(self):
        system, shell, sink = _simple_pipeline()
        sim = Simulation(system)
        power_up = sim.checkpoint()
        sim.run(50)
        assert sink.received
        sim.restore(power_up)
        assert sink.received == []
        assert shell.enabled_cycles == 0
        assert sim.cycle == 0

    def test_reset_rewinds_sources(self):
        system, _shell, sink = _simple_pipeline()
        sim = Simulation(system)
        power_up = sim.checkpoint()
        sim.run(80)
        first = list(sink.received)
        assert first == list(range(50))
        sim.restore(power_up)
        sim.run(80)
        assert sink.received == first

    def test_watcher_called_every_cycle(self):
        system, _shell, _sink = _simple_pipeline()
        sim = Simulation(system)
        seen = []
        sim.add_watcher(seen.append)
        sim.step(7)
        assert seen == list(range(7))


def make_adder_pearl_like(sched):
    state = {}

    def fn(index, popped):
        if index == 0:
            state["a"] = popped["a"]
            return {}
        return {"y": state["a"] + popped["b"]}

    return FunctionPearl("adder2", sched, fn)


class TestStreams:
    def test_bernoulli_rate_respected(self):
        pattern = bernoulli_gaps(0.5, 1000)
        rate = sum(pattern) / len(pattern)
        assert 0.35 < rate < 0.65

    def test_bernoulli_deterministic(self):
        assert bernoulli_gaps(0.3, 100) == bernoulli_gaps(0.3, 100)

    def test_bernoulli_bad_rate(self):
        with pytest.raises(ValueError):
            bernoulli_gaps(0.0, 10)

    def test_burst_gaps(self):
        assert burst_gaps(2, 3) == [True, True, False, False, False]

    def test_burst_bad_args(self):
        with pytest.raises(ValueError):
            burst_gaps(0, 1)

    def test_gappy_source_still_delivers_all(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("gappy")
        shell = system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        system.connect_source(
            "src", range(30), shell, "x", gaps=burst_gaps(1, 3)
        )
        sink = system.connect_sink(shell, "y", "snk")
        Simulation(system).run(300)
        assert sink.received == list(range(30))

    def test_stalling_sink_still_receives_all(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("stally")
        shell = system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        system.connect_source("src", range(30), shell, "x")
        sink = system.connect_sink(
            shell, "y", "snk", stalls=burst_gaps(1, 4)
        )
        Simulation(system).run(400)
        assert sink.received == list(range(30))

    def test_sink_limit(self):
        sched = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
        system = System("limited")
        shell = system.add_patient(SPWrapper(make_passthrough_pearl(sched)))
        system.connect_source("src", range(30), shell, "x")
        sink = system.connect_sink(shell, "y", "snk", limit=5)
        Simulation(system).run(200)
        assert len(sink.received) == 5
