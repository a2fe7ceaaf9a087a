"""Simulation driver edge cases: deadlock windows, the trace-free fast
path, result-accessor contracts, and channel reset markings."""

from __future__ import annotations

import pytest

from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import FSMWrapper, SPWrapper
from repro.lis.pearl import FunctionPearl, PassthroughPearl
from repro.lis.simulator import Simulation
from repro.lis.system import System
from repro.lis.throughput import system_marked_graph


def _passthrough_schedule() -> IOSchedule:
    return IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])


def _passthrough_pearl(name: str = "p") -> FunctionPearl:
    return FunctionPearl(
        name,
        _passthrough_schedule(),
        lambda index, popped: {"y": popped["x"]},
    )


def _single_process_system(
    tokens, gaps=None, wrapper=FSMWrapper
) -> tuple[System, object]:
    system = System("edge")
    shell = system.add_patient(wrapper(_passthrough_pearl()))
    system.connect_source("src", tokens, shell, "x", gaps=gaps)
    sink = system.connect_sink(shell, "y", "snk")
    return system, shell


class TestDeadlockWindow:
    def test_window_of_one_trips_on_first_idle_cycle(self):
        # No tokens ever arrive: the shell can never fire.
        system, _ = _single_process_system([])
        result = Simulation(system).run(100, deadlock_window=1)
        assert result.deadlocked
        assert result.cycles == 1

    def test_progress_on_final_cycle_defeats_the_window(self):
        # Locate the cycle of the one and only firing...
        system, shell = _single_process_system([42])
        shell.trace_enable = []
        Simulation(system).run(50)
        fire_index = shell.trace_enable.index(True)
        assert fire_index > 0  # token must traverse link + port first

        # ...then run exactly up to it: the fire lands on the last
        # executed cycle and resets the quiet counter just in time.
        system, _ = _single_process_system([42])
        result = Simulation(system).run(
            fire_index + 1, deadlock_window=fire_index + 1
        )
        assert not result.deadlocked
        assert result.cycles == fire_index + 1
        assert result.shell_enabled["p"] == 1

        # One cycle less of patience deadlocks just before the fire.
        system, _ = _single_process_system([42])
        result = Simulation(system).run(
            fire_index + 1, deadlock_window=fire_index
        )
        assert result.deadlocked
        assert result.cycles == fire_index
        assert result.shell_enabled["p"] == 0

    def test_window_larger_than_run_never_trips(self):
        system, _ = _single_process_system([])
        result = Simulation(system).run(10, deadlock_window=11)
        assert not result.deadlocked
        assert result.cycles == 10

    def test_periodic_progress_resets_the_window(self):
        # One token every 8 cycles: quiet stretches stay below 8+slack.
        gaps = [True] + [False] * 7
        system, _ = _single_process_system(list(range(8)), gaps=gaps)
        result = Simulation(system).run(64, deadlock_window=12)
        assert not result.deadlocked
        assert result.shell_enabled["p"] == 8


class TestRunUntil:
    def test_max_cycles_error_names_the_system(self):
        system, _ = _single_process_system([])
        simulation = Simulation(system)
        with pytest.raises(RuntimeError, match="edge"):
            simulation.run_until(lambda: False, max_cycles=10)

    def test_predicate_already_true_runs_zero_cycles(self):
        system, _ = _single_process_system([1])
        simulation = Simulation(system)
        assert simulation.run_until(lambda: True) == 0
        assert simulation.cycle == 0

    def test_counts_cycles_until_predicate(self):
        system, shell = _single_process_system([1, 2, 3])
        simulation = Simulation(system)
        executed = simulation.run_until(
            lambda: shell.enabled_cycles >= 3, max_cycles=100
        )
        assert executed == simulation.cycle
        assert shell.enabled_cycles == 3


class TestResultAccessors:
    def test_unknown_names_raise_key_error(self):
        system, _ = _single_process_system([1])
        result = Simulation(system).run(20)
        with pytest.raises(KeyError):
            result.utilization("nope")
        with pytest.raises(KeyError):
            result.throughput("nope")

    def test_zero_cycles_reports_zero_for_known_names(self):
        system, _ = _single_process_system([1])
        result = Simulation(system).run(0)
        assert result.cycles == 0
        assert result.utilization("p") == 0.0
        assert result.throughput("snk") == 0.0

    def test_known_names_report_rates(self):
        system, _ = _single_process_system(list(range(10)))
        result = Simulation(system).run(40)
        assert 0.0 < result.utilization("p") <= 1.0
        assert 0.0 < result.throughput("snk") <= 1.0


class TestFastPathEquivalence:
    """The trace-free fast path and the watcher path must agree."""

    def _ring(self):
        schedule = _passthrough_schedule()
        system = System("ring")
        shells = [
            system.add_patient(
                SPWrapper(PassthroughPearl(f"n{k}", schedule))
            )
            for k in range(3)
        ]
        for k in range(3):
            system.connect(
                shells[k], "y", shells[(k + 1) % 3], "x",
                initial_tokens=[7] if k == 2 else (),
            )
        return system, shells

    def test_watcher_path_matches_fast_path(self):
        system_a, shells_a = self._ring()
        fast = Simulation(system_a).run(200)

        system_b, shells_b = self._ring()
        simulation = Simulation(system_b)
        seen = []
        simulation.add_watcher(seen.append)
        slow = simulation.run(200)

        assert len(seen) == 200
        assert fast.shell_enabled == slow.shell_enabled
        assert fast.shell_periods == slow.shell_periods

    def test_step_and_run_compose(self):
        system, _ = self._ring()
        simulation = Simulation(system)
        simulation.step(10)
        result = simulation.run(30)
        assert simulation.cycle == 40
        assert result.cycles == 30


class TestChannelMarking:
    def test_initial_tokens_preload_and_survive_reset(self):
        system, shells = TestFastPathEquivalence()._ring()
        shell = shells[0]
        port = shell.in_ports["x"]
        assert port.occupancy == 1
        simulation = Simulation(system)
        power_up = simulation.checkpoint()
        simulation.run(50)
        simulation.restore(power_up)
        assert port.occupancy == 1  # marking is power-up state
        assert list(port._fifo) == [7]

    def test_marking_overflow_rejected(self):
        schedule = _passthrough_schedule()
        system = System("overflow")
        a = system.add_patient(FSMWrapper(_passthrough_pearl("a")))
        b = system.add_patient(FSMWrapper(_passthrough_pearl("b")))
        with pytest.raises(ValueError, match="preload"):
            system.connect(
                a, "y", b, "x", initial_tokens=[1, 2, 3]
            )  # depth 2

    def test_marking_feeds_marked_graph(self):
        system, _ = TestFastPathEquivalence()._ring()
        graph = system_marked_graph(system)
        assert graph.throughput_enumerated() > 0
        metrics = graph.cycle_metrics()
        assert len(metrics) == 1
        _nodes, tokens, latency = metrics[0]
        assert tokens == 1
        assert latency == 6  # three hops of latency 1 + processing
