"""Cycle-accurate system simulator for latency-insensitive SoCs.

Executes the strict two-phase schedule of :mod:`repro.lis.signals`:
each cycle, every block's ``produce`` runs (outputs from registered
state), then every ``consume`` (inputs -> next state), then every
``commit``.  No fixed-point iteration is needed because no block has a
same-cycle input-to-output path.

Two engines run that schedule.  :meth:`Simulation.run` lowers a system
built from stock fabric blocks into one generated run loop
(:mod:`repro.lis.compile_fabric`) whenever no watchers are attached.
Everything else, and every :meth:`Simulation.step`, takes the
object-level *reference loop*, which calls each block's ``produce``,
``consume`` and ``commit`` in block order; the lowering is
differentially tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .system import System


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    cycles: int
    shell_enabled: dict[str, int] = field(default_factory=dict)
    shell_stalled: dict[str, int] = field(default_factory=dict)
    shell_periods: dict[str, int] = field(default_factory=dict)
    sink_tokens: dict[str, int] = field(default_factory=dict)
    deadlocked: bool = False

    def utilization(self, shell_name: str) -> float:
        """Enabled fraction for ``shell_name``.

        Raises :class:`KeyError` for names the run never saw; a run of
        zero cycles reports 0.0 for every known shell.
        """
        enabled = self.shell_enabled[shell_name]
        if self.cycles == 0:
            return 0.0
        return enabled / self.cycles

    def throughput(self, sink_name: str) -> float:
        """Tokens per cycle delivered to ``sink_name``.

        Raises :class:`KeyError` for names the run never saw; a run of
        zero cycles reports 0.0 for every known sink.
        """
        tokens = self.sink_tokens[sink_name]
        if self.cycles == 0:
            return 0.0
        return tokens / self.cycles


class Simulation:
    """Drives a validated :class:`System`.

    The block set is frozen at construction: blocks added to the system
    afterwards are not simulated (construct a new :class:`Simulation`).
    """

    def __init__(self, system: System) -> None:
        system.validate()
        self.system = system
        self.cycle = 0
        self._watchers: list[Callable[[int], None]] = []
        self._blocks = system.blocks
        self._shells = list(system.shells.values())
        # The lowered run loop: False until the first run() tries to
        # lower the system, None when it cannot be lowered.
        self._fabric: Callable | None | bool = False

    def add_watcher(self, fn: Callable[[int], None]) -> None:
        """``fn(cycle)`` runs after every commit (trace collection)."""
        self._watchers.append(fn)

    def step(self, cycles: int = 1) -> None:
        self._reference(cycles, None)

    def _reference(
        self, cycles: int, deadlock_window: int | None
    ) -> tuple[int, bool]:
        """The object-level reference loop: ``(cycles executed,
        deadlocked)``."""
        blocks = self._blocks
        watchers = self._watchers
        shells = self._shells
        cycle = start = self.cycle
        quiet = 0
        # enabled_cycles counters only ever grow, so the sum moves
        # exactly when some shell made progress.
        last_total = sum(shell.enabled_cycles for shell in shells)
        try:
            for _ in range(cycles):
                for block in blocks:
                    block.produce(cycle)
                for block in blocks:
                    block.consume(cycle)
                for block in blocks:
                    block.commit()
                for watcher in watchers:
                    watcher(cycle)
                cycle += 1
                if deadlock_window is not None:
                    total = sum(shell.enabled_cycles for shell in shells)
                    quiet = 0 if total != last_total else quiet + 1
                    last_total = total
                    if quiet >= deadlock_window:
                        return cycle - start, True
            return cycle - start, False
        finally:
            self.cycle = cycle

    def run(
        self,
        cycles: int,
        deadlock_window: int | None = None,
    ) -> SimulationResult:
        """Run for ``cycles`` cycles; optionally stop early if no shell
        fires for ``deadlock_window`` consecutive cycles."""
        # Imported here so that importing the package stays cheap.
        from .compile_fabric import runner_for

        lowered = runner_for(self)
        if lowered is not None:
            executed, deadlocked = lowered(self, cycles, deadlock_window)
        else:
            executed, deadlocked = self._reference(cycles, deadlock_window)
        return SimulationResult(
            cycles=executed,
            shell_enabled={
                name: shell.enabled_cycles
                for name, shell in self.system.shells.items()
            },
            shell_stalled={
                name: shell.stall_cycles
                for name, shell in self.system.shells.items()
            },
            shell_periods={
                name: shell.periods_completed
                for name, shell in self.system.shells.items()
            },
            sink_tokens={
                name: len(sink.received)
                for name, sink in self.system.sinks.items()
            },
            deadlocked=deadlocked,
        )

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Step until ``predicate()`` holds; returns cycles executed."""
        executed = 0
        while not predicate():
            if executed >= max_cycles:
                raise RuntimeError(
                    f"run_until exceeded {max_cycles} cycles "
                    f"(system {self.system.name!r} may be deadlocked)"
                )
            self.step()
            executed += 1
        return executed

    def reset(self) -> None:
        for block in self.system.blocks:
            block.reset()
        self.cycle = 0
