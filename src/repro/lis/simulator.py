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

A stall plan (:mod:`repro.lis.stall`) is simulation data:
``Simulation(system, stalls)`` resolves it once into the links each
stalled cycle forces and the ``[start, end)`` windows those cycles
form.  The reference loop forces the links after the produce phase
(data void, stop high); the lowered loop never sees the plan, so a
stall plan never changes the code a system runs.  Instead
:meth:`Simulation.run` splits the requested cycles at the windows:
stall-free stretches run the lowered loop, and each window runs the
reference loop.  Both loops take and return the deadlock watch's quiet
count, so a split run stops where an unsplit one would.  A run without
a stall plan makes one lowered call.

A :class:`Checkpoint` is the whole state of a system at a cycle
boundary: every block's (``save_state``, for the classes
:func:`~repro.lis.signals.checkpointed` declares), the wires, and
the run's position and quiet count.  ``run(..., checkpoint_at=F)``
pauses the run at cycle F to take one, and ``run(..., resume=c)``
restores ``c`` and finishes the paused run from there.  Splitting a
run is exact, so a run resumed from a checkpoint under another stall
plan equals a run of a fresh build under that plan, provided the two
plans force the same links before the checkpoint's cycle (checked).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .compile_fabric import Runner, count_stall_cycles, runner_for
from .signals import VOID, CheckpointError, declared
from .stall import LinkStall, resolve_stall_plan
from .system import System


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """A system's state at cycle ``cycle`` of a run that started at
    ``start``: ``quiet`` is the deadlock watch's count there, and
    ``stopped`` says the run had already ended (deadlocked) by then.
    ``forced`` holds the ``(cycle, link name)`` pairs the run's stall
    plan forced before ``cycle``."""

    system: System
    start: int
    cycle: int
    quiet: int
    stopped: bool
    forced: frozenset
    wires: tuple
    blocks: tuple


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    cycles: int
    shell_enabled: dict[str, int] = field(default_factory=dict)
    shell_stalled: dict[str, int] = field(default_factory=dict)
    shell_periods: dict[str, int] = field(default_factory=dict)
    sink_tokens: dict[str, int] = field(default_factory=dict)
    deadlocked: bool = False
    # The pause a run(checkpoint_at=...) took, when every block could
    # checkpoint.
    checkpoint: Checkpoint | None = field(
        default=None, compare=False, repr=False
    )

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
    """Drives a validated :class:`System` under an optional stall plan.

    The block set is frozen at construction: blocks added to the system
    afterwards are not simulated (construct a new :class:`Simulation`).
    ``stalls`` must name links of ``system`` (:class:`ValueError`
    otherwise).
    """

    def __init__(
        self, system: System, stalls: Sequence[LinkStall] = ()
    ) -> None:
        system.validate()
        self.system = system
        self.cycle = 0
        self._watchers: list[Callable[[int], None]] = []
        self._blocks = system.blocks
        self._shells = list(system.shells.values())
        # The lowered run loop: False until the first run() tries to
        # lower the system, None when it cannot be lowered.
        self._fabric: Callable | None | bool = False
        # The links each stalled cycle forces, and the [start, end)
        # windows of those cycles, which a lowered run hands to the
        # reference loop.
        self._forced, self._stalls = resolve_stall_plan(
            system.links, stalls
        )

    def add_watcher(self, fn: Callable[[int], None]) -> None:
        """``fn(cycle)`` runs after every commit (trace collection)."""
        self._watchers.append(fn)

    def step(self, cycles: int = 1) -> None:
        self._reference(cycles, None)

    def _reference(
        self, cycles: int, deadlock_window: int | None, quiet: int = 0
    ) -> tuple[int, bool, int]:
        """The object-level reference loop: ``(cycles executed,
        deadlocked, quiet)``, where ``quiet`` counts the trailing
        cycles no shell fired in, carried in from an earlier segment
        of the same run."""
        blocks = self._blocks
        watchers = self._watchers
        shells = self._shells
        forced = self._forced
        cycle = start = self.cycle
        # enabled_cycles counters only ever grow, so the sum moves
        # exactly when some shell made progress.
        last_total = sum(shell.enabled_cycles for shell in shells)
        try:
            for _ in range(cycles):
                for block in blocks:
                    block.produce(cycle)
                if cycle in forced:
                    for link in forced[cycle]:
                        link.data.value = VOID
                        link.stop.stop = True
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
                        return cycle - start, True, quiet
            return cycle - start, False, quiet
        finally:
            self.cycle = cycle

    def _split(
        self,
        lowered: Runner,
        cycles: int,
        deadlock_window: int | None,
        quiet: int,
    ) -> tuple[bool, int]:
        """Run ``cycles`` on the lowered loop, except the stall windows,
        which run on the reference loop: ``(deadlocked, quiet)``."""
        end = self.cycle + cycles
        for first, stop in self._stalls:
            first, stop = max(first, self.cycle), min(stop, end)
            if first >= stop:
                continue
            if first > self.cycle:
                _, deadlocked, quiet = lowered(
                    self, first - self.cycle, deadlock_window, quiet
                )
                if deadlocked:
                    return True, quiet
            executed, deadlocked, quiet = self._reference(
                stop - first, deadlock_window, quiet
            )
            count_stall_cycles(executed)
            if deadlocked:
                return True, quiet
        _, deadlocked, quiet = lowered(
            self, end - self.cycle, deadlock_window, quiet
        )
        return deadlocked, quiet

    def _advance(
        self,
        lowered: Runner | None,
        cycles: int,
        deadlock_window: int | None,
        quiet: int,
    ) -> tuple[bool, int]:
        """One stretch of a run on the engine ``runner_for`` chose:
        ``(deadlocked, quiet)``."""
        if cycles <= 0:
            return False, quiet
        if lowered is None:
            _, deadlocked, quiet = self._reference(
                cycles, deadlock_window, quiet
            )
            return deadlocked, quiet
        return self._split(lowered, cycles, deadlock_window, quiet)

    def run(
        self,
        cycles: int,
        deadlock_window: int | None = None,
        checkpoint_at: int | None = None,
        resume: Checkpoint | None = None,
    ) -> SimulationResult:
        """Run for ``cycles`` cycles; optionally stop early if no shell
        fires for ``deadlock_window`` consecutive cycles.

        ``checkpoint_at`` pauses the run at that cycle (or where it
        stops, if earlier) and returns a :class:`Checkpoint` of the
        pause as the result's ``checkpoint`` (None when some block
        cannot checkpoint).  ``resume`` restores a checkpoint of this
        system (:meth:`restore`) and finishes the run it paused:
        ``cycles`` and the result count from that run's start, and the
        deadlock watch picks up its quiet count.  :class:`ValueError`
        when this simulation's stall plan forces other links than the
        paused run's did before the checkpoint."""
        lowered = runner_for(self)
        quiet, deadlocked = 0, False
        if resume is not None:
            if self._forced_before(resume.start, resume.cycle) != (
                resume.forced
            ):
                raise ValueError(
                    "the stall plan differs from the checkpointed "
                    "run's before its cycle"
                )
            self.restore(resume)
            quiet, deadlocked = resume.quiet, resume.stopped
        start = self.cycle if resume is None else resume.start
        end = start + cycles
        checkpoint = None
        if checkpoint_at is not None and not deadlocked:
            deadlocked, quiet = self._advance(
                lowered,
                min(checkpoint_at, end) - self.cycle,
                deadlock_window,
                quiet,
            )
            try:
                checkpoint = self._checkpoint(start, quiet, deadlocked)
            except CheckpointError:
                pass
        if not deadlocked:
            deadlocked, _ = self._advance(
                lowered, end - self.cycle, deadlock_window, quiet
            )
        return SimulationResult(
            cycles=self.cycle - start,
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
            checkpoint=checkpoint,
        )

    # -- checkpoints ---------------------------------------------------------

    def _forced_before(self, start: int, cycle: int) -> frozenset:
        return frozenset(
            (at, link.name)
            for at, links in self._forced.items()
            if start <= at < cycle
            for link in links
        )

    def _checkpoint(
        self, start: int, quiet: int, stopped: bool
    ) -> Checkpoint:
        return Checkpoint(
            system=self.system,
            start=start,
            cycle=self.cycle,
            quiet=quiet,
            stopped=stopped,
            forced=self._forced_before(start, self.cycle),
            wires=tuple(
                (link, link.data.value, link.stop.stop)
                for link in self.system.links
            ),
            blocks=tuple(
                (block, declared(block).save_state())
                for block in self._blocks
            ),
        )

    def checkpoint(self) -> Checkpoint:
        """The system's state now, between runs (a later run starts
        from it afresh).  Raises
        :class:`~repro.lis.signals.CheckpointError` when a block, a
        shell's port or pearl, or a style's decision state is not of a
        :func:`~repro.lis.signals.checkpointed` class."""
        return self._checkpoint(self.cycle, 0, False)

    def restore(self, checkpoint: Checkpoint) -> None:
        """Put the system back into ``checkpoint``'s state, in place:
        as often as needed, and after any run or :meth:`reset`."""
        if checkpoint.system is not self.system:
            raise ValueError("the checkpoint is of another system")
        for block, state in checkpoint.blocks:
            block.load_state(state)
        for link, value, stop in checkpoint.wires:
            link.data.value = value
            link.stop.stop = stop
        self.cycle = checkpoint.cycle

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
