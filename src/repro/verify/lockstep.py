"""Lockstep simulation of cycle-exact style pairs, grouped.

A cycle-exact pair (a style and its registry ``cycle_exact_reference``,
e.g. ``rtl-fsm`` and ``fsm``) must fire every process on exactly the
same cycles.  Simulating the two styles as two systems does the same
run twice whenever they agree.  A :class:`LockstepShell` instead runs
one system whose shells take both styles' decisions every cycle: the
checked style's shell leads, the reference style's shell is the
companion decision, and any disagreement raises
:class:`LockstepDivergence`.

Pairs that need the same activation plan go further and share one
system as a *group* (:func:`lockstep_groups`): in the benchmark style
sets ``rtl-sp``/``sp`` and ``rtl-fsm``/``fsm``.  The group's first
pair is its *primary*, led and checked as above; every later pair is
a *rider* whose two decisions receive the same readiness word and
script position every cycle and must agree with the lead.  A rider
that disagrees, raises in a decision, or walks a different script is
*detached* as a unit, from every shell of the system at once
(:class:`Riders` is shared by them); the run continues for the
primary pair and the rest of the group.  A pair is the group with no
riders.

Why one run stands for several styles: a style's run is a
deterministic function of its decision sequence, given the same
script, pearl and fabric.  When a style's decisions agree with the
lead's cycle for cycle and nothing raises, its separate run would
equal the lockstep run.  A primary disagreement or any exception
discards the whole run, and :func:`repro.verify.cases.run_styles`
simulates the primary's styles separately; a detached rider pair, or
every rider of a discarded run, runs again as a pair of its own.  So
every divergence and exception text comes from a separate run.

Counters, process-local like the fabric and RTL engine counters
(bridged as ``lockstep.*`` by
:func:`repro.verify.telemetry.engine_stats`): ``runs`` counts lockstep
systems simulated, ``fallbacks`` those discarded for separate runs,
``grouped`` those that carried a rider pair, and ``detached.<cycle>``
the rider pairs detached at each cycle (a different script detaches
a rider before cycle 0, counted as cycle 0).
"""

from __future__ import annotations

from typing import NoReturn, Sequence

from ..lis.shell import Shell
from ..lis.signals import checkpointed, declared
from .styles import cycle_exact_pairs, get_style

__all__ = [
    "LockstepDivergence",
    "LockstepShell",
    "Riders",
    "lockstep_groups",
    "lockstep_pairs",
    "lockstep_stats",
]

_STATS: dict[str, int] = {"runs": 0, "fallbacks": 0, "grouped": 0}
#: Rider pairs detached, by the cycle they detached at.
_DETACHED: dict[int, int] = {}


def lockstep_stats() -> dict[str, int]:
    """Snapshot of the lockstep counters (``runs``, ``fallbacks``,
    ``grouped`` and one ``detached.<cycle>`` per detach cycle seen);
    cumulative per process."""
    stats = dict(_STATS)
    for cycle, count in sorted(_DETACHED.items()):
        stats[f"detached.{cycle}"] = count
    return stats


def count_detach(cycle: int) -> None:
    """Count one rider pair detached at ``cycle`` (before cycle 0
    counts as 0)."""
    cycle = max(cycle, 0)
    _DETACHED[cycle] = _DETACHED.get(cycle, 0) + 1


class LockstepDivergence(RuntimeError):
    """The two styles of a lockstep shell decided differently."""


class Riders:
    """The rider pairs of one lockstep system, shared by all its
    shells: ``pairs`` the (checked, reference) style pairs,
    ``detached`` the cycle each detached at (None while it rides, -1
    before cycle 0) and ``riding`` the indices still riding."""

    __slots__ = ("pairs", "detached", "riding")

    def __init__(self, pairs: Sequence[tuple[str, str]] = ()) -> None:
        self.pairs = tuple(pairs)
        self.detached: list[int | None] = [None] * len(self.pairs)
        self.riding = tuple(range(len(self.pairs)))

    def drop(self, index: int, cycle: int) -> None:
        """Detach pair ``index`` at ``cycle`` (it is not consulted
        again until a restore puts it back)."""
        if self.detached[index] is None:
            self.detached[index] = cycle
            self.riding = tuple(i for i in self.riding if i != index)

    def riding_at(self, cycle: int | None = None) -> tuple[str, ...]:
        """The styles of the pairs that still rode at the start of
        ``cycle`` (None: that ride now), pair by pair."""
        return tuple(
            style
            for pair, at in zip(self.pairs, self.detached)
            if at is None or (cycle is not None and at >= cycle)
            for style in pair
        )

    def load(self, detached: tuple) -> None:
        self.detached[:] = detached
        self.riding = tuple(
            index for index, at in enumerate(detached) if at is None
        )


@checkpointed
class LockstepShell(Shell):
    """One process under a group of cycle-exact pairs' decisions.

    The lockstep shell owns the ports, the pearl and the firing
    protocol; ``lead`` and ``companion`` (the primary pair) and each
    ``riders`` pair are shells of their styles built around the same
    pearl, used for their decisions only.  All decide from the one
    readiness word the lockstep shell's step starts with and see its
    script position before each decision, so none binds a port.  The
    primary pair's scripts must be equal entry for entry, or
    construction raises :class:`LockstepDivergence`; a rider whose
    script differs is detached before cycle 0.  ``detach`` is the
    system's :class:`Riders` record.
    """

    style = "lockstep"

    def __init__(
        self,
        lead: Shell,
        companion: Shell,
        riders: Sequence[tuple[Shell, Shell]] = (),
        detach: Riders | None = None,
    ) -> None:
        super().__init__(lead.pearl, lead.port_depth)
        if lead._script != companion._script:
            raise LockstepDivergence(
                f"{lead.name!r}: {lead.style} and {companion.style} "
                "walk different scripts"
            )
        self._script = lead._script
        self.lead = lead
        self.companion = companion
        self.riders = tuple(riders)
        self.detach = Riders() if detach is None else detach
        for index, pair in enumerate(self.riders):
            if any(shell._script != self._script for shell in pair):
                self.detach.drop(index, -1)

    def _diverged(self, cycle: int) -> NoReturn:
        raise LockstepDivergence(
            f"{self.name!r} cycle {cycle}: {self.lead.style} and "
            f"{self.companion.style} decided differently"
        )

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        lead, companion = self.lead, self.companion
        lead._script_pos = companion._script_pos = self._script_pos
        enabled = lead._sync_ready(cycle, ready)
        if companion._sync_ready(cycle, ready) != enabled:
            self._diverged(cycle)
        if self.detach.riding:
            self._carry("_sync_ready", cycle, ready, enabled)
        return enabled

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        lead, companion = self.lead, self.companion
        lead._script_pos = companion._script_pos = self._script_pos
        enabled = lead._run_gate_ok(cycle, ready)
        if companion._run_gate_ok(cycle, ready) != enabled:
            self._diverged(cycle)
        if self.detach.riding:
            self._carry("_run_gate_ok", cycle, ready, enabled)
        return enabled

    def _carry(
        self, hook: str, cycle: int, ready: int, enabled: bool
    ) -> None:
        """Take every riding pair's ``hook`` decision; detach a pair
        that disagrees with the lead's ``enabled`` or raises."""
        detach = self.detach
        position = self._script_pos
        for index in detach.riding:
            for shell in self.riders[index]:
                shell._script_pos = position
                try:
                    agrees = getattr(shell, hook)(cycle, ready) == enabled
                except Exception:
                    # The pair's own run raises this again and reports
                    # it; the group's run goes on without the pair.
                    agrees = False
                if not agrees:
                    detach.drop(index, cycle)
                    break

    def _decision_state(self) -> tuple:
        # The shells share this shell's ports and pearl; only their
        # decision state is their own.  A detached rider is never
        # consulted again, so its state is not kept.
        detached = tuple(self.detach.detached)
        return (
            declared(self.lead)._decision_state(),
            declared(self.companion)._decision_state(),
            detached,
            tuple(
                None
                if at is not None
                else tuple(declared(s)._decision_state() for s in pair)
                for pair, at in zip(self.riders, detached)
            ),
        )

    def _load_decision(self, state: tuple) -> None:
        lead, companion, detached, riders = state
        self.lead._load_decision(lead)
        self.companion._load_decision(companion)
        self.detach.load(detached)
        for pair, saved in zip(self.riders, riders):
            if saved is not None:
                for shell, decision in zip(pair, saved):
                    shell._load_decision(decision)


def lockstep_pairs(styles: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """(checked style, reference style) pairs of ``styles`` that run in
    lockstep, in ``styles`` order: each of
    :func:`~repro.verify.styles.cycle_exact_pairs` whose two styles'
    ``needs_activation`` flags match.  A style joins at most one pair.
    (``shiftreg`` and ``fsm`` stay apart: the shift-register plan
    needs the finished FSM run.)"""
    references = {
        checked: reference
        for reference, checked in cycle_exact_pairs(tuple(styles))
    }
    pairs = []
    paired: set[str] = set()
    for style in styles:
        reference = references.get(style)
        if (
            reference is None
            or style in paired
            or reference in paired
            or get_style(reference).needs_activation
            != get_style(style).needs_activation
        ):
            continue
        pairs.append((style, reference))
        paired.update((style, reference))
    return tuple(pairs)


def lockstep_groups(
    styles: Sequence[str],
) -> tuple[tuple[tuple[str, str], ...], ...]:
    """The :func:`lockstep_pairs` of ``styles`` grouped by their
    ``needs_activation`` flag, in ``styles`` order: each group's pairs
    share one lockstep system, the first pair as its primary and the
    rest as riders.  (The shift-register pair needs the FSM run's
    activation plan, so it stays a group of its own.)"""
    groups: dict[bool, list[tuple[str, str]]] = {}
    for pair in lockstep_pairs(styles):
        groups.setdefault(get_style(pair[0]).needs_activation, []).append(
            pair
        )
    return tuple(tuple(pairs) for pairs in groups.values())
