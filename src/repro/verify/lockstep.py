"""Lockstep simulation of cycle-exact styles, grouped.

A cycle-exact pair (a style and its registry ``cycle_exact_reference``,
e.g. ``rtl-fsm`` and ``fsm``) must fire every process on exactly the
same cycles, and pairs that need the same activation plan often fire
alike too.  Simulating each style as its own system does the same run
several times.  :func:`lockstep_groups` instead puts the cycle-exact
pairs with the same ``needs_activation`` into one *group* (in the
benchmark style sets ``rtl-sp``, ``sp``, ``rtl-fsm``, ``fsm``), which
runs as one system of :class:`LockstepShell` shells: the group's first
style, the checked style of its first pair, *leads*, and the other
styles *ride*, taking their decisions every cycle from the same
readiness word and script position as the lead.

One rule: a riding style that decides differently from the lead, or
raises in a decision, detaches by itself at that cycle, from every
shell of the system at once (:class:`Riders` is shared by them); a
style that walks a different script detaches before cycle 0.  The run
goes on for the lead and the styles still riding.

Why one run stands for several styles: a style's run is a
deterministic function of its decision sequence, given the same
script, pearl and fabric.  The lead's lockstep run is its separate
run, and a style that rode to the end would have made it too.  A run
that raises stands for no style: :func:`repro.verify.cases.run_styles`
then simulates the lead alone, and the other styles regroup through
:func:`lockstep_groups`, as the styles that detached from a run do.
So every divergence and exception text comes from a separate run.

Counters, process-local like the fabric and RTL engine counters
(bridged as ``lockstep.*`` by
:func:`repro.verify.telemetry.engine_stats`): ``runs`` counts lockstep
systems simulated, ``fallbacks`` those whose run raised, so that their
lead ran alone, ``grouped`` those that started with more than one
riding style (styles of more than one cycle-exact pair), and
``detached.<cycle>`` the styles detached at each cycle (before cycle 0
counts as cycle 0).
"""

from __future__ import annotations

from typing import Sequence

from ..lis.shell import Shell
from ..lis.signals import checkpointed, declared
from .styles import cycle_exact_pairs, get_style

__all__ = [
    "LockstepShell",
    "Riders",
    "count",
    "count_detach",
    "lockstep_groups",
    "lockstep_stats",
]

_STATS: dict[str, int] = {"runs": 0, "fallbacks": 0, "grouped": 0}
#: Styles detached, by the cycle they detached at.
_DETACHED: dict[int, int] = {}


def lockstep_stats() -> dict[str, int]:
    """Snapshot of the lockstep counters (``runs``, ``fallbacks``,
    ``grouped`` and one ``detached.<cycle>`` per detach cycle seen);
    cumulative per process."""
    stats = dict(_STATS)
    for cycle, n in sorted(_DETACHED.items()):
        stats[f"detached.{cycle}"] = n
    return stats


def count(name: str) -> None:
    """Count one lockstep system in ``runs``, ``fallbacks`` or
    ``grouped``."""
    _STATS[name] += 1


def count_detach(cycle: int) -> None:
    """Count one style detached at ``cycle`` (before cycle 0 counts as
    0)."""
    cycle = max(cycle, 0)
    _DETACHED[cycle] = _DETACHED.get(cycle, 0) + 1


class Riders:
    """The riding styles of one lockstep system, shared by all its
    shells: ``styles`` in group order, ``detached`` the cycle each
    detached at (None while it rides, -1 before cycle 0) and
    ``riding`` the indices still riding."""

    __slots__ = ("styles", "detached", "riding")

    def __init__(self, styles: Sequence[str] = ()) -> None:
        self.styles = tuple(styles)
        self.detached: list[int | None] = [None] * len(self.styles)
        self.riding = tuple(range(len(self.styles)))

    def drop(self, index: int, cycle: int) -> None:
        """Detach style ``index`` at ``cycle`` (it is not consulted
        again until a restore puts it back)."""
        if self.detached[index] is None:
            self.detached[index] = cycle
            self.riding = tuple(i for i in self.riding if i != index)

    def riding_at(self, cycle: int | None = None) -> tuple[str, ...]:
        """The styles that still rode at the start of ``cycle`` (None:
        that ride now)."""
        return tuple(
            style
            for style, at in zip(self.styles, self.detached)
            if at is None or (cycle is not None and at >= cycle)
        )

    def load(self, detached: tuple) -> None:
        self.detached[:] = detached
        self.riding = tuple(
            index for index, at in enumerate(detached) if at is None
        )


@checkpointed
class LockstepShell(Shell):
    """One process under a lead style's decisions, with riding styles'
    decisions taken alongside.

    The lockstep shell owns the ports, the pearl and the firing
    protocol; ``lead`` and each of ``riders`` are shells of their
    styles built around the same pearl, used for their decisions only.
    All decide from the one readiness word the lockstep shell's step
    starts with and see its script position before each decision, so
    none binds a port.  ``detach`` is the system's :class:`Riders`
    record, one style per shell of ``riders``; a rider whose script
    differs from the lead's is detached before cycle 0.
    """

    style = "lockstep"

    def __init__(
        self, lead: Shell, riders: Sequence[Shell], detach: Riders
    ) -> None:
        super().__init__(lead.pearl, lead.port_depth)
        self._script = lead._script
        self.lead = lead
        self.riders = tuple(riders)
        self.detach = detach
        for index, shell in enumerate(self.riders):
            if shell._script != self._script:
                detach.drop(index, -1)

    # Both hooks carry the riders inline: a shared helper would cost a
    # call per decision, on the hottest path of every lockstep run.
    def _sync_ready(self, cycle: int, ready: int) -> bool:
        position = self._script_pos
        lead = self.lead
        lead._script_pos = position
        enabled = lead._sync_ready(cycle, ready)
        detach = self.detach
        for index in detach.riding:
            shell = self.riders[index]
            shell._script_pos = position
            try:
                if shell._sync_ready(cycle, ready) == enabled:
                    continue
            except Exception:
                # The style's own run raises this again and reports it;
                # this run goes on without the style.
                pass
            detach.drop(index, cycle)
        return enabled

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        position = self._script_pos
        lead = self.lead
        lead._script_pos = position
        enabled = lead._run_gate_ok(cycle, ready)
        detach = self.detach
        for index in detach.riding:
            shell = self.riders[index]
            shell._script_pos = position
            try:
                if shell._run_gate_ok(cycle, ready) == enabled:
                    continue
            except Exception:
                pass  # as in _sync_ready
            detach.drop(index, cycle)
        return enabled

    def _decision_state(self) -> tuple:
        # The shells share this shell's ports and pearl; only their
        # decision state is their own.  A detached rider is never
        # consulted again, so its state is not kept.
        detached = tuple(self.detach.detached)
        return (
            declared(self.lead)._decision_state(),
            detached,
            tuple(
                None if at is not None else declared(shell)._decision_state()
                for shell, at in zip(self.riders, detached)
            ),
        )

    def _load_decision(self, state: tuple) -> None:
        lead, detached, riders = state
        self.lead._load_decision(lead)
        self.detach.load(detached)
        for shell, saved in zip(self.riders, riders):
            if saved is not None:
                shell._load_decision(saved)


def lockstep_groups(styles: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """``styles`` as the lockstep systems they run in, in order of
    first appearance: each group is a lead followed by the styles that
    ride with it.

    The cycle-exact pairs (:func:`~repro.verify.styles.cycle_exact_pairs`)
    of ``styles`` whose two styles' ``needs_activation`` flags match
    share a group per flag, pair by pair in ``styles`` order, each
    pair's checked style before its reference; so a group's lead is
    the checked style of its first pair.  A style joins at most one
    pair, and a style in no pair is a group of its own, with no riders.
    (``shiftreg`` and ``fsm`` stay apart: the shift-register plan needs
    the finished FSM run.)"""
    references = {
        checked: reference
        for reference, checked in cycle_exact_pairs(tuple(styles))
    }
    paired: dict[bool, list[str]] = {}
    group_of: dict[str, list[str]] = {}
    for style in styles:
        reference = references.get(style)
        if (
            reference is None
            or style in group_of
            or reference in group_of
            or get_style(reference).needs_activation
            != get_style(style).needs_activation
        ):
            continue
        group = paired.setdefault(get_style(style).needs_activation, [])
        group += (style, reference)
        group_of.update(dict.fromkeys((style, reference), group))
    return tuple(
        dict.fromkeys(
            tuple(group_of[style]) if style in group_of else (style,)
            for style in styles
        )
    )
