"""Lockstep simulation of a cycle-exact style pair.

A cycle-exact pair (a style and its registry ``cycle_exact_reference``,
e.g. ``rtl-fsm`` and ``fsm``) must fire every process on exactly the
same cycles.  Simulating the two styles as two systems does the same
run twice whenever they agree.  A :class:`LockstepShell` instead runs
one system whose shells take both styles' decisions every cycle: the
checked style's shell leads, the reference style's shell is the
companion decision, and any disagreement raises
:class:`LockstepDivergence`.

Why one run stands for two: a style's run is a deterministic function
of its decision sequence, given the same script, pearl and fabric.
When both decision sequences agree cycle for cycle and nothing raises,
each style's separate run would equal the lockstep run.  Anything else
(a disagreement, or an exception from either decision) discards the
lockstep run, and :func:`repro.verify.cases.run_styles` simulates both
styles separately, so every divergence and exception text comes from
the separate runs.

Counters, process-local like the fabric and RTL engine counters:
``runs`` counts lockstep simulations attempted and ``fallbacks`` those
discarded for separate runs (bridged as ``lockstep.*`` by
:func:`repro.verify.telemetry.engine_stats`).
"""

from __future__ import annotations

from typing import NoReturn, Sequence

from ..lis.shell import Shell
from ..lis.signals import checkpointed, declared
from .styles import cycle_exact_pairs, get_style

__all__ = [
    "LockstepDivergence",
    "LockstepShell",
    "lockstep_pairs",
    "lockstep_stats",
]

_STATS: dict[str, int] = {"runs": 0, "fallbacks": 0}


def lockstep_stats() -> dict[str, int]:
    """Snapshot of the lockstep counters (``runs``, ``fallbacks``);
    cumulative per process."""
    return dict(_STATS)


class LockstepDivergence(RuntimeError):
    """The two styles of a lockstep shell decided differently."""


@checkpointed
class LockstepShell(Shell):
    """One process under two styles' decisions at once.

    The lockstep shell owns the ports, the pearl and the firing
    protocol; ``lead`` and ``companion`` are shells of the two styles
    built around the same pearl, used for their decisions only.  Both
    decide from the one readiness word the lockstep shell's step
    starts with and see its script position before each decision, so
    neither binds a port.  Both scripts must be equal entry for entry,
    or construction raises :class:`LockstepDivergence`.
    """

    style = "lockstep"

    def __init__(self, lead: Shell, companion: Shell) -> None:
        super().__init__(lead.pearl, lead.port_depth)
        if lead._script != companion._script:
            raise LockstepDivergence(
                f"{lead.name!r}: {lead.style} and {companion.style} "
                "walk different scripts"
            )
        self._script = lead._script
        self.lead = lead
        self.companion = companion

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
        return enabled

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        lead, companion = self.lead, self.companion
        lead._script_pos = companion._script_pos = self._script_pos
        enabled = lead._run_gate_ok(cycle, ready)
        if companion._run_gate_ok(cycle, ready) != enabled:
            self._diverged(cycle)
        return enabled

    def _decision_state(self) -> tuple:
        # The two shells share this shell's ports and pearl; only their
        # decision state is their own.
        return (
            declared(self.lead)._decision_state(),
            declared(self.companion)._decision_state(),
        )

    def _load_decision(self, state: tuple) -> None:
        self.lead._load_decision(state[0])
        self.companion._load_decision(state[1])


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
