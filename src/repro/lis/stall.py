"""Deterministic mid-run stall injection for LIS links.

The latency-insensitivity claim is not only about *static* relay
segmentation: it promises that a correctly wrapped system survives
*dynamic* latency variation — a relay station or wire that refuses to
transfer for a few cycles in the middle of a run (congestion, a
voltage-droop throttle, a glitch absorbed by the protocol).  This
module injects exactly that, deterministically, so the metamorphic
oracle (:mod:`repro.verify.perturb`) can demand that sink streams stay
token-identical under any such stall plan.

A :class:`LinkStall` names one link of a built
:class:`~repro.lis.system.System` plus a cycle window; a
:class:`StallInjector` enforces it by overriding the link's wires
*after* every structural block produced its outputs: during a stalled
cycle the stop wire is forced high and the data wire forced void.
Both overrides together are what keeps the injection protocol-safe in
the two-phase simulator: the producer observes stop and holds its
token (ports and relay stations re-offer until the transfer fires),
while the consumer observes void and accepts nothing — so a stalled
cycle moves no token and duplicates none, exactly like one extra
cycle of relay latency inserted on the fly.  Forcing only the stop
wire would *not* be safe: receivers in this codebase accept on their
own capacity, trusting that the stop they drove is the stop the
producer saw.

Stall plans are pure data (tuples of frozen :class:`LinkStall`
records), picklable and JSON round-trippable, so verification cases
can carry them across worker processes and shrink them into minimal
reproducers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .signals import VOID, Block, Link
from .system import System

#: A stall plan: zero or more link stalls, applied together.
StallPlan = tuple["LinkStall", ...]


@dataclass(frozen=True)
class LinkStall:
    """One stall window: ``link`` transfers nothing during cycles
    ``[start, start + duration)``."""

    link: str
    start: int
    duration: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("stall start must be >= 0")
        if self.duration < 1:
            raise ValueError("stall duration must be >= 1")

    @property
    def end(self) -> int:
        return self.start + self.duration

    def __str__(self) -> str:
        return f"{self.link}@[{self.start},{self.end})"


class StallInjector(Block):
    """Forces one link to stall during a planned set of cycles.

    Must be registered *after* every block that drives the link's
    wires (:meth:`repro.lis.system.System.add_instrument` appends to
    the block order), so its produce phase runs last and the override
    wins the cycle.
    """

    def __init__(
        self, name: str, link: Link, cycles: Iterable[int]
    ) -> None:
        super().__init__(name)
        self.link = link
        self._cycles = frozenset(int(c) for c in cycles)
        self._data = link.data
        self._stop = link.stop
        self.stalled_cycles = 0

    def produce(self, cycle: int) -> None:
        if cycle in self._cycles:
            self._data.value = VOID
            self._stop.stop = True
            self.stalled_cycles += 1

    def consume(self, cycle: int) -> None:
        pass

    def commit(self) -> None:
        pass

    def reset(self) -> None:
        self.stalled_cycles = 0


def stall_windows(blocks: Iterable[Block]) -> tuple[tuple[int, int], ...]:
    """The cycles the :class:`StallInjector` blocks among ``blocks``
    override, as sorted ``[start, end)`` windows that neither overlap
    nor touch."""
    cycles = sorted(
        set().union(
            *(block._cycles for block in blocks
              if isinstance(block, StallInjector))
        )
    )
    windows: list[tuple[int, int]] = []
    for cycle in cycles:
        if windows and windows[-1][1] == cycle:
            windows[-1] = (windows[-1][0], cycle + 1)
        else:
            windows.append((cycle, cycle + 1))
    return tuple(windows)


def apply_stall_plan(
    system: System, stalls: Sequence[LinkStall]
) -> list[StallInjector]:
    """Attach one :class:`StallInjector` per stalled link of ``system``.

    Call after the system is fully wired: injectors are appended to
    the block order via :meth:`~repro.lis.system.System.add_instrument`
    so their overrides run after every structural produce.  Stalls on
    the same link merge into one injector (overlapping windows union).
    Raises :class:`ValueError` when a stall names a link the system
    does not have.
    """
    if not stalls:
        return []
    links = {link.name: link for link in system.links}
    windows: dict[str, set[int]] = {}
    for stall in stalls:
        if stall.link not in links:
            raise ValueError(
                f"stall plan references unknown link {stall.link!r}"
            )
        windows.setdefault(stall.link, set()).update(
            range(stall.start, stall.end)
        )
    injectors = []
    for name in sorted(windows):
        injector = StallInjector(
            f"stall:{name}", links[name], windows[name]
        )
        system.add_instrument(injector)
        injectors.append(injector)
    return injectors


def derive_stall_plan(
    links: Sequence[str],
    rng: random.Random,
    horizon: int,
    max_events: int = 3,
    max_duration: int = 16,
) -> StallPlan:
    """Draw a seeded mid-run stall plan over ``links``.

    Deterministic for a given ``rng`` state: 1..``max_events`` stall
    windows land on randomly drawn links, starting after the system
    warmed up (first sixth of the ``horizon``) and before it winds
    down (three quarters), each 1..``max_duration`` cycles long.
    ``max_duration`` defaults well below the verifier's deadlock
    window so a stalled system is never mistaken for a dead one.
    Returns the empty plan when there is nothing to stall.
    """
    if horizon < 2 or not links:
        return ()
    lo = max(1, horizon // 6)
    hi = max(lo, (3 * horizon) // 4)
    events = [
        LinkStall(
            link=links[rng.randrange(len(links))],
            start=rng.randint(lo, hi),
            duration=rng.randint(1, max_duration),
        )
        for _ in range(rng.randint(1, max_events))
    ]
    return tuple(sorted(events, key=lambda s: (s.start, s.link)))


def stall_to_dict(stall: LinkStall) -> dict:
    """JSON-ready representation of one stall window."""
    return {
        "link": stall.link,
        "start": stall.start,
        "duration": stall.duration,
    }


def stall_from_dict(data: dict) -> LinkStall:
    """Inverse of :func:`stall_to_dict`."""
    return LinkStall(
        link=str(data["link"]),
        start=int(data["start"]),
        duration=int(data["duration"]),
    )
