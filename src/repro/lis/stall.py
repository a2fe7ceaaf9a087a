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
:class:`~repro.lis.system.System` plus a cycle window.  A stall plan is
simulation data, not a block: ``Simulation(system, stalls)`` resolves
it once (:func:`resolve_stall_plan`), and on each stalled cycle the
simulator overrides the link's wires *after* every block produced its
outputs: the stop wire is forced high and the data wire forced void.
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

from .signals import Link

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


def resolve_stall_plan(
    links: Iterable[Link], stalls: Sequence[LinkStall]
) -> tuple[dict[int, tuple[Link, ...]], tuple[tuple[int, int], ...]]:
    """``stalls`` resolved against ``links``: the links each stalled
    cycle forces, and those cycles as sorted ``[start, end)`` windows
    that neither overlap nor touch.  Stalls on one link merge
    (overlapping windows union).  Raises :class:`ValueError` when a
    stall names a link that is not among ``links``."""
    by_name = {link.name: link for link in links}
    forced: dict[int, dict[str, Link]] = {}
    for stall in stalls:
        link = by_name.get(stall.link)
        if link is None:
            raise ValueError(
                f"stall plan references unknown link {stall.link!r}"
            )
        for cycle in range(stall.start, stall.end):
            forced.setdefault(cycle, {})[stall.link] = link
    windows: list[tuple[int, int]] = []
    for cycle in sorted(forced):
        if windows and windows[-1][1] == cycle:
            windows[-1] = (windows[-1][0], cycle + 1)
        else:
            windows.append((cycle, cycle + 1))
    return (
        {cycle: tuple(named.values()) for cycle, named in forced.items()},
        tuple(windows),
    )


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
