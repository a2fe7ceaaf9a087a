"""Global static activation scheduling (Casu & Macchiarulo, DAC'04).

The shift-register wrapper needs, for every IP in the system, a cyclic
activation pattern such that when each IP blindly fires on its own
pattern, every token arrives no later than its consumption and channel
rates balance.  This module computes such patterns for feed-forward
systems by exact token-time analysis:

1. every IP fires *contiguously* from a start offset, completing ``q``
   schedule periods per global loop;
2. for each channel, the time of the k-th push and the k-th pop are
   enumerated over the whole loop; the consumer's offset must exceed
   the producer's by ``latency + 1 + max_k(push_k - pop_k)`` (the +1 is
   the consumer input-FIFO store-and-forward cycle);
3. offsets are the longest paths of that constraint graph.

Cyclic (feedback) topologies and rate-mismatched channels are rejected
— precisely the "no irregularities" hypothesis the paper's §2 cites as
the limitation of the shift-register approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from math import lcm

from ..core.schedule import IOSchedule


class StaticScheduleError(ValueError):
    """Raised when no static activation schedule exists."""


@dataclass(frozen=True)
class ProcessSpec:
    """One IP to schedule: name + its cyclic I/O schedule."""

    name: str
    schedule: IOSchedule


@dataclass(frozen=True)
class ChannelSpec:
    """One channel: (producer, port) -> (consumer, port) with forward
    latency in cycles (>= 1)."""

    producer: str
    producer_port: str
    consumer: str
    consumer_port: str
    latency: int = 1


@dataclass
class StaticSchedule:
    """The computed global activation plan."""

    loop_length: int
    periods_per_loop: int
    offsets: dict[str, int]
    patterns: dict[str, list[bool]]

    def pattern_for(self, name: str) -> list[bool]:
        return list(self.patterns[name])


def _port_event_positions(
    schedule: IOSchedule, port: str, direction: str
) -> list[int]:
    """Enabled-cycle indices (within one period) at which ``port`` is
    popped (direction="in") or pushed (direction="out")."""
    positions = []
    for cycle, (point_index, kind) in enumerate(
        schedule.unrolled_cycles()
    ):
        if kind != "sync":
            continue
        point = schedule.points[point_index]
        members = point.inputs if direction == "in" else point.outputs
        if port in members:
            positions.append(cycle)
    return positions


def compute_static_schedule(
    processes: list[ProcessSpec],
    channels: list[ChannelSpec],
    periods_per_loop: int | None = None,
    input_port_delay: int = 1,
    external_inputs: dict[str, int] | None = None,
) -> StaticSchedule:
    """Compute activation patterns for a feed-forward system.

    ``periods_per_loop`` (q) defaults to 1; larger values amortize the
    start-up bubble over longer loops.  ``external_inputs`` gives, per
    process fed by an external full-rate source, the cycle its first
    token becomes poppable (= the source channel's latency in this
    library's port model).
    """
    external_inputs = external_inputs or {}
    by_name = {p.name: p for p in processes}
    if len(by_name) != len(processes):
        raise StaticScheduleError("duplicate process names")
    q = periods_per_loop or 1

    # Per-channel token-time analysis -> offset constraints, keeping the
    # largest weight per (producer, consumer).
    weights: dict[tuple[str, str], int] = {}
    for channel in channels:
        try:
            producer = by_name[channel.producer]
            consumer = by_name[channel.consumer]
        except KeyError as exc:
            raise StaticScheduleError(
                f"channel references unknown process {exc}"
            ) from None
        pushes = _port_event_positions(
            producer.schedule, channel.producer_port, "out"
        )
        pops = _port_event_positions(
            consumer.schedule, channel.consumer_port, "in"
        )
        if not pushes or not pops:
            raise StaticScheduleError(
                f"channel {channel.producer}.{channel.producer_port} -> "
                f"{channel.consumer}.{channel.consumer_port}: port never "
                "used in its schedule"
            )
        if len(pushes) != len(pops):
            raise StaticScheduleError(
                f"rate mismatch on {channel.producer_port}->"
                f"{channel.consumer_port}: {len(pushes)} pushes vs "
                f"{len(pops)} pops per period"
            )
        period_p = producer.schedule.period_cycles
        period_c = consumer.schedule.period_cycles
        # Token k (k = j * rate + r over q periods): push time offset_p +
        # j*period_p + pushes[r]; pop time offset_c + j*period_c + pops[r].
        worst = None
        rate = len(pushes)
        for j in range(q):
            for r in range(rate):
                delta = (j * period_p + pushes[r]) - (
                    j * period_c + pops[r]
                )
                worst = delta if worst is None else max(worst, delta)
        weight = channel.latency + input_port_delay + (worst or 0)
        edge = (channel.producer, channel.consumer)
        weights[edge] = max(weight, weights.get(edge, weight))

    predecessors: dict[str, list[str]] = {p.name: [] for p in processes}
    for producer_name, consumer_name in weights:
        predecessors[consumer_name].append(producer_name)
    try:
        order = list(TopologicalSorter(predecessors).static_order())
    except CycleError:
        raise StaticScheduleError(
            "system has feedback loops; static shift-register scheduling "
            "requires a feed-forward topology (Casu-Macchiarulo "
            "regularity hypothesis)"
        ) from None

    offsets: dict[str, int] = {}
    for name in order:
        best = external_inputs.get(name, 0)
        for pred in predecessors[name]:
            best = max(best, offsets[pred] + weights[pred, name])
        offsets[name] = best

    max_end = 0
    for process in processes:
        fires = q * process.schedule.period_cycles
        max_end = max(max_end, offsets[process.name] + fires)
    loop_length = max_end

    patterns: dict[str, list[bool]] = {}
    for process in processes:
        fires = q * process.schedule.period_cycles
        offset = offsets[process.name]
        pattern = [False] * loop_length
        for cycle in range(offset, offset + fires):
            pattern[cycle] = True
        patterns[process.name] = pattern
    return StaticSchedule(
        loop_length=loop_length,
        periods_per_loop=q,
        offsets=offsets,
        patterns=patterns,
    )
