"""Carloni-style relay stations: pipeline buffers that segment long wires.

A relay station is a capacity-2 buffer with fully registered outputs.
It adds exactly one cycle of forward latency when the stream flows
freely, and it can absorb the one token that is inevitably in flight
when backpressure is asserted (stop being registered, upstream learns
about congestion one cycle late).

Invariant: occupancy never exceeds 2, because stop is asserted exactly
when the buffer is full, and a producer only sends when the visible
stop is low — so occupancy can grow only from 0 or 1.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .signals import VOID, Block, Link, checkpointed

RELAY_CAPACITY = 2


@checkpointed
class RelayStation(Block):
    """One relay station between an upstream and a downstream link."""

    def __init__(self, name: str, upstream: Link, downstream: Link) -> None:
        super().__init__(name)
        self.upstream = upstream
        self.downstream = downstream
        self._up_data = upstream.data
        self._up_stop = upstream.stop
        self._down_data = downstream.data
        self._down_stop = downstream.stop
        self._buffer: deque[Any] = deque()
        self._pop_head = False
        self._arrived: Any = VOID
        # Telemetry for benches and the verification oracle: cycles
        # spent full, tokens moved, and the deepest occupancy ever
        # reached (the capacity invariant says it never exceeds 2).
        self.tokens_forwarded = 0
        self.full_cycles = 0
        self.max_occupancy = 0

    # -- two-phase protocol --------------------------------------------------

    def produce(self, cycle: int) -> None:
        buffer = self._buffer
        self._down_data.value = buffer[0] if buffer else VOID
        self._up_stop.stop = len(buffer) >= RELAY_CAPACITY

    def consume(self, cycle: int) -> None:
        occupancy = len(self._buffer)
        next_occupancy = occupancy
        if occupancy and not self._down_stop.stop:
            self._pop_head = True
            next_occupancy -= 1
        incoming = self._up_data.value
        if incoming is not VOID and occupancy < RELAY_CAPACITY:
            # Transfer fires: token offered while our stop is low.  An
            # offer under stop is legal — the producer holds the token.
            self._arrived = incoming
            next_occupancy += 1
        if next_occupancy >= RELAY_CAPACITY:
            self.full_cycles += 1
        if next_occupancy > self.max_occupancy:
            self.max_occupancy = next_occupancy

    def commit(self) -> None:
        if self._pop_head:
            self._buffer.popleft()
            self.tokens_forwarded += 1
            self._pop_head = False
        if self._arrived is not VOID:
            self._buffer.append(self._arrived)
            self._arrived = VOID

    def reset(self) -> None:
        self._buffer.clear()
        self._pop_head = False
        self._arrived = VOID
        self.tokens_forwarded = 0
        self.full_cycles = 0
        self.max_occupancy = 0

    def save_state(self) -> tuple:
        return (
            tuple(self._buffer),
            self.tokens_forwarded,
            self.full_cycles,
            self.max_occupancy,
        )

    def load_state(self, state: tuple) -> None:
        (
            buffer,
            self.tokens_forwarded,
            self.full_cycles,
            self.max_occupancy,
        ) = state
        self._buffer.clear()
        self._buffer.extend(buffer)
        self._pop_head = False
        self._arrived = VOID

    # -- inspection ------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._buffer)


def segment_channel(
    name: str, source: Link, latency: int
) -> tuple[list[RelayStation], Link]:
    """Break a logical channel of forward ``latency`` cycles into
    ``latency - 1`` relay stations (the consumer's input port supplies
    the final cycle of store-and-forward latency).

    Returns (stations, final link to connect to the consumer).
    """
    if latency < 1:
        raise ValueError("channel latency must be at least 1 cycle")
    stations: list[RelayStation] = []
    current = source
    for index in range(latency - 1):
        downstream = Link(f"{name}.seg{index + 1}")
        stations.append(
            RelayStation(f"{name}.rs{index + 1}", current, downstream)
        )
        current = downstream
    return stations, current
