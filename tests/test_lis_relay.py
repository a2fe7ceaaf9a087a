"""Relay stations: latency, capacity, backpressure, stream integrity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lis.relay_station import (
    RELAY_CAPACITY,
    RelayStation,
    segment_channel,
)
from repro.lis.signals import VOID, Link, is_void


class _Harness:
    """Drives a chain of relay stations between a producer and consumer
    with scriptable availability/stall patterns."""

    def __init__(self, n_stations=1):
        self.head = Link("head")
        stations, self.tail = segment_channel("ch", self.head, n_stations + 1)
        self.stations = stations
        self.sent: list[int] = []
        self.received: list[tuple[int, int]] = []  # (cycle, value)
        self._next_value = 0
        self.cycle = 0

    def step(self, produce: bool, accept: bool):
        # produce phase
        for rs in self.stations:
            rs.produce(self.cycle)
        if produce and not self.head.stop.get():
            self.head.data.put(self._next_value)
        else:
            self.head.data.put(VOID)
        self.tail.stop.put(not accept)
        # consume phase
        for rs in self.stations:
            rs.consume(self.cycle)
        if produce and not self.head.stop.get():
            self.sent.append(self._next_value)
            self._next_value += 1
        value = self.tail.data.get()
        if not is_void(value) and accept:
            self.received.append((self.cycle, value))
        # commit
        for rs in self.stations:
            rs.commit()
        self.head.data.put(VOID)
        self.cycle += 1


class TestSingleStation:
    def test_one_cycle_latency(self):
        h = _Harness(1)
        h.step(True, True)
        assert h.received == []
        h.step(False, True)
        assert h.received == [(1, 0)]

    def test_full_throughput(self):
        h = _Harness(1)
        for _ in range(20):
            h.step(True, True)
        values = [v for _c, v in h.received]
        assert values == list(range(19))  # one in flight

    def test_capacity_two(self):
        h = _Harness(1)
        h.step(True, False)
        h.step(True, False)
        assert h.stations[0].occupancy == RELAY_CAPACITY
        h.stations[0].produce(h.cycle)
        assert h.head.stop.get() is True

    def test_backpressure_then_drain(self):
        h = _Harness(1)
        for _ in range(6):
            h.step(True, False)
        stalled_at = len(h.sent)
        assert stalled_at <= RELAY_CAPACITY + 1
        for _ in range(10):
            h.step(False, True)
        values = [v for _c, v in h.received]
        assert values == list(range(stalled_at))

    def test_no_tokens_from_nothing(self):
        h = _Harness(1)
        for _ in range(10):
            h.step(False, True)
        assert h.received == []


class TestChains:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_chain_latency(self, n):
        h = _Harness(n)
        h.step(True, True)
        for _ in range(n - 1):
            h.step(False, True)
        assert h.received == []
        h.step(False, True)
        assert h.received == [(n, 0)]

    def test_chain_full_throughput(self):
        h = _Harness(4)
        for _ in range(40):
            h.step(True, True)
        values = [v for _c, v in h.received]
        assert values == list(range(len(values)))
        assert len(values) >= 36

    def test_segment_channel_zero_stations_for_latency_one(self):
        head = Link("h")
        stations, tail = segment_channel("c", head, 1)
        assert stations == []
        assert tail is head

    def test_segment_channel_bad_latency(self):
        with pytest.raises(ValueError):
            segment_channel("c", Link("h"), 0)


class TestStreamIntegrity:
    @given(
        st.lists(st.booleans(), min_size=40, max_size=150),
        st.lists(st.booleans(), min_size=40, max_size=150),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_loss_duplication_reorder(self, offers, accepts, n):
        """Under arbitrary offer/stall patterns the chain delivers the
        exact sent prefix, in order — LIS correctness in miniature."""
        h = _Harness(n)
        for produce, accept in zip(offers, accepts):
            h.step(produce, accept)
        # Drain.
        for _ in range(n * 2 + len(offers)):
            h.step(False, True)
        values = [v for _c, v in h.received]
        assert values == h.sent

    @given(st.lists(st.booleans(), min_size=30, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accepts):
        h = _Harness(1)
        for accept in accepts:
            h.step(True, accept)
            assert h.stations[0].occupancy <= RELAY_CAPACITY

    def test_forwarded_counter(self):
        h = _Harness(1)
        for _ in range(10):
            h.step(True, True)
        assert h.stations[0].tokens_forwarded == len(h.received)

    def test_reset(self):
        h = _Harness(1)
        power_up = h.stations[0].save_state()
        h.step(True, False)
        h.stations[0].load_state(power_up)
        assert h.stations[0].occupancy == 0
        assert h.stations[0].tokens_forwarded == 0


class _AggressiveHarness:
    """Drives a relay chain with a producer that offers whenever it
    holds a token — even while stop is asserted, which the protocol
    permits (the transfer simply does not fire and the producer keeps
    the token).  This is the adversarial environment in which the
    capacity-2 invariant must carry the one-cycle-late stop knowledge
    on its own."""

    def __init__(self, n_stations: int = 1) -> None:
        self.head = Link("head")
        stations, self.tail = segment_channel(
            "ch", self.head, n_stations + 1
        )
        self.stations = stations
        self.sent: list[int] = []
        self.received: list[int] = []
        self._pending: int | None = None
        self._next_value = 0
        self._prev_occupancy = 0
        self.cycle = 0

    def step(self, offer: bool, accept: bool) -> None:
        for rs in self.stations:
            rs.produce(self.cycle)
        stop_now = self.head.stop.get()
        # One-cycle stop visibility: the stop the producer sees this
        # cycle reflects the first station's occupancy as registered
        # at the end of the *previous* cycle — never anything fresher.
        assert stop_now == (self._prev_occupancy >= RELAY_CAPACITY)
        if offer and self._pending is None:
            self._pending = self._next_value
            self._next_value += 1
        if self._pending is not None:
            self.head.data.put(self._pending)
        else:
            self.head.data.put(VOID)
        self.tail.stop.put(not accept)
        for rs in self.stations:
            rs.consume(self.cycle)
        if self._pending is not None and not stop_now:
            self.sent.append(self._pending)
            self._pending = None
        value = self.tail.data.get()
        if not is_void(value) and accept:
            self.received.append(value)
        for rs in self.stations:
            rs.commit()
        self.head.data.put(VOID)
        self._prev_occupancy = self.stations[0].occupancy
        for rs in self.stations:
            assert rs.occupancy <= RELAY_CAPACITY
        self.cycle += 1


class TestOccupancyInvariant:
    """The relay-station capacity invariant under seeded random
    jitter/stall streams, independent of the batch-verification
    oracle that also polices it (`repro.verify`)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 23, 99])
    @pytest.mark.parametrize("n_stations", [1, 3])
    def test_occupancy_bounded_under_random_traffic(
        self, seed, n_stations
    ):
        rng = random.Random(seed)
        h = _AggressiveHarness(n_stations)
        for _ in range(400):
            h.step(rng.random() < 0.7, rng.random() < 0.5)
        # Drain with an open sink: everything sent must arrive intact.
        for _ in range(400 + 2 * n_stations):
            h.step(False, True)
        assert h.received == h.sent
        for rs in h.stations:
            assert rs.max_occupancy <= RELAY_CAPACITY

    @pytest.mark.parametrize("seed", [3, 17])
    def test_max_occupancy_telemetry_tracks_peak(self, seed):
        rng = random.Random(seed)
        h = _AggressiveHarness(1)
        observed = 0
        for _ in range(200):
            h.step(rng.random() < 0.8, rng.random() < 0.4)
            observed = max(observed, h.stations[0].occupancy)
        assert h.stations[0].max_occupancy == observed
        # A congested stream must actually exercise the full buffer.
        assert observed == RELAY_CAPACITY

    def test_max_occupancy_survives_drain_and_clears_on_reset(self):
        h = _AggressiveHarness(1)
        power_up = h.stations[0].save_state()
        h.step(True, False)
        h.step(True, False)
        assert h.stations[0].max_occupancy == RELAY_CAPACITY
        for _ in range(5):
            h.step(False, True)
        assert h.stations[0].occupancy == 0
        assert h.stations[0].max_occupancy == RELAY_CAPACITY
        h.stations[0].load_state(power_up)
        assert h.stations[0].max_occupancy == 0

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 1.0),
        st.floats(0.1, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_holds_for_any_traffic_mix(
        self, seed, offer_rate, accept_rate
    ):
        rng = random.Random(seed)
        h = _AggressiveHarness(2)
        for _ in range(150):
            h.step(
                rng.random() < offer_rate, rng.random() < accept_rate
            )
        for rs in h.stations:
            assert rs.max_occupancy <= RELAY_CAPACITY
        assert h.received == h.sent[:len(h.received)]
