"""Shell-side FIFO ports.

The paper's synchronization processor talks to its ports with FIFO
signals: ``pop``/``not empty`` on inputs and ``push``/``not full`` on
outputs ("formally equivalent to the voidin/out and stopin/out of
Carloni and the valid/ready/stall of Singh & Theobald").  These classes
are those ports: small FIFOs bridging the LIS links to the wrapper.

The wrapper (SP, FSM, combinational, shift-register — any style) is the
*same-cycle* consumer: during the shell's consume phase it may pop
tokens that were already buffered, and push results, under the
not-empty / not-full guards it tested.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from .signals import VOID, Block, Link, checkpointed, is_void

DEFAULT_PORT_DEPTH = 2


@checkpointed
class InputPort(Block):
    """Receives tokens from a LIS link into a FIFO the wrapper pops.

    Store-and-forward: a token arriving in cycle *k* becomes visible to
    the wrapper in cycle *k+1* (it is merged into the FIFO at commit).
    This makes simulation results independent of block evaluation order
    and matches a registered FIFO implementation.
    """

    def __init__(
        self, name: str, link: Link, depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        if depth < 1:
            raise ValueError("input port depth must be at least 1")
        super().__init__(name)
        self.link = link
        self.depth = depth
        self._data = link.data
        self._stop = link.stop
        self._fifo: deque[Any] = deque()
        self._popped = 0
        self._arrived: Any = VOID
        self._preload: list[Any] = []
        self.tokens_received = 0
        self.stall_cycles = 0

    # wrapper-facing FIFO interface -------------------------------------------

    def preload(self, values: Iterable[Any]) -> None:
        """Place initial tokens in the FIFO — the reset-time marking of
        the channel (credit tokens that make feedback loops live).

        The marking is part of the power-up state: :meth:`reset`
        restores it.  Raises :class:`ValueError` if the marking exceeds
        the port depth or contains VOID.
        """
        values = list(values)
        if any(is_void(value) for value in values):
            raise ValueError("cannot preload VOID tokens")
        if len(self._fifo) + len(values) > self.depth:
            raise ValueError(
                f"preload of {len(values)} token(s) overflows port "
                f"{self.name!r} (depth {self.depth}, "
                f"{len(self._fifo)} already present)"
            )
        self._fifo.extend(values)
        self._preload.extend(values)

    @property
    def not_empty(self) -> bool:
        return len(self._fifo) > self._popped

    def peek(self) -> Any:
        if len(self._fifo) <= self._popped:
            raise RuntimeError(f"peek on empty input port {self.name!r}")
        return self._fifo[self._popped]

    def pop(self) -> Any:
        """Consume the head token (takes effect this cycle)."""
        popped = self._popped
        if len(self._fifo) <= popped:
            raise RuntimeError(f"peek on empty input port {self.name!r}")
        self._popped = popped + 1
        return self._fifo[popped]

    # two-phase protocol ----------------------------------------------------------

    def produce(self, cycle: int) -> None:
        self._stop.stop = len(self._fifo) >= self.depth

    def consume(self, cycle: int) -> None:
        incoming = self._data.value
        if len(self._fifo) < self.depth:
            if incoming is not VOID:
                # Transfer fires: token offered while our stop is low.
                # An offer under stop is legal — the producer holds the
                # token.
                self._arrived = incoming
                self.tokens_received += 1
        else:
            self.stall_cycles += 1

    def commit(self) -> None:
        popped = self._popped
        if popped:
            fifo = self._fifo
            for _ in range(popped):
                fifo.popleft()
            self._popped = 0
        if self._arrived is not VOID:
            self._fifo.append(self._arrived)
            self._arrived = VOID

    def reset(self) -> None:
        self._fifo.clear()
        self._fifo.extend(self._preload)
        self._popped = 0
        self._arrived = VOID
        self.tokens_received = 0
        self.stall_cycles = 0

    def save_state(self) -> tuple:
        return tuple(self._fifo), self.tokens_received, self.stall_cycles

    def load_state(self, state: tuple) -> None:
        fifo, self.tokens_received, self.stall_cycles = state
        self._fifo.clear()
        self._fifo.extend(fifo)
        self._popped = 0
        self._arrived = VOID

    @property
    def occupancy(self) -> int:
        return len(self._fifo)


@checkpointed
class OutputPort(Block):
    """Buffers tokens the wrapper pushes until the LIS link drains them."""

    def __init__(
        self, name: str, link: Link, depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        if depth < 1:
            raise ValueError("output port depth must be at least 1")
        super().__init__(name)
        self.link = link
        self.depth = depth
        self._data = link.data
        self._stop = link.stop
        self._fifo: deque[Any] = deque()
        self._pushed: list[Any] = []
        self._sent_head = False
        self.tokens_sent = 0
        self.stall_cycles = 0

    # wrapper-facing FIFO interface -------------------------------------------

    @property
    def not_full(self) -> bool:
        return len(self._fifo) + len(self._pushed) < self.depth

    def push(self, value: Any) -> None:
        """Enqueue a result token (takes effect this cycle)."""
        if value is VOID:
            raise ValueError("cannot push VOID into an output port")
        if len(self._fifo) + len(self._pushed) >= self.depth:
            raise RuntimeError(
                f"push on full output port {self.name!r} (wrapper bug: "
                "push without not_full guard)"
            )
        self._pushed.append(value)

    # two-phase protocol ----------------------------------------------------------

    def produce(self, cycle: int) -> None:
        fifo = self._fifo
        self._data.value = fifo[0] if fifo else VOID

    def consume(self, cycle: int) -> None:
        if self._fifo:
            sent = not self._stop.stop
            self._sent_head = sent
            if not sent:
                self.stall_cycles += 1
        else:
            self._sent_head = False

    def commit(self) -> None:
        if self._sent_head:
            self._fifo.popleft()
            self.tokens_sent += 1
            self._sent_head = False
        if self._pushed:
            self._fifo.extend(self._pushed)
            self._pushed.clear()

    def reset(self) -> None:
        self._fifo.clear()
        self._pushed.clear()
        self._sent_head = False
        self.tokens_sent = 0
        self.stall_cycles = 0

    def save_state(self) -> tuple:
        return tuple(self._fifo), self.tokens_sent, self.stall_cycles

    def load_state(self, state: tuple) -> None:
        fifo, self.tokens_sent, self.stall_cycles = state
        self._fifo.clear()
        self._fifo.extend(fifo)
        self._pushed.clear()
        self._sent_head = False

    @property
    def occupancy(self) -> int:
        return len(self._fifo) + len(self._pushed)
