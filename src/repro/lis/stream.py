"""Traffic endpoints for system simulations: sources and sinks.

Sources inject token streams with configurable irregularity (the
"latency variations of the data streams" the LIS methodology absorbs);
sinks consume with configurable backpressure.  Both respect the LIS
protocol — a source never sends while stop is asserted.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from .signals import (
    VOID,
    Block,
    CheckpointError,
    Link,
    checkpointed,
    is_void,
)


@checkpointed
class Source(Block):
    """Emits tokens from an iterator onto a link.

    ``gaps``: optional cyclic availability pattern — ``True`` means a
    token *may* be offered this cycle, ``False`` models an upstream
    bubble (jitter).  An exhausted iterator means the stream ends.
    A checkpoint restore rewinds the stream, so ``tokens`` must be an
    iterable that yields it afresh per ``iter()`` call (a list, a
    ``range``); a one-shot iterator runs once and cannot be
    checkpointed.
    """

    def __init__(
        self,
        name: str,
        link: Link,
        tokens: Iterable[Any],
        gaps: Sequence[bool] | None = None,
    ) -> None:
        super().__init__(name)
        self.link = link
        self._data = link.data
        self._stop = link.stop
        self._tokens = tokens
        self._iter: Iterator[Any] = iter(tokens)
        self._pending: Any = VOID
        self._gaps = list(gaps) if gaps is not None else [True]
        if not any(self._gaps):
            raise ValueError("source gap pattern never offers a token")
        self._sent_this_cycle = False
        self.tokens_sent = 0
        self.blocked_cycles = 0

    def _refill(self) -> None:
        if self._pending is VOID:
            try:
                self._pending = next(self._iter)
            except StopIteration:
                self._pending = VOID

    def produce(self, cycle: int) -> None:
        gaps = self._gaps
        available = gaps[cycle % len(gaps)]
        self._refill()
        if available and self._pending is not VOID:
            self._data.value = self._pending
        else:
            self._data.value = VOID

    def consume(self, cycle: int) -> None:
        if self._data.value is not VOID:
            if not self._stop.stop:
                self._sent_this_cycle = True
            else:
                self.blocked_cycles += 1

    def commit(self) -> None:
        if self._sent_this_cycle:
            self._pending = VOID
            self.tokens_sent += 1
            self._sent_this_cycle = False

    def save_state(self) -> tuple:
        if self._iter is self._tokens:
            raise CheckpointError(
                f"source {self.name!r} streams a one-shot iterator, "
                "which cannot be rewound"
            )
        # Every token taken from the stream was sent, or is pending.
        taken = self.tokens_sent + (self._pending is not VOID)
        return taken, self._pending, self.tokens_sent, self.blocked_cycles

    def load_state(self, state: tuple) -> None:
        taken, self._pending, self.tokens_sent, self.blocked_cycles = state
        self._iter = iter(self._tokens)
        next(islice(self._iter, taken, taken), None)
        self._sent_this_cycle = False

    @property
    def exhausted(self) -> bool:
        self._refill()
        return is_void(self._pending)


@checkpointed
class Sink(Block):
    """Consumes tokens from a link, recording them.

    ``stalls``: optional cyclic pattern — ``True`` means the sink
    accepts this cycle, ``False`` asserts stop (downstream congestion).
    """

    def __init__(
        self,
        name: str,
        link: Link,
        stalls: Sequence[bool] | None = None,
        limit: int | None = None,
    ) -> None:
        super().__init__(name)
        self.link = link
        self._data = link.data
        self._stop = link.stop
        self._accepts = list(stalls) if stalls is not None else [True]
        self._limit = limit
        self._accepted_this_cycle: Any = VOID
        self.received: list[Any] = []
        self.first_arrival_cycle: int | None = None
        self.last_arrival_cycle: int | None = None

    def produce(self, cycle: int) -> None:
        accepts = self._accepts
        accepting = accepts[cycle % len(accepts)]
        if accepting and self._limit is not None:
            accepting = len(self.received) < self._limit
        self._stop.stop = not accepting

    def consume(self, cycle: int) -> None:
        value = self._data.value
        if value is not VOID and not self._stop.stop:
            self._accepted_this_cycle = value
            if self.first_arrival_cycle is None:
                self.first_arrival_cycle = cycle
            self.last_arrival_cycle = cycle

    def commit(self) -> None:
        if self._accepted_this_cycle is not VOID:
            self.received.append(self._accepted_this_cycle)
            self._accepted_this_cycle = VOID

    def save_state(self) -> tuple:
        return (
            tuple(self.received),
            self.first_arrival_cycle,
            self.last_arrival_cycle,
        )

    def load_state(self, state: tuple) -> None:
        received, self.first_arrival_cycle, self.last_arrival_cycle = state
        self.received[:] = received
        self._accepted_this_cycle = VOID

    def throughput(self, cycles: int) -> float:
        """Tokens per cycle over a run of ``cycles``."""
        if cycles <= 0:
            return 0.0
        return len(self.received) / cycles


def bernoulli_gaps(rate: float, period: int, seed: int = 7) -> list[bool]:
    """A deterministic pseudo-random availability pattern of the given
    average ``rate`` (uses a tiny LCG so tests stay reproducible)."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    state = seed & 0x7FFFFFFF
    pattern = []
    for _ in range(period):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        pattern.append((state / 0x7FFFFFFF) < rate)
    if not any(pattern):
        pattern[0] = True
    return pattern


def burst_gaps(burst: int, gap: int) -> list[bool]:
    """``burst`` available cycles followed by ``gap`` bubbles, cyclic."""
    if burst < 1 or gap < 0:
        raise ValueError("burst must be >= 1 and gap >= 0")
    return [True] * burst + [False] * gap
