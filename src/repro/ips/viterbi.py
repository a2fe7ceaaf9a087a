"""Convolutional coding and Viterbi decoding, plus the LIS pearl.

The paper's second IP is a GAUT-synthesized Viterbi decoder with the
Table-1 complexity signature 5 ports / 4 sync ops / 198 free-run
cycles.  We implement a complete hard-decision Viterbi decoder for a
rate-1/2, constraint-length-K convolutional code (default K=7, the
industry-standard (171,133) polynomials; K=3 used in fast tests), with
block-based traceback, and wrap it as a pearl with exactly the paper's
signature:

* op0: pop one symbol pair  (ports ``sym_a``, ``sym_b``)
* op1: pop a second symbol pair, then free-run 198 cycles (the
  branch-metric / add-compare-select / traceback burst)
* op2: push the decoded bits   (port ``bit_out``)
* op3: push the path metric and a sync flag (``metric_out``,
  ``flag_out``)

That is 5 ports, 4 sync ops, 198 run cycles per period — the exact
triple of Table 1.  Each period advances the decode window by two
trellis steps; decisions are released with a traceback depth of
``5 * K`` steps, the classical rule of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.schedule import IOSchedule, SyncPoint
from ..lis.pearl import Pearl


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


@dataclass(frozen=True)
class ConvCode:
    """Rate-1/2 convolutional code with generator polynomials (octal
    notation conventional: K=7 -> 0o171, 0o133)."""

    k: int = 7
    g0: int = 0o171
    g1: int = 0o133

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("constraint length must be >= 2")
        limit = 1 << self.k
        if not (0 < self.g0 < limit and 0 < self.g1 < limit):
            raise ValueError("generator polynomials must fit in K bits")

    @property
    def n_states(self) -> int:
        return 1 << (self.k - 1)


class ConvEncoder:
    """Shift-register encoder; emits one (bit0, bit1) pair per input."""

    def __init__(self, code: ConvCode | None = None) -> None:
        self.code = code or ConvCode()
        self.state = 0

    def reset(self) -> None:
        self.state = 0

    def encode_bit(self, bit: int) -> tuple[int, int]:
        register = (bit << (self.code.k - 1)) | self.state
        out0 = _parity(register & self.code.g0)
        out1 = _parity(register & self.code.g1)
        self.state = register >> 1
        return out0, out1

    def encode(self, bits: Iterable[int]) -> list[tuple[int, int]]:
        return [self.encode_bit(int(b) & 1) for b in bits]

    def encode_terminated(self, bits: Sequence[int]) -> list[tuple[int, int]]:
        """Encode and flush with K-1 zero tail bits (returns to state 0)."""
        pairs = self.encode(bits)
        pairs.extend(self.encode_bit(0) for _ in range(self.code.k - 1))
        return pairs


class ViterbiDecoder:
    """Hard-decision Viterbi decoder with sliding-window traceback.

    ``traceback_depth`` defaults to 5*K.  :meth:`decode_pair` consumes
    one received symbol pair and returns any bits released by the
    traceback window (possibly empty).
    """

    def __init__(
        self,
        code: ConvCode | None = None,
        traceback_depth: int | None = None,
    ) -> None:
        self.code = code or ConvCode()
        self.traceback_depth = traceback_depth or 5 * self.code.k
        n = self.code.n_states
        # Precompute the trellis: for state s and input bit b, the next
        # state and the two expected channel bits.
        self._next_state = [[0] * 2 for _ in range(n)]
        self._expected = [[(0, 0)] * 2 for _ in range(n)]
        for state in range(n):
            for bit in (0, 1):
                register = (bit << (self.code.k - 1)) | state
                self._next_state[state][bit] = register >> 1
                self._expected[state][bit] = (
                    _parity(register & self.code.g0),
                    _parity(register & self.code.g1),
                )
        self.reset()

    def reset(self) -> None:
        big = 1 << 20
        self.metrics = [0] + [big] * (self.code.n_states - 1)
        self.history: list[list[tuple[int, int]]] = []  # (prev state, bit)
        self.acs_steps = 0

    def decode_pair(self, r0: int, r1: int) -> list[int]:
        """One trellis step (ACS over all states) + window traceback."""
        n = self.code.n_states
        big = 1 << 30
        new_metrics = [big] * n
        decisions: list[tuple[int, int]] = [(0, 0)] * n
        for state in range(n):
            metric = self.metrics[state]
            if metric >= big:
                continue
            for bit in (0, 1):
                e0, e1 = self._expected[state][bit]
                branch = (e0 ^ (r0 & 1)) + (e1 ^ (r1 & 1))
                nxt = self._next_state[state][bit]
                candidate = metric + branch
                if candidate < new_metrics[nxt]:
                    new_metrics[nxt] = candidate
                    decisions[nxt] = (state, bit)
        self.metrics = new_metrics
        self.history.append(decisions)
        self.acs_steps += 1
        if len(self.history) >= self.traceback_depth:
            return [self._release_oldest()]
        return []

    def _best_state(self) -> int:
        best = 0
        for state in range(1, self.code.n_states):
            if self.metrics[state] < self.metrics[best]:
                best = state
        return best

    def _release_oldest(self) -> int:
        """Trace back from the best end state; release the oldest bit."""
        state = self._best_state()
        bit = 0
        for decisions in reversed(self.history):
            state, bit = decisions[state]
        self.history.pop(0)
        return bit

    def flush(self) -> list[int]:
        """Drain the window at end of stream (terminated trellis: trace
        from state 0)."""
        bits = []
        while self.history:
            state = 0
            bit = 0
            for decisions in reversed(self.history):
                state, bit = decisions[state]
            self.history.pop(0)
            bits.append(bit)
        return bits

    @property
    def best_metric(self) -> int:
        return min(self.metrics)


def decode_sequence(
    pairs: Sequence[tuple[int, int]],
    code: ConvCode | None = None,
    terminated: bool = True,
) -> list[int]:
    """Convenience block decoder over a full received sequence."""
    decoder = ViterbiDecoder(code)
    bits: list[int] = []
    for r0, r1 in pairs:
        bits.extend(decoder.decode_pair(r0, r1))
    bits.extend(decoder.flush())
    if terminated and code is not None:
        tail = code.k - 1
        bits = bits[: len(bits) - tail] if tail else bits
    elif terminated:
        bits = bits[: len(bits) - (decoder.code.k - 1)]
    return bits


# -- the latency-insensitive pearl (Table-1 signature: 5 / 4 / 198) -----------


def viterbi_schedule(run_cycles: int = 198) -> IOSchedule:
    """The paper's Viterbi wrapper signature: 5 ports, 4 sync ops,
    ``run_cycles`` free-run cycles."""
    return IOSchedule(
        ["sym_a", "sym_b"],
        ["bit_out", "metric_out", "flag_out"],
        [
            SyncPoint({"sym_a", "sym_b"}, frozenset()),
            SyncPoint({"sym_a", "sym_b"}, frozenset(), run=run_cycles),
            SyncPoint(frozenset(), {"bit_out"}),
            SyncPoint(frozenset(), {"metric_out", "flag_out"}),
        ],
    )


class ViterbiPearl(Pearl):
    """Viterbi decoder pearl with the paper's 5/4/198 signature.

    Each period consumes two received symbol pairs, performs the
    ACS/traceback burst during the free run, then emits the released
    bits (as a tuple token), the running path metric, and a flag that
    is 1 once the traceback window has filled.
    """

    def __init__(
        self,
        name: str = "viterbi_dec",
        code: ConvCode | None = None,
        run_cycles: int = 198,
        traceback_depth: int | None = None,
    ) -> None:
        super().__init__(name, viterbi_schedule(run_cycles))
        self.decoder = ViterbiDecoder(code, traceback_depth)
        self._released: list[int] = []
        self._run_work = 0

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        if index in (0, 1):
            bits = self.decoder.decode_pair(
                int(popped["sym_a"]) & 1, int(popped["sym_b"]) & 1
            )
            self._released.extend(bits)
            return {}
        if index == 2:
            released = tuple(self._released)
            self._released = []
            return {"bit_out": released}
        return {
            "metric_out": self.decoder.best_metric,
            "flag_out": int(
                len(self.decoder.history) >= self.decoder.traceback_depth - 1
            ),
        }

    def on_run(self, index: int, phase: int) -> None:
        # The burst models the sequential ACS/traceback datapath; count
        # the work cycles so tests can assert the 198-cycle budget.
        self._run_work += 1
