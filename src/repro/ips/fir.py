"""FIR filter pearl — a small DSP IP for examples and ablations.

A transposed-form FIR with integer coefficients; the pearl consumes one
sample per period, spends ``taps`` free-run cycles on the MAC chain
(modelling a single-MAC folded implementation) and emits one filtered
sample — a partial-port schedule (2 ports touched at different sync
points) that the combinational wrapper over-synchronizes on.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..core.schedule import IOSchedule, SyncPoint
from ..lis.pearl import Pearl


def fir_schedule(taps: int) -> IOSchedule:
    """Per period: pop ``x_in`` then ``taps`` MAC free-run cycles, then
    push ``y_out``."""
    if taps < 1:
        raise ValueError("a FIR needs at least one tap")
    return IOSchedule(
        ["x_in"],
        ["y_out"],
        [
            SyncPoint({"x_in"}, frozenset(), run=taps),
            SyncPoint(frozenset(), {"y_out"}),
        ],
    )


class FIRPearl(Pearl):
    """Single-MAC FIR filter pearl."""

    def __init__(
        self,
        name: str = "fir",
        coefficients: Sequence[int] = (1, 2, 3, 2, 1),
    ) -> None:
        if not coefficients:
            raise ValueError("need at least one coefficient")
        self.coefficients = tuple(int(c) for c in coefficients)
        super().__init__(name, fir_schedule(len(self.coefficients)))
        self._delay_line = [0] * len(self.coefficients)
        self._accumulator = 0

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        if index == 0:
            self._delay_line.insert(0, int(popped["x_in"]))
            self._delay_line.pop()
            self._accumulator = 0
            return {}
        return {"y_out": self._accumulator}

    def on_run(self, index: int, phase: int) -> None:
        # One MAC per free-run cycle, exactly the folded datapath.
        if phase < len(self.coefficients):
            self._accumulator += (
                self.coefficients[phase] * self._delay_line[phase]
            )


def fir_reference(
    samples: Sequence[int], coefficients: Sequence[int]
) -> list[int]:
    """Direct-form reference for checking the pearl's output."""
    outputs = []
    delay = [0] * len(coefficients)
    for sample in samples:
        delay.insert(0, int(sample))
        delay.pop()
        outputs.append(
            sum(c * d for c, d in zip(coefficients, delay))
        )
    return outputs
