"""A fixed pure-Python reference loop that measures the host's speed.

The shared host this benchmark runs on changes speed by up to 2x within
seconds and drifts over minutes, and CPU time drifts with it, so raw
wall times of the same work spread far past any useful bound between
runs.  The probe does the same kind of work the campaign does (method
calls, attribute reads and writes, dict and list traffic, small integer
arithmetic) but none of the program's code, so a change to the program
never moves it.  Timed right next to a piece of campaign work, it
scales that work's time to a reference host: one that runs the probe
in :data:`REFERENCE_S` seconds (:func:`scale`).
"""

from __future__ import annotations

import time

#: Probe time on the reference host, fixed once: about what the probe
#: takes on a two-core x86 box with Python 3.11 in a quiet phase.
REFERENCE_S = 0.004

#: How campaign time follows probe time: over 127 one-second blocks of
#: regular-traffic cases alternated with probes on a shared two-core
#: host whose speed moved 2.5x in three minutes, log(case time) against
#: log(probe time) had slope 0.77 (correlation 0.88).  The campaign
#: slows less than the tight probe loop when the host slows, so full
#: normalization (exponent 1) over-corrects.
SENSITIVITY = 0.77

#: The same for interpreter start and imports.  One start tracks the
#: probes around it poorly (correlation 0.2 over 122 starts), but the
#: median start time of a run follows the median probe time of the run:
#: slope 0.53, correlation 0.86 over 24 runs of both workloads.
SETUP_SENSITIVITY = 0.5

#: Loop iterations of one probe.
ROUNDS = 12_000


class _Cell:
    __slots__ = ("gain", "bias", "hits")

    def __init__(self, gain: int, bias: int) -> None:
        self.gain = gain
        self.bias = bias
        self.hits = 0

    def step(self, value: int) -> int:
        self.hits += 1
        return (self.gain * value + self.bias) & 0xFFFF


def _work(rounds: int) -> int:
    cells = [_Cell(index | 1, index * 7) for index in range(64)]
    table: dict[int, int] = {}
    queue: list[int] = []
    value = 0
    for index in range(rounds):
        cell = cells[index & 63]
        value = cell.step(value ^ index)
        table[value & 255] = table.get(value & 255, 0) + 1
        queue.append(value)
        if value & 1:
            cell.bias = (cell.bias + queue.pop()) & 0xFF
    return value + len(table) + len(queue)


def probe() -> float:
    """Wall seconds of one fixed reference loop."""
    started = time.perf_counter()
    _work(ROUNDS)
    return time.perf_counter() - started


def scale(probe_s: float, sensitivity: float = SENSITIVITY) -> float:
    """Factor from a time measured next to a ``probe_s`` probe to the
    reference host."""
    return (REFERENCE_S / probe_s) ** sensitivity
