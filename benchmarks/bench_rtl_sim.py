"""Compiled-vs-interpreted RTL simulation engine benchmark.

Both engines simulate the same SP *golden* wrapper (the reference
schedule of ``tests/test_rtl_golden.py``) against port FIFOs (deques)
refilled each cycle from one seeded FIFO-status stimulus, each driven
the way :class:`repro.core.equivalence.RTLShell` drives it: the
compiled engine through one bound
:meth:`~repro.rtl.compile_sim.CompiledSimulator.fifo_driver` call per
cycle, the interpreter (``--engine interp``) by name — poke every
``not_empty``/``not_full`` input from the deques, settle, peek every
strobe into the strobe word, step.  Both engines must return the same
strobe-word checksum.  The acceptance bar is a >= 10x speedup for the
compiled engine; cycles/second for both engines is tracked in the
written artifact.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke step) runs a
shorter stimulus; the speedup bar is unchanged.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque

from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import synthesize_wrapper
from repro.rtl.compile_sim import CompiledSimulator
from repro.rtl.simulator import InterpSimulator

from _bench_common import write_result

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
CYCLES = 2000 if QUICK else 10000
ROUNDS = 2 if QUICK else 3
REQUIRED_SPEEDUP = 10.0


def _golden_sp_module():
    """The golden-file reference schedule, synthesized in SP style."""
    schedule = IOSchedule(
        ["a", "b"],
        ["y", "status"],
        [
            SyncPoint({"a"}, frozenset(), run=1),
            SyncPoint({"a", "b"}, frozenset(), run=3),
            SyncPoint(frozenset(), {"y"}),
            SyncPoint(frozenset(), {"y", "status"}, run=2),
        ],
    )
    return synthesize_wrapper(schedule, "sp", name="bench_sp").module


_STATUS_INPUTS = (
    "a_not_empty",
    "b_not_empty",
    "y_not_full",
    "status_not_full",
)
_N_INPUTS = 2  # the *_not_empty inputs lead _STATUS_INPUTS
_STROBES = ("ip_enable", "a_pop", "b_pop", "y_push", "status_push")


def _stimulus(cycles: int) -> list[tuple[int, ...]]:
    rng = random.Random(20050307)
    return [
        tuple(rng.getrandbits(1) for _ in _STATUS_INPUTS)
        for _ in range(cycles)
    ]


def _fifos():
    """One deque per status input (outputs: depth-1 FIFOs with no
    pushes pending), as RTLShell binds its ports."""
    return [deque() for _ in _STATUS_INPUTS]


def _feed(fifos, statuses) -> None:
    """Refill the FIFOs so each status input reads its stimulus bit:
    an input FIFO holds a token when ready, an output FIFO is full
    when not ready."""
    for index, (fifo, value) in enumerate(zip(fifos, statuses)):
        fifo.clear()
        if value == (index < _N_INPUTS):
            fifo.append(0)


def _reset(sim) -> None:
    sim.poke("rst", 1)
    sim.step()
    sim.poke("rst", 0)


def _by_name(sim, fifos):
    """The interpreter's per-cycle function: RTLShell's by-name
    poke/settle/peek/step cycle, returning the strobe word."""
    ins = list(zip(_STATUS_INPUTS[:_N_INPUTS], fifos))
    outs = list(zip(_STATUS_INPUTS[_N_INPUTS:], fifos[_N_INPUTS:]))

    def cycle() -> int:
        for name, fifo in ins:
            sim.poke(name, int(bool(fifo)))
        for name, fifo in outs:
            sim.poke(name, int(len(fifo) < 1))
        sim.settle()
        word = 0
        for bit, name in enumerate(_STROBES):
            if sim.peek(name):
                word |= 1 << bit
        sim.step()
        return word

    return cycle


def _bound(sim, fifos):
    """The compiled engine's per-cycle function, bound once."""
    return sim.fifo_driver(
        list(zip(_STATUS_INPUTS[:_N_INPUTS], fifos)),
        [
            (name, fifo, (), 1)
            for name, fifo in zip(
                _STATUS_INPUTS[_N_INPUTS:], fifos[_N_INPUTS:]
            )
        ],
        _STROBES,
    )


def _drive(cycle, fifos, stimulus) -> int:
    """Run the stimulus; returns a checksum over the strobe words."""
    checksum = 0
    for statuses in stimulus:
        _feed(fifos, statuses)
        checksum = (checksum * 33 + cycle()) & 0xFFFFFFFF
    return checksum


def _time_pair(module, stimulus):
    """One round: (interp seconds, compiled seconds), same stimulus.

    Simulator construction, reset and driver binding sit outside the
    timed region for both engines: the compiled engine's elaboration
    cost is amortized by the structural kernel cache, which is
    measured separately below.
    """
    interp_sim = InterpSimulator(module)
    _reset(interp_sim)
    fifos = _fifos()
    interp_cycle = _by_name(interp_sim, fifos)
    started = time.perf_counter()
    interp_sum = _drive(interp_cycle, fifos, stimulus)
    interp_elapsed = time.perf_counter() - started

    compiled_sim = CompiledSimulator(module)
    _reset(compiled_sim)
    fifos = _fifos()
    compiled_cycle = _bound(compiled_sim, fifos)
    started = time.perf_counter()
    compiled_sum = _drive(compiled_cycle, fifos, stimulus)
    compiled_elapsed = time.perf_counter() - started

    assert interp_sum == compiled_sum, (
        f"engines diverged: interp {interp_sum:#x} vs "
        f"compiled {compiled_sum:#x}"
    )
    return interp_elapsed, compiled_elapsed


def test_compiled_engine_beats_interpreter(benchmark):
    module = _golden_sp_module()
    stimulus = _stimulus(CYCLES)

    rows = benchmark.pedantic(
        lambda: [_time_pair(module, stimulus) for _ in range(ROUNDS)],
        rounds=1,
        iterations=1,
    )
    best_interp = min(interp for interp, _compiled in rows)
    best_compiled = min(compiled for _interp, compiled in rows)
    speedup = best_interp / best_compiled
    assert speedup >= REQUIRED_SPEEDUP, (
        f"compiled engine only {speedup:.2f}x over the interpreter "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )

    benchmark.extra_info.update(
        cycles=CYCLES,
        interp_ms=round(best_interp * 1e3, 1),
        compiled_ms=round(best_compiled * 1e3, 1),
        interp_cycles_per_s=round(CYCLES / best_interp),
        compiled_cycles_per_s=round(CYCLES / best_compiled),
        speedup=round(speedup, 2),
    )
    lines = [
        "Compiled vs interpreted RTL simulation "
        f"(SP golden wrapper, {CYCLES} cycles driven as RTLShell "
        "drives them: one bound fifo_driver call per cycle vs the "
        f"interpreter's by-name poke/settle/peek/step, best of {ROUNDS})",
        "",
        f"{'engine':>10} | {'ms/run':>8} {'cycles/s':>12}",
        "-" * 36,
        f"{'interp':>10} | {best_interp * 1e3:>8.1f} "
        f"{CYCLES / best_interp:>12.0f}",
        f"{'compiled':>10} | {best_compiled * 1e3:>8.1f} "
        f"{CYCLES / best_compiled:>12.0f}",
        "",
        f"speedup: {speedup:.2f}x (required >= {REQUIRED_SPEEDUP}x)",
    ]
    write_result("rtl_sim_engines.txt", "\n".join(lines))


def test_kernel_cache_amortizes_compilation(benchmark):
    """Re-simulating the same module shape must not re-pay lowering:
    the second construction hits the per-module plan memo, and a
    structurally identical clone hits the structural kernel cache."""
    module = _golden_sp_module()

    def build_twice():
        started = time.perf_counter()
        CompiledSimulator(module)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(10):
            CompiledSimulator(module)
        warm = (time.perf_counter() - started) / 10
        return cold, warm

    cold, warm = benchmark.pedantic(build_twice, rounds=1, iterations=1)
    # The warm path skips elaboration + lowering + exec entirely; it
    # only allocates the environment and runs the initial settle.
    assert warm <= cold, (cold, warm)
    benchmark.extra_info.update(
        cold_us=round(cold * 1e6), warm_us=round(warm * 1e6)
    )
