"""RTL generation for the shift-register wrapper (Casu & Macchiarulo).

A circular shift register of one bit per cycle of the global static
activation schedule drives the IP clock; further rings generate the
pop/push strobes at the positions where the unrolled schedule touches
each port.  No port status is ever consulted — the environment must be
perfectly regular (the assumption the DAC'04 approach relies on).

A planned static schedule usually has a start-up transient (pipeline
fill delays, staggered process offsets) before the steady-state loop.
``prefix`` expresses it: a one-shot activation sequence played once
after reset, implemented as a draining shift register (zeros shift in
behind it) plus a warm-up line that hands control to the circular
rings when the prefix ends.  The rings are preloaded *pre-rotated* by
the prefix length, so they free-run from reset and are phase-aligned
the moment the warm-up line selects them — no hold logic needed.

On FPGAs these rings map to SRL16 shift-register LUTs, which the
technology mapper infers; their cost still grows linearly with the
activation period, which the scaling ablation measures.
"""

from __future__ import annotations

from typing import Sequence

from ...rtl.ast import Concat, Const, Expr, Signal, mux
from ...rtl.module import Module
from ..schedule import IOSchedule
from .common import WrapperInterface


def _pattern_value(bits: Sequence[bool]) -> int:
    value = 0
    for index, bit in enumerate(bits):
        if bit:
            value |= 1 << index
    return value


def _ring(
    module: Module, name: str, bits: Sequence[bool], rst
) -> Signal:
    """A rotating register preloaded with ``bits``; returns the tap
    (bit 0, the bit scheduled for the current cycle)."""
    length = len(bits)
    ring = module.wire(name, length)
    if length == 1:
        module.register(ring, ring, reset=rst,
                        reset_value=_pattern_value(bits))
        return ring
    rotated = Concat([ring.bit(0), ring.slice(length - 1, 1)])
    module.register(
        ring, rotated, reset=rst, reset_value=_pattern_value(bits)
    )
    return ring


def _drain_line(
    module: Module, name: str, bits: Sequence[bool], rst, fill: int
) -> Signal:
    """A one-shot shift register preloaded with ``bits``: bit 0 plays
    the sequence once, then ``fill`` (0 or 1) shifts in forever."""
    length = len(bits)
    line = module.wire(name, length)
    if length == 1:
        nxt: Expr = Const(fill, 1)
    else:
        nxt = Concat([Const(fill, 1), line.slice(length - 1, 1)])
    module.register(
        line, nxt, reset=rst, reset_value=_pattern_value(bits)
    )
    return line


def _rotate(bits: list[bool], amount: int) -> list[bool]:
    """The preload that makes a free-running ring output ``bits[0]``
    exactly ``amount`` cycles after reset: position ``i`` holds the bit
    scheduled for cycle ``i``, so shifting the sequence by ``amount``
    phase-aligns a ring that started rotating at cycle 0."""
    length = len(bits)
    return [bits[(i - amount) % length] for i in range(length)]


def _walk_patterns(
    schedule: IOSchedule, bits: Sequence[bool], start_slot: int
) -> tuple[
    list[bool], dict[str, list[bool]], dict[str, list[bool]], int
]:
    """Strobe patterns for ``bits``, starting at unrolled-schedule slot
    ``start_slot``; returns (enable, pops, pushes, end_slot)."""
    period = schedule.period_cycles
    unrolled = schedule.unrolled_cycles()
    enable = [bool(b) for b in bits]
    pops = {name: [False] * len(bits) for name in schedule.inputs}
    pushes = {name: [False] * len(bits) for name in schedule.outputs}
    cursor = start_slot
    for position, active in enumerate(bits):
        if not active:
            continue
        point_index, kind = unrolled[cursor % period]
        cursor += 1
        if kind == "sync":
            point = schedule.points[point_index]
            for name in point.inputs:
                pops[name][position] = True
            for name in point.outputs:
                pushes[name][position] = True
    return enable, pops, pushes, cursor


def _validate_activation(
    schedule: IOSchedule,
    activation: Sequence[bool],
    prefix: Sequence[bool],
) -> None:
    period = schedule.period_cycles
    fires = sum(bool(b) for b in activation)
    if fires == 0 and not prefix:
        raise ValueError("activation pattern never fires")
    if fires % period != 0:
        raise ValueError(
            f"activation fires {fires} cycles per loop; must be a "
            f"multiple of the schedule period {period}"
        )


def compute_port_patterns(
    schedule: IOSchedule,
    activation: Sequence[bool],
    prefix: Sequence[bool] = (),
) -> tuple[list[bool], dict[str, list[bool]], dict[str, list[bool]]]:
    """Align the unrolled schedule onto the activation pattern.

    Returns (enable pattern, per-input pop patterns, per-output push
    patterns), all of the activation pattern's length.  Walking the
    pattern, each active cycle executes the next unrolled schedule
    slot; sync slots strobe their ports.  With a ``prefix``, the walk
    starts at the unrolled slot the prefix ends on, so the cyclic
    patterns describe the steady state after the one-shot transient.
    """
    _validate_activation(schedule, activation, prefix)
    _, _, _, start_slot = _walk_patterns(schedule, prefix, 0)
    enable, pops, pushes, _ = _walk_patterns(
        schedule, activation, start_slot
    )
    return enable, pops, pushes


def generate_shiftreg_wrapper(
    schedule: IOSchedule,
    activation: Sequence[bool] | None = None,
    name: str = "shiftreg_wrapper",
    prefix: Sequence[bool] = (),
) -> Module:
    """Build the shift-register wrapper.

    ``activation`` is the cyclic steady-state pattern; it defaults to
    all-ones over one schedule period (full-speed static schedule).
    ``prefix`` is an optional one-shot start-up sequence played once
    after reset, before the cyclic pattern takes over.
    """
    if activation is None:
        activation = [True] * schedule.period_cycles
    prefix = [bool(b) for b in prefix]
    _validate_activation(schedule, activation, prefix)
    pre_enable, pre_pops, pre_pushes, start_slot = _walk_patterns(
        schedule, prefix, 0
    )
    enable, pops, pushes, _ = _walk_patterns(
        schedule, activation, start_slot
    )
    delay = len(prefix)
    length = len(activation)

    module = Module(name)
    iface = WrapperInterface(module, schedule)
    rst = iface.rst

    if delay:
        # 0 for the first `delay` cycles after reset, then 1 forever:
        # selects the one-shot prefix lines during start-up, the
        # free-running (pre-rotated) rings afterwards.
        warm = _drain_line(
            module, "warm_line", [False] * delay, rst, fill=1
        ).bit(0)

    def tap(ring_name: str, bits: list[bool], pre_bits: list[bool]) -> Expr:
        ring = _ring(
            module, ring_name, _rotate(bits, delay % len(bits)), rst
        )
        if not delay:
            return ring.bit(0)
        line = _drain_line(
            module, f"pre_{ring_name}", pre_bits, rst, fill=0
        )
        return mux(warm, ring.bit(0), line.bit(0))

    module.assign(
        iface.ip_enable, tap("enable_ring", enable, pre_enable)
    )
    for index, port_name in enumerate(schedule.inputs):
        module.assign(
            iface.pop[index],
            tap(f"pop_ring_{index}", pops[port_name],
                pre_pops[port_name]),
        )
    for index, port_name in enumerate(schedule.outputs):
        module.assign(
            iface.push[index],
            tap(f"push_ring_{index}", pushes[port_name],
                pre_pushes[port_name]),
        )
    return module
