"""Shared pieces of the wrapper RTL generators.

Every generated wrapper module exposes the same FIFO-style interface
(the paper's Figure 2 signals)::

    input  clk, rst
    input  <in>_not_empty   per input port
    output <in>_pop         pop strobe
    input  <out>_not_full   per output port
    output <out>_push       push strobe
    output ip_enable        the gated IP clock enable

so that every wrapper style is a drop-in replacement for any other in
both synthesis and co-simulation.
"""

from __future__ import annotations

import re

from ...rtl.ast import Const, Expr, Signal, all_of
from ...rtl.module import Module
from ..schedule import IOSchedule

#: The wrapper styles the generators produce, as
#: :func:`~repro.core.synthesis.synthesize_wrapper` names them.
SYNTH_STYLES = ("sp", "fsm", "fsm-onehot", "combinational", "shiftreg")


def sanitize(name: str) -> str:
    """Make a schedule port name a legal Verilog identifier."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "p_" + cleaned
    return cleaned


class WrapperInterface:
    """Declares the uniform wrapper ports on a module."""

    def __init__(self, module: Module, schedule: IOSchedule) -> None:
        self.module = module
        self.schedule = schedule
        self.clk = module.add_clock()
        self.rst = module.input("rst")
        self.not_empty: list[Signal] = []
        self.pop: list[Signal] = []
        self.not_full: list[Signal] = []
        self.push: list[Signal] = []
        for name in schedule.inputs:
            port = sanitize(name)
            self.not_empty.append(module.input(f"{port}_not_empty"))
            self.pop.append(module.output(f"{port}_pop"))
        for name in schedule.outputs:
            port = sanitize(name)
            self.not_full.append(module.input(f"{port}_not_full"))
            self.push.append(module.output(f"{port}_push"))
        self.ip_enable = module.output("ip_enable")

    def ready_for_masks(self, in_mask: int, out_mask: int) -> Expr:
        """Constant-mask readiness: AND of the selected ports' status."""
        terms: list[Expr] = []
        for bit, sig in enumerate(self.not_empty):
            if in_mask >> bit & 1:
                terms.append(sig)
        for bit, sig in enumerate(self.not_full):
            if out_mask >> bit & 1:
                terms.append(sig)
        return all_of(terms)

    def ready_for_mask_signals(
        self, in_mask: Expr | None, out_mask: Expr | None
    ) -> Expr:
        """Dynamic-mask readiness (the SP datapath): port *i* is
        satisfied when it is not selected or it is ready."""
        terms: list[Expr] = []
        if in_mask is not None:
            for bit, sig in enumerate(self.not_empty):
                terms.append(~in_mask.bit(bit) | sig)
        if out_mask is not None:
            for bit, sig in enumerate(self.not_full):
                terms.append(~out_mask.bit(bit) | sig)
        return all_of(terms)


def select_by_value(selector: Expr, leaves: list[Expr], width: int) -> Expr:
    """Balanced mux tree: ``leaves[selector]``.

    ``leaves`` is padded with zeros up to ``2 ** selector.width``; the
    recursion splits on the most significant selector bit, giving a
    tree of depth ``selector.width`` — the structure a synthesis tool
    builds for a full ``case`` statement.
    """
    from ...rtl.ast import Ternary

    size = 1 << selector.width
    padded = list(leaves) + [
        Const(0, width) for _ in range(size - len(leaves))
    ]
    if len(padded) != size:
        raise ValueError(
            f"{len(leaves)} leaves exceed selector space {size}"
        )

    def build(lo: int, hi: int, bit: int) -> Expr:
        if hi - lo == 1:
            return padded[lo]
        mid = (lo + hi) // 2
        low_half = build(lo, mid, bit - 1)
        high_half = build(mid, hi, bit - 1)
        if _same_tree(low_half, high_half):
            return low_half
        return Ternary(selector.bit(bit), high_half, low_half)

    return build(0, size, selector.width - 1)


def _same_tree(a: Expr, b: Expr) -> bool:
    """Cheap structural equality for constant-folding mux halves."""
    if a is b:
        return True
    if isinstance(a, Const) and isinstance(b, Const):
        return a.value == b.value and a.width == b.width
    return False
