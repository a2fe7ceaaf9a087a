"""Behavioural model of the synchronization processor (SP).

The paper, §3: *"The SP model is specified by a three states FSM: a
reset state at power up, an operation-read state, and a free-run state.
This FSM is concurrent with the IP and contains a data path: this is a
'concurrent FSM with data path' (CFSMD)."*

This model is a pure state machine over bitmasks — each cycle it is
given the ``not empty`` mask of the input ports and the ``not full``
mask of the output ports, and it answers with the pop/push strobes and
the IP clock-enable.  Keeping it purely functional makes it trivially
co-simulable against the generated RTL, which implements the very same
three states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .operations import Operation, SPProgram


class SPState(Enum):
    """The three CFSMD states of the paper."""

    RESET = 0
    READ_OP = 1
    FREE_RUN = 2


@dataclass(frozen=True)
class SPAction:
    """What the SP decided in one clock cycle."""

    enable: bool  # IP clock fires this cycle
    pop_mask: int  # input ports popped (bit i = i-th input)
    push_mask: int  # output ports pushed
    op: Operation | None  # the operation fired this cycle, if any
    state: SPState  # state during this cycle
    addr: int  # operations-memory address presented this cycle

    @property
    def stalled(self) -> bool:
        return not self.enable and self.state is SPState.READ_OP


class SyncProcessor:
    """Cycle-accurate behavioural SP executing an :class:`SPProgram`."""

    def __init__(self, program: SPProgram) -> None:
        self.program = program
        self.state = SPState.RESET
        self.addr = 0
        self.run_counter = 0
        self.cycles = 0
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0
        # The action space is finite (state x address): precompute it so
        # the per-cycle step allocates nothing (SPAction is immutable).
        self._ops = program.ops
        self._fire_actions = [
            SPAction(
                True, op.in_mask, op.out_mask, op, SPState.READ_OP, addr
            )
            for addr, op in enumerate(program.ops)
        ]
        self._stall_actions = [
            SPAction(False, 0, 0, None, SPState.READ_OP, addr)
            for addr in range(len(program.ops))
        ]
        self._freerun_actions = [
            SPAction(True, 0, 0, None, SPState.FREE_RUN, addr)
            for addr in range(len(program.ops))
        ]
        self._reset_action = SPAction(
            False, 0, 0, None, SPState.RESET, 0
        )

    def reset(self) -> None:
        self.state = SPState.RESET
        self.addr = 0
        self.run_counter = 0
        self.cycles = 0
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0

    def save_state(self) -> tuple:
        """Everything :meth:`step` reads or writes, for
        :meth:`load_state`."""
        return (
            self.state,
            self.addr,
            self.run_counter,
            self.cycles,
            self.enabled_cycles,
            self.stall_cycles,
            self.periods_completed,
        )

    def load_state(self, state: tuple) -> None:
        (
            self.state,
            self.addr,
            self.run_counter,
            self.cycles,
            self.enabled_cycles,
            self.stall_cycles,
            self.periods_completed,
        ) = state

    @property
    def current_op(self) -> Operation:
        return self.program.ops[self.addr]

    def step(self, in_ready: int, out_ready: int) -> SPAction:
        """Advance one clock cycle.

        ``in_ready``: bit *i* set when input port *i* is not empty;
        ``out_ready``: bit *j* set when output port *j* is not full.
        """
        self.cycles += 1
        state = self.state
        addr = self.addr

        if state is SPState.RESET:
            # Power-up cycle: fetch address 0, decide nothing yet.
            self.state = SPState.READ_OP
            return self._reset_action

        if state is SPState.FREE_RUN:
            self.enabled_cycles += 1
            self.run_counter -= 1
            if self.run_counter == 0:
                self.state = SPState.READ_OP
            return self._freerun_actions[addr]

        # READ_OP: the asynchronous ROM presents ops[addr] this cycle.
        op = self._ops[addr]
        if (
            (op.in_mask & in_ready) != op.in_mask
            or (op.out_mask & out_ready) != op.out_mask
        ):
            self.stall_cycles += 1
            return self._stall_actions[addr]

        self.enabled_cycles += 1
        next_addr = addr + 1
        if next_addr == len(self._ops):
            next_addr = 0
            self.periods_completed += 1
        self.addr = next_addr
        if op.run > 0:
            self.state = SPState.FREE_RUN
            self.run_counter = op.run
        return self._fire_actions[addr]

    def trace(self, in_ready: int, out_ready: int, cycles: int):
        """Run ``cycles`` steps under constant readiness (tests/demos)."""
        return [self.step(in_ready, out_ready) for _ in range(cycles)]
