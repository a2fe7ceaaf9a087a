"""The four synchronization-wrapper styles as executable shells.

* :class:`SPWrapper` — the paper's contribution: a synchronization
  processor executing a compiled operation program from its operations
  memory;
* :class:`FSMWrapper` — Singh & Theobald's Mealy FSM, one state per
  schedule cycle (functionally equivalent to the SP; hardware cost is
  where they differ);
* :class:`CombinationalWrapper` — Carloni's original patient process:
  the IP clock fires only when *all* inputs are valid and *all* outputs
  can accept (over-synchronization on partial-port schedules);
* :class:`ShiftRegisterWrapper` — Casu & Macchiarulo's static
  activation pattern: fires blindly on a precomputed pattern, correct
  only when every stream is perfectly regular.

All four run the same pearl and the same functional schedule inside the
same LIS simulation, so throughput/latency differences measured by the
benches are attributable purely to the synchronization policy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..lis.pearl import Pearl
from ..lis.port import DEFAULT_PORT_DEPTH
from ..lis.shell import Shell, ShellError, fifos_ready
from .compiler import CompilerOptions, compile_schedule
from .processor import SPState, SyncProcessor


class SPWrapper(Shell):
    """Patient process whose shell is a synchronization processor.

    The shell compiles the pearl's schedule into an SP program at
    construction and then *executes the program*, including the reset
    cycle and any continuation operations introduced by run-counter
    overflow — cycle-for-cycle the behaviour of the generated RTL.
    """

    style = "sp"

    def __init__(
        self,
        pearl: Pearl,
        port_depth: int = DEFAULT_PORT_DEPTH,
        options: CompilerOptions | None = None,
    ) -> None:
        super().__init__(pearl, port_depth)
        # Fusion renumbers sync points (it is a synthesis-time area
        # optimization); the behavioural shell must call the pearl with
        # the pearl's own point indices, so compile without it.
        options = replace(options or CompilerOptions(), fuse=False)
        self.program = compile_schedule(pearl.schedule, options)
        self.processor = SyncProcessor(self.program)
        self._phase_next = 0
        self._sp_ports: tuple | None = None

    def _resolve_ports(self) -> tuple:
        """Ports are bound after construction; snapshot them on first
        use: ``(input (bit, fifo) pairs, output (bit, fifo, pushed,
        depth) tuples, per operation (pops, expected outputs,
        pushes))``, pops in mask-bit order and pushes sorted by name,
        as ``(name, port)`` pairs."""
        schedule = self.pearl.schedule
        in_ports = [self.in_ports[name] for name in schedule.inputs]
        out_ports = [self.out_ports[name] for name in schedule.outputs]
        op_ports = []
        for op in self.program.ops:
            expected = schedule.outputs_from_mask(op.out_mask)
            pops = tuple(
                (name, port)
                for bit, (name, port) in enumerate(
                    zip(schedule.inputs, in_ports)
                )
                if op.in_mask >> bit & 1
            )
            pushes = tuple(
                (name, self.out_ports[name]) for name in sorted(expected)
            )
            op_ports.append((pops, expected, pushes))
        return (
            [(1 << bit, port._fifo) for bit, port in enumerate(in_ports)],
            [
                (1 << bit, port._fifo, port._pushed, port.depth)
                for bit, port in enumerate(out_ports)
            ],
            op_ports,
        )

    # The SP drives everything from its program; bypass the base class's
    # generic scheduler.
    def _wrapper_step(self, cycle: int) -> None:
        ports = self._sp_ports
        if ports is None:
            ports = self._sp_ports = self._resolve_ports()
        in_bits, out_bits, op_ports = ports
        # Readiness from the FIFOs themselves (see Shell._readiness).
        in_ready = 0
        for bit, fifo in in_bits:
            if fifo:
                in_ready |= bit
        out_ready = 0
        for bit, fifo, pushed, depth in out_bits:
            if len(fifo) + len(pushed) < depth:
                out_ready |= bit
        action = self.processor.step(in_ready, out_ready)

        if not action.enable:
            self.stall_cycles += 1
            if self.trace_enable is not None:
                self.trace_enable.append(False)
            return

        if action.op is not None:
            op = action.op
            if op.is_head:
                pops, expected, pushes = op_ports[action.addr]
                popped = {name: port.pop() for name, port in pops}
                pushed = dict(
                    self.pearl.on_sync(op.point_index, popped) or {}
                )
                if pushed.keys() != expected:
                    raise ShellError(
                        f"pearl {self.pearl.name!r} produced "
                        f"{sorted(pushed)} at point {op.point_index}, "
                        f"operation expects {sorted(expected)}"
                    )
                for name, port in pushes:
                    port.push(pushed[name])
                self._phase_next = 0
            else:
                # Continuation op: its fire cycle is one free-run phase.
                self.pearl.on_run(op.point_index, op.first_phase)
                self._phase_next = op.first_phase + 1
            self._running_point = op.point_index
        else:
            # FREE_RUN state cycle.
            self.pearl.on_run(self._running_point, self._phase_next)
            self._phase_next += 1

        self.pearl._clocked()
        self.enabled_cycles += 1
        self.periods_completed = self.processor.periods_completed
        if self.trace_enable is not None:
            self.trace_enable.append(True)

    def reset(self) -> None:
        super().reset()
        self.processor.reset()
        self._phase_next = 0


class FSMWrapper(Shell):
    """Singh & Theobald's Mealy-FSM wrapper.

    Behaviour: at each sync point, test exactly the point's port
    subsets; free-run cycles are unconditional.  This is the base
    :class:`Shell` policy, so only the readiness test is supplied here.
    """

    style = "fsm"

    def _sync_ready(self) -> bool:
        ins, outs = self._readiness()[2][self._point_index]
        return fifos_ready(ins, outs)


class CombinationalWrapper(Shell):
    """Carloni's original combinational-logic wrapper.

    *Every* enabled cycle requires *all* inputs non-empty and *all*
    outputs non-full — the restriction §2 of the paper points out:
    "an IP is activated only if all its inputs are valid and all its
    outputs are able to store a result".
    """

    style = "combinational"

    def _all_ports_ready(self) -> bool:
        ins, outs, _points = self._readiness()
        return fifos_ready(ins, outs)

    def _sync_ready(self) -> bool:
        return self._all_ports_ready()

    def _run_gate_ok(self) -> bool:
        return self._all_ports_ready()


class ShiftRegisterWrapper(Shell):
    """Casu & Macchiarulo's static-scheduling wrapper.

    A looping activation pattern (one bit per cycle) drives the IP
    clock; no port state is ever tested.  If the environment is not
    perfectly regular the wrapper fails loudly: popping an empty port
    raises, which is precisely the hypothesis the paper's §2 flags
    ("there are no irregularities in the data streams").

    ``pattern=None`` uses the all-ones pattern (full-speed activation,
    valid when every producer/consumer also runs at full speed).

    ``prefix`` is an optional *one-shot* activation sequence played
    before the looping pattern starts — the start-up transient of a
    globally planned static schedule (pipeline fill delays, staggered
    offsets).  A never-firing cyclic ``pattern`` is allowed when a
    ``prefix`` is given: that is the planned-replay degenerate case of
    a process whose reference run drained and stopped.
    """

    style = "shiftreg"

    def __init__(
        self,
        pearl: Pearl,
        port_depth: int = DEFAULT_PORT_DEPTH,
        pattern: Sequence[bool] | None = None,
        prefix: Sequence[bool] = (),
    ) -> None:
        super().__init__(pearl, port_depth)
        period = pearl.schedule.period_cycles
        self.prefix = [bool(b) for b in prefix]
        self.pattern = (
            list(pattern) if pattern is not None else [True] * period
        )
        if not self.prefix and not any(self.pattern):
            raise ShellError("activation pattern never fires")
        if sum(self.pattern) % period != 0:
            raise ShellError(
                f"activation pattern fires {sum(self.pattern)} cycles per "
                f"loop, not a multiple of the schedule period {period}"
            )
        self._pattern_pos = 0
        self._prefix_pos = 0
        self._pattern_fires = any(self.pattern)

    def _next_fire(self) -> bool:
        if self._prefix_pos < len(self.prefix):
            fire = self.prefix[self._prefix_pos]
            self._prefix_pos += 1
            return fire
        if not self._pattern_fires:
            return False  # prefix exhausted, cyclic part never fires
        fire = self.pattern[self._pattern_pos]
        self._pattern_pos = (self._pattern_pos + 1) % len(self.pattern)
        return fire

    def _wrapper_step(self, cycle: int) -> None:
        fire = self._next_fire()
        if not fire:
            self.stall_cycles += 1
            if self.trace_enable is not None:
                self.trace_enable.append(False)
            return
        if self._run_left > 0:
            phase = (
                self.pearl.schedule.points[self._running_point].run
                - self._run_left
            )
            self.pearl.on_run(self._running_point, phase)
            self._run_left -= 1
        else:
            ins, outs, _pops, _pushes = self._point_ports()[
                self._point_index
            ]
            for name, port in ins:
                if not port.not_empty:
                    raise ShellError(
                        f"static schedule violated: {self.name!r} input "
                        f"{name!r} empty at cycle {cycle} (irregular "
                        "stream — shift-register wrappers require "
                        "perfectly regular environments)"
                    )
            for name, port in outs:
                if not port.not_full:
                    raise ShellError(
                        f"static schedule violated: {self.name!r} output "
                        f"{name!r} full at cycle {cycle} (downstream "
                        "backpressure — shift-register wrappers cannot "
                        "absorb it)"
                    )
            self._fire_sync()
        self.pearl._clocked()
        self.enabled_cycles += 1
        if self.trace_enable is not None:
            self.trace_enable.append(True)

    def reset(self) -> None:
        super().reset()
        self._pattern_pos = 0
        self._prefix_pos = 0


WRAPPER_STYLES = {
    "sp": SPWrapper,
    "fsm": FSMWrapper,
    "combinational": CombinationalWrapper,
    "shiftreg": ShiftRegisterWrapper,
}


def make_wrapper(style: str, pearl: Pearl, **kwargs) -> Shell:
    """Factory over the four styles (used by benches and examples)."""
    try:
        cls = WRAPPER_STYLES[style]
    except KeyError:
        raise ShellError(
            f"unknown wrapper style {style!r}; choose from "
            f"{sorted(WRAPPER_STYLES)}"
        ) from None
    return cls(pearl, **kwargs)
