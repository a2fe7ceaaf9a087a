"""The four synchronization-wrapper styles as executable shells.

The firing protocol (pops, ``on_sync``, the output-contract check,
pushes, free-run cycles, periods, counters and trace) lives once in
:class:`~repro.lis.shell.Shell`; a style here supplies only its
per-cycle decision through ``_sync_ready``/``_run_gate_ok`` and, for
the SP, the script it walks:

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
from ..lis.shell import ScriptEntry, Shell, ShellError, fifos_ready
from ..lis.signals import checkpointed
from .compiler import CompilerOptions, compile_schedule
from .operations import SPProgram
from .processor import SyncProcessor


def script_from_program(program: SPProgram) -> list[ScriptEntry]:
    """One entry per SP operation: heads are sync fires, run-counter
    overflow continuations are ``"cont"`` fires."""
    return [
        ScriptEntry(
            kind="sync" if op.is_head else "cont",
            point_index=op.point_index,
            in_mask=op.in_mask,
            out_mask=op.out_mask,
            run=op.run,
            first_phase=op.first_phase,
        )
        for op in program.ops
    ]


@checkpointed
class SPWrapper(Shell):
    """Patient process whose shell is a synchronization processor.

    The shell compiles the pearl's schedule into an SP program at
    construction, walks its operations as the script, and takes every
    firing decision from a :class:`SyncProcessor` executing the program
    — including the reset cycle and the continuation operations
    introduced by run-counter overflow, cycle-for-cycle the behaviour
    of the generated RTL.
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
        self._script = script_from_program(self.program)
        self.processor = SyncProcessor(self.program)

    def _sync_ready(self, cycle: int) -> bool:
        ins, outs, _entries = self._ready_cache or self._readiness()
        in_ready = 0
        for bit, fifo in enumerate(ins):
            if fifo:
                in_ready |= 1 << bit
        out_ready = 0
        for bit, (fifo, pushed, depth) in enumerate(outs):
            if len(fifo) + len(pushed) < depth:
                out_ready |= 1 << bit
        return self.processor.step(in_ready, out_ready).enable

    def _run_gate_ok(self, cycle: int) -> bool:
        # The processor's FREE_RUN state ignores readiness.
        return self.processor.step(0, 0).enable

    def reset(self) -> None:
        super().reset()
        self.processor.reset()

    def _decision_state(self) -> tuple:
        return self.processor.save_state()

    def _load_decision(self, state: tuple) -> None:
        self.processor.load_state(state)


@checkpointed
class FSMWrapper(Shell):
    """Singh & Theobald's Mealy-FSM wrapper.

    Behaviour: at each sync point, test exactly the point's port
    subsets; free-run cycles are unconditional.  This is the base
    :class:`Shell` policy, so only the readiness test is supplied here.
    """

    style = "fsm"

    def _sync_ready(self, cycle: int) -> bool:
        views = self._ready_cache or self._readiness()
        ins, outs = views[2][self._script_pos]
        return fifos_ready(ins, outs)


@checkpointed
class CombinationalWrapper(Shell):
    """Carloni's original combinational-logic wrapper.

    *Every* enabled cycle requires *all* inputs non-empty and *all*
    outputs non-full — the restriction §2 of the paper points out:
    "an IP is activated only if all its inputs are valid and all its
    outputs are able to store a result".
    """

    style = "combinational"

    def _sync_ready(self, cycle: int) -> bool:
        ins, outs, _entries = self._ready_cache or self._readiness()
        return fifos_ready(ins, outs)

    _run_gate_ok = _sync_ready


@checkpointed
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

    def _sync_ready(self, cycle: int) -> bool:
        if not self._next_fire():
            return False
        pops, pushes = self._fires()[self._script_pos][2:4]
        for name, port in pops:
            if not port.not_empty:
                raise ShellError(
                    f"static schedule violated: {self.name!r} input "
                    f"{name!r} empty at cycle {cycle} (irregular "
                    "stream — shift-register wrappers require "
                    "perfectly regular environments)"
                )
        for name, port in pushes:
            if not port.not_full:
                raise ShellError(
                    f"static schedule violated: {self.name!r} output "
                    f"{name!r} full at cycle {cycle} (downstream "
                    "backpressure — shift-register wrappers cannot "
                    "absorb it)"
                )
        return True

    def _run_gate_ok(self, cycle: int) -> bool:
        return self._next_fire()

    def reset(self) -> None:
        super().reset()
        self._pattern_pos = 0
        self._prefix_pos = 0

    def _decision_state(self) -> tuple:
        return self._pattern_pos, self._prefix_pos

    def _load_decision(self, state: tuple) -> None:
        self._pattern_pos, self._prefix_pos = state


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
