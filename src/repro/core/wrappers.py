"""The four synchronization-wrapper styles as executable shells.

The firing protocol (pops, ``on_sync``, the output-contract check,
pushes, free-run cycles, periods, counters and trace) lives once in
:class:`~repro.lis.shell.Shell`; a style here supplies only its
per-cycle decision through ``_sync_ready``/``_run_gate_ok`` (both
called with the cycle and the readiness word) and, for the SP, the
script it walks:

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

Every decision reads the shell's *readiness word* (see
:mod:`repro.lis.shell`): bit *i* set when schedule input *i* is not
empty, bit *n_in + j* when schedule output *j* is not full.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..lis.pearl import Pearl
from ..lis.port import DEFAULT_PORT_DEPTH
from ..lis.shell import ScriptEntry, Shell, ShellError
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


def _need_masks(shell: Shell) -> list[int]:
    """Per script entry, the readiness-word bits its fire pops or
    pushes: ``in_mask | out_mask << n_in``."""
    return [
        entry.in_mask | entry.out_mask << shell._n_in
        for entry in shell._script
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
        self._in_all = (1 << self._n_in) - 1

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        # The processor's own not_empty / not_full words.
        return self.processor.step(
            ready & self._in_all, ready >> self._n_in
        ).enable

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        # The processor's FREE_RUN state ignores readiness.
        return self.processor.step(0, 0).enable

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

    def __init__(
        self, pearl: Pearl, port_depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        super().__init__(pearl, port_depth)
        self._needs = _need_masks(self)

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        need = self._needs[self._script_pos]
        return ready & need == need


@checkpointed
class CombinationalWrapper(Shell):
    """Carloni's original combinational-logic wrapper.

    *Every* enabled cycle requires *all* inputs non-empty and *all*
    outputs non-full — the restriction §2 of the paper points out:
    "an IP is activated only if all its inputs are valid and all its
    outputs are able to store a result".
    """

    style = "combinational"

    def __init__(
        self, pearl: Pearl, port_depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        super().__init__(pearl, port_depth)
        self._all = (1 << self._n_in + len(pearl.schedule.outputs)) - 1

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        return ready == self._all

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
        self._needs = _need_masks(self)

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

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        if not self._next_fire():
            return False
        need = self._needs[self._script_pos]
        missing = need & ~ready
        if not missing:
            return True
        # Name the first port the static schedule found unready.
        schedule = self.pearl.schedule
        for bit, name in enumerate(schedule.inputs):
            if missing >> bit & 1:
                raise ShellError(
                    f"static schedule violated: {self.name!r} input "
                    f"{name!r} empty at cycle {cycle} (irregular "
                    "stream — shift-register wrappers require "
                    "perfectly regular environments)"
                )
        lowest = (missing & -missing).bit_length() - 1
        name = schedule.outputs[lowest - self._n_in]
        raise ShellError(
            f"static schedule violated: {self.name!r} output "
            f"{name!r} full at cycle {cycle} (downstream "
            "backpressure — shift-register wrappers cannot "
            "absorb it)"
        )

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        return self._next_fire()

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
