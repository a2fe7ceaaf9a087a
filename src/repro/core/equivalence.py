"""Behavioural-vs-RTL equivalence checking for wrapper synthesis.

Two pieces:

* :class:`RTLShell` — a shell whose firing decisions come from
  cycle-accurately simulating a *generated wrapper module* (SP, FSM or
  shift-register RTL).  It drives the RTL's ``not_empty``/``not_full``
  inputs from the real FIFO ports, obeys the RTL's
  ``pop``/``push``/``ip_enable`` outputs, and cross-checks every strobe
  against the expected schedule — any divergence raises
  :class:`EquivalenceError` with the offending cycle.
* :func:`co_simulate` — runs a behavioural wrapper and an RTL wrapper
  in twin systems fed identical stimuli and compares their cycle-level
  enable traces and token-level outputs.

This is the reproduction's answer to the paper's "functionally
equivalent to the FSMs" claim: we demonstrate it by simulation on
randomized irregular stimuli rather than assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..lis.pearl import Pearl
from ..lis.port import DEFAULT_PORT_DEPTH
from ..lis.shell import Shell, ShellError
from ..lis.simulator import Simulation
from ..lis.system import System
from ..rtl.module import Module
from ..rtl.simulator import Simulator
from .operations import SPProgram
from .rtlgen.common import sanitize


class EquivalenceError(AssertionError):
    """Raised when RTL and expected behaviour diverge."""


# RTLShell driver bindings, process-local: ``bound`` counts shells
# bound to a generated per-cycle function (compiled engine),
# ``by_name`` shells driven through ``poke``/``peek``.  One count per
# binding, i.e. per shell and again after each ``reset()``.
_DRIVER_STATS: dict[str, int] = {"bound": 0, "by_name": 0}


def driver_stats() -> dict[str, int]:
    """Snapshot of the RTLShell driver counters (``bound``,
    ``by_name``); cumulative per process."""
    return dict(_DRIVER_STATS)


@dataclass(frozen=True)
class _ScriptEntry:
    """One expected operation fire: masks to verify + pearl bookkeeping."""

    kind: str  # "sync" (head: pop/push + on_sync) or "cont"
    point_index: int
    in_mask: int
    out_mask: int
    run: int
    first_phase: int = 0


def _script_from_program(program: SPProgram) -> list[_ScriptEntry]:
    return [
        _ScriptEntry(
            kind="sync" if op.is_head else "cont",
            point_index=op.point_index,
            in_mask=op.in_mask,
            out_mask=op.out_mask,
            run=op.run,
            first_phase=op.first_phase,
        )
        for op in program.ops
    ]


def _script_from_schedule(schedule) -> list[_ScriptEntry]:
    return [
        _ScriptEntry(
            kind="sync",
            point_index=index,
            in_mask=schedule.input_mask(point),
            out_mask=schedule.output_mask(point),
            run=point.run,
        )
        for index, point in enumerate(schedule.points)
    ]


class RTLShell(Shell):
    """Patient process driven by simulated wrapper RTL.

    ``module`` must expose the uniform wrapper interface of
    :mod:`repro.core.rtlgen.common`.  ``program`` supplies the expected
    operation stream for SP wrappers; omitted, the pearl's schedule
    order is expected (FSM / shift-register wrappers).

    ``engine`` selects the RTL simulation backend (``"compiled"`` /
    ``"interp"``; None follows the simulator default).
    """

    style = "rtl"

    def __init__(
        self,
        pearl: Pearl,
        module: Module,
        program: SPProgram | None = None,
        port_depth: int = DEFAULT_PORT_DEPTH,
        engine: str | None = None,
    ) -> None:
        super().__init__(pearl, port_depth)
        self.module = module
        self.engine = engine
        self.rtl = Simulator(module, engine=engine)
        self._script = (
            _script_from_program(program)
            if program is not None
            else _script_from_schedule(pearl.schedule)
        )
        self._script_pos = 0
        self._rtl_run_left = 0
        self._phase_next = 0
        in_names = [sanitize(n) for n in pearl.schedule.inputs]
        out_names = [sanitize(n) for n in pearl.schedule.outputs]
        # Readiness inputs per port, and the strobe word's bits: bit 0
        # ip_enable, then one pop bit per input, then one push bit per
        # output (schedule order).
        self._not_empty_pokes = [
            (name, f"{port}_not_empty")
            for name, port in zip(pearl.schedule.inputs, in_names)
        ]
        self._not_full_pokes = [
            (name, f"{port}_not_full")
            for name, port in zip(pearl.schedule.outputs, out_names)
        ]
        self._strobe_names = [
            "ip_enable",
            *(f"{port}_pop" for port in in_names),
            *(f"{port}_push" for port in out_names),
        ]
        self._push_shift = 1 + len(in_names)
        # Per script entry: the ports to pop (schedule order), the
        # outputs the pearl must push, and the expected strobe word.
        schedule = pearl.schedule
        self._script_io = [
            (
                tuple(
                    name
                    for bit, name in enumerate(schedule.inputs)
                    if entry.in_mask >> bit & 1
                ),
                schedule.outputs_from_mask(entry.out_mask),
            )
            for entry in self._script
        ]
        self._script_words = [
            1 | entry.in_mask << 1 | entry.out_mask << self._push_shift
            for entry in self._script
        ]
        self._apply_reset()

    def _apply_reset(self) -> None:
        self.rtl.poke("rst", 1)
        self.rtl.step()
        self.rtl.poke("rst", 0)
        # Ports bind after construction and reset() replaces the
        # simulator, so the driver is (re)bound at the next wrapper step.
        self._drive: Callable[[], int] | None = None

    def _bind_driver(self) -> Callable[[], int]:
        """The per-cycle function returning the strobe word for the
        current simulator.  Under the compiled engine it is generated
        code bound to the port FIFOs (:meth:`~repro.rtl.compile_sim.
        CompiledSimulator.fifo_driver`); otherwise the RTL is driven by
        name through ``poke``/``peek``."""
        rtl = self.rtl
        if rtl.engine != "compiled":
            _DRIVER_STATS["by_name"] += 1
            return self._cycle_by_name
        _DRIVER_STATS["bound"] += 1
        # A wrapper step starts with nothing popped this cycle (ports
        # drop their pops at commit), so not_empty is a non-empty FIFO.
        not_empty = [
            (poke, self.in_ports[name]._fifo)
            for name, poke in self._not_empty_pokes
        ]
        not_full = []
        for name, poke in self._not_full_pokes:
            port = self.out_ports[name]
            not_full.append((poke, port._fifo, port._pushed, port.depth))
        return rtl.fifo_driver(not_empty, not_full, self._strobe_names)

    def _cycle_by_name(self) -> int:
        rtl = self.rtl
        in_ports = self.in_ports
        out_ports = self.out_ports
        for name, poke_name in self._not_empty_pokes:
            rtl.poke(poke_name, int(in_ports[name].not_empty))
        for name, poke_name in self._not_full_pokes:
            rtl.poke(poke_name, int(out_ports[name].not_full))
        rtl.settle()
        word = 0
        for bit, name in enumerate(self._strobe_names):
            if rtl.peek(name):
                word |= 1 << bit
        rtl.step()
        return word

    def _masks(self, word: int) -> tuple[int, int]:
        """(pop mask, push mask) of a strobe word."""
        shift = self._push_shift
        return (word >> 1) & ((1 << (shift - 1)) - 1), word >> shift

    def _wrapper_step(self, cycle: int) -> None:
        drive = self._drive
        if drive is None:
            drive = self._drive = self._bind_driver()
        word = drive()

        if not word & 1:
            if word:
                raise EquivalenceError(
                    f"{self.name!r} cycle {cycle}: pop/push strobes "
                    "asserted while ip_enable low"
                )
            self.stall_cycles += 1
            if self.trace_enable is not None:
                self.trace_enable.append(False)
            return

        self._execute_enabled(cycle, word)
        self.pearl._clocked()
        self.enabled_cycles += 1
        if self.trace_enable is not None:
            self.trace_enable.append(True)

    def _execute_enabled(self, cycle: int, word: int) -> None:
        if self._rtl_run_left > 0:
            if word != 1:
                raise EquivalenceError(
                    f"{self.name!r} cycle {cycle}: strobes asserted "
                    "during an expected free-run cycle"
                )
            self.pearl.on_run(self._running_point, self._phase_next)
            self._phase_next += 1
            self._rtl_run_left -= 1
            return

        position = self._script_pos
        entry = self._script[position]
        if word != self._script_words[position]:
            pop_mask, push_mask = self._masks(word)
            raise EquivalenceError(
                f"{self.name!r} cycle {cycle}: RTL strobes "
                f"(pop={pop_mask:#x}, push={push_mask:#x}) != expected "
                f"(pop={entry.in_mask:#x}, push={entry.out_mask:#x}) at "
                f"script position {position}"
            )
        if entry.kind == "sync":
            pops, expected = self._script_io[position]
            in_ports = self.in_ports
            popped: dict[str, Any] = {
                name: in_ports[name].pop() for name in pops
            }
            pushed = dict(
                self.pearl.on_sync(entry.point_index, popped) or {}
            )
            if pushed.keys() != expected:
                raise ShellError(
                    f"pearl {self.pearl.name!r} produced {sorted(pushed)} "
                    f"at point {entry.point_index}, expected "
                    f"{sorted(expected)}"
                )
            for name, value in sorted(pushed.items()):
                self.out_ports[name].push(value)
            self._phase_next = 0
        else:
            self.pearl.on_run(entry.point_index, entry.first_phase)
            self._phase_next = entry.first_phase + 1
        self._running_point = entry.point_index
        self._rtl_run_left = entry.run
        position += 1
        if position == len(self._script):
            position = 0
            self.periods_completed += 1
        self._script_pos = position

    def reset(self) -> None:
        super().reset()
        self.rtl = Simulator(self.module, engine=self.engine)
        self._script_pos = 0
        self._rtl_run_left = 0
        self._phase_next = 0
        self._apply_reset()


# -- twin-system co-simulation -------------------------------------------------


@dataclass
class Stimulus:
    """Input token streams (with gap patterns) and output stall patterns
    for a single patient process under test."""

    tokens: dict[str, Sequence[Any]]
    gaps: dict[str, Sequence[bool]] = field(default_factory=dict)
    stalls: dict[str, Sequence[bool]] = field(default_factory=dict)
    in_latency: dict[str, int] = field(default_factory=dict)
    out_latency: dict[str, int] = field(default_factory=dict)


@dataclass
class CoSimResult:
    """Outcome of one twin-system run."""

    cycles: int
    enable_a: list[bool]
    enable_b: list[bool]
    outputs_a: dict[str, list[Any]]
    outputs_b: dict[str, list[Any]]

    @property
    def traces_match(self) -> bool:
        return self.enable_a == self.enable_b

    @property
    def outputs_match(self) -> bool:
        return self.outputs_a == self.outputs_b

    def first_divergence(self) -> int | None:
        for index, (a, b) in enumerate(zip(self.enable_a, self.enable_b)):
            if a != b:
                return index
        return None


def _build_single(
    shell: Shell, stimulus: Stimulus, name: str
) -> tuple[System, dict[str, Any]]:
    system = System(name)
    system.add_patient(shell)
    schedule = shell.pearl.schedule
    for port in schedule.inputs:
        system.connect_source(
            f"src_{port}",
            list(stimulus.tokens.get(port, [])),
            shell,
            port,
            latency=stimulus.in_latency.get(port, 1),
            gaps=stimulus.gaps.get(port),
        )
    sinks = {}
    for port in schedule.outputs:
        sinks[port] = system.connect_sink(
            shell,
            port,
            f"snk_{port}",
            latency=stimulus.out_latency.get(port, 1),
            stalls=stimulus.stalls.get(port),
        )
    return system, sinks


def co_simulate(
    shell_a: Shell,
    shell_b: Shell,
    stimulus: Stimulus,
    cycles: int,
) -> CoSimResult:
    """Run two shells (same pearl type, fresh instances) under identical
    stimuli and collect enable traces + sink outputs."""
    shell_a.trace_enable = []
    shell_b.trace_enable = []
    system_a, sinks_a = _build_single(shell_a, stimulus, "cosim_a")
    system_b, sinks_b = _build_single(shell_b, stimulus, "cosim_b")
    Simulation(system_a).run(cycles)
    Simulation(system_b).run(cycles)
    return CoSimResult(
        cycles=cycles,
        enable_a=list(shell_a.trace_enable),
        enable_b=list(shell_b.trace_enable),
        outputs_a={k: list(v.received) for k, v in sinks_a.items()},
        outputs_b={k: list(v.received) for k, v in sinks_b.items()},
    )
