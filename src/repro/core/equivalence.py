"""Behavioural-vs-RTL equivalence checking for wrapper synthesis.

Two pieces:

* :class:`RTLShell` — a shell whose firing decisions come from
  cycle-accurately simulating a *generated wrapper module* (SP, FSM or
  shift-register RTL).  Each cycle is one call of the simulator's
  ``fifo_driver`` function (the same interface under both RTL
  engines) with the shell's readiness word, whose bits are the RTL's
  ``*_not_empty``/``*_not_full`` inputs in port order; it returns the
  strobe word.  The shell fires when the RTL raises ``ip_enable`` and
  cross-checks every ``pop``/``push`` strobe against the expected
  script — any divergence raises :class:`EquivalenceError` with the
  offending cycle.  The pops, pushes and pearl calls themselves are
  :class:`~repro.lis.shell.Shell`'s one firing protocol.
* :func:`co_simulate` — runs a behavioural wrapper and an RTL wrapper
  in twin systems fed identical stimuli and compares their cycle-level
  enable traces and token-level outputs.

This is the reproduction's answer to the paper's "functionally
equivalent to the FSMs" claim: we demonstrate it by simulation on
randomized irregular stimuli rather than assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NoReturn, Sequence

from ..lis.pearl import Pearl
from ..lis.port import DEFAULT_PORT_DEPTH
from ..lis.shell import Shell
from ..lis.signals import checkpointed
from ..lis.simulator import Simulation
from ..lis.system import System
# ``Simulator(...)`` imports its default engine on first construction;
# importing it here keeps that cost out of the first shell's cycles.
from ..rtl import compile_sim  # noqa: F401
from ..rtl.module import Module
from ..rtl.simulator import Simulator
from .operations import SPProgram
from .rtlgen.common import sanitize
from .wrappers import script_from_program


class EquivalenceError(AssertionError):
    """Raised when RTL and expected behaviour diverge."""


@checkpointed
class RTLShell(Shell):
    """Patient process driven by simulated wrapper RTL.

    ``module`` must expose the uniform wrapper interface of
    :mod:`repro.core.rtlgen.common`.  ``program`` supplies the expected
    operation stream (the script) for SP wrappers; omitted, the pearl's
    schedule order is expected (FSM / shift-register wrappers).  The
    decision each cycle is the RTL's strobe word: ``ip_enable`` fires,
    and the pop/push strobes must match the script entry due (or be
    silent in a free-run cycle).

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
        self.rtl = Simulator(module, engine=engine)
        if program is not None:
            self._script = script_from_program(program)
        in_names = [sanitize(n) for n in pearl.schedule.inputs]
        out_names = [sanitize(n) for n in pearl.schedule.outputs]
        # The strobe word's bits: bit 0 ip_enable, then one pop bit per
        # input, then one push bit per output (schedule order).
        self._strobe_names = [
            "ip_enable",
            *(f"{port}_pop" for port in in_names),
            *(f"{port}_push" for port in out_names),
        ]
        self._push_shift = 1 + len(in_names)
        # The strobe word each script entry expects.
        self._script_words = [
            1 | entry.in_mask << 1 | entry.out_mask << self._push_shift
            for entry in self._script
        ]
        # Power-up: one cycle with rst high.
        self.rtl.poke("rst", 1)
        self.rtl.step()
        self.rtl.poke("rst", 0)
        # The driver binds at the first wrapper step.
        self._drive: Callable[[int], int] | None = None

    def _bind_driver(self) -> Callable[[int], int]:
        """Bind (as ``_drive``) and return the simulator's per-cycle
        function (``fifo_driver``).  The readiness word's bits, in
        order, are the wrapper's ``*_not_empty`` then ``*_not_full``
        inputs, so the function takes the word as it is and returns
        the strobe word."""
        schedule = self.pearl.schedule
        self._drive = self.rtl.fifo_driver(
            [
                *(f"{sanitize(n)}_not_empty" for n in schedule.inputs),
                *(f"{sanitize(n)}_not_full" for n in schedule.outputs),
            ],
            self._strobe_names,
        )
        return self._drive

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        word = (self._drive or self._bind_driver())(ready)
        if word == self._script_words[self._script_pos]:
            return True
        if word:
            self._diverged(cycle, word, free_run=False)
        return False

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        word = (self._drive or self._bind_driver())(ready)
        if word == 1:
            return True
        if word:
            self._diverged(cycle, word, free_run=True)
        return False

    def _diverged(self, cycle: int, word: int, free_run: bool) -> NoReturn:
        """Raise for a non-zero strobe word the script does not allow:
        pops or pushes without ``ip_enable`` first, then strobes in a
        free-run cycle or strobes other than the due entry's."""
        if not word & 1:
            raise EquivalenceError(
                f"{self.name!r} cycle {cycle}: pop/push strobes "
                "asserted while ip_enable low"
            )
        if free_run:
            raise EquivalenceError(
                f"{self.name!r} cycle {cycle}: strobes asserted "
                "during an expected free-run cycle"
            )
        position = self._script_pos
        entry = self._script[position]
        shift = self._push_shift
        pop_mask = (word >> 1) & ((1 << (shift - 1)) - 1)
        raise EquivalenceError(
            f"{self.name!r} cycle {cycle}: RTL strobes "
            f"(pop={pop_mask:#x}, push={word >> shift:#x}) != expected "
            f"(pop={entry.in_mask:#x}, push={entry.out_mask:#x}) at "
            f"script position {position}"
        )

    # The bound driver survives a restore: it reads its state back
    # from the restored env (see the simulators' ``load_state``).
    def _decision_state(self) -> tuple:
        return self.rtl.save_state()

    def _load_decision(self, state: tuple) -> None:
        self.rtl.load_state(state)


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
