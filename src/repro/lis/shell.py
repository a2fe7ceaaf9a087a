"""Synchronization shells (wrappers): one firing protocol, many decisions.

A shell turns a :class:`~repro.lis.pearl.Pearl` into a *patient
process*: it owns the pearl's FIFO ports, decides each cycle whether
the pearl clock fires, and performs the port pops/pushes of the sync
point being executed.

The firing protocol lives once, in :meth:`Shell._wrapper_step`.  A
shell walks a *script* of :class:`ScriptEntry` fires — by default one
per schedule point, or the operations of an SP program — and on every
enabled cycle either fires the next entry (pops, ``pearl.on_sync``,
the output-contract check, pushes, run counter) or grants one
free-run cycle (``pearl.on_run``), then keeps the periods, the
enabled/stall counters and the enable trace.  A wrapper style supplies
only the per-cycle decision, through two hooks called exactly once
per cycle with the cycle number and the *readiness word*:
:meth:`Shell._sync_ready` when the next entry is due and
:meth:`Shell._run_gate_ok` during free-run cycles.  The readiness word
is the paper's FIFO status word: bit *i* is set when schedule input
*i* is not empty and bit *n_in + j* when schedule output *j* is not
full, the order of the RTL wrappers' ``*_not_empty``/``*_not_full``
inputs.  It is taken at the start of the wrapper step, before anything
is popped or pushed that cycle.  A decision reads only that word, the
script position (``_script_pos``) and the style's own state, which is
what lets :class:`repro.verify.lockstep.LockstepShell` hand one word to
two styles' decisions inside one shell.  The styles live in
:mod:`repro.core.wrappers` (and :class:`~repro.core.equivalence.RTLShell`):

* ``SPWrapper`` / ``FSMWrapper`` — test only the current sync point's
  port subsets (the paper's behaviour and Singh & Theobald's);
* ``CombinationalWrapper`` — Carloni's all-ports condition;
* ``ShiftRegisterWrapper`` — Casu & Macchiarulo's blind static pattern.

All styles execute the same schedule, so they are functionally
equivalent whenever they do not deadlock; they differ in *when* the
pearl clock fires, which is what the throughput benches measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .pearl import Pearl, PearlError
from .port import DEFAULT_PORT_DEPTH, InputPort, OutputPort
from .signals import Block, Link, declared

if TYPE_CHECKING:  # avoid runtime repro.core <-> repro.lis import cycle
    from ..core.schedule import IOSchedule


class ShellError(RuntimeError):
    """Raised for wiring mistakes or schedule violations."""


@dataclass(frozen=True)
class ScriptEntry:
    """One expected fire: the port masks it pops/pushes (bit *i* = the
    schedule's *i*-th input/output) and the pearl bookkeeping."""

    kind: str  # "sync" (pop/push + on_sync) or "cont" (one on_run)
    point_index: int
    in_mask: int
    out_mask: int
    run: int  # free-run cycles granted after this fire
    first_phase: int = 0  # on_run phase of a "cont" fire


def script_from_schedule(schedule: "IOSchedule") -> list[ScriptEntry]:
    """One sync entry per schedule point, in cyclic order."""
    return [
        ScriptEntry(
            kind="sync",
            point_index=index,
            in_mask=schedule.input_mask(point),
            out_mask=schedule.output_mask(point),
            run=point.run,
        )
        for index, point in enumerate(schedule.points)
    ]


def _masked(pairs: list[tuple], mask: int) -> tuple:
    """The pairs whose bit is set in ``mask`` (bit *i* = pair *i*)."""
    return tuple(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)


class Shell(Block):
    """Patient-process wrapper around one pearl: the firing protocol.

    Subclasses set ``_script`` in their constructor when they execute
    something other than the schedule's points, and supply the
    per-cycle decision through :meth:`_sync_ready` and
    :meth:`_run_gate_ok`.
    """

    style = "abstract"

    def __init__(
        self, pearl: Pearl, port_depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        super().__init__(pearl.name)
        self.pearl = pearl
        self.port_depth = port_depth
        self.in_ports: dict[str, InputPort] = {}
        self.out_ports: dict[str, OutputPort] = {}
        self._script = script_from_schedule(pearl.schedule)
        # Readiness-word bits below this one are inputs' (see consume).
        self._n_in = len(pearl.schedule.inputs)
        self._script_pos = 0
        self._run_left = 0
        self._running_point = 0
        self._phase_next = 0
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0
        self.trace_enable: list[bool] | None = None
        self._port_cache: list[InputPort | OutputPort] | None = None
        self._bit_cache: list[int] | None = None
        self._fire_cache: list[tuple] | None = None

    # -- wiring ------------------------------------------------------------------

    def bind_input(self, port_name: str, link: Link) -> InputPort:
        if port_name not in self.pearl.inputs:
            raise ShellError(
                f"{self.name!r} has no input port {port_name!r}"
            )
        if port_name in self.in_ports:
            raise ShellError(
                f"input port {port_name!r} of {self.name!r} already bound"
            )
        port = InputPort(
            f"{self.name}.{port_name}", link, self.port_depth
        )
        self.in_ports[port_name] = port
        self._port_cache = self._bit_cache = self._fire_cache = None
        return port

    def bind_output(self, port_name: str, link: Link) -> OutputPort:
        if port_name not in self.pearl.outputs:
            raise ShellError(
                f"{self.name!r} has no output port {port_name!r}"
            )
        if port_name in self.out_ports:
            raise ShellError(
                f"output port {port_name!r} of {self.name!r} already bound"
            )
        port = OutputPort(
            f"{self.name}.{port_name}", link, self.port_depth
        )
        self.out_ports[port_name] = port
        self._port_cache = self._bit_cache = self._fire_cache = None
        return port

    def check_bound(self) -> None:
        missing = [
            name for name in self.pearl.inputs if name not in self.in_ports
        ] + [
            name for name in self.pearl.outputs if name not in self.out_ports
        ]
        if missing:
            raise ShellError(
                f"patient process {self.name!r} has unbound ports: "
                f"{missing}"
            )

    def _ports(self) -> list[InputPort | OutputPort]:
        ports = self._port_cache
        if ports is None:
            ports = self._port_cache = [
                *self.in_ports.values(),
                *self.out_ports.values(),
            ]
        return ports

    def _port_bits(self) -> list[int]:
        """Each port's readiness-word bit, in :meth:`_ports` order."""
        bits = self._bit_cache
        if bits is None:
            schedule = self.pearl.schedule
            bits = self._bit_cache = [
                *(schedule.inputs.index(name) for name in self.in_ports),
                *(
                    self._n_in + schedule.outputs.index(name)
                    for name in self.out_ports
                ),
            ]
        return bits

    def _fires(self) -> list[tuple]:
        """Per script entry, resolved against the bound ports (which
        bind after construction): ``(sync, point index, pops, pushes,
        outputs the pearl must push, run, phase after the fire)``, pops
        and pushes as ``(name, port)`` pairs in schedule order."""
        table = self._fire_cache
        if table is None:
            schedule = self.pearl.schedule
            ins = [(n, self.in_ports[n]) for n in schedule.inputs]
            outs = [(n, self.out_ports[n]) for n in schedule.outputs]
            table = self._fire_cache = []
            for entry in self._script:
                sync = entry.kind == "sync"
                pushes = _masked(outs, entry.out_mask)
                table.append((
                    sync,
                    entry.point_index,
                    _masked(ins, entry.in_mask),
                    pushes,
                    frozenset(name for name, _port in pushes),
                    entry.run,
                    0 if sync else entry.first_phase + 1,
                ))
        return table

    # -- the style's decision (overridden by wrapper styles) ------------------

    def _sync_ready(self, cycle: int, ready: int) -> bool:
        """May the next script entry fire this cycle, given the
        readiness word ``ready``?"""
        raise NotImplementedError

    def _run_gate_ok(self, cycle: int, ready: int) -> bool:
        """May a free-run cycle proceed this cycle?  The paper's SP and
        the FSM grant free-run cycles unconditionally; Carloni's
        combinational wrapper keeps testing every port."""
        return True

    # -- two-phase protocol ----------------------------------------------------------

    def produce(self, cycle: int) -> None:
        for port in self._ports():
            port.produce(cycle)

    def consume(self, cycle: int) -> None:
        # A port's consume touches neither its FIFO nor its pops and
        # pushes, so the word is the one the step starts with.
        ports = self._port_cache or self._ports()
        bits = self._bit_cache or self._port_bits()
        inputs = self._n_in
        ready = 0
        for port, bit in zip(ports, bits):
            port.consume(cycle)
            if port.not_empty if bit < inputs else port.not_full:
                ready |= 1 << bit
        self._wrapper_step(cycle, ready)

    def commit(self) -> None:
        for port in self._ports():
            port.commit()

    # -- checkpoints (repro.lis.signals.checkpointed subclasses) -------------

    def save_state(self) -> tuple:
        trace = self.trace_enable
        return (
            tuple(declared(port).save_state() for port in self._ports()),
            declared(self.pearl).save_state(),
            self._script_pos,
            self._run_left,
            self._running_point,
            self._phase_next,
            self.enabled_cycles,
            self.stall_cycles,
            self.periods_completed,
            None if trace is None else tuple(trace),
            self._decision_state(),
        )

    def load_state(self, state: tuple) -> None:
        (
            ports,
            pearl,
            self._script_pos,
            self._run_left,
            self._running_point,
            self._phase_next,
            self.enabled_cycles,
            self.stall_cycles,
            self.periods_completed,
            trace,
            decision,
        ) = state
        for port, saved in zip(self._ports(), ports):
            port.load_state(saved)
        self.pearl.load_state(pearl)
        if trace is None:
            self.trace_enable = None
        elif self.trace_enable is None:
            self.trace_enable = list(trace)
        else:
            self.trace_enable[:] = trace
        self._load_decision(decision)

    def _decision_state(self):
        """The style's own decision state (None: the style keeps
        none beyond the ports and the script position)."""
        return None

    def _load_decision(self, state) -> None:
        """Put back what :meth:`_decision_state` returned."""

    # -- the wrapper step ---------------------------------------------------------------

    def _wrapper_step(self, cycle: int, ready: int) -> None:
        pearl = self.pearl
        if self._run_left:
            enabled = self._run_gate_ok(cycle, ready)
            if enabled:
                pearl.on_run(self._running_point, self._phase_next)
                self._phase_next += 1
                self._run_left -= 1
        else:
            enabled = self._sync_ready(cycle, ready)
            if enabled:
                fires = self._fire_cache or self._fires()
                position = self._script_pos
                sync, point, pops, pushes, expected, run, phase = fires[
                    position
                ]
                if sync:
                    popped = {name: port.pop() for name, port in pops}
                    pushed = dict(pearl.on_sync(point, popped) or {})
                    if pushed.keys() != expected:
                        raise PearlError(
                            f"pearl {pearl.name!r} cycle {cycle}: sync "
                            f"point {point} produced {sorted(pushed)}, "
                            f"schedule says {sorted(expected)}"
                        )
                    for name, port in pushes:
                        port.push(pushed[name])
                else:
                    # A continuation fire is the free-run phase just
                    # before ``phase``.
                    pearl.on_run(point, phase - 1)
                self._running_point = point
                self._phase_next = phase
                self._run_left = run
                position += 1
                if position == len(fires):
                    position = 0
                    self.periods_completed += 1
                self._script_pos = position
        if enabled:
            pearl._clocked()
            self.enabled_cycles += 1
        else:
            self.stall_cycles += 1
        if self.trace_enable is not None:
            self.trace_enable.append(enabled)

    # -- inspection -----------------------------------------------------------------------

    def utilization(self, cycles: int) -> float:
        """Fraction of system cycles in which the pearl clock fired."""
        if cycles <= 0:
            return 0.0
        return self.enabled_cycles / cycles
