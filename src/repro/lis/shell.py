"""Abstract synchronization shells (wrappers).

A shell turns a :class:`~repro.lis.pearl.Pearl` into a *patient
process*: it owns the pearl's FIFO ports, decides each cycle whether
the pearl clock fires, and performs the port pops/pushes of the sync
point being executed.  Concrete firing policies live in
:mod:`repro.core.wrappers`:

* ``SPWrapper`` / ``FSMWrapper`` — test only the current sync point's
  port subsets (the paper's behaviour and Singh & Theobald's);
* ``CombinationalWrapper`` — Carloni's all-ports condition;
* ``ShiftRegisterWrapper`` — Casu & Macchiarulo's blind static pattern.

All styles execute the same schedule, so they are functionally
equivalent whenever they do not deadlock; they differ in *when* the
pearl clock fires, which is what the throughput benches measure.
"""

from __future__ import annotations

from typing import Any

from .pearl import Pearl, PearlError
from .port import DEFAULT_PORT_DEPTH, InputPort, OutputPort
from .signals import Block, Link


class ShellError(RuntimeError):
    """Raised for wiring mistakes or schedule violations."""


def fifos_ready(inputs, outputs) -> bool:
    """Every input FIFO non-empty and every output FIFO below depth
    (views from :meth:`Shell._readiness`)."""
    for fifo in inputs:
        if not fifo:
            return False
    for fifo, pushed, depth in outputs:
        if len(fifo) + len(pushed) >= depth:
            return False
    return True


class Shell(Block):
    """Base patient-process wrapper around one pearl."""

    style = "abstract"

    def __init__(
        self, pearl: Pearl, port_depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        super().__init__(pearl.name)
        self.pearl = pearl
        self.port_depth = port_depth
        self.in_ports: dict[str, InputPort] = {}
        self.out_ports: dict[str, OutputPort] = {}
        self._point_index = 0
        self._run_left = 0
        self._running_point = 0
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0
        self.trace_enable: list[bool] | None = None
        self._port_cache: list[InputPort | OutputPort] | None = None
        self._point_cache: list[tuple] | None = None
        self._ready_cache: tuple | None = None

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
        self._port_cache = self._point_cache = self._ready_cache = None
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
        self._port_cache = self._point_cache = self._ready_cache = None
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

    def _point_ports(self) -> list[tuple]:
        """Per sync point: ``(inputs, outputs, pops, pushes)`` as
        ``(name, port)`` pairs — the point's port subsets in their
        iteration order (readiness tests and their error messages),
        then the same subsets sorted by name (pop and push order)."""
        table = self._point_cache
        if table is None:
            in_ports, out_ports = self.in_ports, self.out_ports
            table = self._point_cache = [
                (
                    tuple((n, in_ports[n]) for n in point.inputs),
                    tuple((n, out_ports[n]) for n in point.outputs),
                    tuple((n, in_ports[n]) for n in sorted(point.inputs)),
                    tuple((n, out_ports[n]) for n in sorted(point.outputs)),
                )
                for point in self.pearl.schedule.points
            ]
        return table

    def _readiness(self) -> tuple:
        """FIFO views for readiness tests: ``(inputs, outputs, per sync
        point (inputs, outputs))`` with input FIFO deques and output
        ``(fifo, pushed, depth)`` triples.  Tests run at the start of a
        wrapper step, before anything is popped that cycle (ports drop
        their pops at commit), so an input is ready exactly when its
        deque is non-empty."""
        views = self._ready_cache
        if views is None:
            ins = {name: port._fifo for name, port in self.in_ports.items()}
            outs = {
                name: (port._fifo, port._pushed, port.depth)
                for name, port in self.out_ports.items()
            }
            views = self._ready_cache = (
                tuple(ins.values()),
                tuple(outs.values()),
                [
                    (
                        tuple(ins[name] for name in point.inputs),
                        tuple(outs[name] for name in point.outputs),
                    )
                    for point in self.pearl.schedule.points
                ],
            )
        return views

    # -- firing policy (overridden by wrapper styles) -----------------------------

    def _sync_ready(self) -> bool:
        """May the current sync point fire this cycle?"""
        raise NotImplementedError

    def _run_gate_ok(self) -> bool:
        """May a free-run cycle proceed this cycle?  The paper's SP and
        the FSM grant free-run cycles unconditionally; Carloni's
        combinational wrapper keeps testing every port."""
        return True

    # -- two-phase protocol ----------------------------------------------------------

    def produce(self, cycle: int) -> None:
        for port in self._ports():
            port.produce(cycle)

    def consume(self, cycle: int) -> None:
        for port in self._ports():
            port.consume(cycle)
        self._wrapper_step(cycle)

    def commit(self) -> None:
        for port in self._ports():
            port.commit()

    def phase_parts(self):
        cls = type(self)
        if (
            cls.produce is not Shell.produce
            or cls.consume is not Shell.consume
            or cls.commit is not Shell.commit
        ):
            # A subclass replaced a phase wholesale; don't flatten.
            return super().phase_parts()
        ports = self._ports()
        return (
            [port.produce for port in ports],
            [port.consume for port in ports] + [self._wrapper_step],
            [port.commit for port in ports],
        )

    def reset(self) -> None:
        for port in self._ports():
            port.reset()
        self.pearl.on_reset()
        self._point_index = 0
        self._run_left = 0
        self._running_point = 0
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0

    # -- the wrapper step ---------------------------------------------------------------

    def _wrapper_step(self, cycle: int) -> None:
        enabled = False
        if self._run_left > 0:
            if self._run_gate_ok():
                phase = (
                    self.pearl.schedule.points[self._running_point].run
                    - self._run_left
                )
                self.pearl.on_run(self._running_point, phase)
                self._run_left -= 1
                enabled = True
        else:
            if self._sync_ready():
                self._fire_sync()
                enabled = True
        if enabled:
            self.pearl._clocked()
            self.enabled_cycles += 1
        else:
            self.stall_cycles += 1
        if self.trace_enable is not None:
            self.trace_enable.append(enabled)

    def _fire_sync(self) -> None:
        index = self._point_index
        points = self.pearl.schedule.points
        point = points[index]
        _ins, _outs, pops, pushes = self._point_ports()[index]
        popped: dict[str, Any] = {name: port.pop() for name, port in pops}
        pushed = self.pearl.on_sync(index, popped)
        pushed = dict(pushed or {})
        if pushed.keys() != point.outputs:
            raise PearlError(
                f"pearl {self.pearl.name!r} sync {index}: "
                f"produced {sorted(pushed)}, schedule says "
                f"{sorted(point.outputs)}"
            )
        for name, port in pushes:
            port.push(pushed[name])
        self._running_point = index
        self._run_left = point.run
        index += 1
        if index == len(points):
            index = 0
            self.periods_completed += 1
        self._point_index = index

    # -- inspection -----------------------------------------------------------------------

    @property
    def current_point(self) -> int:
        return self._point_index

    @property
    def in_free_run(self) -> bool:
        return self._run_left > 0

    def utilization(self, cycles: int) -> float:
        """Fraction of system cycles in which the pearl clock fired."""
        if cycles <= 0:
            return 0.0
        return self.enabled_cycles / cycles
