"""Cycle-accurate two-phase simulator for the RTL IR.

Semantics (matching synthesizable single-clock RTL):

1. *settle* — evaluate every continuous assignment and ROM read in
   dependency (topological) order so all combinational signals reflect
   current register outputs and primary inputs;
2. *step* — sample every register's next-value/enable/reset expressions
   simultaneously, commit all register updates, then settle again.

The simulator elaborates the hierarchy first: instance ports become
aliases onto parent signals, so the whole design simulates in a single
flat environment.  This mirrors the flattening performed by
:mod:`repro.rtl.netlist`, keeping simulation and the area model
consistent with each other and with the emitted Verilog.

Two interchangeable engines implement these semantics:

* ``"compiled"`` (default) — :mod:`repro.rtl.compile_sim` lowers the
  flattened design to one straight-line Python ``settle``/``edge``
  function pair, elaborated once per :class:`Module` and compiled once
  per kernel text; its ``fifo_driver`` memoizes a wrapper's
  transitions and runs the pair only on a first-seen (state, FIFO
  status bits) pair;
* ``"interp"`` — the reference tree-walking evaluator below, kept as
  the semantic oracle the compiled engine is differentially tested
  against.

``Simulator(design)`` dispatches on the ``engine`` argument (None
means ``DEFAULT_ENGINE``); both engines expose the
identical ``poke``/``peek``/``peek_flat``/``settle``/``step``/``cycle``
surface, plus ``fifo_driver``: one function per clock cycle of a
FIFO-interfaced wrapper, which is how ``RTLShell`` drives either
engine.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .ast import Expr, Signal
from .module import Design, Module, Register, Rom

ENGINES = ("compiled", "interp")

DEFAULT_ENGINE = "compiled"


class SimulationError(RuntimeError):
    """Raised on combinational loops or unresolvable evaluation order."""


def resolve_engine(engine: str | None) -> str:
    """Normalize an engine request (None -> the default)."""
    if engine is None:
        engine = DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown RTL engine {engine!r}; choose from {ENGINES}"
        )
    return engine


class _RenamedEnv(Mapping):
    """Read-only view of the flat environment under a local->flat rename."""

    __slots__ = ("_env", "_rename")

    def __init__(self, env: dict, rename: dict) -> None:
        self._env = env
        self._rename = rename

    def __getitem__(self, key: str) -> int:
        return self._env[self._rename[key]]

    def __iter__(self):
        return iter(self._rename)

    def __len__(self) -> int:
        return len(self._rename)


def _evaluator(
    expr: Expr, local: dict[int, str], env: dict[str, int]
) -> Callable[[], int]:
    """Bind ``expr`` to the flat environment through its local rename map."""
    rename = {signal.name: local[id(signal)] for signal in expr.signals()}
    view = _RenamedEnv(env, rename)
    return lambda: expr.evaluate(view)


class Simulator:
    """Flat two-phase simulator over a :class:`Design` (or bare module).

    Usage::

        sim = Simulator(top_module)
        sim.poke("reset", 1)
        sim.step()               # one rising clock edge
        value = sim.peek("data_out")

    Constructing ``Simulator(...)`` directly dispatches to the engine
    selected by ``engine`` (``"compiled"`` by default); instantiate
    :class:`InterpSimulator` or
    :class:`~repro.rtl.compile_sim.CompiledSimulator` to pin one.
    """

    engine = "abstract"

    def __new__(
        cls, design: Design | Module, engine: str | None = None
    ) -> "Simulator":
        if cls is Simulator:
            if resolve_engine(engine) == "interp":
                cls = InterpSimulator
            else:
                from .compile_sim import CompiledSimulator

                cls = CompiledSimulator
        return object.__new__(cls)


class InterpSimulator(Simulator):
    """Reference tree-walking engine (the semantic oracle)."""

    engine = "interp"

    def __init__(
        self, design: Design | Module, engine: str | None = None
    ) -> None:
        if isinstance(design, Module):
            design = Design(design)
        self._env: dict[str, int] = {}
        self._widths: dict[str, int] = {}
        # (flat target, thunk, flat dependency names)
        self._comb: list[tuple[str, Callable[[], int], frozenset[str]]] = []
        # (flat target, reset thunk|None, reset value, enable thunk|None,
        #  next thunk)
        self._regs: list[
            tuple[
                str,
                Callable[[], int] | None,
                int,
                Callable[[], int] | None,
                Callable[[], int],
            ]
        ] = []
        self._top = design.top
        # name -> flat-name lookup for poke/peek, built once here: the
        # top module's signal names first (they win any collision),
        # then every hierarchical flat name mapping to itself.
        self._name_map: dict[str, str] = {}
        self._flatten(design.top, prefix="", bindings={})
        for flat in self._env:
            self._name_map.setdefault(flat, flat)
        self._order = self._schedule()
        self.cycle = 0
        self.settle()

    # -- elaboration -------------------------------------------------------

    def _flatten(
        self, module: Module, prefix: str, bindings: dict[int, str]
    ) -> None:
        local: dict[int, str] = dict(bindings)
        for signal in module.all_signals():
            if id(signal) in local:
                continue
            flat = prefix + signal.name
            local[id(signal)] = flat
            self._widths[flat] = signal.width
            self._env[flat] = 0
        if prefix == "":
            self._name_map = {
                signal.name: local[id(signal)]
                for signal in module.all_signals()
            }
        for assign in module.assigns:
            deps = frozenset(
                local[id(signal)] for signal in assign.expr.signals()
            )
            self._comb.append(
                (
                    local[id(assign.target)],
                    _evaluator(assign.expr, local, self._env),
                    deps,
                )
            )
        for rom in module.roms:
            deps = frozenset(
                local[id(signal)] for signal in rom.addr.signals()
            )
            addr_fn = _evaluator(rom.addr, local, self._env)
            self._comb.append(
                (
                    local[id(rom.data)],
                    (lambda fn=addr_fn, r=rom: r.read(fn())),
                    deps,
                )
            )
        for register in module.registers:
            reset_fn = (
                _evaluator(register.reset, local, self._env)
                if register.reset is not None
                else None
            )
            enable_fn = (
                _evaluator(register.enable, local, self._env)
                if register.enable is not None
                else None
            )
            self._regs.append(
                (
                    local[id(register.target)],
                    reset_fn,
                    register.reset_value,
                    enable_fn,
                    _evaluator(register.next, local, self._env),
                )
            )
        for instance in module.instances:
            child_bindings = {}
            for name, signal in instance.connections.items():
                port = instance.module.find_port(name)
                child_bindings[id(port.signal)] = local[id(signal)]
            self._flatten(
                instance.module,
                prefix=f"{prefix}{instance.name}.",
                bindings=child_bindings,
            )

    def _schedule(self) -> list[int]:
        """Topological order over combinational items; reject loops."""
        producers: dict[str, int] = {}
        for index, (target, _fn, _deps) in enumerate(self._comb):
            if target in producers:
                raise SimulationError(f"multiple drivers for {target!r}")
            producers[target] = index
        order: list[int] = []
        state = [0] * len(self._comb)  # 0 new, 1 visiting, 2 done

        def visit(i: int) -> None:
            if state[i] == 2:
                return
            if state[i] == 1:
                raise SimulationError(
                    f"combinational loop through {self._comb[i][0]!r}"
                )
            state[i] = 1
            for name in self._comb[i][2]:
                j = producers.get(name)
                if j is not None:
                    visit(j)
            state[i] = 2
            order.append(i)

        for i in range(len(self._comb)):
            visit(i)
        return order

    # -- environment access --------------------------------------------------

    def _flat_name(self, name: str) -> str:
        flat = self._name_map.get(name)
        if flat is None:
            raise KeyError(f"no signal named {name!r} in top module")
        return flat

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input (propagates at the next settle/step)."""
        flat = self._flat_name(name)
        self._env[flat] = value & ((1 << self._widths[flat]) - 1)

    def poke_settle(self, name: str, value: int) -> None:
        """Poke and immediately settle combinational logic."""
        self.poke(name, value)
        self.settle()

    def peek(self, name: str) -> int:
        """Read a top-level signal's settled value."""
        return self._env[self._flat_name(name)]

    def peek_flat(self, flat_name: str) -> int:
        """Read a hierarchical flat name, e.g. ``"sp0.state"``."""
        return self._env[flat_name]

    def flat_names(self) -> list[str]:
        return sorted(self._env)

    def fifo_driver(
        self, inputs: Sequence[str], strobes: Sequence[str]
    ) -> Callable[[int], int]:
        """One function that runs a whole clock cycle and returns the
        strobe word, by name: poke bit ``k`` of its argument into
        ``inputs[k]``, settle, peek ``strobes`` into the word (bit
        ``k`` is ``strobes[k]``), step.  Signature and semantics are
        those of
        :meth:`~repro.rtl.compile_sim.CompiledSimulator.fifo_driver`."""
        poke = self.poke
        peek = self.peek

        def cycle(bits: int) -> int:
            for bit, name in enumerate(inputs):
                poke(name, bits >> bit & 1)
            self.settle()
            word = 0
            for bit, name in enumerate(strobes):
                if peek(name):
                    word |= 1 << bit
            self.step()
            return word

        return cycle

    # -- checkpoints -----------------------------------------------------------

    def save_state(self) -> tuple:
        """The environment and cycle count, for :meth:`load_state`."""
        return dict(self._env), self.cycle

    def load_state(self, state: tuple) -> None:
        """Put back a :meth:`save_state` snapshot, in place (the
        evaluators hold the env)."""
        env, self.cycle = state
        self._env.update(env)

    # -- execution -------------------------------------------------------------

    def settle(self) -> None:
        """Propagate combinational logic (single topological pass)."""
        env = self._env
        for i in self._order:
            target, fn, _deps = self._comb[i]
            env[target] = fn()

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` rising edges."""
        for _ in range(cycles):
            updates: list[tuple[str, int]] = []
            for target, reset_fn, reset_value, enable_fn, next_fn in self._regs:
                if reset_fn is not None and reset_fn():
                    updates.append((target, reset_value))
                    continue
                if enable_fn is not None and not enable_fn():
                    continue
                updates.append((target, next_fn()))
            for target, value in updates:
                self._env[target] = value
            self.cycle += 1
            self.settle()
