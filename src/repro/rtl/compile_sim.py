"""Compiled RTL simulation engine: lower the IR to flat Python.

The interpreter in :mod:`repro.rtl.simulator` walks every expression
tree per cycle through rename-map dict views.  This backend instead
*schedules once and executes straight-line*: a :class:`Design` is
elaborated one time and emitted as Python source for one flat
``settle`` function and one registers-only ``edge`` function, which are
``exec``'d and then called per cycle with a plain list environment.

Lowering pipeline (:func:`compile_design`):

1. **flatten** — walk the hierarchy exactly like the interpreter,
   assigning every distinct flat signal a *slot* (a list index);
   instance ports alias parent slots;
2. **schedule** — topologically order combinational items (continuous
   assigns and ROM reads) over slot dependencies, rejecting multiple
   drivers and combinational loops with the interpreter's
   :class:`~repro.rtl.simulator.SimulationError`;
3. **lower** — translate each expression to an inline Python source
   fragment over ``e[slot]`` reads, with width masking folded into the
   fragment (every *stored* value is already masked, so reads need no
   masks), constants folded bottom-up, and constant-valued nets
   propagated into their readers;
4. **emit** — register sampling and commits are unrolled into a
   registers-only ``edge`` body (sample all, commit all), ROMs become
   padded tuple lookups, and the emitter lists the slots each of the
   two functions writes.  The pair is emitted inside a factory whose
   parameters are the kernel's literal values and ROM images (see
   "Compile cache" below).

The one invariant: the env is current — it holds what the
interpreter's would — unless a driver's ``materialize`` is pending.
:meth:`CompiledSimulator.step` runs ``edge`` then ``settle``, as the
interpreter's step does, and every entry point that reads or writes
the env (``peek``, ``peek_flat``, ``poke``, ``settle``, ``step``,
another driver) runs a pending ``materialize`` first.

Bound per-cycle drivers: :meth:`CompiledSimulator.fifo_driver` hands a
FIFO-interfaced wrapper driver (``RTLShell``) one function that runs a
whole cycle — write the status inputs from the bits it is called
with, settle, pack the strobe outputs into one word, clock the edge —
and leaves the cycle counter and every observation exactly as
``settle()`` then ``step()`` would.  ``RTLShell`` calls it with its
readiness word, whose bits are the wrapper's ``*_not_empty`` then
``*_not_full`` inputs.  Its code is generated once per *slot layout*
and cached in a small LRU; the env and the kernel functions are bound
per call.  The interpreter's
:meth:`~repro.rtl.simulator.InterpSimulator.fifo_driver` has the same
signature and semantics, run by name through ``poke``/``peek``, and
stays the unmemoized reference.

Memoized transitions: a bound driver looks its input bits up in a
table of its own, ``(state id, input bits) -> (strobe word, next state
id)``; only a missing transition loads the state into the env and
runs ``settle`` and ``edge``.  The state is the tuple of every slot
``settle`` does not write and the driver does not drive: all registers
(inert ones too), top-level inputs such as ``rst`` and undriven wires.
``settle`` writes every combinational slot (constant-folded ones too)
in dependency order, so it reads only state slots, driven inputs and
slots it has already written; ``edge`` writes only registers.  A
cycle's strobe word and next state are therefore a pure function of
(state, input bits), and the table is exact.  States are kept as ids
into a per-table list (shift-register rings are wide ints; no env is
stored per state).  One table is built per binding, so per
``RTLShell`` run, and dies with its simulator: no cap, no eviction.
On a hit the env is not touched; the driver leaves a pending
``materialize``, which writes the current state and the last cycle's
input bits back and settles once, so every view equals the
interpreter's, and the next driver call takes its state from the env
again.

Compile cache, two levels.  The full per-module plan (kernels plus
name/slot/mask tables) is memoized by module identity, so re-simulating
the same :class:`Module` object — e.g. a wrapper module shared by
equal schedules — skips elaboration entirely.  The memo entry carries
an identity snapshot of the hierarchy's structural elements, so a
module mutated after compilation is transparently re-elaborated
instead of served stale.  Below it, the emitter writes no literal value
into the kernel source: every integer that may differ between modules
(constants, masks, shift amounts, register reset values, ROM lengths)
becomes a placeholder parameter, and ROM images are parameters too.
Modules that differ only in such values — shift-register rings and
prefixes, SP operation memories — therefore emit one text, which is
compiled once per process in a bounded LRU (:data:`KERNEL_CACHE_MAX`)
and bound to each plan's own values.  The kernels run only at
construction and on transition-table misses, so binding costs nothing
per cycle.
"""

from __future__ import annotations

import itertools
import time
import weakref
from collections import OrderedDict
from typing import Callable, Sequence

from .ast import (
    BinOp,
    BitSelect,
    Concat,
    Const,
    Expr,
    Signal,
    Slice,
    Ternary,
    UnaryOp,
)
from .module import Design, Module, Register, Rom
from .simulator import SimulationError, Simulator

#: Cap on cached per-cycle driver factories (one per slot layout, see
#: :meth:`CompiledSimulator.fifo_driver`).
DRIVER_CACHE_MAX = 32

#: ROMs whose address is at most this wide are padded to the full
#: address space so the generated read is a bare tuple index.
_ROM_PAD_LIMIT = 16


def _mask(width: int) -> int:
    return (1 << width) - 1


# -- expression lowering -------------------------------------------------------
#
# ``_lower`` returns either ("c", value) for a compile-time constant
# (already masked to the node's width) or ("s", source) for a Python
# fragment that yields a masked int.  Fragments are parenthesized, so
# composition never needs precedence analysis.  A fragment never spells
# out a value that varies between kernels (constants, masks, shift
# amounts): it asks ``lit`` for a placeholder name bound to the value
# (see :class:`_Literals`), so kernels that differ only in such values
# share one source text.


class _Literals:
    """The integer literals of one kernel source, bound as data.
    Calling the instance with a value returns a fresh placeholder name
    (``c0``, ``c1``, ...) for the source and records the value under
    it, in order."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[int] = []

    def __call__(self, value: int) -> str:
        self.values.append(int(value))
        return f"c{len(self.values) - 1}"

    def text(self, part: tuple[str, int | str]) -> str:
        """A lowered part as source: a fragment as is, a constant as a
        placeholder."""
        kind, value = part
        return self(value) if kind == "c" else value


def _const_eval(expr: Expr, parts: list[tuple[str, int | str]]) -> int:
    """Fold a node whose children all lowered to constants by
    rebuilding it over ``Const`` leaves and running the interpreter's
    own ``evaluate`` — constant folding is exact by construction."""
    consts = [
        Const(int(value), child.width)
        for child, (_kind, value) in zip(expr.children(), parts)
    ]
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, consts[0]).evaluate({})
    if isinstance(expr, BinOp):
        return BinOp(expr.op, consts[0], consts[1]).evaluate({})
    if isinstance(expr, Ternary):
        return Ternary(consts[0], consts[1], consts[2]).evaluate({})
    if isinstance(expr, BitSelect):
        return BitSelect(consts[0], expr.index).evaluate({})
    if isinstance(expr, Slice):
        return Slice(consts[0], expr.msb, expr.lsb).evaluate({})
    if isinstance(expr, Concat):
        return Concat(consts).evaluate({})
    raise TypeError(f"cannot fold {type(expr).__name__}")


def _lower(
    expr: Expr,
    local: dict[int, int],
    const_slots: dict[int, int],
    lit: _Literals,
) -> tuple[str, int | str]:
    if isinstance(expr, Signal):
        slot = local[id(expr)]
        if slot in const_slots:
            return ("c", const_slots[slot])
        return ("s", f"e[{slot}]")
    if isinstance(expr, Const):
        return ("c", expr.value)

    parts = [
        _lower(child, local, const_slots, lit) for child in expr.children()
    ]
    if all(kind == "c" for kind, _ in parts):
        return ("c", _const_eval(expr, parts))

    if isinstance(expr, UnaryOp):
        (_, x) = parts[0]
        n = expr.operand.width
        if expr.op == "~":
            return ("s", f"(~{x} & {lit(_mask(n))})")
        if expr.op == "&":
            return ("s", f"+({x} == {lit(_mask(n))})")
        if expr.op == "|":
            return ("s", f"+({x} != 0)")
        return ("s", f"(({x}).bit_count() & 1)")  # ^ reduction

    if isinstance(expr, BinOp):
        return _lower_binop(expr, parts, lit)

    if isinstance(expr, Ternary):
        ckind, cond = parts[0]
        if ckind == "c":
            return parts[1] if cond else parts[2]
        return (
            "s",
            f"({lit.text(parts[1])} if {cond} else {lit.text(parts[2])})",
        )

    if isinstance(expr, BitSelect):
        (_, x) = parts[0]
        if expr.index == 0:
            return ("s", f"({x} & 1)")
        return ("s", f"({x} >> {lit(expr.index)} & 1)")

    if isinstance(expr, Slice):
        (_, x) = parts[0]
        if expr.lsb == 0:
            return ("s", f"({x} & {lit(_mask(expr.width))})")
        return (
            "s",
            f"({x} >> {lit(expr.lsb)} & {lit(_mask(expr.width))})",
        )

    if isinstance(expr, Concat):
        return _lower_concat(expr, parts, lit)

    raise TypeError(f"cannot lower {type(expr).__name__}")


def _lower_binop(
    expr: BinOp, parts: list[tuple[str, int | str]], lit: _Literals
) -> tuple[str, int | str]:
    op = expr.op
    (lk, a), (rk, b) = parts
    m = _mask(expr.width)
    # Width-safe identity folds (bitwise operands share one width; a
    # zero add/sub/shift never changes the already-masked value).
    if op in ("&", "|", "^"):
        if lk == "c" or rk == "c":
            c, other = (a, parts[1]) if lk == "c" else (b, parts[0])
            if op == "&" and c == m:
                return other
            if op == "&" and c == 0:
                return ("c", 0)
            if op in ("|", "^") and c == 0:
                return other
            if op == "|" and c == m:
                return ("c", m)
    elif op in ("+", "-"):
        if rk == "c" and b == 0:
            return parts[0]
        if op == "+" and lk == "c" and a == 0:
            return parts[1]
    elif op in ("<<", ">>") and rk == "c":
        if b == 0:
            return parts[0]
        if b >= (expr.width if op == "<<" else expr.left.width):
            return ("c", 0)
    x, y = lit.text(parts[0]), lit.text(parts[1])
    if op in ("&", "|", "^"):
        return ("s", f"({x} {op} {y})")
    if op in ("+", "-", "<<"):
        return ("s", f"(({x} {op} {y}) & {lit(m)})")
    if op == ">>":
        return ("s", f"({x} >> {y})")
    # Comparison: unary plus coerces the bool to a stored int.
    return ("s", f"+({x} {op} {y})")


def _lower_concat(
    expr: Concat, parts: list[tuple[str, int | str]], lit: _Literals
) -> tuple[str, int | str]:
    terms: list[str] = []
    const_acc = 0
    shift = expr.width
    for child, (kind, value) in zip(expr.parts, parts):
        shift -= child.width
        if kind == "c":
            const_acc |= int(value) << shift
        elif shift == 0:
            terms.append(str(value))
        else:
            terms.append(f"({value} << {lit(shift)})")
    if const_acc:
        terms.append(lit(const_acc))
    if not terms:
        return ("c", 0)
    if len(terms) == 1:
        return ("s", terms[0])
    return ("s", f"({' | '.join(terms)})")


# -- elaboration ---------------------------------------------------------------


class _CombItem:
    """One combinational evaluation: a continuous assign or ROM read."""

    __slots__ = ("target", "expr", "rom", "local", "deps")

    def __init__(
        self,
        target: int,
        expr: Expr,
        rom: Rom | None,
        local: dict[int, int],
    ) -> None:
        self.target = target
        self.expr = expr
        self.rom = rom
        self.local = local
        self.deps = frozenset(
            local[id(signal)] for signal in expr.signals()
        )


class _RegItem:
    """One register with its slot-level rename map."""

    __slots__ = ("target", "reg", "local")

    def __init__(
        self, target: int, reg: Register, local: dict[int, int]
    ) -> None:
        self.target = target
        self.reg = reg
        self.local = local


class _Elaboration:
    """Flat slot-level view of a design (step 1 of the pipeline)."""

    def __init__(self, design: Design) -> None:
        self.names: list[str] = []
        self.widths: list[int] = []
        self.comb: list[_CombItem] = []
        self.regs: list[_RegItem] = []
        self.top_slots = 0
        self._flatten(design.top, prefix="", bindings={})

    def _new_slot(self, name: str, width: int) -> int:
        slot = len(self.names)
        self.names.append(name)
        self.widths.append(width)
        return slot

    def _flatten(
        self, module: Module, prefix: str, bindings: dict[int, int]
    ) -> None:
        local = dict(bindings)
        for signal in module.all_signals():
            if id(signal) in local:
                continue
            local[id(signal)] = self._new_slot(
                prefix + signal.name, signal.width
            )
        if prefix == "":
            self.top_slots = len(self.names)
        for assign in module.assigns:
            self.comb.append(
                _CombItem(
                    local[id(assign.target)], assign.expr, None, local
                )
            )
        for rom in module.roms:
            self.comb.append(
                _CombItem(local[id(rom.data)], rom.addr, rom, local)
            )
        for register in module.registers:
            self.regs.append(
                _RegItem(local[id(register.target)], register, local)
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

    def schedule(self) -> list[int]:
        """Topological order over ``self.comb``; mirrors the
        interpreter's driver/loop diagnostics."""
        producers: dict[int, int] = {}
        for index, item in enumerate(self.comb):
            if item.target in producers:
                raise SimulationError(
                    f"multiple drivers for {self.names[item.target]!r}"
                )
            producers[item.target] = index
        order: list[int] = []
        state = [0] * len(self.comb)  # 0 new, 1 visiting, 2 done

        def visit(i: int) -> None:
            if state[i] == 2:
                return
            if state[i] == 1:
                raise SimulationError(
                    "combinational loop through "
                    f"{self.names[self.comb[i].target]!r}"
                )
            state[i] = 1
            for slot in self.comb[i].deps:
                j = producers.get(slot)
                if j is not None:
                    visit(j)
            state[i] = 2
            order.append(i)

        for i in range(len(self.comb)):
            visit(i)
        return order


# -- code emission -------------------------------------------------------------

_CODE_IDS = itertools.count(1)


def _code_filename(kind: str) -> str:
    """A filename unique to one compiled code object, ``<compiled-rtl#17>``
    or ``<compiled-rtl-driver#18>``: profilers key their entries by
    (filename, line, function), so generated functions that share a
    label would be merged into one entry."""
    return f"<compiled-{kind}#{next(_CODE_IDS)}>"


# Module -> (structure snapshot, plan).  The snapshot invalidates the
# memo when any module in the hierarchy is mutated after it was first
# compiled — whether through the builder methods or by touching the
# public lists directly — because the interpreter re-elaborates every
# construction and the compiled engine must notice too.  Holding the
# snapshotted items alive makes the identity comparison sound (a
# replaced item can never alias a snapshotted one).
_PLAN_MEMO: "weakref.WeakKeyDictionary[Module, tuple[tuple, _Plan]]" = (
    weakref.WeakKeyDictionary()
)


def _structure(design: Design) -> tuple:
    """Identity snapshot of every structural element per module.
    Unmutated designs compare equal at pointer speed (tuple comparison
    short-circuits on element identity)."""
    return tuple(
        (
            module,
            tuple(module.ports),
            tuple(module.wires),
            tuple(module.assigns),
            tuple(module.registers),
            tuple(module.roms),
            tuple(module.instances),
        )
        for module in design.modules()
    )


# Engine counters, process-local like the caches they describe.
# ``plans`` counts plans elaborated (plan-memo misses), ``misses`` the
# kernel sources compiled for them (kernel-cache misses) and
# ``compile_ms`` the wall-clock milliseconds spent exec-compiling those;
# ``hits`` counts the consults that compiled nothing (plans reused from
# the memo, and elaborated plans whose kernel text was cached), so
# ``hits + misses`` is every plan consult.  ``tables`` counts per-cycle
# driver bindings (each builds one transition table) and
# ``transitions`` the kernel runs on a table miss.
_ENGINE_STATS: dict[str, float] = {}


def reset_cache_stats() -> None:
    """Zero every engine counter (the caches themselves are kept)."""
    _ENGINE_STATS.update(
        hits=0, misses=0, compile_ms=0.0, plans=0, transitions=0,
        tables=0,
    )


reset_cache_stats()


def cache_stats() -> dict[str, float]:
    """Snapshot of the engine counters: ``hits``, ``misses``,
    ``compile_ms``, ``plans``, ``transitions``, ``tables``.  Counters are
    cumulative per process; pair with :func:`reset_cache_stats` (or
    diff two snapshots) to scope a measurement."""
    return dict(_ENGINE_STATS)


def _emit_comb_line(
    item: _CombItem,
    const_slots: dict[int, int],
    rom_tables: list[tuple[int, ...]],
    lit: _Literals,
) -> str:
    if item.rom is None:
        kind, value = _lower(item.expr, item.local, const_slots, lit)
        if kind == "c":
            const_slots[item.target] = int(value)
            value = lit(value)
        return f"e[{item.target}] = {value}"
    rom = item.rom
    akind, addr = _lower(item.expr, item.local, const_slots, lit)
    if akind == "c":
        value = rom.read(int(addr))
        const_slots[item.target] = value
        return f"e[{item.target}] = {lit(value)}"
    index = len(rom_tables)
    if rom.addr.width <= _ROM_PAD_LIMIT:
        # Pad to the full address space: the address slot is already
        # masked, so the lookup can never go out of range, and reads
        # past the image return 0 exactly like ``Rom.read``.
        span = 1 << rom.addr.width
        rom_tables.append(
            rom.contents + (0,) * (span - len(rom.contents))
        )
        return f"e[{item.target}] = _rom{index}[{addr}]"
    rom_tables.append(rom.contents)
    return (
        f"e[{item.target}] = _rom{index}[_a] "
        f"if (_a := {addr}) < {lit(len(rom.contents))} else 0"
    )


def _emit_reg_lines(
    regs: list[_RegItem], const_slots: dict[int, int], lit: _Literals
) -> tuple[list[str], list[int]]:
    """Sample-then-commit lines reproducing the interpreter's register
    semantics (reset wins, a deasserted enable holds, else load), and
    the slots they commit."""
    samples: list[str] = []
    commits: list[str] = []
    clocked: list[int] = []
    for item in regs:
        reg = item.reg
        target = item.target
        reset = (
            _lower(reg.reset, item.local, const_slots, lit)
            if reg.reset is not None
            else None
        )
        enable = (
            _lower(reg.enable, item.local, const_slots, lit)
            if reg.enable is not None
            else None
        )
        if reset is not None and reset[0] == "c" and not reset[1]:
            reset = None  # reset tied low: never fires
        if enable is not None and enable[0] == "c":
            if enable[1]:
                enable = None  # enable tied high: plain load
            elif reset is None:
                continue  # enable tied low, no reset: inert register
        if reset is not None and reset[0] == "c":
            sample = lit(reg.reset_value)  # tied high: unconditional
        else:
            if enable is not None and enable[0] == "c":
                sample = f"e[{target}]"  # tied low; only reset acts
            else:
                sample = lit.text(
                    _lower(reg.next, item.local, const_slots, lit)
                )
                if enable is not None:
                    sample = (
                        f"({sample} if {enable[1]} else e[{target}])"
                    )
            if reset is not None:
                sample = (
                    f"({lit(reg.reset_value)} if {reset[1]} else {sample})"
                )
        name = f"t{len(samples)}"
        samples.append(f"{name} = {sample}")
        commits.append(f"e[{target}] = {name}")
        clocked.append(target)
    return samples + commits, clocked


def _emit(
    elab: _Elaboration,
) -> tuple[str, list[int], list[tuple[int, ...]], list[int], list[int]]:
    """Lower a scheduled elaboration to (kernel source, its literal
    values, ROM images, slots ``settle`` writes, slots ``edge``
    writes).  The source defines ``_kernels(c0, ..., _rom0, ...)``,
    which returns the ``(settle, edge)`` pair bound to the values it
    is called with."""
    const_slots: dict[int, int] = {}
    rom_tables: list[tuple[int, ...]] = []
    lit = _Literals()
    items = [elab.comb[i] for i in elab.schedule()]
    settle_lines = [
        _emit_comb_line(item, const_slots, rom_tables, lit)
        for item in items
    ]
    reg_lines, clocked = _emit_reg_lines(elab.regs, const_slots, lit)

    def body(lines: list[str], indent: str) -> str:
        if not lines:
            return f"{indent}pass"
        return "\n".join(indent + line for line in lines)

    params = [
        *(f"c{k}" for k in range(len(lit.values))),
        *(f"_rom{k}" for k in range(len(rom_tables))),
    ]
    source = "\n".join(
        [
            f"def _kernels({', '.join(params)}):",
            "    def _settle(e):",
            body(settle_lines, "        "),
            "",
            "    def _edge(e):",
            body(reg_lines, "        "),
            "",
            "    return _settle, _edge",
            "",
        ]
    )
    return (
        source, lit.values, rom_tables, [item.target for item in items],
        clocked,
    )


#: Cap on cached kernel factories (one per distinct kernel source,
#: see :class:`_Plan`); beyond it the least recently used is evicted.
KERNEL_CACHE_MAX = 64

_KERNEL_CACHE: OrderedDict[str, Callable] = OrderedDict()


class _Plan:
    """Everything a :class:`CompiledSimulator` needs for one module:
    the ``settle``/``edge`` kernel pair, ``free`` (ascending,
    every slot ``settle`` does not write), ``clocked`` (the slots
    ``edge`` writes: the live registers), the name -> slot table and
    the per-slot width masks.

    The kernel source carries no literal value, so modules that differ
    only in constants, masks, ROM images or register reset values
    (shift-register rings, SP operation memories) emit one text.  It is
    compiled once per process (:data:`KERNEL_CACHE_MAX` texts kept),
    and each plan calls the cached factory with its own literals and
    ROM images."""

    __slots__ = ("settle", "edge", "free", "clocked", "name_slot", "masks")

    def __init__(self, elab: _Elaboration) -> None:
        source, literals, rom_tables, settled, clocked = _emit(elab)
        kernels = _KERNEL_CACHE.get(source)
        if kernels is None:
            _ENGINE_STATS["misses"] += 1
            started = time.perf_counter()
            namespace: dict = {}
            exec(compile(source, _code_filename("rtl"), "exec"), namespace)
            _ENGINE_STATS["compile_ms"] += (
                time.perf_counter() - started
            ) * 1e3
            kernels = _KERNEL_CACHE[source] = namespace["_kernels"]
            if len(_KERNEL_CACHE) > KERNEL_CACHE_MAX:
                _KERNEL_CACHE.popitem(last=False)
        else:
            _ENGINE_STATS["hits"] += 1
            _KERNEL_CACHE.move_to_end(source)
        self.settle, self.edge = kernels(*literals, *rom_tables)
        written = set(settled)
        self.free = tuple(
            slot for slot in range(len(elab.names)) if slot not in written
        )
        self.clocked = frozenset(clocked)
        self.name_slot: dict[str, int] = {}
        for slot, name in enumerate(elab.names):
            self.name_slot.setdefault(name, slot)
        self.masks = [_mask(width) for width in elab.widths]


def compile_design(design: Design | Module) -> _Plan:
    """Elaborate + lower + compile one design, memoized per module."""
    if isinstance(design, Module):
        design = Design(design)
    structure = _structure(design)
    memoized = _PLAN_MEMO.get(design.top)
    if memoized is not None and memoized[0] == structure:
        _ENGINE_STATS["hits"] += 1
        return memoized[1]
    _ENGINE_STATS["plans"] += 1
    plan = _Plan(_Elaboration(design))
    _PLAN_MEMO[design.top] = (structure, plan)
    return plan


# -- bound per-cycle drivers ---------------------------------------------------

_DRIVER_CACHE: OrderedDict[tuple, Callable] = OrderedDict()


def _driver_factory(layout: tuple) -> Callable:
    """The ``bind(sim, env, settle, edge, keys, stats)`` factory for one
    slot layout ``(input slots, strobe slots)``, generated and compiled
    on first use.

    ``bind`` builds one transition table and returns the per-cycle
    function ``cycle(bits)``: bit *k* of ``bits`` is the value of the
    *k*-th input.  The table maps ``(state id, input bits)`` to
    ``(strobe word, next state id)``; a state is the tuple of the
    ``keys`` slots and its id indexes ``states``.  Only a missing
    transition runs the kernels, loading the state first unless the env
    still holds it (``held``: hits never touch the env).
    ``materialize`` writes the current state and the last cycle's input
    bits back into the env and settles it; while it is ``sim._pending``
    the env is stale, and any other value there means the env is
    current, so the next cycle takes its state from the env."""
    factory = _DRIVER_CACHE.get(layout)
    if factory is not None:
        _DRIVER_CACHE.move_to_end(layout)
        return factory
    inputs, strobes = layout
    puts = [
        f"        env[{slot}] = inputs >> {bit} & 1"
        if bit else f"        env[{slot}] = inputs & 1"
        for bit, slot in enumerate(inputs)
    ]
    word = " | ".join(
        f"env[{slot}] << {bit}" if bit else f"env[{slot}]"
        for bit, slot in enumerate(strobes)
    )
    key = f"sid << {len(inputs)} | bits"
    source = "\n".join(
        [
            "def bind(sim, env, settle, edge, keys, stats):",
            "    table = {}",
            "    states = []",
            "    ids = {}",
            "    sid = bits = held = 0",
            "    stats['tables'] += 1",
            "",
            "    def intern():",
            "        state = tuple([env[slot] for slot in keys])",
            "        found = ids.get(state)",
            "        if found is None:",
            "            found = ids[state] = len(states)",
            "            states.append(state)",
            "        return found",
            "",
            "    def load(state):",
            "        for slot, value in zip(keys, states[state]):",
            "            env[slot] = value",
            "",
            "    def put(inputs):",
            *(puts or ["        pass"]),
            "",
            "    def materialize():",
            "        sim._pending = None",
            "        put(bits)",
            "        load(sid)",
            "        settle(env)",
            "",
            "    def cycle(ready):",
            "        nonlocal sid, bits, held",
            "        if sim._pending is not materialize:",
            "            if sim._pending is not None:",
            "                sim._pending()",
            "            sid = held = intern()",
            "            sim._pending = materialize",
            "        bits = ready",
            f"        hit = table.get({key})",
            "        if hit is None:",
            "            if held != sid:",
            "                load(sid)",
            "            put(bits)",
            "            settle(env)",
            f"            word = {word or 0}",
            "            edge(env)",
            "            held = intern()",
            f"            hit = table[{key}] = (word, held)",
            "            stats['transitions'] += 1",
            "        word, sid = hit",
            "        sim.cycle += 1",
            "        return word",
            "",
            "    return cycle",
            "",
        ]
    )
    namespace: dict = {}
    exec(compile(source, _code_filename("rtl-driver"), "exec"), namespace)
    factory = _DRIVER_CACHE[layout] = namespace["bind"]
    if len(_DRIVER_CACHE) > DRIVER_CACHE_MAX:
        _DRIVER_CACHE.popitem(last=False)
    return factory


# -- the engine ----------------------------------------------------------------


class CompiledSimulator(Simulator):
    """Drop-in :class:`~repro.rtl.simulator.Simulator` running exec'd
    straight-line kernels over a slot-list environment.

    The env is current unless a bound driver's ``materialize`` is
    pending; every entry point runs it first (see the module
    docstring), so the view always equals the interpreter's.
    """

    engine = "compiled"

    def __init__(
        self, design: Design | Module, engine: str | None = None
    ) -> None:
        self._plan = compile_design(design)
        self._env: list[int] = [0] * len(self._plan.masks)
        # A bound driver's ``materialize`` while its memoized cycles
        # have left the env stale (see :meth:`fifo_driver`).
        self._pending: Callable[[], None] | None = None
        self.cycle = 0
        self.settle()

    # -- environment access ----------------------------------------------------

    def slot(self, name: str) -> int:
        """The env slot of a top-level signal."""
        slot = self._plan.name_slot.get(name)
        if slot is None:
            raise KeyError(f"no signal named {name!r} in top module")
        return slot

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input (propagates at the next settle/step)."""
        slot = self.slot(name)
        if self._pending is not None:
            self._pending()
        self._env[slot] = value & self._plan.masks[slot]

    def poke_settle(self, name: str, value: int) -> None:
        """Poke and immediately settle combinational logic."""
        self.poke(name, value)
        self.settle()

    def peek(self, name: str) -> int:
        """Read a top-level signal's settled value."""
        slot = self.slot(name)
        if self._pending is not None:
            self._pending()
        return self._env[slot]

    def peek_flat(self, flat_name: str) -> int:
        """Read a hierarchical flat name, e.g. ``"sp0.state"``."""
        slot = self._plan.name_slot[flat_name]
        if self._pending is not None:
            self._pending()
        return self._env[slot]

    def flat_names(self) -> list[str]:
        return sorted(self._plan.name_slot)

    # -- bound per-cycle driving -----------------------------------------------

    def fifo_driver(
        self, inputs: Sequence[str], strobes: Sequence[str]
    ) -> Callable[[int], int]:
        """One function that runs a whole clock cycle of a
        FIFO-interfaced wrapper and returns its strobe word.

        The function takes the wrapper's status bits as one int: bit
        ``k`` is the value of the 1-bit input ``inputs[k]`` (for
        ``RTLShell``, the ``*_not_empty`` then ``*_not_full`` inputs,
        which is its readiness word).  Each call writes those inputs,
        settles, packs the 1-bit top-level outputs ``strobes`` into one
        int (bit ``k`` is ``strobes[k]``), clocks one edge and returns
        the word, leaving :attr:`cycle` and every observation as
        :meth:`settle` then :meth:`step` would.  The function stays
        bound to this simulator.

        The function memoizes the wrapper's transitions in a table of
        its own (see the module docstring): the kernels run only on a
        first-seen (state, input bits) pair, and the env is written
        back only when something observes it."""
        plan = self._plan
        input_slots = tuple(self.slot(name) for name in inputs)
        # A driven slot is overwritten before every settle, so its value
        # is part of the state only when the edge writes it too.
        keys = tuple(
            s for s in plan.free
            if s not in input_slots or s in plan.clocked
        )
        layout = (input_slots, tuple(self.slot(name) for name in strobes))
        return _driver_factory(layout)(
            self, self._env, plan.settle, plan.edge, keys, _ENGINE_STATS
        )

    # -- checkpoints ---------------------------------------------------------

    def save_state(self) -> tuple:
        """The env (materialized first) and cycle count, for
        :meth:`load_state`."""
        if self._pending is not None:
            self._pending()
        return tuple(self._env), self.cycle

    def load_state(self, state: tuple) -> None:
        """Put back a :meth:`save_state` snapshot, in place (bound
        drivers hold the env).  The env is then current, so a bound
        driver's next cycle re-reads its state from it."""
        env, self.cycle = state
        self._env[:] = env
        self._pending = None

    # -- execution ---------------------------------------------------------------

    def settle(self) -> None:
        """Propagate combinational logic (one straight-line pass; a
        pending ``materialize`` is that pass)."""
        if self._pending is not None:
            self._pending()
        else:
            self._plan.settle(self._env)

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` rising edges, settling after
        each."""
        if self._pending is not None:
            self._pending()
        plan = self._plan
        env = self._env
        for _ in range(cycles):
            plan.edge(env)
            plan.settle(env)
        self.cycle += cycles
