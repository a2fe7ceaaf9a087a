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
   two functions writes.

The one invariant: the env is current — it holds what the
interpreter's would — unless a driver's ``materialize`` is pending.
:meth:`CompiledSimulator.step` runs ``edge`` then ``settle``, as the
interpreter's step does, and every entry point that reads or writes
the env (``peek``, ``peek_flat``, ``poke``, ``settle``, ``step``,
another driver) runs a pending ``materialize`` first.

Bound per-cycle drivers: :meth:`CompiledSimulator.fifo_driver` hands a
FIFO-interfaced wrapper driver (``RTLShell``) one function that runs a
whole cycle — write the readiness inputs from the FIFOs, settle, pack
the strobe outputs into one word, clock the edge — and leaves the
cycle counter and every observation exactly as ``settle()`` then
``step()`` would.  Its code is generated once per *slot layout* and
cached in a small LRU; the FIFOs, the env and the kernel functions are
bound per call.  The interpreter's
:meth:`~repro.rtl.simulator.InterpSimulator.fifo_driver` has the same
signature and semantics, run by name through ``poke``/``peek``, and
stays the unmemoized reference.

Memoized transitions: a bound driver packs its FIFO readiness into an
int of input bits and looks up ``(state id, input bits) -> (strobe
word, next state id)`` in a table of its own; only a missing
transition loads the state into the env and runs ``settle`` and
``edge``.  The state is the tuple of every slot ``settle`` does not
write and the driver does not drive: all registers (inert ones too),
top-level inputs such as ``rst`` and undriven wires.  ``settle`` writes
every combinational slot (constant-folded ones too) in dependency
order, so it reads only state slots, driven inputs and slots it has
already written; ``edge`` writes only registers.  A cycle's strobe word
and next state are therefore a pure function of (state, input bits),
and the table is exact.  States are kept as ids into a per-table list
(shift-register rings are wide ints; no env is stored per state).  One
table is built per binding, so per ``RTLShell`` run, and dies with its
simulator: no cap, no eviction.  On a hit the env is not touched; the
driver leaves a pending ``materialize``, which writes the current
state and the last cycle's input bits back and settles once, so every
view equals the interpreter's, and the next driver call takes its
state from the env again.

Compile cache: the full per-module plan (kernels plus name/slot/mask
tables) is memoized by module identity, so re-simulating the same
:class:`Module` object — e.g. an ``RTLShell`` reset, or a wrapper
module shared by equal schedules — skips elaboration and compilation
entirely.  The memo entry carries an identity snapshot of the
hierarchy's structural elements, so a module mutated after compilation
is transparently re-elaborated instead of served stale.
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
# composition never needs precedence analysis.


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
) -> tuple[str, int | str]:
    if isinstance(expr, Signal):
        slot = local[id(expr)]
        if slot in const_slots:
            return ("c", const_slots[slot])
        return ("s", f"e[{slot}]")
    if isinstance(expr, Const):
        return ("c", expr.value)

    parts = [_lower(child, local, const_slots) for child in expr.children()]
    if all(kind == "c" for kind, _ in parts):
        return ("c", _const_eval(expr, parts))

    if isinstance(expr, UnaryOp):
        (_, x) = parts[0]
        n = expr.operand.width
        if expr.op == "~":
            return ("s", f"(~{x} & {_mask(n)})")
        if expr.op == "&":
            return ("s", f"+({x} == {_mask(n)})")
        if expr.op == "|":
            return ("s", f"+({x} != 0)")
        return ("s", f"(({x}).bit_count() & 1)")  # ^ reduction

    if isinstance(expr, BinOp):
        return _lower_binop(expr, parts)

    if isinstance(expr, Ternary):
        ckind, cond = parts[0]
        if ckind == "c":
            return parts[1] if cond else parts[2]
        return (
            "s",
            f"({parts[1][1]} if {cond} else {parts[2][1]})",
        )

    if isinstance(expr, BitSelect):
        (_, x) = parts[0]
        if expr.index == 0:
            return ("s", f"({x} & 1)")
        return ("s", f"({x} >> {expr.index} & 1)")

    if isinstance(expr, Slice):
        (_, x) = parts[0]
        if expr.lsb == 0:
            return ("s", f"({x} & {_mask(expr.width)})")
        return ("s", f"({x} >> {expr.lsb} & {_mask(expr.width)})")

    if isinstance(expr, Concat):
        return _lower_concat(expr, parts)

    raise TypeError(f"cannot lower {type(expr).__name__}")


def _lower_binop(
    expr: BinOp, parts: list[tuple[str, int | str]]
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
        return ("s", f"({a} {op} {b})")
    if op in ("+", "-"):
        if rk == "c" and b == 0:
            return parts[0]
        if op == "+" and lk == "c" and a == 0:
            return parts[1]
        return ("s", f"(({a} {op} {b}) & {m})")
    if op == "<<":
        if rk == "c":
            if b == 0:
                return parts[0]
            if b >= expr.width:
                return ("c", 0)
        return ("s", f"(({a} << {b}) & {m})")
    if op == ">>":
        if rk == "c":
            if b == 0:
                return parts[0]
            if b >= expr.left.width:
                return ("c", 0)
        return ("s", f"({a} >> {b})")
    # Comparison: unary plus coerces the bool to a stored int.
    return ("s", f"+({a} {op} {b})")


def _lower_concat(
    expr: Concat, parts: list[tuple[str, int | str]]
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
            terms.append(f"({value} << {shift})")
    if const_acc:
        terms.append(str(const_acc))
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


# Engine counters, process-local like the plan memo they describe.
# ``hits`` counts plans reused from the memo, ``misses`` plans compiled
# and ``compile_ms`` the wall-clock milliseconds spent exec-compiling
# them.  ``tables`` counts per-cycle driver bindings (each builds one
# transition table) and ``transitions`` the kernel runs on a table miss.
_ENGINE_STATS: dict[str, float] = {}


def reset_cache_stats() -> None:
    """Zero every engine counter (the plan memo itself is kept)."""
    _ENGINE_STATS.update(
        hits=0, misses=0, compile_ms=0.0, transitions=0, tables=0
    )


reset_cache_stats()


def cache_stats() -> dict[str, float]:
    """Snapshot of the engine counters: ``hits``, ``misses``,
    ``compile_ms``, ``transitions``, ``tables``.  Counters are
    cumulative per process; pair with :func:`reset_cache_stats` (or
    diff two snapshots) to scope a measurement."""
    return dict(_ENGINE_STATS)


def _emit_comb_line(
    item: _CombItem,
    const_slots: dict[int, int],
    rom_tables: list[tuple[int, ...]],
) -> str:
    if item.rom is None:
        kind, value = _lower(item.expr, item.local, const_slots)
        if kind == "c":
            const_slots[item.target] = int(value)
        return f"e[{item.target}] = {value}"
    rom = item.rom
    akind, addr = _lower(item.expr, item.local, const_slots)
    if akind == "c":
        value = rom.read(int(addr))
        const_slots[item.target] = value
        return f"e[{item.target}] = {value}"
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
        f"if (_a := {addr}) < {len(rom.contents)} else 0"
    )


def _emit_reg_lines(
    regs: list[_RegItem], const_slots: dict[int, int]
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
            _lower(reg.reset, item.local, const_slots)
            if reg.reset is not None
            else None
        )
        enable = (
            _lower(reg.enable, item.local, const_slots)
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
        if enable is not None and enable[0] == "c":
            sample = f"e[{target}]"  # tied low; only the reset can act
        else:
            sample = str(_lower(reg.next, item.local, const_slots)[1])
            if enable is not None:
                sample = f"({sample} if {enable[1]} else e[{target}])"
        if reset is not None:
            if reset[0] == "c":  # tied high: unconditional reset
                sample = str(reg.reset_value)
            else:
                sample = (
                    f"({reg.reset_value} if {reset[1]} else {sample})"
                )
        name = f"t{len(samples)}"
        samples.append(f"{name} = {sample}")
        commits.append(f"e[{target}] = {name}")
        clocked.append(target)
    return samples + commits, clocked


def _emit(
    elab: _Elaboration,
) -> tuple[str, list[tuple[int, ...]], list[int], list[int]]:
    """Lower a scheduled elaboration to (kernel source, ROM images,
    slots ``settle`` writes, slots ``edge`` writes)."""
    const_slots: dict[int, int] = {}
    rom_tables: list[tuple[int, ...]] = []
    items = [elab.comb[i] for i in elab.schedule()]
    settle_lines = [
        _emit_comb_line(item, const_slots, rom_tables) for item in items
    ]
    reg_lines, clocked = _emit_reg_lines(elab.regs, const_slots)

    def body(lines: list[str], indent: str) -> str:
        if not lines:
            return f"{indent}pass"
        return "\n".join(indent + line for line in lines)

    source = "\n".join(
        [
            "def _settle(e):",
            body(settle_lines, "    "),
            "",
            "def _edge(e):",
            body(reg_lines, "    "),
            "",
        ]
    )
    return source, rom_tables, [item.target for item in items], clocked


class _Plan:
    """Everything a :class:`CompiledSimulator` needs for one module:
    the exec'd ``settle``/``edge`` kernel pair, ``free`` (ascending,
    every slot ``settle`` does not write), ``clocked`` (the slots
    ``edge`` writes: the live registers), the name -> slot table and
    the per-slot width masks."""

    __slots__ = ("settle", "edge", "free", "clocked", "name_slot", "masks")

    def __init__(self, elab: _Elaboration) -> None:
        source, rom_tables, settled, clocked = _emit(elab)
        namespace: dict = {
            f"_rom{k}": table for k, table in enumerate(rom_tables)
        }
        started = time.perf_counter()
        exec(compile(source, _code_filename("rtl"), "exec"), namespace)
        _ENGINE_STATS["compile_ms"] += (time.perf_counter() - started) * 1e3
        self.settle = namespace["_settle"]
        self.edge = namespace["_edge"]
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
    _ENGINE_STATS["misses"] += 1
    plan = _Plan(_Elaboration(design))
    _PLAN_MEMO[design.top] = (structure, plan)
    return plan


# -- bound per-cycle drivers ---------------------------------------------------

_DRIVER_CACHE: OrderedDict[tuple, Callable] = OrderedDict()


def _driver_factory(layout: tuple) -> Callable:
    """The ``bind(sim, env, settle, edge, keys, stats, *fifos)`` factory
    for one slot layout ``(not_empty slots, not_full slots, strobe
    slots)``, generated and compiled on first use.

    ``bind`` builds one transition table and returns the per-cycle
    function.  The table maps ``(state id, input bits)`` to ``(strobe
    word, next state id)``; a state is the tuple of the ``keys`` slots
    and its id indexes ``states``.  Only a missing transition runs the
    kernels, loading the state first unless the env still holds it
    (``held``: hits never touch the env).  ``materialize`` writes the
    current state and the last cycle's input bits back into the env and
    settles it; while it is ``sim._pending`` the env is stale, and any
    other value there means the env is current, so the next cycle takes
    its state from the env."""
    factory = _DRIVER_CACHE.get(layout)
    if factory is not None:
        _DRIVER_CACHE.move_to_end(layout)
        return factory
    not_empty, not_full, strobes = layout
    params = []
    ready = []
    for k in range(len(not_empty)):
        params.append(f"i{k}")
        ready.append(f"i{k}")
    for k in range(len(not_full)):
        params += [f"o{k}", f"u{k}", f"n{k}"]
        ready.append(f"len(o{k}) + len(u{k}) < n{k}")
    bits = " | ".join(
        f"({1 << bit} if {cond} else 0)" for bit, cond in enumerate(ready)
    )
    puts = [
        f"        env[{slot}] = inputs >> {bit} & 1"
        if bit else f"        env[{slot}] = inputs & 1"
        for bit, slot in enumerate((*not_empty, *not_full))
    ]
    word = " | ".join(
        f"env[{slot}] << {bit}" if bit else f"env[{slot}]"
        for bit, slot in enumerate(strobes)
    )
    key = f"sid << {len(ready)} | bits"
    source = "\n".join(
        [
            "def bind(sim, env, settle, edge, keys, stats, "
            f"{', '.join(params)}):",
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
            "    def cycle():",
            "        nonlocal sid, bits, held",
            "        if sim._pending is not materialize:",
            "            if sim._pending is not None:",
            "                sim._pending()",
            "            sid = held = intern()",
            "            sim._pending = materialize",
            f"        bits = {bits or 0}",
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
        self,
        not_empty: Sequence[tuple[str, Sequence]],
        not_full: Sequence[tuple[str, Sequence, Sequence, int]],
        strobes: Sequence[str],
    ) -> Callable[[], int]:
        """One function that runs a whole clock cycle of a
        FIFO-interfaced wrapper and returns its strobe word.

        ``not_empty`` pairs a 1-bit input with a FIFO: the input reads 1
        when the FIFO is non-empty.  ``not_full`` binds a 1-bit input to
        ``(fifo, pending, depth)``: it reads 1 while ``len(fifo) +
        len(pending) < depth``.  Each call writes those inputs from the
        FIFOs as they are at that moment, settles, packs the 1-bit
        top-level outputs ``strobes`` into one int (bit ``k`` is
        ``strobes[k]``), clocks one edge and returns the word, leaving
        :attr:`cycle` and every observation as :meth:`settle` then
        :meth:`step` would.  The function stays bound to this
        simulator.

        The function memoizes the wrapper's transitions in a table of
        its own (see the module docstring): the kernels run only on a
        first-seen (state, input bits) pair, and the env is written
        back only when something observes it."""
        slot = self.slot
        plan = self._plan
        not_empty_slots = tuple(slot(name) for name, _fifo in not_empty)
        not_full_slots = tuple(slot(entry[0]) for entry in not_full)
        driven = {*not_empty_slots, *not_full_slots}
        # A driven slot is overwritten before every settle, so its value
        # is part of the state only when the edge writes it too.
        keys = tuple(
            s for s in plan.free if s not in driven or s in plan.clocked
        )
        layout = (
            not_empty_slots,
            not_full_slots,
            tuple(slot(name) for name in strobes),
        )
        bound = [fifo for _name, fifo in not_empty]
        for _name, fifo, pending, depth in not_full:
            bound += (fifo, pending, depth)
        return _driver_factory(layout)(
            self, self._env, plan.settle, plan.edge, keys,
            _ENGINE_STATS, *bound,
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
