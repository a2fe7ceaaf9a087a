"""Compiled LIS fabric: one generated run loop per system.

:class:`~repro.lis.simulator.Simulation` drives a system by calling
every block's ``produce``, ``consume`` and ``commit`` each cycle.  That
object-level loop stays as the *reference engine*; for the stock fabric
blocks it is almost all dispatch and attribute traffic.  This module
lowers a validated system into one straight-line Python function
``run(simulation, cycles, deadlock_window, quiet)``, the way
:mod:`repro.rtl.compile_sim` lowers RTL:

* every link wire becomes a per-cycle local (``d<k>`` data, ``s<k>``
  stop), loaded from its wire object on entry and written back on
  exit, so no ``DataWire``/``StopWire`` attribute is touched per cycle;
* relay stations, sources and sinks keep their registers in locals
  and have their commit fused into their consume.  That is sound
  because a consume reads only wires that every produce already drove,
  and nothing else observes those registers mid-cycle;
* shell ports keep their ``deque`` FIFOs, because the firing protocol
  still calls ``pop``/``push``.  Each shell's readiness word is built
  inline from the FIFO locals (a non-empty input deque, an output
  deque below its depth: nothing is popped or pushed before the step)
  and handed to ``_wrapper_step``.  A port's consume and commit run
  right after its own shell's ``_wrapper_step``, the only code that
  observes the port;
* a stall plan never reaches the generated loop: it is
  :class:`~repro.lis.simulator.Simulation` data, and
  ``Simulation.run`` hands each window of stall cycles to the
  reference loop, which forces the stalled links;
* the deadlock window's quiet counter is inline.  It comes in as
  ``quiet`` and goes back out with the result, so a run split into
  segments stops at the cycle an unsplit run stops at.

Pearls and wrapper decisions stay callbacks, called in block order, so
the first exception a run raises is the one the reference loop raises.
Counters and state are written back to the block objects in a
``finally`` block: results, reruns, checkpoints and inspection see
what the reference loop leaves behind.

:func:`runner_for` decides the engine per run: the lowering applies
when no watchers are attached and every block is a stock fabric type
(:class:`Source`, :class:`Sink`, :class:`RelayStation`, or a
:class:`Shell` that keeps the base class's phases and has stock
ports).  Anything else takes the reference loop, and
:func:`cache_stats` counts both paths, plus the stall cycles lowered
runs hand to the reference loop.

Cache contract: lowering is split into a walk and a text generator.
:func:`lower_shape`'s walk returns the system's *shape key* (block
kinds and order, wiring by position, port directions, and the
always-on / limit flags of source and sink patterns) together with the
objects and wires the generated code binds at run entry; the text
generator's only input is that key, so the key and the text cannot
disagree.  A stall plan is not part of the system, so it stays out of
the key: it is data the run splits on, not code.  Compiled code
objects are cached per process under the key in a small LRU, so a run
whose shape was seen before only walks its system, binds and runs: no
text is generated.  All wrapper styles of one topology, and every
stall plan over it, share one entry.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from types import CodeType
from typing import TYPE_CHECKING, Callable

from .port import InputPort, OutputPort
from .relay_station import RelayStation
from .shell import Shell
from .signals import VOID
from .stream import Sink, Source

if TYPE_CHECKING:
    from .simulator import Simulation

#: Cap on cached fabric code objects per process; beyond it the least
#: recently used shape is evicted.
FABRIC_CACHE_MAX = 8

_CODE_CACHE: OrderedDict[tuple, CodeType] = OrderedDict()
_CODE_IDS = itertools.count(1)

# Engine counters, process-local like the cache they describe:
# ``lowered``/``reference`` count ``Simulation.run`` calls per engine,
# ``stall_cycles`` the cycles lowered runs handed to the reference loop
# because the stall plan forced a link, ``hits``/``misses`` code-cache
# consults, ``compile_ms`` the wall-clock milliseconds spent compiling
# missed shapes and ``lower_ms`` those of every lowering (walk + text +
# compile).
_STATS: dict[str, float] = {}


def reset_cache_stats() -> None:
    """Zero every fabric counter (the cache itself is kept)."""
    _STATS.update(
        lowered=0, reference=0, stall_cycles=0, hits=0, misses=0,
        compile_ms=0.0, lower_ms=0.0,
    )


reset_cache_stats()


def cache_stats() -> dict[str, float]:
    """Snapshot of the fabric counters: ``lowered``, ``reference``,
    ``stall_cycles``, ``hits``, ``misses``, ``compile_ms``,
    ``lower_ms``.  Cumulative per process; diff two snapshots to scope
    a measurement."""
    return dict(_STATS)


def count_stall_cycles(cycles: int) -> None:
    """Count ``cycles`` a lowered run handed to the reference loop."""
    _STATS["stall_cycles"] += cycles


def fabric_cache_info() -> tuple[int, int]:
    """(cached code objects, capacity) — for tests and diagnostics."""
    return len(_CODE_CACHE), FABRIC_CACHE_MAX


def _stock_shell(block: Shell) -> bool:
    cls = type(block)
    return (
        cls.produce is Shell.produce
        and cls.consume is Shell.consume
        and cls.commit is Shell.commit
        and all(type(p) is InputPort for p in block.in_ports.values())
        and all(type(p) is OutputPort for p in block.out_ports.values())
    )


_STOCK = (Source, Sink, RelayStation)


def lowerable(blocks) -> bool:
    """True when every block is a stock fabric type a lowered run
    handles exactly."""
    return all(
        type(block) in _STOCK
        or (isinstance(block, Shell) and _stock_shell(block))
        for block in blocks
    )


#: A lowered run loop: ``run(simulation, cycles, deadlock_window,
#: quiet) -> (cycles executed, deadlocked, quiet)``.
Runner = Callable[
    ["Simulation", int, int | None, int], tuple[int, bool, int]
]


def runner_for(simulation: "Simulation") -> Runner | None:
    """The lowered ``run`` for ``simulation``, or None when this run
    must take the reference loop (watchers attached, or a non-stock
    block).  Counts the engine choice either way."""
    runner = None
    if not simulation._watchers:
        runner = simulation._fabric
        if runner is False:
            runner = simulation._fabric = (
                _lower(simulation)
                if lowerable(simulation._blocks)
                else None
            )
    _STATS["lowered" if runner is not None else "reference"] += 1
    return runner


# -- block state: loaded into locals at run entry, stored on exit ---------------


def _relay_load(relay: RelayStation) -> tuple:
    # A capacity-2 buffer as two slots, each a token or VOID.
    buffer = relay._buffer
    return (
        buffer[0] if buffer else VOID,
        buffer[1] if len(buffer) > 1 else VOID,
        relay.tokens_forwarded,
        relay.full_cycles,
    )


def _relay_store(relay: RelayStation, a, b, forwarded: int, full: int):
    buffer = relay._buffer
    buffer.clear()
    buffer.extend(token for token in (a, b) if token is not VOID)
    # The run loop does not track max_occupancy: occupancy reached 2
    # exactly when a cycle ended full, and 1 when some token arrived
    # (it was forwarded, or it is still buffered).
    if full > relay.full_cycles:
        reached = 2
    elif forwarded > relay.tokens_forwarded or a is not VOID:
        reached = 1
    else:
        reached = 0
    relay.max_occupancy = max(relay.max_occupancy, reached)
    relay.tokens_forwarded = forwarded
    relay.full_cycles = full


def _source_load(source: Source) -> tuple:
    gaps = source._gaps
    return (
        gaps, len(gaps), source._iter, source._pending,
        source.tokens_sent, source.blocked_cycles,
    )


def _source_store(source: Source, pending, sent: int, blocked: int):
    source._pending = pending
    source.tokens_sent = sent
    source.blocked_cycles = blocked


def _sink_load(sink: Sink) -> tuple:
    accepts = sink._accepts
    return (
        accepts, len(accepts), sink.received, sink.received.append,
        sink.first_arrival_cycle, sink.last_arrival_cycle,
    )


def _sink_store(sink: Sink, first, last):
    sink.first_arrival_cycle = first
    sink.last_arrival_cycle = last


def _in_load(port: InputPort) -> tuple:
    return port._fifo, port.depth, port.tokens_received, port.stall_cycles


def _in_store(port: InputPort, received: int, stalled: int):
    port.tokens_received = received
    port.stall_cycles = stalled


def _out_load(port: OutputPort) -> tuple:
    return (
        port._fifo, port._pushed, port.depth, port.tokens_sent,
        port.stall_cycles,
    )


def _out_store(port: OutputPort, sent: int, stalled: int):
    port.tokens_sent = sent
    port.stall_cycles = stalled


def _get_data(wires) -> tuple:
    return tuple(wire.value for wire in wires)


def _put_data(wires, values) -> None:
    for wire, value in zip(wires, values):
        wire.value = value


def _get_stop(wires) -> tuple:
    return tuple(wire.stop for wire in wires)


def _put_stop(wires, values) -> None:
    for wire, value in zip(wires, values):
        wire.stop = value


_HELPERS = {
    name: fn
    for name, fn in globals().items()
    if name.endswith(("_load", "_store"))
    or name in ("_get_data", "_put_data", "_get_stop", "_put_stop")
}


# -- lowering: walk once per run, generate text once per shape -----------------


def _walk(simulation: "Simulation") -> tuple[tuple, list, list, list]:
    """One pass over the blocks: the system's shape key, plus the
    objects (``B``) and the data (``WD``) and stop (``WS``) wires the
    generated run binds at entry, at the positions the key names.

    The key holds one entry per block in block order — its kind, its
    ``B`` position, its wire positions, and the flags the text branches
    on (always-on source gaps; sink limit / always-accepting pattern;
    each shell port's direction) — then the ``B`` positions of the
    shells whose enabled cycles the deadlock watch sums, then the three
    binding counts.  :func:`_generate` reads nothing else.  Each shell
    port's readiness-word mask is data, bound in ``B`` right after the
    port, so the key (and the text) stays the parent's structure."""
    bound: list = []
    data: list = []
    stop: list = []
    ids: dict[int, int] = {}
    append = bound.append

    def wire(w, wires: list) -> int:
        index = ids.get(id(w))
        if index is None:
            index = ids[id(w)] = len(wires)
            wires.append(w)
        return index

    shells: dict[int, int] = {}
    blocks = []
    for block in simulation._blocks:
        kind = type(block)
        o = len(bound)
        append(block)
        if kind is RelayStation:
            blocks.append((
                "relay", o,
                wire(block._down_data, data), wire(block._up_stop, stop),
                wire(block._up_data, data), wire(block._down_stop, stop),
            ))
        elif kind is Source:
            blocks.append((
                "source", o, wire(block._data, data),
                wire(block._stop, stop), all(block._gaps),
            ))
        elif kind is Sink:
            if block._limit is not None:
                accept = "limit"
            elif all(block._accepts):
                accept = "always"
            else:
                accept = "pattern"
            blocks.append((
                "sink", o, wire(block._data, data),
                wire(block._stop, stop), accept,
            ))
        else:
            shells[id(block)] = o
            ports = []
            for port, bit in zip(block._ports(), block._port_bits()):
                ports.append((
                    type(port) is InputPort, len(bound),
                    wire(port._data, data), wire(port._stop, stop),
                ))
                append(port)
                append(1 << bit)
            blocks.append(("shell", o, tuple(ports)))
    total = tuple(shells[id(shell)] for shell in simulation._shells)
    shape = (tuple(blocks), total, len(bound), len(data), len(stop))
    return shape, bound, data, stop


def lower_shape(simulation: "Simulation") -> tuple:
    """The shape key the fabric code cache files ``simulation`` under
    (for inspection and tests)."""
    return _walk(simulation)[0]


def _generate(shape: tuple) -> str:
    """The run-loop source for one shape key, its only input."""
    blocks, total, n_bound, n_data, n_stop = shape
    prologue: list[str] = []
    produce: list[str] = []
    consume: list[str] = []
    epilogue: list[str] = []
    prefixes = itertools.count(1)

    def add(target: list[str], template: str, **fields) -> None:
        target.extend(template.format(**fields).splitlines())

    def fields(o: int, d: int, s: int, kind: str, load: str, store: str):
        """Template fields of one block or port; loads its state into
        ``{p}``-prefixed locals on entry, stores ``store`` on exit."""
        f = dict(p=f"k{next(prefixes)}_", o=f"b{o}", d=f"d{d}", s=f"s{s}")
        names = ", ".join(f["p"] + name for name in load.split())
        prologue.append(f"{names}, = _{kind}_load({f['o']})")
        names = ", ".join(f["p"] + name for name in store.split())
        epilogue.append(f"_{kind}_store({f['o']}, {names})")
        return f

    for entry in blocks:
        kind, o = entry[0], entry[1]
        if kind == "relay":
            _, _, d, s, du, sd = entry
            f = fields(o, d, s, "relay", "a b tf fc", "a b tf fc")
            f.update(du=f"d{du}", sd=f"s{sd}")
            add(produce, "{d} = {p}a\n{s} = {p}b is not V", **f)
            add(consume, _RELAY_STEP, **f)
        elif kind == "source":
            _, _, d, s, always = entry
            f = fields(o, d, s, "source", "g gl it pe tx bl", "pe tx bl")
            offer = (
                "{d} = {p}pe"
                if always
                else "{d} = {p}pe if {p}g[cycle % {p}gl] else V"
            )
            add(produce, _SOURCE_PRODUCE + offer, **f)
            add(consume, _SOURCE_STEP, **f)
        elif kind == "sink":
            _, _, d, s, accept = entry
            f = fields(o, d, s, "sink", "ac al rv ap fa la", "fa la")
            add(produce, _SINK_PRODUCE[accept], **f)
            add(consume, _SINK_STEP, **f)
        else:
            steps = []
            ready = []
            for is_input, port, d, s in entry[2]:
                mask = f"b{port + 1}"  # bound right after the port
                if is_input:
                    f = fields(port, d, s, "in", "f D rx st", "rx st")
                    add(produce, "{s} = {p}F = len({p}f) >= {p}D", **f)
                    steps.append(_IN_STEP.format(**f))
                    ready.append(f"({mask} if {f['p']}f else 0)")
                else:
                    f = fields(
                        port, d, s, "out", "f pu D tx st", "tx st"
                    )
                    add(produce, "{d} = {p}f[0] if {p}f else V", **f)
                    steps.append(_OUT_STEP.format(**f))
                    ready.append(
                        f"({mask} if len({f['p']}f) < {f['p']}D else 0)"
                    )
            step = f"b{o}_ws"
            prologue.append(f"{step} = b{o}._wrapper_step")
            consume.append(f"{step}(cycle, {' | '.join(ready) or 0})")
            for text in steps:
                consume.extend(text.splitlines())

    def body(lines: list[str], indent: str) -> str:
        return "\n".join(indent + line for line in lines)

    def names(kind: str, count: int) -> str:
        return "".join(f"{kind}{i}, " for i in range(count))

    # Every shell's enabled_cycles only grows, so the sum moves exactly
    # when some shell made progress.
    watched = " + ".join(f"b{o}.enabled_cycles" for o in total) or "0"
    unpack = [
        f"    {targets}= {value}"
        for targets, value in (
            (names("b", n_bound), "B"),
            (names("d", n_data), "_get_data(WD)"),
            (names("s", n_stop), "_get_stop(WS)"),
        )
        if targets
    ]
    return "\n".join(
        [
            "def run(simulation, cycles, deadlock_window, quiet):",
            *unpack,
            "    V = VOID",
            "    nx = next",
            body(prologue, "    "),
            "    cycle = start = simulation.cycle",
            "    watch = deadlock_window is not None",
            f"    last = {watched}",
            "    deadlocked = False",
            "    try:",
            "        for _ in range(cycles):",
            body(produce, "            "),
            body(consume, "            "),
            "            cycle += 1",
            "            if watch:",
            f"                total = {watched}",
            "                quiet = 0 if total != last else quiet + 1",
            "                last = total",
            "                if quiet >= deadlock_window:",
            "                    deadlocked = True",
            "                    break",
            "    finally:",
            "        simulation.cycle = cycle",
            f"        _put_data(WD, ({names('d', n_data)}))",
            f"        _put_stop(WS, ({names('s', n_stop)}))",
            body(epilogue, "        "),
            "    return cycle - start, deadlocked, quiet",
            "",
        ]
    )


# Consume + commit of a capacity-2 relay station.  The buffer is two
# slots ``a`` (head) and ``b``, each a token or VOID, so produce is a
# plain copy of ``a`` and the stop output is ``b`` being occupied.
# A token offered while ``b`` is occupied (stop high) is not taken.
_RELAY_STEP = """\
if {p}a is V:
    {p}a = {du}
elif {p}b is V:
    if not {sd}:
        {p}tf += 1
        {p}a = {du}
    elif {du} is not V:
        {p}b = {du}
        {p}fc += 1
elif {sd}:
    {p}fc += 1
else:
    {p}tf += 1
    {p}a = {p}b
    {p}b = V"""

_SOURCE_PRODUCE = """\
if {p}pe is V:
    {p}pe = nx({p}it, V)
"""

_SOURCE_STEP = """\
if {d} is not V:
    if {s}:
        {p}bl += 1
    else:
        {p}pe = V
        {p}tx += 1"""

_SINK_STEP = """\
if {d} is not V and not {s}:
    {p}ap({d})
    if {p}fa is None:
        {p}fa = cycle
    {p}la = cycle"""

# A sink's stop, by accept mode: a delivery limit, an always-accepting
# pattern, or a stall pattern.
_SINK_PRODUCE = {
    "limit": "{s} = not ({p}ac[cycle % {p}al] and len({p}rv) < {o}._limit)",
    "always": "{s} = False",
    "pattern": "{s} = not {p}ac[cycle % {p}al]",
}

# Input-port consume + commit, after the shell's wrapper step: drop
# what the wrapper popped, then merge the token accepted this cycle
# (``F`` is the fullness the port's produce drove onto its stop wire).
_IN_STEP = """\
if {o}._popped:
    for _ in range({o}._popped):
        {p}f.popleft()
    {o}._popped = 0
if {p}F:
    {p}st += 1
elif {d} is not V:
    {p}f.append({d})
    {p}rx += 1"""

# Output-port consume + commit, after the shell's wrapper step: the
# head leaves unless stop was high, then this cycle's pushes land.
_OUT_STEP = """\
if {p}f:
    if {s}:
        {p}st += 1
    else:
        {p}f.popleft()
        {p}tx += 1
if {p}pu:
    {p}f.extend({p}pu)
    {p}pu.clear()"""


def lower_source(simulation: "Simulation") -> str:
    """The generated run-loop source for ``simulation`` (for
    inspection and tests)."""
    return _generate(_walk(simulation)[0])


def _lower(simulation: "Simulation") -> Runner:
    started = time.perf_counter()
    shape, bound, data, stop = _walk(simulation)
    code = _CODE_CACHE.get(shape)
    if code is None:
        _STATS["misses"] += 1
        source = _generate(shape)
        compiling = time.perf_counter()
        # A filename per code object: profilers key their entries by
        # (filename, line, function), which every run loop would share.
        filename = f"<compiled-fabric#{next(_CODE_IDS)}>"
        code = compile(source, filename, "exec")
        _STATS["compile_ms"] += (time.perf_counter() - compiling) * 1e3
        _CODE_CACHE[shape] = code
        if len(_CODE_CACHE) > FABRIC_CACHE_MAX:
            _CODE_CACHE.popitem(last=False)
    else:
        _STATS["hits"] += 1
        _CODE_CACHE.move_to_end(shape)
    namespace = {
        **_HELPERS,
        "B": tuple(bound),
        "WD": tuple(data),
        "WS": tuple(stop),
        "VOID": VOID,
    }
    exec(code, namespace)
    _STATS["lower_ms"] += (time.perf_counter() - started) * 1e3
    return namespace["run"]
