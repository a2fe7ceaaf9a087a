"""Compiled LIS fabric: one generated run loop per system.

:class:`~repro.lis.simulator.Simulation` drives a system by calling
every block's ``produce``, ``consume`` and ``commit`` each cycle.  That
object-level loop stays as the *reference engine*; for the stock fabric
blocks it is almost all dispatch and attribute traffic.  This module
lowers a validated system into one straight-line Python function
``run(simulation, cycles, deadlock_window)``, the way
:mod:`repro.rtl.compile_sim` lowers RTL:

* every link wire becomes a per-cycle local (``d<k>`` data, ``s<k>``
  stop), loaded from its wire object on entry and written back on
  exit, so no ``DataWire``/``StopWire`` attribute is touched per cycle;
* relay stations, sources and sinks keep their registers in locals
  and have their commit fused into their consume.  That is sound
  because a consume reads only wires that every produce already drove,
  and nothing else observes those registers mid-cycle;
* shell ports keep their ``deque`` FIFOs, because wrappers still call
  ``pop``/``push``/``not_empty``/``not_full``.  A port's consume and
  commit run right after its own shell's ``_wrapper_step``, the only
  code that observes the port;
* ``StallInjector`` overrides run at their place in block order, which
  is after every structural produce (instruments are appended last);
* the deadlock window's quiet counter is inline.

Pearls and wrapper decisions stay callbacks, called in block order, so
the first exception a run raises is the one the reference loop raises.
Counters and state are written back to the block objects in a
``finally`` block: results, reruns, ``reset()`` and inspection see
what the reference loop leaves behind.

:func:`runner_for` decides the engine per run: the lowering applies
when no watchers are attached and every block is a stock fabric type
(:class:`Source`, :class:`Sink`, :class:`RelayStation`,
:class:`StallInjector`, or a :class:`Shell` that keeps the base
class's phases and has stock ports).  Anything else takes the
reference loop, and :func:`cache_stats` counts both paths.

Cache contract: the generated source names blocks only by position
and binds every object, depth, gap pattern and counter at run entry,
so it is a pure function of the system's *shape* (block kinds, wiring,
port counts, always-on traffic patterns).  Compiled code objects are
cached per process under that source text in a small LRU; all wrapper
styles of one topology share one entry.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from types import CodeType
from typing import TYPE_CHECKING, Callable

from .port import InputPort, OutputPort
from .relay_station import RelayStation
from .shell import Shell
from .signals import VOID
from .stall import StallInjector
from .stream import Sink, Source

if TYPE_CHECKING:
    from .simulator import Simulation

#: Cap on cached fabric code objects per process; beyond it the least
#: recently used shape is evicted.
FABRIC_CACHE_MAX = 8

_CODE_CACHE: OrderedDict[str, CodeType] = OrderedDict()

# Engine counters, process-local like the cache they describe:
# ``lowered``/``reference`` count ``Simulation.run`` calls per engine,
# ``hits``/``misses`` code-cache consults and ``compile_ms`` the
# wall-clock milliseconds spent compiling missed shapes.
_STATS: dict[str, float] = {}


def reset_cache_stats() -> None:
    """Zero every fabric counter (the cache itself is kept)."""
    _STATS.update(
        lowered=0, reference=0, hits=0, misses=0, compile_ms=0.0
    )


reset_cache_stats()


def cache_stats() -> dict[str, float]:
    """Snapshot of the fabric counters: ``lowered``, ``reference``,
    ``hits``, ``misses``, ``compile_ms``.  Cumulative per process;
    diff two snapshots to scope a measurement."""
    return dict(_STATS)


def fabric_cache_info() -> tuple[int, int]:
    """(cached code objects, capacity) — for tests and diagnostics."""
    return len(_CODE_CACHE), FABRIC_CACHE_MAX


def _stock_shell(block: Shell) -> bool:
    cls = type(block)
    return (
        cls.produce is Shell.produce
        and cls.consume is Shell.consume
        and cls.commit is Shell.commit
        and cls.phase_parts is Shell.phase_parts
        and all(type(p) is InputPort for p in block.in_ports.values())
        and all(type(p) is OutputPort for p in block.out_ports.values())
    )


_STOCK = (Source, Sink, RelayStation, StallInjector)


def lowerable(blocks) -> bool:
    """True when every block is a stock fabric type the lowering
    models exactly."""
    return all(
        type(block) in _STOCK
        or (isinstance(block, Shell) and _stock_shell(block))
        for block in blocks
    )


def runner_for(
    simulation: "Simulation",
) -> Callable[["Simulation", int, int | None], tuple[int, bool]] | None:
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


def _injector_load(injector: StallInjector) -> tuple:
    return injector._cycles, injector.stalled_cycles


def _injector_store(injector: StallInjector, stalled: int):
    injector.stalled_cycles = stalled


def _in_load(port: InputPort) -> tuple:
    return port._fifo, port.depth, port.tokens_received, port.stall_cycles


def _in_store(port: InputPort, received: int, stalled: int):
    port.tokens_received = received
    port.stall_cycles = stalled


def _out_load(port: OutputPort) -> tuple:
    return port._fifo, port._pushed, port.tokens_sent, port.stall_cycles


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


# -- lowering ------------------------------------------------------------------


class _Emitter:
    """Accumulates the generated source for one system, plus the
    objects (``B``) and wires (``WD``/``WS``) it binds at run entry."""

    def __init__(self) -> None:
        self.bound: list = []
        self._bound_ids: dict[int, str] = {}
        self.wires: dict[str, list] = {"d": [], "s": []}
        self._wire_ids: dict[int, str] = {}
        self.prologue: list[str] = []
        self.produce: list[str] = []
        self.consume: list[str] = []
        self.epilogue: list[str] = []
        self._blocks = 0

    def bind(self, obj) -> str:
        name = self._bound_ids.get(id(obj))
        if name is None:
            name = self._bound_ids[id(obj)] = f"b{len(self.bound)}"
            self.bound.append(obj)
        return name

    def wire(self, wire, kind: str) -> str:
        """The local standing for one DataWire (``"d"``) or StopWire
        (``"s"``)."""
        name = self._wire_ids.get(id(wire))
        if name is None:
            wires = self.wires[kind]
            name = self._wire_ids[id(wire)] = f"{kind}{len(wires)}"
            wires.append(wire)
        return name

    def state(self, kind: str, obj: str, p: str, load: str, store: str):
        """Load a block's state into ``{p}``-prefixed locals on entry
        and store the ``store`` subset back on exit."""
        names = ", ".join(p + name for name in load.split())
        self.prologue.append(f"{names}, = _{kind}_load({obj})")
        names = ", ".join(p + name for name in store.split())
        self.epilogue.append(f"_{kind}_store({obj}, {names})")

    @staticmethod
    def _add(target: list[str], template: str, **fields: str) -> None:
        target.extend(template.format(**fields).splitlines())

    def _fields(self, block, data, stop) -> dict[str, str]:
        self._blocks += 1
        return dict(
            p=f"k{self._blocks}_",
            o=self.bind(block),
            d=self.wire(data, "d"),
            s=self.wire(stop, "s"),
        )

    # -- one method per stock block kind -----------------------------------

    def relay(self, block: RelayStation) -> None:
        f = self._fields(block, block._down_data, block._up_stop)
        f.update(
            du=self.wire(block._up_data, "d"),
            sd=self.wire(block._down_stop, "s"),
        )
        self.state("relay", f["o"], f["p"], "a b tf fc", "a b tf fc")
        self._add(self.produce, "{d} = {p}a\n{s} = {p}b is not V", **f)
        self._add(self.consume, _RELAY_STEP, **f)

    def source(self, block: Source) -> None:
        f = self._fields(block, block._data, block._stop)
        self.state("source", f["o"], f["p"], "g gl it pe tx bl", "pe tx bl")
        offer = (
            "{d} = {p}pe"
            if all(block._gaps)
            else "{d} = {p}pe if {p}g[cycle % {p}gl] else V"
        )
        self._add(self.produce, _SOURCE_PRODUCE + offer, **f)
        self._add(self.consume, _SOURCE_STEP, **f)

    def sink(self, block: Sink) -> None:
        f = self._fields(block, block._data, block._stop)
        self.state("sink", f["o"], f["p"], "ac al rv ap fa la", "fa la")
        if block._limit is not None:
            produce = (
                "{s} = not ({p}ac[cycle % {p}al] "
                "and len({p}rv) < {o}._limit)"
            )
        elif all(block._accepts):
            produce = "{s} = False"
        else:
            produce = "{s} = not {p}ac[cycle % {p}al]"
        self._add(self.produce, produce, **f)
        self._add(self.consume, _SINK_STEP, **f)

    def injector(self, block: StallInjector) -> None:
        f = self._fields(block, block._data, block._stop)
        self.state("injector", f["o"], f["p"], "cy n", "n")
        self._add(self.produce, _INJECTOR_PRODUCE, **f)

    def shell(self, block: Shell) -> None:
        shell = self.bind(block)
        steps = []
        for port in block._ports():
            f = self._fields(port, port._data, port._stop)
            if type(port) is InputPort:
                self.state("in", f["o"], f["p"], "f D rx st", "rx st")
                self._add(
                    self.produce, "{s} = {p}F = len({p}f) >= {p}D", **f
                )
                steps.append(_IN_STEP.format(**f))
            else:
                self.state("out", f["o"], f["p"], "f pu tx st", "tx st")
                self._add(
                    self.produce, "{d} = {p}f[0] if {p}f else V", **f
                )
                steps.append(_OUT_STEP.format(**f))
        step = f"{shell}_ws"
        self.prologue.append(f"{step} = {shell}._wrapper_step")
        self.consume.append(f"{step}(cycle)")
        for text in steps:
            self.consume.extend(text.splitlines())

    def source_text(self, total: str) -> str:
        def body(lines: list[str], indent: str) -> str:
            return "\n".join(indent + line for line in lines)

        def names(kind: str) -> str:
            return "".join(
                f"{kind}{i}, " for i in range(len(self.wires[kind]))
            )

        unpack = [
            f"    {targets}= {value}"
            for targets, value in (
                ("".join(f"b{i}, " for i in range(len(self.bound))), "B"),
                (names("d"), "_get_data(WD)"),
                (names("s"), "_get_stop(WS)"),
            )
            if targets
        ]
        return "\n".join(
            [
                "def run(simulation, cycles, deadlock_window):",
                *unpack,
                "    V = VOID",
                "    nx = next",
                body(self.prologue, "    "),
                "    cycle = start = simulation.cycle",
                "    watch = deadlock_window is not None",
                "    quiet = 0",
                f"    last = {total}",
                "    deadlocked = False",
                "    try:",
                "        for _ in range(cycles):",
                body(self.produce, "            "),
                body(self.consume, "            "),
                "            cycle += 1",
                "            if watch:",
                f"                total = {total}",
                "                quiet = 0 if total != last else quiet + 1",
                "                last = total",
                "                if quiet >= deadlock_window:",
                "                    deadlocked = True",
                "                    break",
                "    finally:",
                "        simulation.cycle = cycle",
                f"        _put_data(WD, ({names('d')}))",
                f"        _put_stop(WS, ({names('s')}))",
                body(self.epilogue, "        "),
                "    return cycle - start, deadlocked",
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

_INJECTOR_PRODUCE = """\
if cycle in {p}cy:
    {d} = V
    {s} = True
    {p}n += 1"""

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


def _emit(simulation: "Simulation") -> _Emitter:
    emitter = _Emitter()
    for block in simulation._blocks:
        kind = type(block)
        if kind is RelayStation:
            emitter.relay(block)
        elif kind is Source:
            emitter.source(block)
        elif kind is Sink:
            emitter.sink(block)
        elif kind is StallInjector:
            emitter.injector(block)
        else:
            emitter.shell(block)
    return emitter


def _compiled(source: str) -> CodeType:
    code = _CODE_CACHE.get(source)
    if code is None:
        _STATS["misses"] += 1
        started = time.perf_counter()
        code = compile(source, "<compiled-fabric>", "exec")
        _STATS["compile_ms"] += (time.perf_counter() - started) * 1e3
        _CODE_CACHE[source] = code
        if len(_CODE_CACHE) > FABRIC_CACHE_MAX:
            _CODE_CACHE.popitem(last=False)
    else:
        _STATS["hits"] += 1
        _CODE_CACHE.move_to_end(source)
    return code


def _source(simulation: "Simulation") -> tuple[_Emitter, str]:
    emitter = _emit(simulation)
    # Every shell's enabled_cycles only grows, so the sum moves exactly
    # when some shell made progress.
    total = " + ".join(
        f"{emitter.bind(shell)}.enabled_cycles"
        for shell in simulation._shells
    )
    return emitter, emitter.source_text(total or "0")


def lower_source(simulation: "Simulation") -> str:
    """The generated run-loop source for ``simulation`` (for
    inspection and tests)."""
    return _source(simulation)[1]


def _lower(
    simulation: "Simulation",
) -> Callable[["Simulation", int, int | None], tuple[int, bool]]:
    emitter, source = _source(simulation)
    namespace = {
        **_HELPERS,
        "B": tuple(emitter.bound),
        "WD": tuple(emitter.wires["d"]),
        "WS": tuple(emitter.wires["s"]),
        "VOID": VOID,
    }
    exec(_compiled(source), namespace)
    return namespace["run"]
