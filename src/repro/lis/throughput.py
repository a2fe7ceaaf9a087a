"""Analytic throughput of latency-insensitive systems.

Carloni's performance result: once wrapped and segmented, a strongly
connected LIS sustains a throughput set by its worst feedback loop.
Modelling each patient process as a marked-graph actor that takes one
cycle per firing, and each channel as ``L`` cycles of forward latency
(input-port register + relay stations), a directed cycle *C* carrying
``k_C`` initial tokens and total latency ``d_C = sum(L_e + 1)`` (one
cycle of processing per hop) sustains ``k_C / d_C`` firings per cycle.

    throughput = min over cycles C of  k_C / d_C

Feed-forward systems (no directed cycles) sustain throughput 1 in this
model (bounded only by their sources/sinks).

Implemented two ways, cross-checked in the tests:

* exact enumeration of the elementary circuits with Johnson's algorithm
  (SIAM J. Comput. 1975; fine for SoC-scale graphs);
* Lawler-style binary search on the parametric graph (scales to large
  graphs, no enumeration).
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Mapping
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class EdgeSpec:
    """One channel for analysis: forward latency (cycles, >= 1) and
    initial tokens present on the channel at reset."""

    latency: int = 1
    tokens: int = 0


CycleMetric = tuple[tuple[str, ...], int, int]


class MarkedGraph:
    """A (tokens, latency)-weighted digraph of patient processes.

    Stored as an insertion-ordered successor map ``{u: {v: [(tokens,
    latency + 1), ...]}}`` (one entry per parallel channel) plus the
    channel list; node insertion order is each node's rank in the cycle
    enumeration."""

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, list[tuple[int, int]]]] = {}
        self._edges: list[tuple[str, str, EdgeSpec]] = []
        self._cycles: tuple[CycleMetric, ...] | None = None

    def add_process(self, name: str) -> None:
        self._succ.setdefault(name, {})
        self._cycles = None

    def add_channel(
        self,
        producer: str,
        consumer: str,
        latency: int = 1,
        tokens: int = 0,
    ) -> None:
        if latency < 1:
            raise ValueError("channel latency must be >= 1")
        if tokens < 0:
            raise ValueError("token count must be >= 0")
        self.add_process(producer)
        self.add_process(consumer)
        self._succ[producer].setdefault(consumer, []).append(
            (tokens, latency + 1)
        )
        self._edges.append((producer, consumer, EdgeSpec(latency, tokens)))

    @property
    def nodes(self) -> tuple[str, ...]:
        """Processes in insertion order."""
        return tuple(self._succ)

    @property
    def edges(self) -> tuple[tuple[str, str, EdgeSpec], ...]:
        """Channels as ``(producer, consumer, spec)`` in insertion
        order, parallel channels included."""
        return tuple(self._edges)

    # -- exact enumeration ----------------------------------------------------

    def cycle_metrics(self) -> tuple[CycleMetric, ...]:
        """All simple node cycles as (nodes, tokens, total latency incl.
        one processing cycle per hop), with parallel edges resolved to
        the per-hop choice minimizing the cycle's token/latency ratio
        (Dinkelbach iteration — picking each hop's own min ratio is not
        sound, by the mediant inequality).

        Cycles come in :func:`_elementary_circuits` order, each rooted
        at its lowest insertion-rank node.  Computed once per graph;
        adding a process or channel clears the memo."""
        if self._cycles is None:
            metrics = []
            for nodes in _elementary_circuits(self._succ):
                hops = [
                    self._succ[u][v]
                    for u, v in zip(nodes, nodes[1:] + nodes[:1])
                ]
                metrics.append((nodes, *_min_ratio_choice(hops)))
            self._cycles = tuple(metrics)
        return self._cycles

    def throughput_enumerated(self) -> Fraction:
        """Exact min-ratio over all simple cycles (1 if acyclic)."""
        best = Fraction(1)
        for _nodes, tokens, latency in self.cycle_metrics():
            if tokens == 0:
                return Fraction(0)  # token-free loop: deadlock
            best = min(best, Fraction(tokens, latency))
        return best

    def bottleneck_cycle(self) -> tuple[tuple[str, ...], Fraction] | None:
        """The loop that sets the throughput, or None if acyclic.

        On ties the first minimum-ratio loop in enumeration order wins:
        the one whose lowest insertion-rank node comes first, then the
        first found by the depth-first search from that node, which
        follows channels in insertion order.  The loop is rooted at its
        lowest-rank node."""
        metrics = self.cycle_metrics()
        if not metrics:
            return None
        worst_nodes: tuple[str, ...] = ()
        worst = Fraction(10**9)
        for nodes, tokens, latency in metrics:
            ratio = (
                Fraction(0) if tokens == 0 else Fraction(tokens, latency)
            )
            if ratio < worst:
                worst = ratio
                worst_nodes = nodes
        return worst_nodes, min(worst, Fraction(1))

    # -- parametric / binary search ----------------------------------------------

    def throughput_parametric(
        self, tolerance: Fraction = Fraction(1, 10**9)
    ) -> Fraction:
        """Lawler's test: throughput >= r iff the graph with edge weights
        ``tokens - r * (latency + 1)`` has no negative cycle.  Binary
        search on r, then snap to the nearest exact cycle ratio.

        Every midpoint is dyadic, ``r = p / 2**k``, so each test runs in
        integers on the weights ``tokens * 2**k - p * (latency + 1)``
        (scaling by ``2**k > 0`` keeps each cycle's sign)."""
        if not self.cycle_metrics():
            return Fraction(1)

        index = {node: i for i, node in enumerate(self._succ)}
        edges = [
            (index[u], index[v], spec.tokens, spec.latency + 1)
            for u, v, spec in self._edges
        ]

        def has_negative_cycle(p: int, q: int) -> bool:
            return _negative_cycle(
                len(index),
                [(u, v, tokens * q - p * hop) for u, v, tokens, hop in edges],
            )

        # The search interval is [low, high] / scale.
        low, high, scale = 0, 1, 1
        if has_negative_cycle(low, scale):
            return Fraction(0)
        while Fraction(high - low, scale) > tolerance:
            low, high, scale = 2 * low, 2 * high, 2 * scale
            mid = (low + high) // 2
            if has_negative_cycle(mid, scale):
                high = mid
            else:
                low = mid
        low_rate = Fraction(low, scale)
        # Snap to the exact enumerated value when it is within reach.
        exact = self.throughput_enumerated()
        if abs(exact - low_rate) <= 2 * tolerance:
            return exact
        return low_rate


def _elementary_circuits(
    successors: Mapping[Hashable, Collection[Hashable]]
) -> list[tuple[Hashable, ...]]:
    """Every elementary circuit of a digraph, once (Johnson 1975).

    ``successors`` maps each node to its distinct successors; its key
    order ranks the nodes.  For each start node in rank order the search
    is confined to the start's strongly connected component among nodes
    of equal or higher rank, so each circuit is found once, rooted at
    its lowest-rank node.  Blocked nodes stay blocked until a circuit
    through them is found, which bounds the work per circuit."""
    rank = {node: i for i, node in enumerate(successors)}
    predecessors: dict[Hashable, list[Hashable]] = {n: [] for n in rank}
    for u, targets in successors.items():
        for v in targets:
            predecessors[v].append(u)

    def reach(start, step, floor) -> set:
        seen, pending = {start}, [start]
        while pending:
            for v in step[pending.pop()]:
                if rank[v] >= floor and v not in seen:
                    seen.add(v)
                    pending.append(v)
        return seen

    circuits: list[tuple[Hashable, ...]] = []
    for start in successors:
        floor = rank[start]
        component = reach(start, successors, floor)
        component &= reach(start, predecessors, floor)
        path: list[Hashable] = []
        blocked: set = set()
        blockers: dict[Hashable, set] = {v: set() for v in component}

        def unblock(node) -> None:
            pending = [node]
            while pending:
                v = pending.pop()
                if v in blocked:
                    blocked.discard(v)
                    pending.extend(blockers[v])
                    blockers[v].clear()

        def circuit(v) -> bool:
            found = False
            path.append(v)
            blocked.add(v)
            for w in successors[v]:
                if w == start:
                    circuits.append(tuple(path))
                    found = True
                elif w in component and w not in blocked and circuit(w):
                    found = True
            if found:
                unblock(v)
            else:
                for w in successors[v]:
                    if w in component:
                        blockers[w].add(v)
            path.pop()
            return found

        circuit(start)
    return circuits


def _min_ratio_choice(
    hops: list[list[tuple[int, int]]]
) -> tuple[int, int]:
    """Pick one (tokens, latency) candidate per hop minimizing
    ``sum(tokens) / sum(latency)`` — Dinkelbach's algorithm (each step
    minimizes ``tokens - r * latency`` per hop, then updates r; the
    ratio decreases monotonically and the choice space is finite)."""
    choice = [hop[0] for hop in hops]
    ratio = Fraction(sum(t for t, _l in choice),
                     sum(l for _t, l in choice))
    while True:
        new_choice = [
            min(hop, key=lambda cand: cand[0] - ratio * cand[1])
            for hop in hops
        ]
        new_ratio = Fraction(
            sum(t for t, _l in new_choice),
            sum(l for _t, l in new_choice),
        )
        if new_ratio >= ratio:
            return (
                sum(t for t, _l in choice),
                sum(l for _t, l in choice),
            )
        choice = new_choice
        ratio = new_ratio


def _negative_cycle(
    n_nodes: int, edges: list[tuple[int, int, int]]
) -> bool:
    """Bellman-Ford negative-cycle test over ``(u, v, weight)`` edges
    on nodes ``0 .. n_nodes - 1`` (every node a source)."""
    distance = [0] * n_nodes
    for _ in range(n_nodes):
        changed = False
        for u, v, weight in edges:
            candidate = distance[u] + weight
            if candidate < distance[v]:
                distance[v] = candidate
                changed = True
        if not changed:
            return False
    return True


def system_marked_graph(system) -> MarkedGraph:
    """Build the analysis graph of a :class:`~repro.lis.system.System`.

    Only inter-shell channels form the feedback structure; sources and
    sinks are throughput-1 endpoints and are omitted.  Each channel's
    reset-time marking (``initial_tokens`` of :meth:`System.connect`)
    carries over as its marked-graph token count.
    """
    marked = MarkedGraph()
    for name in system.shells:
        marked.add_process(name)
    for channel in system.channels:
        if (
            channel.producer in system.shells
            and channel.consumer in system.shells
        ):
            marked.add_channel(
                channel.producer,
                channel.consumer,
                latency=channel.latency,
                tokens=channel.tokens,
            )
    return marked
