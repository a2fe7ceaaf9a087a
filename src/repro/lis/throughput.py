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

* exact enumeration over ``networkx.simple_cycles`` (fine for SoC-scale
  graphs);
* Lawler-style binary search on the parametric graph (scales to large
  graphs, no enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx


@dataclass(frozen=True)
class EdgeSpec:
    """One channel for analysis: forward latency (cycles, >= 1) and
    initial tokens present on the channel at reset."""

    latency: int = 1
    tokens: int = 0


class MarkedGraph:
    """A (tokens, latency)-weighted digraph of patient processes."""

    def __init__(self) -> None:
        self._graph = nx.MultiDiGraph()

    def add_process(self, name: str) -> None:
        self._graph.add_node(name)

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
        self._graph.add_edge(
            producer, consumer, latency=latency, tokens=tokens
        )

    @property
    def graph(self) -> nx.MultiDiGraph:
        return self._graph

    # -- exact enumeration ----------------------------------------------------

    def cycle_metrics(self) -> list[tuple[tuple[str, ...], int, int]]:
        """All simple node cycles as (nodes, tokens, total latency incl.
        one processing cycle per hop), with parallel edges resolved to
        the per-hop choice minimizing the cycle's token/latency ratio
        (Dinkelbach iteration — picking each hop's own min ratio is not
        sound, by the mediant inequality)."""
        results = []
        for cycle in nx.simple_cycles(nx.DiGraph(self._graph)):
            nodes = tuple(cycle)
            hops: list[list[tuple[int, int]]] = []
            for i, u in enumerate(nodes):
                v = nodes[(i + 1) % len(nodes)]
                candidates = [
                    (data["tokens"], data["latency"] + 1)
                    for data in self._graph[u][v].values()
                ]
                hops.append(candidates)
            tokens, latency = _min_ratio_choice(hops)
            results.append((nodes, tokens, latency))
        return results

    def throughput_enumerated(self) -> Fraction:
        """Exact min-ratio over all simple cycles (1 if acyclic)."""
        metrics = self.cycle_metrics()
        if not metrics:
            return Fraction(1)
        best = Fraction(1)
        for _nodes, tokens, latency in metrics:
            if tokens == 0:
                return Fraction(0)  # token-free loop: deadlock
            best = min(best, Fraction(tokens, latency))
        return min(best, Fraction(1))

    def bottleneck_cycle(self) -> tuple[tuple[str, ...], Fraction] | None:
        """The loop that sets the throughput, or None if acyclic."""
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
        if self._graph.number_of_edges() == 0:
            return Fraction(1)
        if not any(True for _ in nx.simple_cycles(
            nx.DiGraph(self._graph)
        )):
            return Fraction(1)

        index = {node: i for i, node in enumerate(self._graph.nodes)}
        edges = [
            (index[u], index[v], data["tokens"], data["latency"] + 1)
            for u, v, data in self._graph.edges(data=True)
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
