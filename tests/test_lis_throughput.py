"""Throughput analysis: cycle ratios, analytic-vs-measured agreement."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import SPWrapper
from repro.lis.pearl import FunctionPearl
from repro.lis.simulator import Simulation
from repro.lis.system import System
from repro.lis.throughput import (
    MarkedGraph,
    _elementary_circuits,
    system_marked_graph,
)


class TestMarkedGraph:
    def test_acyclic_graph_full_throughput(self):
        g = MarkedGraph()
        g.add_channel("a", "b", latency=3)
        g.add_channel("b", "c", latency=2)
        assert g.throughput_enumerated() == 1

    def test_single_loop(self):
        g = MarkedGraph()
        g.add_channel("a", "b", latency=1, tokens=1)
        g.add_channel("b", "a", latency=1, tokens=0)
        # cycle latency = (1+1) + (1+1) = 4, tokens = 1
        assert g.throughput_enumerated() == Fraction(1, 4)

    def test_tokens_raise_throughput(self):
        g = MarkedGraph()
        g.add_channel("a", "b", latency=1, tokens=2)
        g.add_channel("b", "a", latency=1, tokens=0)
        assert g.throughput_enumerated() == Fraction(2, 4)

    def test_relay_station_lowers_loop_throughput(self):
        g1 = MarkedGraph()
        g1.add_channel("a", "b", latency=1, tokens=1)
        g1.add_channel("b", "a", latency=1)
        g2 = MarkedGraph()
        g2.add_channel("a", "b", latency=3, tokens=1)  # 2 relay stations
        g2.add_channel("b", "a", latency=1)
        assert g2.throughput_enumerated() < g1.throughput_enumerated()

    def test_tokenless_loop_deadlocks(self):
        g = MarkedGraph()
        g.add_channel("a", "b")
        g.add_channel("b", "a")
        assert g.throughput_enumerated() == 0

    def test_worst_loop_dominates(self):
        g = MarkedGraph()
        g.add_channel("a", "b", latency=1, tokens=1)
        g.add_channel("b", "a", latency=1, tokens=1)
        g.add_channel("a", "c", latency=5, tokens=1)
        g.add_channel("c", "a", latency=5, tokens=0)
        bottleneck = g.bottleneck_cycle()
        assert bottleneck is not None
        nodes, ratio = bottleneck
        assert set(nodes) == {"a", "c"}
        assert ratio == Fraction(1, 12)

    def test_parallel_edges_choose_worst_combination(self):
        """Regression: per-hop min-own-ratio edge choice is unsound
        (mediant inequality); the Dinkelbach selection must find the
        true minimum cycle ratio over edge combinations."""
        g = MarkedGraph()
        # Two parallel a->b channels: (tokens 2, latency 1) has own
        # ratio 1, (tokens 0, latency 3) has own ratio 0.
        g.add_channel("a", "b", latency=1, tokens=2)
        g.add_channel("a", "b", latency=3, tokens=0)
        g.add_channel("b", "a", latency=1, tokens=1)
        # Combination 1: (2+1)/(2+2) = 3/4; combination 2: (0+1)/(4+2)
        # = 1/6 — the minimum.
        assert g.throughput_enumerated() == Fraction(1, 6)
        assert g.throughput_parametric() == Fraction(1, 6)

    def test_parallel_edges_mediant_trap(self):
        """A case where the min-own-ratio edge is NOT the binding one."""
        g = MarkedGraph()
        # Edge X: tokens 1, latency 9 (own ratio 1/10, the 'worst').
        # Edge Y: tokens 0, latency 1 (own ratio 0).
        g.add_channel("a", "b", latency=9, tokens=1)
        g.add_channel("a", "b", latency=1, tokens=0)
        g.add_channel("b", "a", latency=1, tokens=5)
        # With X: (1+5)/(10+2) = 1/2; with Y: (0+5)/(2+2) = 5/4 -> X
        # binds even though Y's own ratio is smaller.
        assert g.throughput_enumerated() == Fraction(1, 2)

    def test_bad_latency_rejected(self):
        g = MarkedGraph()
        with pytest.raises(ValueError):
            g.add_channel("a", "b", latency=0)

    def test_negative_tokens_rejected(self):
        g = MarkedGraph()
        with pytest.raises(ValueError):
            g.add_channel("a", "b", tokens=-1)


class TestParametricAgreesWithEnumeration:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, data):
        n = data.draw(st.integers(2, 6))
        g = MarkedGraph()
        for i in range(n):
            g.add_process(f"p{i}")
        n_edges = data.draw(st.integers(1, 10))
        for _ in range(n_edges):
            u = data.draw(st.integers(0, n - 1))
            v = data.draw(st.integers(0, n - 1))
            if u == v:
                continue
            g.add_channel(
                f"p{u}",
                f"p{v}",
                latency=data.draw(st.integers(1, 4)),
                tokens=data.draw(st.integers(0, 2)),
            )
        exact = g.throughput_enumerated()
        approx = g.throughput_parametric()
        assert abs(exact - approx) < Fraction(1, 10**6)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_integer_search_returns_the_exact_fraction(self, data):
        """Self-loops and parallel edges included: the integer-weight
        search lands on the enumerated Fraction exactly."""
        n = data.draw(st.integers(1, 5))
        g = MarkedGraph()
        for i in range(n):
            g.add_process(f"p{i}")
        for _ in range(data.draw(st.integers(1, 10))):
            g.add_channel(
                f"p{data.draw(st.integers(0, n - 1))}",
                f"p{data.draw(st.integers(0, n - 1))}",
                latency=data.draw(st.integers(1, 5)),
                tokens=data.draw(st.integers(0, 3)),
            )
        assert g.throughput_parametric() == g.throughput_enumerated()

    def test_negative_cycle_test_on_integer_weights(self):
        from repro.lis.throughput import _negative_cycle

        ring = [(0, 1, 2), (1, 2, -1)]
        assert not _negative_cycle(3, ring + [(2, 0, -1)])
        assert _negative_cycle(3, ring + [(2, 0, -2)])

    def test_parametric_on_acyclic(self):
        g = MarkedGraph()
        g.add_channel("a", "b", latency=2)
        assert g.throughput_parametric() == 1


def _random_multigraph(seed: int) -> MarkedGraph:
    """Up to 6 processes in shuffled insertion order, some isolated,
    with self-loops and parallel channels."""
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(rng.randint(1, 6))]
    rng.shuffle(names)
    g = MarkedGraph()
    for name in names:
        g.add_process(name)
    for _ in range(rng.randint(0, 12)):
        g.add_channel(
            rng.choice(names),
            rng.choice(names),
            latency=rng.randint(1, 4),
            tokens=rng.randint(0, 2),
        )
    return g


def _rotation_canonical(cycle) -> tuple:
    start = cycle.index(min(cycle))
    return tuple(cycle[start:]) + tuple(cycle[:start])


def _brute_force_cycles(g: MarkedGraph) -> set[tuple]:
    arcs = {(u, v) for u, v, _spec in g.edges}
    return {
        _rotation_canonical(order)
        for size in range(1, len(g.nodes) + 1)
        for order in itertools.permutations(g.nodes, size)
        if all(
            (order[i], order[(i + 1) % size]) in arcs
            for i in range(size)
        )
    }


class TestElementaryCircuits:
    def test_matches_brute_force(self):
        """Each elementary circuit once, rooted at its lowest-rank node,
        and the enumerated throughput equals the parametric one."""
        for seed in range(300):
            g = _random_multigraph(seed)
            successors = {node: {} for node in g.nodes}
            for u, v, _spec in g.edges:
                successors[u][v] = None
            circuits = _elementary_circuits(successors)
            canonical = [_rotation_canonical(c) for c in circuits]
            assert len(set(canonical)) == len(canonical), seed
            assert set(canonical) == _brute_force_cycles(g), seed
            rank = {node: i for i, node in enumerate(g.nodes)}
            for circuit in circuits:
                assert rank[circuit[0]] == min(rank[n] for n in circuit)
            assert [nodes for nodes, _t, _l in g.cycle_metrics()] == (
                circuits
            )
            assert g.throughput_enumerated() == g.throughput_parametric()

    def test_bottleneck_tie_rule(self):
        """Equal-ratio loops: the first in enumeration order wins, the
        one through the lowest insertion-rank node, rooted there; from
        one root, the search follows channels in insertion order."""
        g = MarkedGraph()
        for name in ("z", "x", "y"):
            g.add_process(name)
        g.add_channel("x", "y", tokens=1)
        g.add_channel("y", "x")
        g.add_channel("y", "z", tokens=1)
        g.add_channel("z", "y")
        assert g.bottleneck_cycle() == (("z", "y"), Fraction(1, 4))

        g = MarkedGraph()
        g.add_channel("x", "z", tokens=1)
        g.add_channel("x", "y", tokens=1)
        g.add_channel("y", "x")
        g.add_channel("z", "x")
        assert [nodes for nodes, _t, _l in g.cycle_metrics()] == [
            ("x", "z"),
            ("x", "y"),
        ]
        assert g.bottleneck_cycle() == (("x", "z"), Fraction(1, 4))

    def test_memo_cleared_by_new_channel(self):
        g = MarkedGraph()
        g.add_channel("a", "b", tokens=1)
        assert g.cycle_metrics() == ()
        g.add_channel("b", "a")
        assert g.cycle_metrics() == ((("a", "b"), 1, 4),)
        assert g.throughput_parametric() == Fraction(1, 4)


class TestMeasuredVsAnalytic:
    def _ring(self, n_nodes: int, extra_latency: int):
        """Feedback ring of passthrough pearls; one node injects an
        initial token (credit) so the loop is live."""
        sched = IOSchedule(
            ["x"], ["y"], [SyncPoint({"x"}, {"y"})]
        )

        def make(name, primed):
            first = {"done": not primed}

            def fn(index, popped):
                return {"y": popped["x"] + 1}

            return FunctionPearl(name, sched, fn)

        system = System("ring")
        shells = []
        for i in range(n_nodes):
            pearl = make(f"n{i}", primed=(i == 0))
            shells.append(system.add_patient(SPWrapper(pearl)))
        for i in range(n_nodes):
            producer = shells[i]
            consumer = shells[(i + 1) % n_nodes]
            latency = 1 + (extra_latency if i == 0 else 0)
            system.connect(producer, "y", consumer, "x", latency=latency)
        # Prime the loop: inject one token into node 0's input port.
        shells[0].in_ports["x"]._fifo.append(0)
        return system, shells

    @pytest.mark.parametrize("n_nodes,extra", [(2, 0), (3, 0), (2, 2), (4, 1)])
    def test_ring_throughput(self, n_nodes, extra):
        system, shells = self._ring(n_nodes, extra)
        cycles = 600
        Simulation(system).run(cycles)
        measured = shells[0].enabled_cycles / cycles

        analytic = MarkedGraph()
        for i in range(n_nodes):
            latency = 1 + (extra if i == 0 else 0)
            analytic.add_channel(
                f"n{i}",
                f"n{(i + 1) % n_nodes}",
                latency=latency,
                tokens=1 if i == n_nodes - 1 else 0,
            )
        expected = float(analytic.throughput_enumerated())
        assert measured == pytest.approx(expected, rel=0.1)

    def test_system_marked_graph_extraction(self):
        system, shells = self._ring(3, 1)
        marked = system_marked_graph(system)
        assert set(marked.nodes) == {"n0", "n1", "n2"}
        assert len(marked.edges) == 3
