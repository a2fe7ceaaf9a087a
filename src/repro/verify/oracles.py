"""The oracle pipeline: independent cross-checks over style runs.

Each :class:`Oracle` consumes a case's per-style
:class:`~repro.verify.cases.StyleRun` map and appends
:class:`~repro.verify.cases.Divergence` records to the outcome —
nothing else.  :func:`repro.verify.cases.run_case` is a fold of the
default pipeline over the runs; alternative pipelines (a subset for a
cheap smoke, an extra project-specific invariant) are plain tuples
passed to :func:`run_pipeline`.

The default pipeline, in order:

1. :class:`ExceptionOracle` — any style that crashed is a finding;
2. :class:`StreamPrefixOracle` — sink streams must agree across
   styles on the common prefix (Kahn determinism);
3. :class:`CycleExactOracle` — styles implementing the same firing
   policy (the registry's ``cycle_exact_reference`` links) must
   produce identical enable traces;
4. :class:`RelayOccupancyOracle` — no relay station may ever exceed
   its capacity-2 invariant;
5. :class:`AnalyticBoundsOracle` — measured period rates must respect
   the marked-graph loop bounds in the uniform regime;
6. :class:`~repro.verify.perturb.PerturbationOracle` — the
   metamorphic latency-perturbation checks (static re-segmentation
   and dynamic stall plans), when the case requests them.

The module-level check helpers (:func:`compare_stream_prefixes`,
:func:`check_cycle_exact`, :func:`check_loop_bounds`,
:func:`check_relay_peak`) are the reusable primitives the perturbation
oracle applies to variant runs under different check labels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from ..lis.relay_station import RELAY_CAPACITY
from ..lis.throughput import MarkedGraph
from ..sched.generate import SystemTopology
from . import telemetry
from .cases import (
    CaseOutcome,
    Divergence,
    StyleRun,
    VerifyCase,
    first_clean_style,
    topology_marked_graph,
)
from .styles import cycle_exact_pairs


# -- reusable check primitives -------------------------------------------------


def compare_stream_prefixes(
    check: str,
    ref_label: str,
    label: str,
    ref_streams: Mapping[str, list[Any]],
    streams: Mapping[str, list[Any]],
    outcome: CaseOutcome,
) -> None:
    """One cross-run stream comparison: every reference sink's stream
    must match on the common prefix (``label`` fills the divergence's
    style slot)."""
    for sink_name, ref_stream in ref_streams.items():
        other = streams.get(sink_name, [])
        outcome.checks += 1
        common = min(len(ref_stream), len(other))
        for pos in range(common):
            if ref_stream[pos] != other[pos]:
                outcome.divergences.append(
                    Divergence(
                        check,
                        label,
                        sink_name,
                        f"token {pos}: {ref_label}="
                        f"{ref_stream[pos]!r} vs {label}="
                        f"{other[pos]!r}",
                    )
                )
                break


def check_stream_prefixes(
    runs: Mapping[str, StyleRun],
    reference: str,
    outcome: CaseOutcome,
) -> None:
    """Every non-error run's sink streams against the reference
    style's, on the common prefix.  A style whose run is the reference
    run itself (one lockstep system stood for both) is not compared:
    that would count a run checked against itself."""
    ref = runs[reference]
    for style, run in runs.items():
        if run is ref or run.error is not None:
            continue
        compare_stream_prefixes(
            "streams", reference, style, ref.streams, run.streams,
            outcome,
        )


def check_cycle_exact(
    runs: Mapping[str, StyleRun],
    outcome: CaseOutcome,
    pairs: tuple[tuple[str, str], ...] | None = None,
    check: str = "trace",
    prefix: str = "",
) -> None:
    """Cycle-count and enable-trace equality over the registry's
    cycle-exact pairs (or an explicit ``pairs`` subset).  ``prefix``
    is prepended to the checked style in the divergence's style slot
    (the perturbation oracle labels variant runs with it)."""
    if pairs is None:
        pairs = cycle_exact_pairs()
    for reference, checked in pairs:
        if reference not in runs or checked not in runs:
            continue
        a, b = runs[reference], runs[checked]
        if a.error is not None or b.error is not None:
            continue
        outcome.checks += 1
        if a.executed != b.executed:
            outcome.divergences.append(
                Divergence(
                    check,
                    f"{prefix}{checked}",
                    "*",
                    f"{reference} ran {a.executed} cycles, "
                    f"{checked} ran {b.executed}",
                )
            )
            continue
        for process, trace_a in a.traces.items():
            trace_b = b.traces.get(process, [])
            if trace_a != trace_b:
                first = next(
                    (
                        i
                        for i, (x, y) in enumerate(zip(trace_a, trace_b))
                        if x != y
                    ),
                    min(len(trace_a), len(trace_b)),
                )
                outcome.divergences.append(
                    Divergence(
                        check,
                        f"{prefix}{checked}",
                        process,
                        f"enable traces diverge at cycle {first} "
                        f"(vs reference {reference})",
                    )
                )


def uniform_loop_bounds(
    topology: SystemTopology,
    graph: MarkedGraph | None = None,
) -> dict[str, Fraction]:
    """Per-process period-rate upper bounds from the topology's own
    marked-graph cycles (empty for feed-forward topologies).

    Sound only in the uniform regime, where every process pops and
    pushes each port exactly once per period, so the marked-graph
    cycle ratio upper-bounds its period rate.  Pass ``graph`` when the
    topology's marked graph is already built.
    """
    if graph is None:
        graph = topology_marked_graph(topology)
    metrics = graph.cycle_metrics()
    bounds: dict[str, Fraction] = {}
    for nodes, tokens, latency in metrics:
        ratio = (
            Fraction(0) if tokens == 0 else Fraction(tokens, latency)
        )
        for name in nodes:
            previous = bounds.get(name)
            if previous is None or ratio < previous:
                bounds[name] = ratio
    return bounds


def throughput_slack(topology: SystemTopology) -> int:
    """Additive slack on the loop bounds, covering tokens already
    staged in FIFOs at the measurement boundary."""
    return topology.port_depth * len(topology.processes) + 2


def check_loop_bounds(
    check: str,
    label: str,
    bounds: Mapping[str, Fraction],
    slack: int,
    run: StyleRun,
    outcome: CaseOutcome,
) -> None:
    """One run's measured period counts against precomputed uniform
    loop bounds (``label`` fills the divergence's style slot)."""
    for process, bound in bounds.items():
        outcome.checks += 1
        periods = run.periods.get(process, 0)
        if periods > bound * run.executed + slack:
            outcome.divergences.append(
                Divergence(
                    check,
                    label,
                    process,
                    f"{periods} periods in {run.executed} cycles "
                    f"exceeds loop bound {bound} (+{slack} slack)",
                )
            )


def check_relay_peak(
    check: str,
    label: str,
    run: StyleRun,
    outcome: CaseOutcome,
) -> None:
    """The relay-station capacity invariant (occupancy <= 2) against
    one run's telemetry."""
    if run.relay_peak is None:
        return
    outcome.checks += 1
    station, depth = run.relay_peak
    if depth > RELAY_CAPACITY:
        outcome.divergences.append(
            Divergence(
                check,
                label,
                station,
                f"occupancy reached {depth} "
                f"(capacity {RELAY_CAPACITY})",
            )
        )


# -- the oracle objects --------------------------------------------------------


class Oracle:
    """One independent cross-check over a case's style runs.

    Oracles are stateless: :meth:`check` reads the runs, bumps
    ``outcome.checks`` for every comparison it makes, and appends a
    :class:`~repro.verify.cases.Divergence` per failure.
    """

    name = "oracle"

    def check(
        self,
        case: VerifyCase,
        runs: Mapping[str, StyleRun],
        outcome: CaseOutcome,
    ) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ExceptionOracle(Oracle):
    """Every style that crashed (its run carries an ``error``) is a
    divergence — a crash in any wrapper style is a finding, never a
    harness error."""

    name = "exception"

    def check(self, case, runs, outcome) -> None:
        for style in case.styles:
            run = runs.get(style)
            if run is not None and run.error is not None:
                outcome.divergences.append(
                    Divergence("exception", style, "*", run.error)
                )


class StreamPrefixOracle(Oracle):
    """Sink streams must agree across styles on the common prefix —
    the LIS functional-equivalence property (styles only differ in
    *when* tokens move, never which)."""

    name = "streams"

    def check(self, case, runs, outcome) -> None:
        reference = first_clean_style(case.styles, runs)
        if reference is None:
            return
        check_stream_prefixes(runs, reference, outcome)


class CycleExactOracle(Oracle):
    """Styles that implement the same firing policy (the registry's
    ``cycle_exact_reference`` links) must produce identical per-cycle
    enable traces and cycle counts."""

    name = "trace"

    def check(self, case, runs, outcome) -> None:
        check_cycle_exact(runs, outcome)


class RelayOccupancyOracle(Oracle):
    """No relay station in any style's run may ever hold more than
    its capacity of 2 tokens (harvested from station telemetry)."""

    name = "relay"

    def check(self, case, runs, outcome) -> None:
        for style, run in runs.items():
            if run.error is not None:
                continue
            check_relay_peak("relay", style, run, outcome)


class AnalyticBoundsOracle(Oracle):
    """The marked-graph throughput model: both implementations must
    agree with each other, and in the uniform regime every style's
    measured period rates must respect the loop bounds."""

    name = "analytic"

    def check(self, case, runs, outcome) -> None:
        graph = topology_marked_graph(case.topology)
        enumerated = graph.throughput_enumerated()
        parametric = graph.throughput_parametric()
        outcome.checks += 1
        if abs(enumerated - parametric) > Fraction(1, 10**6):
            outcome.divergences.append(
                Divergence(
                    "analytic",
                    "",
                    "throughput",
                    f"enumerated {enumerated} != parametric "
                    f"{float(parametric):.9f}",
                )
            )

        if not case.topology.uniform:
            return
        bounds = uniform_loop_bounds(case.topology, graph)
        if not bounds:
            return
        slack = throughput_slack(case.topology)
        for style, run in runs.items():
            if run.error is not None:
                continue
            check_loop_bounds(
                "analytic", style, bounds, slack, run, outcome
            )


def default_pipeline(
    perturbation: Oracle | None = None,
) -> tuple[Oracle, ...]:
    """The standard oracle pipeline, in check order; ``perturbation``
    stands in for a plain :class:`~repro.verify.perturb.PerturbationOracle`
    (:func:`~repro.verify.cases.run_case` passes one holding the case's
    variants and base systems)."""
    if perturbation is None:
        # Imported here: the perturbation oracle builds on the variant
        # machinery, which itself uses this module's check primitives.
        from .perturb import PerturbationOracle

        perturbation = PerturbationOracle()
    return (
        ExceptionOracle(),
        StreamPrefixOracle(),
        CycleExactOracle(),
        RelayOccupancyOracle(),
        AnalyticBoundsOracle(),
        perturbation,
    )


def run_pipeline(
    case: VerifyCase,
    runs: Mapping[str, StyleRun],
    outcome: CaseOutcome,
    pipeline: tuple[Oracle, ...] | None = None,
) -> CaseOutcome:
    """Fold ``pipeline`` (default: :func:`default_pipeline`) over one
    case's style runs, accumulating checks and divergences.

    Each oracle runs under its own telemetry ``oracle`` span (tagged
    with the oracle's class name), so the stage total is the sum of
    the per-oracle spans — there is deliberately no wrapper span
    around the fold."""
    for oracle in (
        default_pipeline() if pipeline is None else pipeline
    ):
        with telemetry.span(
            "oracle", oracle=type(oracle).__name__
        ):
            oracle.check(case, runs, outcome)
    return outcome
