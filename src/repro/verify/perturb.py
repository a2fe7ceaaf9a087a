"""Metamorphic latency-perturbation verification.

The claim that defines latency-insensitive design — and the one the
source paper's wrappers exist to uphold — is that *system-level
interconnect latency variations cannot break functionality*.  The
differential oracle of :mod:`repro.verify.cases` never tested it: it
cross-checks wrapper styles over one fixed topology, so a wrapper bug
that only bites under a different channel segmentation would slip
through.

This module closes that hole metamorphically.  For a case with
``perturb = K``, :func:`repro.sched.generate.derive_variants` draws K
latency-perturbed siblings of the base topology — re-segmented
channels, extra pipelining on feed-forward edges, floorplan-driven
variants (:func:`repro.lis.floorplan.plan_channels` at a drawn target
clock), and — with ``perturb_dynamic`` — *dynamic* variants that keep
the topology untouched and instead inject seeded mid-run relay/link
stalls (:mod:`repro.lis.stall`).  Every variant is simulated under the
case's reference style — or, with ``perturb_styles = "all"``, under
**every** style the case exercises, RTL-in-the-loop ones included —
and held to these checks:

* **stream invariance** — each sink's token stream must equal the
  base run's on the common prefix: latencies may change *when* tokens
  arrive, never *which* tokens or in what order (Kahn-network
  determinism is exactly what the wrappers are supposed to preserve);
* **per-variant throughput** — each variant's measured period rates
  must respect the marked-graph cycle bounds of *its own* re-segmented
  graph (:func:`repro.verify.oracles.uniform_loop_bounds`), not the
  base's: deeper loops must actually slow down accordingly;
* **relay occupancy** — no relay station anywhere in the variant may
  ever hold more than :data:`~repro.lis.relay_station.RELAY_CAPACITY`
  tokens (harvested from the stations' telemetry);
* **cycle exactness** (``"all"`` mode only) — the registry's
  cycle-exact style pairs must still agree trace-for-trace *inside*
  every variant.

Failures surface as :class:`~repro.verify.cases.Divergence` records
with check kinds ``perturb-streams`` / ``perturb-throughput`` /
``perturb-relay`` / ``perturb-trace`` and the variant label
(``resegment0``, ``pipeline1``, ``dynamic2``, …) in the style slot —
suffixed ``/style`` when variants run under every style; the shrinker
(:func:`repro.verify.shrink.shrink_case`) then reduces a failing
perturbation to the minimal base-plus-variant pair, minimizing the
variant's stall plan too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from ..sched.generate import SystemTopology, TopologyVariant, derive_variants
from . import telemetry
from .cases import (
    BaseSystems,
    CaseOutcome,
    Divergence,
    StyleRun,
    VerifyCase,
    run_styles,
    simulate_topology,
)
from .oracles import (
    Oracle,
    check_cycle_exact,
    check_loop_bounds,
    check_relay_peak,
    compare_stream_prefixes,
    throughput_slack,
    uniform_loop_bounds,
)
from .styles import SHIFTREG_STYLES, cycle_exact_pairs

#: Valid values of ``VerifyCase.perturb_styles`` /
#: ``BatchConfig.perturb_styles`` / ``--perturb-styles``.
PERTURB_STYLE_MODES = ("reference", "all")


def case_variants(case: VerifyCase) -> tuple[TopologyVariant, ...]:
    """The effective variant set of a case: the pinned ``variants``
    when present (shrunk cases, replayed reproducers), else ``perturb``
    freshly derived variants seeded by the case seed (with dynamic
    stall plans drawn inside the case's cycle horizon when
    ``perturb_dynamic`` is set)."""
    if case.variants is not None:
        return case.variants
    if case.perturb <= 0:
        return ()
    # Derived once per case object: ``run_case`` and the coverage
    # report both ask.  The memo is not a dataclass field, so equality
    # and reproducers ignore it, and ``replace`` starts a case without.
    memo = vars(case)
    variants = memo.get("_derived_variants")
    if variants is None:
        variants = memo["_derived_variants"] = derive_variants(
            case.topology,
            case.perturb,
            seed=case.seed,
            floorplan=case.perturb_floorplan,
            dynamic=case.perturb_dynamic,
            horizon=case.cycles,
        )
    return variants


def resumes_from(base: SystemTopology, variant: TopologyVariant) -> bool:
    """True when ``variant`` can resume from its base's runs: a stall
    plan over the base topology itself (equal up to its name), so the
    variant's run is the base's until the plan's first stall."""
    return bool(variant.stalls) and (
        replace(variant.topology, name=base.name) == base
    )


def first_stall(
    base: SystemTopology, variants: Sequence[TopologyVariant]
) -> int | None:
    """The earliest cycle a variant that :func:`resumes_from` ``base``
    stalls at (where the case's base runs pause for a checkpoint), or
    None when no variant resumes."""
    return min(
        (
            min(stall.start for stall in variant.stalls)
            for variant in variants
            if resumes_from(base, variant)
        ),
        default=None,
    )


def reference_style(styles: tuple[str, ...]) -> str:
    """The style variants run under in ``"reference"`` mode: ``fsm``
    when the case exercises it, else the first non-shift-register
    style (shift-register styles need a per-topology activation plan,
    which a perturbed sibling invalidates)."""
    if "fsm" in styles:
        return "fsm"
    for style in styles:
        if style not in SHIFTREG_STYLES:
            return style
    return "fsm"


def perturb_style_set(case: VerifyCase) -> tuple[str, ...]:
    """The styles every variant of ``case`` runs under.

    ``"reference"`` pins the single reference style;  ``"all"`` runs
    the case's full style list (duplicates removed, order kept) —
    shift-register styles included: their static activation re-plans
    from the *variant's* own FSM run, so the replay stays exact even
    under perturbed latencies or injected stalls.
    """
    if case.perturb_styles not in PERTURB_STYLE_MODES:
        raise ValueError(
            f"unknown perturb-styles mode {case.perturb_styles!r}; "
            f"choose from {PERTURB_STYLE_MODES}"
        )
    if case.perturb_styles == "all":
        return tuple(dict.fromkeys(case.styles))
    return (reference_style(case.styles),)


def lowers_latency(base: SystemTopology, variant: SystemTopology) -> bool:
    """True when ``variant`` shortens some connection (channel, source
    or sink link) of ``base``, i.e. removes relay storage."""
    return any(
        new.latency < old.latency
        for olds, news in (
            (base.channels, variant.channels),
            (base.sources, variant.sources),
            (base.sinks, variant.sinks),
        )
        for old, new in zip(olds, news)
    )


def _check_variant_progress(
    label: str,
    base_tokens: int,
    base_deadlocked: bool,
    lowers: bool,
    run: StyleRun,
    outcome: CaseOutcome,
) -> bool:
    """Refuse a vacuous variant comparison: a variant that moved no
    tokens at all while the base did (e.g. it deadlocked under the
    deeper segmentation) would otherwise pass every prefix check over
    empty data — exactly the failure class this oracle exists to
    catch.  Returns True when the variant made progress, or when the
    guard does not apply.

    The one exemption: a base run that itself deadlocked after a few
    tokens, against a variant that ``lowers`` some latency.  Less relay
    storage on a system that already runs out of buffering can
    legitimately deadlock before the first token, so the guard is
    skipped (and counted as ``perturb.vacuity_skips``) and the variant
    goes on to the remaining checks.  Every guard applied counts as a
    check."""
    if base_tokens == 0:
        return True
    moved = sum(len(stream) for stream in run.streams.values())
    if not moved and base_deadlocked and lowers:
        telemetry.count("perturb.vacuity_skips")
        return True
    outcome.checks += 1
    if moved:
        return True
    outcome.divergences.append(
        Divergence(
            "perturb-streams",
            label,
            "*",
            f"variant moved no tokens in {run.executed} cycles "
            f"(base moved {base_tokens}"
            f"{', variant deadlocked' if run.deadlocked else ''}) — "
            "stream invariance was not exercised",
        )
    )
    return False


def _variant_bounds(
    topology: SystemTopology,
) -> tuple[dict, int]:
    """The variant's own uniform loop bounds and slack, computed once
    per variant (empty bounds outside the uniform regime or without
    marked-graph cycles)."""
    if not topology.uniform:
        return {}, 0
    bounds = uniform_loop_bounds(topology)
    if not bounds:
        return {}, 0
    return bounds, throughput_slack(topology)


def check_perturbations(
    case: VerifyCase,
    runs: Mapping[str, StyleRun],
    outcome: CaseOutcome,
    variants: Sequence[TopologyVariant] | None = None,
    bases: BaseSystems | None = None,
) -> None:
    """Run every latency-perturbed variant of ``case`` and append any
    metamorphic divergences to ``outcome``.

    ``runs`` is the base per-style run map from
    :func:`repro.verify.cases.run_styles`; the variant streams are
    compared against the reference style's base run (re-simulated only
    when the case never exercised that style).  A reference style that
    already crashed in the style loop skips the perturbation checks
    entirely — the case is failing anyway, and re-running the
    deterministic crash would only duplicate the divergence.

    ``variants`` defaults to :func:`case_variants`.  ``bases`` holds
    the case's base systems paused at :func:`first_stall`; each
    dynamic variant that :func:`resumes_from` the base resumes its
    runs from them (:func:`repro.verify.cases.run_styles`) instead of
    re-simulating the prefix.  The runs of other dynamic variants, or
    of styles with no base system, build fresh and are counted as
    ``perturb.fresh_variant_runs``.
    """
    if variants is None:
        variants = case_variants(case)
    if not variants:
        return
    all_mode = case.perturb_styles == "all"
    # Styles whose base run already crashed are excluded: the crash is
    # deterministic, the exception oracle reported it once, and re-
    # running it per variant would only duplicate the divergence (and
    # leave no base stream to judge progress against).
    styles = tuple(
        style
        for style in perturb_style_set(case)
        if style not in runs or runs[style].error is None
    )
    if not styles:
        return
    reference = reference_style(case.styles)
    base = runs.get(reference)
    if base is not None:
        if base.error is not None:
            return
        base_run = base
    else:
        # The style loop never ran the reference style: measure a base.
        base_run = simulate_topology(
            case.topology,
            reference,
            case.cycles,
            case.deadlock_window,
            case.engine,
        )
        if base_run.error is not None:
            outcome.divergences.append(
                Divergence(
                    "exception",
                    reference,
                    "*",
                    f"perturbation base run failed: {base_run.error}",
                )
            )
            return
    base_streams = base_run.streams
    # Progress is judged per style against that style's own base run
    # (tokens moved, deadlocked): a policy that already stalls on the
    # unperturbed topology (the all-ports-ready combinational wrapper
    # has strictly harsher liveness requirements) must not fail the
    # vacuity guard for stalling under a variant too.
    base_progress = {}
    for style in styles:
        style_base = runs.get(style)
        if style_base is None or style_base.error is not None:
            style_base = base_run
        base_progress[style] = (
            sum(len(stream) for stream in style_base.streams.values()),
            style_base.deadlocked,
        )
    pairs = cycle_exact_pairs(styles) if all_mode else ()
    for variant in variants:
        bounds, slack = _variant_bounds(variant.topology)
        lowers = lowers_latency(case.topology, variant.topology)
        resumable = None
        if variant.kind == "dynamic":
            resumable = (
                bases
                if bases is not None
                and resumes_from(case.topology, variant)
                else {}
            )
        variant_runs = run_styles(
            variant.topology,
            styles,
            case.cycles,
            case.deadlock_window,
            engine=case.engine,
            stalls=variant.stalls,
            # Traces are only consumed by the per-variant cycle-exact
            # pairs of all-styles mode.
            trace=all_mode,
            bases=resumable,
        )
        for style in styles:
            run = variant_runs[style]
            label = (
                f"{variant.label}/{style}"
                if all_mode
                else variant.label
            )
            if run.error is not None:
                outcome.divergences.append(
                    Divergence("exception", label, "*", run.error)
                )
                continue
            if not _check_variant_progress(
                label, *base_progress[style], lowers, run, outcome
            ):
                continue
            compare_stream_prefixes(
                "perturb-streams",
                "base",
                label,
                base_streams,
                run.streams,
                outcome,
            )
            if bounds:
                check_loop_bounds(
                    "perturb-throughput", label, bounds, slack, run,
                    outcome,
                )
            check_relay_peak("perturb-relay", label, run, outcome)
        if pairs:
            check_cycle_exact(
                variant_runs,
                outcome,
                pairs=pairs,
                check="perturb-trace",
                prefix=f"{variant.label}/",
            )


class PerturbationOracle(Oracle):
    """The metamorphic latency-perturbation checks, as one pipeline
    stage (no-op for cases without perturbation).  ``variants`` and
    ``bases`` are :func:`check_perturbations`' own: one case's, when
    its runner already derived the variants and kept the base
    systems."""

    name = "perturb"

    def __init__(
        self,
        variants: Sequence[TopologyVariant] | None = None,
        bases: BaseSystems | None = None,
    ) -> None:
        self.variants = variants
        self.bases = bases

    def check(self, case, runs, outcome) -> None:
        if case.perturb or case.variants:
            check_perturbations(
                case, runs, outcome, self.variants, self.bases
            )
