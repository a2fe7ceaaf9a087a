"""Batch differential verification of latency-insensitive systems.

The paper's central claim is that a synthesized synchronization-
processor wrapper is cycle-equivalent to the behavioural schedule it
was compiled from, inside *any* latency-insensitive system.  This
package exercises that claim at throughput: it draws whole random
system topologies (:func:`repro.sched.generate.random_topology`),
instantiates each one under every wrapper style — behavioural FSM/SP/
combinational shells and RTL-in-the-loop SP/FSM shells — feeds them
identical stimuli, and cross-checks:

* **token streams** — every sink's received sequence must agree across
  styles on the common prefix (the LIS functional-equivalence
  property; styles only differ in *when* tokens move);
* **cycle accuracy** — the behavioural SP and the simulated SP RTL
  (and likewise FSM vs FSM RTL) must produce identical per-cycle
  enable traces for every process;
* **analytic throughput** — the marked-graph bound of
  :mod:`repro.lis.throughput` (both implementations cross-checked)
  must upper-bound every measured process rate in the uniform regime.

The shift-register wrapper (Casu & Macchiarulo) joins the oracle in
the **regular-traffic regime** (``repro verify --traffic regular``):
there, topologies are uniform-schedule and jitter-free, and
:mod:`repro.verify.regular` plans each process's static activation —
start-up prefix plus periodic ring — from the FSM reference run, so
both the behavioural ``shiftreg`` shell and the ``rtl-shiftreg``
RTL-in-the-loop shell replay the reference schedule exactly and are
held to the same stream/trace/throughput checks.  Random-traffic
batches still exclude it: jitter violates its environment hypothesis
by design.

The package is organized around two seams:

* the **style registry** (:mod:`repro.verify.styles`) — one
  :class:`StyleSpec` per wrapper style carrying its shell builder,
  traffic eligibility, cycle-exact reference and engine needs; every
  style set, cycle-exact pair, and ``repro verify --list-styles`` row
  derives from it;
* the **oracle pipeline** (:mod:`repro.verify.oracles`) — independent
  :class:`Oracle` objects (exception, stream-prefix, cycle-exact,
  relay-occupancy, analytic-bounds, perturbation) that consume
  :class:`StyleRun` maps and emit :class:`Divergence` records;
  :func:`run_case` is a registry fold (``run_styles``) followed by a
  pipeline fold (``run_pipeline``).

The **metamorphic latency-perturbation oracle**
(:mod:`repro.verify.perturb`, ``repro verify --perturb K``) finally
tests the methodology's own headline claim: for every case it derives
K latency-perturbed variants of the topology
(:func:`repro.sched.generate.derive_variants` — re-segmented channels,
extra feed-forward pipelining, optional floorplan-driven replanning
via :func:`repro.lis.floorplan.plan_channels`, and with
``--perturb-dynamic`` *dynamic* variants that inject seeded mid-run
relay/link stalls via :mod:`repro.lis.stall`) and demands that sink
streams stay token-identical to the base on the common prefix, that
each variant respects *its own* marked-graph throughput bound, and
that no relay station ever exceeds its capacity-2 occupancy
invariant.  With ``--perturb-styles all`` every variant runs under
every style the case exercises — RTL-in-the-loop styles included —
with per-variant cycle-exact checks on top.

Failing cases are shrunk to minimal reproducers
(:func:`repro.verify.shrink_case`) and reported with their topology as
JSON; failing perturbations shrink further, to the minimal divergent
base-plus-variant pair.  The :class:`BatchRunner` fans cases across
**supervised** worker processes (:mod:`repro.verify.supervise`) with
deterministic per-case seeds, so ``repro verify --cases N --seed S``
is reproducible at any job count; a worker that crashes or hangs past
the per-case ``--timeout`` becomes a structured ``crash``/``timeout``
outcome (retried ``--retries`` times first) instead of sinking the
batch, ``--checkpoint``/``--resume`` stream outcomes into a resumable
campaign journal (:mod:`repro.verify.campaign`), and the fault model
itself is exercised by seeded fault injection
(:mod:`repro.verify.chaos`, ``--chaos``).  Every batch carries a
topology-shape coverage report (:mod:`repro.verify.coverage`) rendered
by ``repro verify --coverage`` or exported as JSON for CI trend
tracking (``repro coverage-diff`` compares two such artifacts and
fails on shrinking support).

Campaigns are observable end to end (:mod:`repro.verify.telemetry`):
``repro verify --events FILE`` streams stage spans, fault events and
cache/corpus counters into an append-only JSONL file, ``--metrics-json
FILE`` exports the aggregated rollup, and ``repro report`` analyzes
either.  Telemetry is liveness-only — outcomes, coverage and journals
are byte-identical with it on or off.
"""

from .styles import (
    ALL_STYLES,
    BEHAVIOURAL_STYLES,
    CYCLE_EXACT_PAIRS,
    DEFAULT_STYLES,
    REGULAR_STYLES,
    RTL_STYLES,
    SHIFTREG_STYLES,
    StyleSpec,
    cycle_exact_pairs,
    format_style_registry,
    get_style,
    register_style,
    registered_styles,
    style_specs,
    styles_for_traffic,
)
from .cases import (
    CaseOutcome,
    Divergence,
    MixPearl,
    StyleRun,
    VerifyCase,
    build_system,
    run_case,
    run_styles,
    simulate_topology,
    topology_marked_graph,
)
from .oracles import (
    AnalyticBoundsOracle,
    CycleExactOracle,
    ExceptionOracle,
    Oracle,
    RelayOccupancyOracle,
    StreamPrefixOracle,
    default_pipeline,
    run_pipeline,
    throughput_slack,
    uniform_loop_bounds,
)
from .coverage import (
    CoverageDiff,
    CoverageReport,
    case_bins,
    diff_coverage,
    support_total,
    topology_features,
)
from .corpus import (
    corpus_digest,
    generate_guided_topologies,
    load_corpus,
    novelty_score,
    save_topology,
    select_interesting,
    topology_digest,
)
from .perturb import (
    PERTURB_STYLE_MODES,
    PerturbationOracle,
    case_variants,
    check_perturbations,
    perturb_style_set,
    run_variant,
)
from .regular import (
    StaticActivation,
    plan_static_activation,
    plan_topology_activations,
)
from .campaign import (
    CampaignJournal,
    config_fingerprint,
    open_journal,
    write_atomic,
)
from .chaos import CHAOS_EXIT, ChaosConfig, parse_chaos
from .runner import (
    GEN_MODES,
    BatchConfig,
    BatchReport,
    BatchRunner,
    make_cases,
    reproducer_dict,
    run_cases_supervised,
)
from .shrink import shrink_case
from . import telemetry
from .telemetry import (
    EVENTS_VERSION,
    STAGE_SPANS,
    EventWriter,
    Rollup,
    TelemetrySession,
    read_events,
    render_compare,
    render_report,
    rollup_from_records,
)
from .supervise import (
    MAX_BACKOFF,
    SupervisedPool,
    WorkerFault,
    backoff_delay,
)

__all__ = [
    "ALL_STYLES",
    "AnalyticBoundsOracle",
    "BEHAVIOURAL_STYLES",
    "BatchConfig",
    "BatchReport",
    "BatchRunner",
    "CHAOS_EXIT",
    "CYCLE_EXACT_PAIRS",
    "CampaignJournal",
    "CaseOutcome",
    "ChaosConfig",
    "CoverageDiff",
    "CoverageReport",
    "CycleExactOracle",
    "DEFAULT_STYLES",
    "Divergence",
    "EVENTS_VERSION",
    "EventWriter",
    "ExceptionOracle",
    "GEN_MODES",
    "MAX_BACKOFF",
    "MixPearl",
    "Oracle",
    "PERTURB_STYLE_MODES",
    "PerturbationOracle",
    "REGULAR_STYLES",
    "RTL_STYLES",
    "RelayOccupancyOracle",
    "Rollup",
    "SHIFTREG_STYLES",
    "STAGE_SPANS",
    "StaticActivation",
    "StreamPrefixOracle",
    "StyleRun",
    "StyleSpec",
    "SupervisedPool",
    "TelemetrySession",
    "VerifyCase",
    "WorkerFault",
    "backoff_delay",
    "build_system",
    "case_bins",
    "case_variants",
    "check_perturbations",
    "config_fingerprint",
    "corpus_digest",
    "cycle_exact_pairs",
    "default_pipeline",
    "diff_coverage",
    "generate_guided_topologies",
    "load_corpus",
    "novelty_score",
    "format_style_registry",
    "get_style",
    "make_cases",
    "open_journal",
    "parse_chaos",
    "perturb_style_set",
    "plan_static_activation",
    "plan_topology_activations",
    "read_events",
    "register_style",
    "registered_styles",
    "render_compare",
    "render_report",
    "reproducer_dict",
    "rollup_from_records",
    "run_case",
    "run_cases_supervised",
    "run_pipeline",
    "run_styles",
    "run_variant",
    "save_topology",
    "select_interesting",
    "shrink_case",
    "simulate_topology",
    "style_specs",
    "styles_for_traffic",
    "support_total",
    "telemetry",
    "throughput_slack",
    "topology_digest",
    "topology_features",
    "topology_marked_graph",
    "uniform_loop_bounds",
    "write_atomic",
]
