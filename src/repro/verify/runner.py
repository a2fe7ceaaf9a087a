"""Batch execution of verification cases across supervised workers.

Per-case seeds are drawn once from the master seed, so the case list —
and therefore the whole report — is a pure function of
``(seed, cases, profile, traffic)``: changing ``--jobs`` only changes
wall clock, never results.

Fan-out goes through the supervised pool
(:mod:`repro.verify.supervise`): a worker that segfaults, is
OOM-killed, or hangs past the per-case ``timeout`` is killed and
replaced, its case retried up to ``retries`` times with capped
backoff, and — if it keeps failing — finalized as a structured
``crash``/``timeout`` :class:`~repro.verify.cases.CaseOutcome`
instead of sinking the batch.  With ``--checkpoint`` every finished
outcome streams into a resumable campaign journal
(:mod:`repro.verify.campaign`).  The pool (with ``multiprocessing``),
the shrinker, the corpus scheduler and the journal are imported where
a run first uses them, so an in-process campaign never loads them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..rtl.simulator import resolve_engine
from ..sched.generate import (
    PROFILE_PRESETS,
    TRAFFIC_MODES,
    TopologyProfile,
    random_topology,
    topology_from_dict,
    topology_to_dict,
    variant_from_dict,
    variant_to_dict,
)
from . import telemetry
from .cases import CaseOutcome, VerifyCase, run_case
from .chaos import ChaosConfig
from .coverage import CoverageReport
from .perturb import PERTURB_STYLE_MODES
from .styles import styles_for_traffic

if TYPE_CHECKING:
    from .supervise import WorkerFault

#: A shrink re-simulates its case many times while bisecting, so its
#: wall-clock guard is the per-case timeout scaled by this factor.
SHRINK_TIMEOUT_SCALE = 16

#: Topology-generation strategies (``--gen``): ``"random"`` draws every
#: case i.i.d. from the profile; ``"coverage"`` schedules a corpus and
#: mutates toward under-populated coverage bins
#: (:mod:`repro.verify.corpus`).
GEN_MODES = ("random", "coverage")


@dataclass(frozen=True)
class BatchConfig:
    """Parameters of one ``repro verify`` batch.

    * ``cases`` / ``seed`` — batch size and master seed; per-case seeds
      are drawn once from the master seed so the case list is
      deterministic;
    * ``jobs`` — worker processes (results are job-count independent);
    * ``cycles`` — simulated cycles per case and style;
    * ``styles`` — wrapper styles to cross-check; ``None`` (the
      default) resolves by traffic regime: the five random-traffic
      styles, plus both shift-register styles for regular traffic;
    * ``profile`` — a :class:`TopologyProfile` or one of the
      :data:`~repro.sched.generate.PROFILE_PRESETS` names
      (``small``/``soc``/``stress``/``regular``);
    * ``traffic`` — ``"random"`` / ``"regular"`` override of the
      profile's traffic regime; ``None`` keeps the profile's own;
    * ``deadlock_window`` — stop a case after this many globally idle
      cycles (``None`` disables the early exit);
    * ``shrink`` — minimize failing cases into replayable topology-JSON
      reproducers;
    * ``engine`` — RTL simulation backend for the RTL-in-the-loop
      styles (``"compiled"`` / ``"interp"``); ``None`` resolves once
      at construction through the simulator default (so the
      ``REPRO_RTL_ENGINE`` environment override applies to verify
      runs);
    * ``perturb`` / ``perturb_floorplan`` — metamorphic latency
      perturbation (:mod:`repro.verify.perturb`): derive this many
      latency-perturbed variants per case and demand stream
      invariance, per-variant throughput bounds and relay-occupancy
      invariants; ``perturb_floorplan`` adds floorplan-driven variants
      to the perturbation kinds;
    * ``perturb_styles`` — run each variant under the reference style
      only (``"reference"``, the default) or under every style of the
      case (``"all"``, RTL-in-the-loop styles included, with
      per-variant cycle-exact checks);
    * ``perturb_dynamic`` — add dynamic-latency variants: seeded
      mid-run link/relay stall plans (:mod:`repro.lis.stall`) over
      the unchanged topology;
    * ``timeout`` — per-case wall-clock seconds before the supervisor
      kills and retries/faults the case (``None`` disables deadlines);
    * ``retries`` / ``retry_backoff`` — how many extra attempts a
      crashed or timed-out case gets, and the base of the capped
      exponential delay between them (:func:`~repro.verify.supervise.
      backoff_delay`);
    * ``chaos`` — optional seeded fault-injection plan
      (:class:`~repro.verify.chaos.ChaosConfig`), applied worker-side
      to exercise the fault model; forces supervised (subprocess)
      execution even at ``jobs=1``;
    * ``gen`` — topology-generation strategy (:data:`GEN_MODES`):
      ``"random"`` (the default) draws cases i.i.d. from the profile,
      ``"coverage"`` runs the coverage-guided corpus scheduler
      (:mod:`repro.verify.corpus`) — same per-case seeds, but each
      slot may swap its fresh draw for a mutant that fills
      under-populated coverage bins;
    * ``corpus`` — corpus directory for the coverage-guided scheduler:
      its topologies seed the mutation pool before generation, and a
      completed batch persists its interesting survivors (plus any
      shrunk failure reproducers) back into it.

    ``timeout``, ``retries``, ``retry_backoff`` and ``jobs`` affect
    liveness only — never results.  The generated case list — and so
    the whole report — is a pure function of ``(seed, cases, gen,
    profile, traffic)`` plus, for ``--gen coverage``, the corpus
    contents at generation time.
    """

    cases: int = 50
    seed: int = 0
    jobs: int = 1
    cycles: int = 300
    styles: tuple[str, ...] | None = None
    profile: TopologyProfile | str = "small"
    traffic: str | None = None
    deadlock_window: int | None = 64
    shrink: bool = True
    engine: str | None = None
    perturb: int = 0
    perturb_floorplan: bool = False
    perturb_styles: str = "reference"
    perturb_dynamic: bool = False
    timeout: float | None = None
    retries: int = 1
    retry_backoff: float = 0.1
    chaos: ChaosConfig | None = None
    gen: str = "random"
    corpus: str | None = None

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise ValueError("need at least one case")
        if self.jobs < 1:
            raise ValueError("need at least one job")
        if self.cycles < 1:
            raise ValueError("need at least one cycle")
        if self.deadlock_window is not None and self.deadlock_window < 1:
            raise ValueError(
                "deadlock window must be at least one cycle "
                "(use None to disable the early exit)"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("per-case timeout must be positive")
        if self.retries < 0:
            raise ValueError("retry count must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry backoff must be >= 0")
        if self.perturb < 0:
            raise ValueError("perturb variant count must be >= 0")
        if self.perturb_styles not in PERTURB_STYLE_MODES:
            raise ValueError(
                f"unknown perturb-styles mode {self.perturb_styles!r}; "
                f"choose from {PERTURB_STYLE_MODES}"
            )
        if self.gen not in GEN_MODES:
            raise ValueError(
                f"unknown generator strategy {self.gen!r}; choose "
                f"from {GEN_MODES}"
            )
        # Pin the resolved engine in the (frozen) config so the batch
        # is deterministic even if workers see a different environment.
        object.__setattr__(
            self, "engine", resolve_engine(self.engine)
        )
        if isinstance(self.profile, str) and (
            self.profile not in PROFILE_PRESETS
        ):
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from "
                f"{sorted(PROFILE_PRESETS)}"
            )
        if self.traffic is not None and self.traffic not in TRAFFIC_MODES:
            raise ValueError(
                f"unknown traffic mode {self.traffic!r}; choose from "
                f"{sorted(TRAFFIC_MODES)}"
            )
        if self.styles is None:
            # Resolve the style set once so cases, workers and the
            # report all see the same tuple.
            object.__setattr__(
                self, "styles", styles_for_traffic(self.traffic_name)
            )

    @property
    def profile_name(self) -> str:
        return self.profile if isinstance(self.profile, str) else "custom"

    @property
    def topology_profile(self) -> TopologyProfile:
        """The effective profile: the preset (or explicit profile) with
        the ``traffic`` override applied."""
        profile = (
            PROFILE_PRESETS[self.profile]
            if isinstance(self.profile, str)
            else self.profile
        )
        if self.traffic is not None and profile.traffic != self.traffic:
            profile = replace(profile, traffic=self.traffic)
        return profile

    @property
    def traffic_name(self) -> str:
        """The effective traffic regime of the batch."""
        if self.traffic is not None:
            return self.traffic
        return self.topology_profile.traffic


def make_cases(config: BatchConfig) -> list[VerifyCase]:
    """The deterministic case list of a batch.

    Per-case seeds are drawn identically for every generator strategy;
    ``gen="coverage"`` only changes which *topology* fills each slot
    (the corpus scheduler may swap the fresh draw for a mutant).  The
    whole list is built up front in the parent process, so ``--jobs``
    can never influence it.
    """
    rng = random.Random(config.seed)
    seeds = [rng.getrandbits(31) for _ in range(config.cases)]
    profile = config.topology_profile
    if config.gen == "coverage":
        from .corpus import generate_guided_topologies, load_corpus

        pool = (
            load_corpus(config.corpus, traffic=config.traffic_name)
            if config.corpus is not None
            else []
        )
        topologies = generate_guided_topologies(
            seeds, profile, corpus=pool, master_seed=config.seed
        )
    else:
        topologies = [
            random_topology(case_seed, profile) for case_seed in seeds
        ]
    return [
        VerifyCase(
            index=index,
            seed=case_seed,
            cycles=config.cycles,
            topology=topology,
            styles=config.styles,
            deadlock_window=config.deadlock_window,
            engine=config.engine,
            perturb=config.perturb,
            perturb_floorplan=config.perturb_floorplan,
            perturb_styles=config.perturb_styles,
            perturb_dynamic=config.perturb_dynamic,
        )
        for index, (case_seed, topology) in enumerate(
            zip(seeds, topologies)
        )
    ]


def reproducer_dict(minimal: VerifyCase) -> dict:
    """The replayable reproducer JSON of a (shrunk) case: topology plus
    the run parameters ``--repro`` needs to replay it exactly as it
    failed."""
    reproducer = topology_to_dict(minimal.topology)
    reproducer["cycles"] = minimal.cycles
    reproducer["deadlock_window"] = minimal.deadlock_window
    reproducer["styles"] = list(minimal.styles)
    # Without these two, a replay would run under seed 0 and whatever
    # engine the replaying CLI defaults to — silently missing seed- or
    # engine-dependent failures.  ``seed`` stays the topology's own
    # (build_system derives credit tokens from it); the case seed,
    # which seeds the perturbation variants, may differ from it.
    reproducer["case_seed"] = minimal.seed
    reproducer["engine"] = minimal.engine
    if minimal.variants is not None or minimal.perturb:
        reproducer["perturb"] = (
            len(minimal.variants)
            if minimal.variants is not None
            else minimal.perturb
        )
        reproducer["perturb_floorplan"] = minimal.perturb_floorplan
        reproducer["perturb_styles"] = minimal.perturb_styles
        reproducer["perturb_dynamic"] = minimal.perturb_dynamic
    if minimal.variants is not None:
        # Perturbed cases shrink to a pinned variant set (ideally one:
        # the minimal divergent pair, with a minimal stall plan for
        # dynamic variants).
        reproducer["variants"] = [
            variant_to_dict(variant) for variant in minimal.variants
        ]
    return reproducer


def case_from_reproducer(
    data: Mapping[str, Any], defaults: Mapping[str, Any]
) -> VerifyCase:
    """The case a reproducer JSON (:func:`reproducer_dict`) replays.

    Saved reproducers carry their run parameters; ``defaults`` (the
    CLI's ``cycles``, ``deadlock_window``, ``engine``, ``perturb``,
    ``perturb_floorplan``, ``perturb_styles`` and ``perturb_dynamic``)
    only fill the gaps of hand-written topology files.  A non-None
    ``defaults["engine"]`` overrides the recorded engine; otherwise
    ``engine=None`` resolves exactly like :class:`BatchConfig`, so a
    replay runs under the engine the failure was found with.
    Reproducers from the retired ``"vectorized"`` engine replay under
    ``"compiled"``: their outcomes were byte-identical by contract.
    Their legacy ``"lanes"`` key is ignored.  The case seed is
    ``case_seed``; reproducers written before it existed recorded the
    case seed as ``seed``, which then seeds the topology too.  Raises
    :class:`ValueError` for an unknown perturb-styles mode.
    """
    recorded_engine = data.get("engine")
    if recorded_engine == "vectorized":
        recorded_engine = "compiled"
    topology = topology_from_dict(data)
    case = VerifyCase(
        index=0,
        seed=int(data.get("case_seed", data.get("seed", 0))),
        cycles=int(data.get("cycles", defaults["cycles"])),
        topology=topology,
        # Hand-written files without a style list get the styles their
        # traffic regime would run with: regular-traffic topologies
        # include the shift-register styles.
        styles=(
            tuple(data["styles"])
            if "styles" in data
            else styles_for_traffic(topology.traffic)
        ),
        deadlock_window=data.get(
            "deadlock_window", defaults["deadlock_window"]
        ),
        engine=resolve_engine(
            defaults["engine"]
            if defaults["engine"] is not None
            else recorded_engine
        ),
        perturb=int(data.get("perturb", defaults["perturb"])),
        perturb_floorplan=bool(
            data.get("perturb_floorplan", defaults["perturb_floorplan"])
        ),
        perturb_styles=str(
            data.get("perturb_styles", defaults["perturb_styles"])
        ),
        perturb_dynamic=bool(
            data.get("perturb_dynamic", defaults["perturb_dynamic"])
        ),
        # Pinned variants replay verbatim; without them ``perturb``
        # re-derives them from the topology and seed.
        variants=(
            tuple(variant_from_dict(v) for v in data["variants"])
            if "variants" in data
            else None
        ),
    )
    if case.perturb_styles not in PERTURB_STYLE_MODES:
        raise ValueError(
            f"unknown perturb-styles mode {case.perturb_styles!r}; "
            f"choose from {PERTURB_STYLE_MODES}"
        )
    return case


@dataclass
class BatchReport:
    """Aggregated outcome of one batch.

    * ``config`` — the :class:`BatchConfig` the batch ran with;
    * ``outcomes`` — one :class:`~repro.verify.cases.CaseOutcome` per
      case, in case order (on an interrupted run: per *finished*
      case);
    * ``duration_s`` — wall-clock seconds for the whole batch;
    * ``shrunk`` — for each failing case, the minimal reproducer's
      topology JSON (replayable with ``repro verify --repro``);
    * ``coverage`` — topology-shape histograms over the batch's case
      list (:class:`~repro.verify.coverage.CoverageReport`), rendered
      by ``repro verify --coverage``;
    * ``interrupted`` — the batch was cut short (Ctrl-C); the report
      covers the cases finished so far;
    * ``shrink_faults`` — ``(case index, detail)`` for shrinks the
      supervisor had to abandon (hang/crash while minimizing);
    * ``corpus_saved`` — topologies persisted into ``--corpus`` after
      the batch (interesting survivors + shrunk reproducers).
    """

    config: BatchConfig
    outcomes: list[CaseOutcome]
    duration_s: float
    shrunk: list[tuple[CaseOutcome, dict]] = field(default_factory=list)
    coverage: CoverageReport | None = None
    interrupted: bool = False
    shrink_faults: list[tuple[int, str]] = field(default_factory=list)
    corpus_saved: int = 0

    @property
    def completed(self) -> list[CaseOutcome]:
        """Outcomes whose case actually ran to completion."""
        return [o for o in self.outcomes if not o.faulted]

    @property
    def faulted(self) -> list[CaseOutcome]:
        """Crash/timeout outcomes (no verification data, liveness
        record only)."""
        return [o for o in self.outcomes if o.faulted]

    @property
    def crashes(self) -> list[CaseOutcome]:
        return [o for o in self.outcomes if o.status == "crash"]

    @property
    def timeouts(self) -> list[CaseOutcome]:
        return [o for o in self.outcomes if o.status == "timeout"]

    @property
    def vacuous(self) -> bool:
        """True when the whole batch moved zero sink tokens — every
        completed case stalled, so the differential checks compared
        nothing.  Faulted cases carry no data and don't count either
        way."""
        return bool(self.outcomes) and not any(
            outcome.sink_tokens for outcome in self.completed
        )

    @property
    def ok(self) -> bool:
        # A batch that verified nothing must not read as a pass: a
        # regression that deadlocks every wrapper style produces clean
        # prefix/trace comparisons over empty data.  Faulted cases are
        # a liveness event, not a divergence — they don't fail the
        # batch (the summary reports them; rerun or retry to close the
        # gap).
        return not self.failures and not self.vacuous

    @property
    def failures(self) -> list[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def checks(self) -> int:
        return sum(outcome.checks for outcome in self.outcomes)

    def summary(self) -> str:
        total = len(self.outcomes)
        failed = len(self.failures)
        tokens = sum(o.sink_tokens for o in self.outcomes)
        rate = total / self.duration_s if self.duration_s > 0 else 0.0
        perturb = ""
        if self.config.perturb:
            perturb = (
                f", perturb {self.config.perturb}"
                f"{'+floorplan' if self.config.perturb_floorplan else ''}"
                f"{'+dynamic' if self.config.perturb_dynamic else ''}"
            )
            if self.config.perturb_styles != "reference":
                perturb += f" ({self.config.perturb_styles} styles)"
        faults = ""
        if self.faulted:
            faults = (
                f", {len(self.crashes)} crashed, "
                f"{len(self.timeouts)} timed out"
            )
        # Only non-default strategies are tagged, keeping the default
        # summary line byte-identical to earlier releases.
        gen = "" if self.config.gen == "random" else (
            f", gen {self.config.gen}"
        )
        lines = [
            f"verify: {total} cases, {self.checks} cross-checks, "
            f"{failed} divergent{faults}, seed {self.config.seed}, "
            f"profile {self.config.profile_name}, "
            f"traffic {self.config.traffic_name}, "
            f"engine {self.config.engine}"
            f"{gen}{perturb}",
            f"  {tokens} sink tokens observed; {self.duration_s:.1f}s "
            f"({rate:.1f} cases/s, jobs={self.config.jobs})",
        ]
        for outcome in self.failures:
            lines.append(
                f"  case {outcome.index} (seed {outcome.seed}, "
                f"{outcome.topology_stats}):"
            )
            for divergence in outcome.divergences:
                lines.append(f"    {divergence}")
        for outcome in self.faulted:
            plural = "s" if outcome.attempts != 1 else ""
            lines.append(
                f"  case {outcome.index} (seed {outcome.seed}): "
                f"{outcome.status} after {outcome.attempts} "
                f"attempt{plural} — {outcome.fault}"
            )
        for outcome, topology in self.shrunk:
            variants = topology.get("variants")
            with_variants = (
                ""
                if variants is None
                else f" + {len(variants)} latency variant(s)"
            )
            lines.append(
                f"  minimal reproducer for case {outcome.index}: "
                f"{len(topology['processes'])} process(es)"
                f"{with_variants} — replay "
                "with `repro verify --repro <file.json>`"
            )
        for index, detail in self.shrink_faults:
            lines.append(
                f"  shrink abandoned for case {index}: {detail} "
                "(reproducer not minimized)"
            )
        if self.corpus_saved:
            lines.append(
                f"  corpus: {self.corpus_saved} new topolog"
                f"{'y' if self.corpus_saved == 1 else 'ies'} "
                f"persisted to {self.config.corpus}"
            )
        if self.interrupted:
            done = len(self.outcomes)
            lines.append(
                f"  INTERRUPTED after {done}/{self.config.cases} "
                "cases — partial report"
                + (
                    "; resume with --checkpoint <file> --resume"
                    if done < self.config.cases
                    else ""
                )
            )
        if self.vacuous:
            lines.append(
                "  VACUOUS: no sink received a single token in any "
                "case — nothing was actually compared"
            )
        elif not self.failures:
            lines.append("  zero divergences")
        return "\n".join(lines)


# -- supervised fan-out --------------------------------------------------------


def _campaign_worker(
    case: VerifyCase, attempt: int, chaos: ChaosConfig | None
) -> CaseOutcome:
    """Worker-side unit of campaign work: one case.  Runs in a
    supervised child process; the chaos hook fires *before* the work so
    an injected crash looks exactly like a real worker death."""
    if chaos is not None:
        chaos.apply(case.index, attempt)
    outcome = run_case(case)
    outcome.attempts = attempt + 1
    return outcome


def _fault_outcome(case: VerifyCase, fault: WorkerFault) -> CaseOutcome:
    """The structured outcome of a case the supervisor gave up on."""
    return CaseOutcome(
        index=case.index,
        seed=case.seed,
        topology_stats=case.topology.stats(),
        status=fault.kind,
        attempts=fault.attempts,
        fault=fault.detail,
    )


def _emit_outcome_telemetry(
    outcome: CaseOutcome, chaos: ChaosConfig | None
) -> None:
    """Fault (and flaky-recovery) events for one finalized outcome.

    Runs parent-side because a crashed worker cannot report anything;
    the chaos plan lives in the parent, so injected faults are tagged
    ``injected=true`` — the chaos CI smoke asserts injected vs organic
    counts from the metrics rollup instead of grepping the summary."""
    injected = chaos is not None and outcome.index in chaos.faulted
    if outcome.faulted:
        telemetry.event(
            "fault",
            case=outcome.index,
            status=outcome.status,
            attempts=outcome.attempts,
            injected=injected,
        )
        telemetry.count(
            "fault.injected" if injected else "fault.organic"
        )
    elif outcome.attempts > 1:
        telemetry.event(
            "fault.recovered",
            case=outcome.index,
            attempts=outcome.attempts,
            injected=injected,
        )


def run_cases_supervised(
    cases: list[VerifyCase],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.1,
    chaos: ChaosConfig | None = None,
    on_result=None,
) -> list[CaseOutcome]:
    """Run ``cases`` under the supervised pool; crashes and timeouts
    become ``crash``/``timeout`` outcomes instead of exceptions.

    ``on_result`` fires once per finalized outcome, in completion order
    (the checkpoint journal hangs off it); the returned list is in case
    order.
    """
    from .supervise import SupervisedPool, WorkerFault

    outcomes: list[CaseOutcome] = []

    def handle(case: VerifyCase, result) -> None:
        if isinstance(result, WorkerFault):
            result = _fault_outcome(case, result)
        outcomes.append(result)
        if on_result is not None:
            on_result(result)

    pool = SupervisedPool(
        _campaign_worker,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        worker_args=(chaos,),
    )
    pool.run(cases, on_result=handle)
    return sorted(outcomes, key=lambda outcome: outcome.index)


def _shrink_worker(case: VerifyCase, attempt: int) -> dict:
    """Supervised shrink: minimize one failing case and return its
    reproducer JSON (runs in a child so a hanging shrink can be
    killed without wedging the finished report)."""
    from .shrink import shrink_case

    return reproducer_dict(shrink_case(case))


class BatchRunner:
    """Fans verification cases over supervised worker processes.

    ``checkpoint`` streams finished outcomes into a campaign journal
    (:mod:`repro.verify.campaign`); with ``resume`` the journal's
    recorded outcomes are replayed and only the remainder runs.
    ``KeyboardInterrupt`` yields a partial report
    (``report.interrupted``) instead of a traceback — the journal
    holds everything finished before the interrupt.
    """

    def __init__(
        self,
        config: BatchConfig,
        checkpoint: Path | str | None = None,
        resume: bool = False,
    ) -> None:
        self.config = config
        self.checkpoint = checkpoint
        self.resume = resume

    def run(self) -> BatchReport:
        config = self.config
        session = telemetry.active()
        # Parent-process engine activity (in-process execution and
        # shrinks, activation planning) reaches the rollup via this
        # whole-run delta; worker-side deltas ride the supervise relay.
        engine_before = (
            telemetry.engine_stats() if session is not None else None
        )
        with telemetry.span("generate", gen=config.gen):
            cases = make_cases(config)
        started = time.perf_counter()
        journal = None
        outcomes_by_index: dict[int, CaseOutcome] = {}
        if self.checkpoint is not None:
            from .campaign import open_journal

            journal, outcomes_by_index = open_journal(
                self.checkpoint, config, self.resume
            )
        try:
            remaining = [
                case
                for case in cases
                if case.index not in outcomes_by_index
            ]

            def record(outcome: CaseOutcome) -> None:
                outcomes_by_index[outcome.index] = outcome
                if session is not None:
                    _emit_outcome_telemetry(outcome, config.chaos)
                if journal is not None:
                    journal.record(outcome)

            interrupted = False
            try:
                self._execute(remaining, record)
            except KeyboardInterrupt:
                interrupted = True
            duration = time.perf_counter() - started
            report = BatchReport(
                config=config,
                outcomes=[
                    outcomes_by_index[index]
                    for index in sorted(outcomes_by_index)
                ],
                duration_s=duration,
                coverage=CoverageReport.from_cases(cases),
                interrupted=interrupted,
            )
            if config.shrink and not interrupted:
                try:
                    self._shrink(report, cases)
                except KeyboardInterrupt:
                    report.interrupted = True
            if not report.interrupted:
                self._persist_corpus(report, cases)
            return report
        finally:
            if engine_before is not None:
                telemetry.emit_engine_delta(engine_before)
            if journal is not None:
                journal.close()

    def _persist_corpus(
        self, report: BatchReport, cases: list[VerifyCase]
    ) -> None:
        """Persist the batch's interesting topologies into ``--corpus``
        after a completed (non-interrupted) run.

        Coverage-guided batches contribute every topology that widened
        histogram support (:func:`~repro.verify.corpus.
        select_interesting`); any batch contributes its shrunk failure
        reproducers — a minimal divergent topology is the most
        interesting seed a future campaign can mutate.  Interrupted
        runs persist nothing, so a later ``--resume`` still sees the
        corpus the fingerprint was computed over.
        """
        config = self.config
        if config.corpus is None:
            return
        from ..sched.generate import topology_from_dict
        from .corpus import save_topology, select_interesting

        persisted = 0
        candidates = []
        if config.gen == "coverage":
            candidates.extend(
                select_interesting([case.topology for case in cases])
            )
        for _, reproducer in report.shrunk:
            try:
                candidates.append(topology_from_dict(reproducer))
            except (ValueError, KeyError, TypeError):
                continue
        for topology in candidates:
            if save_topology(config.corpus, topology) is not None:
                persisted += 1
        report.corpus_saved = persisted

    def _execute(self, cases: list[VerifyCase], record) -> None:
        """Run ``cases``, calling ``record`` once per finished outcome
        (in completion order)."""
        config = self.config
        if not cases:
            return
        supervised = (
            config.jobs > 1
            or config.timeout is not None
            or config.chaos is not None
        )
        if supervised:
            run_cases_supervised(
                cases,
                jobs=config.jobs,
                timeout=config.timeout,
                retries=config.retries,
                backoff=config.retry_backoff,
                chaos=config.chaos,
                on_result=record,
            )
        else:
            for case in cases:
                record(run_case(case))

    def _shrink(
        self, report: BatchReport, cases: list[VerifyCase]
    ) -> None:
        """Minimize the report's failing cases into reproducers.  With
        a per-case ``timeout`` configured, shrinks run supervised under
        ``timeout × SHRINK_TIMEOUT_SCALE`` so a hanging shrink is
        abandoned (``report.shrink_faults``), never a wedge."""
        config = self.config
        failures = report.failures
        if not failures:
            return
        from .shrink import shrink_case

        case_by_index = {case.index: case for case in cases}
        if config.timeout is None:
            for outcome in failures:
                minimal = shrink_case(case_by_index[outcome.index])
                report.shrunk.append((outcome, reproducer_dict(minimal)))
            return
        from .supervise import SupervisedPool, WorkerFault

        pool = SupervisedPool(
            _shrink_worker,
            jobs=min(config.jobs, len(failures)),
            timeout=config.timeout * SHRINK_TIMEOUT_SCALE,
            retries=0,
            backoff=0.0,
        )
        results = {
            case.index: result
            for case, result in pool.run(
                [case_by_index[o.index] for o in failures]
            )
        }
        for outcome in failures:
            result = results.get(outcome.index)
            if isinstance(result, WorkerFault):
                report.shrink_faults.append(
                    (outcome.index, f"{result.kind}: {result.detail}")
                )
            elif result is not None:
                report.shrunk.append((outcome, result))
