"""One verification case: build, simulate, cross-check a topology.

A *case* is pure data — a :class:`~repro.sched.generate.SystemTopology`
plus run parameters — and :func:`run_case` is a pure function of it, so
cases can be shipped to worker processes and replayed bit-identically.

This module owns the case data types and the simulation machinery:
wrapper styles come from the registry (:mod:`repro.verify.styles`, one
:class:`~repro.verify.styles.StyleSpec` per style) and the checks from
the oracle pipeline (:mod:`repro.verify.oracles`), so :func:`run_case`
is just ``run_styles`` (a registry fold over the case's style list,
running the cycle-exact pairs in lockstep groups,
:mod:`repro.verify.lockstep`) followed by ``run_pipeline`` (an oracle
fold over the resulting runs).
Adding a wrapper style or an invariant never touches this file.

Every process is paired with a :class:`MixPearl`, a deterministic
token-mixing pearl whose outputs hash everything it has consumed so
far; any token that is lost, duplicated, reordered or fabricated
anywhere in the system changes the sink streams, which is what makes
prefix comparison across wrapper styles a strong oracle.

Regular-traffic cases additionally exercise the shift-register styles
(``shiftreg`` / ``rtl-shiftreg``): their static activation is planned
from the FSM reference run (:mod:`repro.verify.regular`) and must
replay it cycle-for-cycle, so they join both the stream checks and the
cycle-exact trace checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..lis.pearl import Pearl
from ..lis.shell import Shell
from ..lis.signals import checkpointed
from ..lis.simulator import Checkpoint, Simulation
from ..lis.stall import LinkStall
from ..lis.stream import Sink
from ..lis.system import System
from ..lis.throughput import MarkedGraph
from ..sched.generate import SystemTopology, TopologyVariant
from . import lockstep, telemetry
from .lockstep import LockstepShell, Riders, lockstep_groups
from .regular import StaticActivation, plan_topology_activations
from .styles import (
    ALL_STYLES,
    BEHAVIOURAL_STYLES,
    CYCLE_EXACT_PAIRS,
    DEFAULT_STYLES,
    REGULAR_STYLES,
    RTL_STYLES,
    SHIFTREG_STYLES,
    get_style,
    styles_for_traffic,
)

__all__ = [
    "ALL_STYLES",
    "BEHAVIOURAL_STYLES",
    "CYCLE_EXACT_PAIRS",
    "CaseOutcome",
    "DEFAULT_STYLES",
    "Divergence",
    "MixPearl",
    "REGULAR_STYLES",
    "RTL_STYLES",
    "SHIFTREG_STYLES",
    "StyleRun",
    "VerifyCase",
    "build_system",
    "first_clean_style",
    "relay_peak_occupancy",
    "run_case",
    "run_styles",
    "simulate_topology",
    "styles_for_traffic",
    "topology_marked_graph",
]

_MIX = 0x9E3779B9
_MASK = 0xFFFFFFFF


@checkpointed
class MixPearl(Pearl):
    """Deterministic token-mixing pearl.

    Keeps a running 32-bit accumulator over everything consumed (port
    names resolve consumption order, so the value is independent of
    dict ordering) and derives every pushed token from it.
    """

    def __init__(self, name: str, schedule) -> None:
        super().__init__(name, schedule)
        acc = 0
        for char in name:
            acc = (acc * 31 + ord(char)) & _MASK
        self._acc = acc
        self._outputs = [
            tuple(enumerate(sorted(point.outputs)))
            for point in schedule.points
        ]

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        acc = self._acc
        for port in sorted(popped):
            acc = (
                acc * 1000003 + (int(popped[port]) & _MASK) + _MIX
            ) & _MASK
        acc = (acc * 1000003 + index + 1) & _MASK
        self._acc = acc
        return {
            port: (acc ^ (bit * _MIX)) & _MASK
            for bit, port in self._outputs[index]
        }

    def save_state(self) -> tuple:
        return super().save_state(), self._acc

    def load_state(self, state: tuple) -> None:
        super().load_state(state[0])
        self._acc = state[1]


def _credit_tokens(seed: int, channel_index: int, count: int) -> list[int]:
    """Deterministic reset-marking values for one feedback channel."""
    base = ((seed + 1) * 2654435761 + channel_index * 7919) & _MASK
    return [(base + k) & _MASK for k in range(count)]


def build_system(
    topology: SystemTopology,
    style: str,
    trace: bool = False,
    engine: str | None = None,
    activations: Mapping[str, StaticActivation] | None = None,
    riders: Riders | None = None,
) -> tuple[System, dict[str, Shell], dict[str, Sink]]:
    """Instantiate ``topology`` with wrappers of ``style``.

    Returns (system, shells by process name, sinks by sink name).
    ``style`` resolves through the registry
    (:func:`repro.verify.styles.get_style`); unknown names raise
    :class:`ValueError`.  With ``trace=True`` every shell records its
    per-cycle enable trace.  ``engine`` selects the RTL simulation
    backend for the RTL-in-the-loop styles (behavioural styles ignore
    it).  The shift-register styles (``shiftreg`` / ``rtl-shiftreg``)
    additionally need ``activations`` — per-process static activation
    plans from :func:`repro.verify.regular.plan_topology_activations`.
    With ``riders``, the system's
    :class:`~repro.verify.lockstep.Riders` record, every shell is a
    :class:`~repro.verify.lockstep.LockstepShell` led by ``style`` that
    also takes the decisions of the record's styles, which ride along
    until they detach; the system keeps the name of ``style``.
    """
    specs = [get_style(style)]
    if riders is not None:
        specs.extend(get_style(rider) for rider in riders.styles)
    system = System(f"{topology.name}:{style}")
    shells: dict[str, Shell] = {}
    for node in topology.processes:
        pearl = MixPearl(node.name, node.schedule)
        activation = (
            None if activations is None else activations.get(node.name)
        )
        built = [
            spec.build(
                pearl,
                node,
                topology.port_depth,
                engine=engine,
                activation=activation,
            )
            for spec in specs
        ]
        shell = built[0]
        if riders is not None:
            shell = LockstepShell(shell, built[1:], riders)
        if trace:
            shell.trace_enable = []
        system.add_patient(shell)
        shells[node.name] = shell
    for index, channel in enumerate(topology.channels):
        system.connect(
            shells[channel.producer],
            channel.out_port,
            shells[channel.consumer],
            channel.in_port,
            latency=channel.latency,
            initial_tokens=_credit_tokens(
                topology.seed, index, channel.tokens
            ),
        )
    for source in topology.sources:
        system.connect_source(
            source.name,
            range(source.base, source.base + source.n_tokens),
            shells[source.consumer],
            source.in_port,
            latency=source.latency,
            gaps=source.gaps,
        )
    sinks: dict[str, Sink] = {}
    for sink in topology.sinks:
        sinks[sink.name] = system.connect_sink(
            shells[sink.producer],
            sink.out_port,
            sink.name,
            latency=sink.latency,
            stalls=sink.stalls,
        )
    return system, shells, sinks


def topology_marked_graph(topology: SystemTopology) -> MarkedGraph:
    """The analytic throughput model of a topology (inter-process
    channels only, with their reset markings)."""
    graph = MarkedGraph()
    for node in topology.processes:
        graph.add_process(node.name)
    for channel in topology.channels:
        graph.add_channel(
            channel.producer,
            channel.consumer,
            latency=channel.latency,
            tokens=channel.tokens,
        )
    return graph


# -- case description and outcome ----------------------------------------------


@dataclass(frozen=True)
class VerifyCase:
    """One differential-verification work item (picklable)."""

    index: int
    seed: int
    cycles: int
    topology: SystemTopology
    styles: tuple[str, ...] = DEFAULT_STYLES
    deadlock_window: int | None = 64
    # RTL simulation backend for rtl-* styles; None follows the
    # simulator default.
    engine: str | None = None
    # Metamorphic latency perturbation (repro.verify.perturb): derive
    # this many latency-perturbed variants of the topology (seeded by
    # the case seed) and demand identical sink streams.
    perturb: int = 0
    perturb_floorplan: bool = False
    # Run perturbation variants under the reference style only
    # ("reference") or under every style of the case ("all",
    # including the RTL-in-the-loop styles).
    perturb_styles: str = "reference"
    # Add dynamic-latency variants: mid-run link/relay stall plans
    # (repro.lis.stall) over the unchanged topology.
    perturb_dynamic: bool = False
    # Explicit variant set; overrides derivation when not None (the
    # shrinker pins derived variants here to minimize the failing set,
    # and reproducer JSON carries them verbatim).
    variants: tuple[TopologyVariant, ...] | None = None


@dataclass(frozen=True)
class Divergence:
    """One cross-check failure inside a case.

    ``check`` is one of ``exception``, ``streams``, ``trace``,
    ``analytic``, ``relay``, or — from the metamorphic latency-
    perturbation oracle (:mod:`repro.verify.perturb`) —
    ``perturb-streams``, ``perturb-throughput``, ``perturb-relay``,
    ``perturb-trace``; for perturbation checks ``style`` carries the
    variant label (``resegment0``, ``pipeline1``, ``dynamic2``, …),
    suffixed with ``/style`` when variants run under every style
    (``--perturb-styles all``).
    """

    check: str
    style: str  # offending style ("" for style-independent checks)
    subject: str  # sink / process / graph element concerned
    detail: str

    def __str__(self) -> str:
        where = f" [{self.style}]" if self.style else ""
        return f"{self.check}{where} {self.subject}: {self.detail}"


@dataclass
class CaseOutcome:
    """Everything :func:`run_case` learned about one case.

    ``status`` is ``"completed"`` when the case actually ran;
    supervised campaigns (:mod:`repro.verify.runner`) finalize a case
    whose worker died or blew its deadline as ``"crash"`` /
    ``"timeout"``, with ``fault`` carrying the supervisor's detail and
    ``attempts`` the number of execution attempts spent.  Faulted
    outcomes carry no verification data — they are a liveness record,
    not a divergence.
    """

    index: int
    seed: int
    checks: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    cycles_executed: dict[str, int] = field(default_factory=dict)
    sink_tokens: int = 0
    topology_stats: str = ""
    status: str = "completed"
    attempts: int = 1
    fault: str | None = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def faulted(self) -> bool:
        return self.status != "completed"


@dataclass
class StyleRun:
    """What one simulation of a topology produced — the oracle's raw
    material (also the shape of a perturbation variant's run)."""

    streams: dict[str, list[Any]]
    traces: dict[str, list[bool]]
    periods: dict[str, int]
    executed: int
    error: str | None = None
    # Deepest relay-station occupancy seen anywhere: (station, depth),
    # or None when the system has no relay stations.
    relay_peak: tuple[str, int] | None = None
    deadlocked: bool = False


def relay_peak_occupancy(system: System) -> tuple[str, int] | None:
    """The deepest relay-station occupancy a run of ``system`` ever
    reached, as (station name, occupancy); None without stations."""
    peak: tuple[str, int] | None = None
    for station in system.relay_stations:
        if peak is None or station.max_occupancy > peak[1]:
            peak = (station.name, station.max_occupancy)
    return peak


@dataclass(frozen=True)
class BaseSystem:
    """A base run's built system, paused at the case's first stall
    cycle: what a dynamic variant under the same lead style resumes
    from instead of building and re-running its prefix."""

    system: System
    shells: dict[str, Shell]
    sinks: dict[str, Sink]
    checkpoint: Checkpoint
    trace: bool
    activations: Mapping[str, StaticActivation] | None
    # A lockstep system's rider record (None for a style run alone).
    riders: Riders | None = None


#: A case's base systems by their lead style; each stands for its lead
#: and the styles still riding at its checkpoint.  It lives only as
#: long as the case.
BaseSystems = dict[str, BaseSystem]


def _resumable(
    bases: BaseSystems,
    style: str,
    trace: bool,
    activations: Mapping[str, StaticActivation] | None,
    stalls: Sequence[LinkStall],
) -> BaseSystem | None:
    """The base a run led by ``style`` resumes from: built alike,
    traced if this run traces, and paused no later than the plan's
    first stall."""
    base = bases.get(style)
    if (
        base is None
        or base.activations != activations
        or (trace and not base.trace)
        or any(stall.start < base.checkpoint.cycle for stall in stalls)
    ):
        return None
    return base


def _simulate(
    topology: SystemTopology,
    style: str,
    cycles: int,
    deadlock_window: int | None,
    engine: str | None,
    trace: bool,
    activations: Mapping[str, StaticActivation] | None,
    stalls: Sequence[LinkStall],
    riders: Sequence[str] = (),
    checkpoint_at: int | None = None,
    bases: BaseSystems | None = None,
) -> tuple[StyleRun, tuple[str, ...]]:
    """Build and simulate one system led by ``style`` under ``stalls``
    and harvest its run, with the styles that rode to its end;
    exceptions propagate.  With ``riders`` the system runs them in
    lockstep with ``style`` (:func:`build_system`), and its spans carry
    the styles riding at their start as a ``riders`` attribute.

    With ``checkpoint_at`` the run pauses there for a checkpoint, and
    the system goes into ``bases`` under ``style`` unless the run
    raises.  Without it, ``bases`` holds the systems this run may
    resume from (see :func:`run_styles`); a resumed run carries the
    styles its base's run carried at the checkpoint, whatever
    ``riders`` asks for."""
    detach = Riders(riders) if riders else None
    resume = None
    if bases is not None and checkpoint_at is None:
        base = _resumable(bases, style, trace, activations, stalls)
        if base is None:
            telemetry.count("perturb.fresh_variant_runs")
        else:
            system, shells, sinks = base.system, base.shells, base.sinks
            detach, resume = base.riders, base.checkpoint
            telemetry.count("perturb.resumed_runs")
            telemetry.count(
                "perturb.resumed_cycles", resume.cycle - resume.start
            )
    if resume is None:
        fields = {"riders": tuple(riders)} if riders else {}
        with telemetry.span("build", style=style, **fields):
            system, shells, sinks = build_system(
                topology, style, trace=trace, engine=engine,
                activations=activations, riders=detach,
            )
            simulation = Simulation(system, stalls)
    else:
        simulation = Simulation(system, stalls)
    # The styles riding into the first cycle this run simulates.
    since = -1 if resume is None else resume.cycle
    riding = () if detach is None else detach.riding_at(max(since, 0))
    if len(riding) > 1:
        lockstep.count("grouped")
    fields = {"riders": riding} if riding else {}
    with telemetry.span("simulate", style=style, **fields):
        result = simulation.run(
            cycles,
            deadlock_window=deadlock_window,
            checkpoint_at=checkpoint_at,
            resume=resume,
        )
    if detach is not None:
        # A resumed run counts only what detached after its checkpoint.
        for at in detach.detached:
            if at is not None and at >= since:
                lockstep.count_detach(at)
    if checkpoint_at is not None and result.checkpoint is not None:
        bases[style] = BaseSystem(
            system, shells, sinks, result.checkpoint, trace, activations,
            detach,
        )
    run = StyleRun(
        streams={
            name: list(sink.received) for name, sink in sinks.items()
        },
        # A resumed base may trace although this run does not.
        traces=(
            {
                name: list(shell.trace_enable or [])
                for name, shell in shells.items()
            }
            if trace
            else {}
        ),
        periods=dict(result.shell_periods),
        executed=result.cycles,
        relay_peak=relay_peak_occupancy(system),
        deadlocked=result.deadlocked,
    )
    return run, () if detach is None else detach.riding_at()


def simulate_topology(
    topology: SystemTopology,
    style: str,
    cycles: int,
    deadlock_window: int | None = 64,
    engine: str | None = None,
    trace: bool = False,
    activations: Mapping[str, StaticActivation] | None = None,
    stalls: Sequence[LinkStall] = (),
    checkpoint_at: int | None = None,
    bases: BaseSystems | None = None,
) -> StyleRun:
    """Simulate ``topology`` under one style and harvest everything
    the oracle checks; a crash becomes an ``error`` record, never an
    exception.  ``stalls`` is an optional mid-run stall plan
    (:mod:`repro.lis.stall`) the simulation runs under;
    ``checkpoint_at`` and ``bases`` are :func:`run_styles`' base-system
    cache."""
    try:
        return _simulate(
            topology, style, cycles, deadlock_window, engine, trace,
            activations, stalls, checkpoint_at=checkpoint_at, bases=bases,
        )[0]
    except Exception as exc:  # any failure is a finding, not a crash
        return StyleRun(
            streams={}, traces={}, periods={}, executed=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _plan_activations(
    topology: SystemTopology,
    cycles: int,
    deadlock_window: int | None,
    runs: Mapping[str, StyleRun],
    engine: str | None = None,
    stalls: Sequence[LinkStall] = (),
) -> dict[str, StaticActivation]:
    """Static activation plans for a topology's shift-register styles,
    reusing the FSM reference run when it already happened (otherwise
    the reference simulation — same stalls applied — runs here)."""
    fsm = runs.get("fsm")
    if fsm is not None and fsm.error is None and fsm.traces:
        traces: Mapping[str, Sequence[bool]] = fsm.traces
    else:
        reference = simulate_topology(
            topology, "fsm", cycles, deadlock_window, engine=engine,
            trace=True, stalls=stalls,
        )
        if reference.error is not None:
            raise RuntimeError(
                f"FSM reference run failed: {reference.error}"
            )
        traces = reference.traces
    return plan_topology_activations(
        topology, cycles, deadlock_window, reference_traces=traces
    )


def run_styles(
    topology: SystemTopology,
    styles: Sequence[str],
    cycles: int,
    deadlock_window: int | None = 64,
    engine: str | None = None,
    stalls: Sequence[LinkStall] = (),
    trace: bool = True,
    checkpoint_at: int | None = None,
    bases: BaseSystems | None = None,
) -> dict[str, StyleRun]:
    """One :class:`StyleRun` per style, keyed in ``styles`` order — the
    registry fold the oracle pipeline consumes.

    Styles run in their lockstep groups
    (:func:`repro.verify.lockstep.lockstep_groups`), in the order their
    first style appears: one system per group, led by its first style,
    and the lead and every style that rode to the end get that run.
    The styles that detached regroup the same way and run again; if
    the run raises, the lead runs alone (through
    :func:`simulate_topology`, like a style in no pair) and all the
    others regroup.  So every divergence and error text is a separate
    run's.

    Styles that need a planned static activation (the registry's
    ``needs_activation`` flag) trigger one per-topology planning pass,
    reusing the FSM run when it already happened; a planning failure
    becomes each dependent style's ``error`` record.  Unknown style
    names become error records too (a finding for the oracles, never
    a crash).

    The per-case base-system cache ``bases`` (keyed by lead style,
    each base standing for the styles riding at its checkpoint) works
    two ways.  With ``checkpoint_at``, every run pauses at that cycle
    for a checkpoint, and each system whose run did not raise is kept
    in ``bases``.  Without it, a run whose lead has a base there
    restores that checkpoint and simulates only the remaining cycles
    under ``stalls`` instead of building a system; the styles that
    did not ride at the checkpoint regroup.  That is exact when the
    topology is the cached one (up to its name) and ``stalls`` forces
    nothing before the checkpoint, which it checks.
    """
    runs: dict[str, StyleRun] = {}
    activations: dict[str, StaticActivation] | None = None
    planning_error: str | None = None

    def separately(style: str, bases: BaseSystems | None) -> StyleRun:
        return simulate_topology(
            topology,
            style,
            cycles,
            deadlock_window,
            engine=engine,
            trace=trace,
            activations=activations,
            stalls=stalls,
            checkpoint_at=checkpoint_at,
            bases=bases,
        )

    for group in lockstep_groups(styles):
        try:
            needs_activation = get_style(group[0]).needs_activation
        except ValueError:
            needs_activation = False  # simulate_topology records it
        if needs_activation and activations is None:
            if planning_error is None:
                try:
                    activations = _plan_activations(
                        topology, cycles, deadlock_window, runs,
                        engine=engine, stalls=stalls,
                    )
                except Exception as exc:
                    planning_error = (
                        "static activation planning failed: "
                        f"{type(exc).__name__}: {exc}"
                    )
            if planning_error is not None:
                # Planning is per-topology, not per-style: don't retry
                # it for the second shift-register style.
                for style in group:
                    runs[style] = StyleRun(
                        streams={}, traces={}, periods={}, executed=0,
                        error=planning_error,
                    )
                continue
        # A loop, not a recursion: a self-referencing closure would keep
        # each case's runs and base systems alive until a full collection.
        groups = [group]
        while groups:
            lead, *riders = groups.pop(0)
            if not riders:
                runs[lead] = separately(lead, bases)
                continue
            lockstep.count("runs")
            try:
                run, carried = _simulate(
                    topology, lead, cycles, deadlock_window, engine, trace,
                    activations, stalls, riders, checkpoint_at, bases,
                )
            except Exception:
                lockstep.count("fallbacks")
                # A variant's lead alone builds fresh: the base it may
                # have resumed from carries the riders again.
                resuming = bases is not None and checkpoint_at is None
                run, carried = separately(lead, {} if resuming else bases), ()
            runs[lead] = run
            runs.update((style, run) for style in carried if style in riders)
            groups += lockstep_groups(
                [style for style in riders if style not in runs]
            )
    return {style: runs[style] for style in styles}


def first_clean_style(
    styles: Sequence[str], runs: Mapping[str, StyleRun]
) -> str | None:
    """The first of ``styles`` whose run in ``runs`` did not raise: the
    style the stream checks compare the others with."""
    return next(
        (
            style
            for style in styles
            if style in runs and runs[style].error is None
        ),
        None,
    )


def run_case(case: VerifyCase) -> CaseOutcome:
    """Execute every style of one case and fold the oracle pipeline
    over the results.

    Styles run through :func:`run_styles`: the cycle-exact pairs run
    as lockstep groups, ``sp``, ``rtl-fsm`` and ``fsm`` riding on
    ``rtl-sp`` unless they detach, so the regular style set simulates
    three systems per case (four when the FSM pair detaches and
    regroups), not seven.  The
    shift-register styles derive their static activation plan from
    the FSM reference run, rerunning it only when ``fsm`` is absent or
    ordered after them.

    When the case has dynamic perturbation variants, every base run
    pauses for a checkpoint at the earliest cycle any of them stalls,
    and the perturbation oracle resumes those variants from the base
    systems (see :func:`run_styles`) rather than re-running their
    prefix: until its first stall a dynamic variant's run is its
    base's, cycle for cycle.
    """
    # Imported lazily: the oracle pipeline and the perturbation oracle
    # consume this module's data types.
    from .oracles import default_pipeline, run_pipeline
    from .perturb import PerturbationOracle, case_variants, first_stall

    with telemetry.span("case", case=case.index, seed=case.seed):
        outcome = CaseOutcome(
            index=case.index,
            seed=case.seed,
            topology_stats=case.topology.stats(),
        )
        variants = case_variants(case)
        checkpoint_at = first_stall(case.topology, variants)
        bases: BaseSystems | None = (
            None if checkpoint_at is None else {}
        )
        runs = run_styles(
            case.topology,
            case.styles,
            case.cycles,
            case.deadlock_window,
            engine=case.engine,
            checkpoint_at=checkpoint_at,
            bases=bases,
        )
        for style, run in runs.items():
            outcome.cycles_executed[style] = run.executed
        reference = first_clean_style(case.styles, runs)
        if reference is not None:
            outcome.sink_tokens = sum(
                len(stream)
                for stream in runs[reference].streams.values()
            )
        # Per-oracle spans come from run_pipeline itself; perturbation
        # oracles re-simulate variants, so their simulate spans nest
        # inside (and are double-counted by) their oracle span.
        run_pipeline(
            case, runs, outcome,
            pipeline=default_pipeline(
                perturbation=PerturbationOracle(variants, bases)
            ),
        )
    return outcome
