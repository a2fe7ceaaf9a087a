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
    reference: str | None = None,
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
    With a ``reference`` style every shell is a
    :class:`~repro.verify.lockstep.LockstepShell` led by ``style`` and
    checked against ``reference`` each cycle; the system keeps the
    name of ``style``.  ``riders`` (with a ``reference`` only) is the
    system's :class:`~repro.verify.lockstep.Riders` record: every shell
    also takes the decisions of its style pairs, which ride along until
    they detach.
    """
    specs = [get_style(style)]
    if reference is not None:
        specs.append(get_style(reference))
        if riders is not None:
            specs.extend(get_style(s) for pair in riders.pairs for s in pair)
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
        if reference is not None:
            shell = LockstepShell(
                shell, built[1], list(zip(built[2::2], built[3::2])), riders
            )
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
    cycle: what a dynamic variant under the same styles resumes from
    instead of building and re-running its prefix."""

    system: System
    shells: dict[str, Shell]
    sinks: dict[str, Sink]
    checkpoint: Checkpoint
    trace: bool
    activations: Mapping[str, StaticActivation] | None
    # A lockstep group's rider record (None for a pair or a style).
    riders: Riders | None = None


#: A case's base systems by the styles each stands for at its
#: checkpoint: the style, its lockstep reference, then the styles of
#: the rider pairs still riding there.  It lives only as long as the
#: case.
BaseSystems = dict[tuple[str, ...], BaseSystem]


def _resumable(
    bases: BaseSystems,
    key: tuple[str, ...],
    trace: bool,
    activations: Mapping[str, StaticActivation] | None,
    stalls: Sequence[LinkStall],
) -> BaseSystem | None:
    """The base a run of ``key`` resumes from: built alike, traced if
    this run traces, and paused no later than the plan's first stall."""
    base = bases.get(key)
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
    reference: str | None = None,
    riders: Sequence[tuple[str, str]] = (),
    checkpoint_at: int | None = None,
    bases: BaseSystems | None = None,
) -> tuple[StyleRun, tuple[str, ...]]:
    """Build and simulate one system under ``stalls`` and harvest its
    run, with the styles of the rider pairs that rode to its end;
    exceptions propagate.  With a ``reference`` style the system runs
    both styles in lockstep, with ``riders`` riding along
    (:func:`build_system`), and its spans carry the reference and the
    riders' styles as attributes.

    With ``checkpoint_at`` the run pauses there for a checkpoint, and
    the system goes into ``bases`` unless the run raises, keyed by the
    riders still riding at the checkpoint.  Without it, ``bases`` holds
    the systems this run may resume from (see :func:`run_styles`): the
    group's own, else one of its primary pair, whose riders had
    detached."""
    primary = (style,) if reference is None else (style, reference)
    rode = tuple(s for pair in riders for s in pair)
    detach = Riders(riders) if riders else None
    resume = None
    if bases is not None and checkpoint_at is None:
        for key in (primary + rode, primary) if rode else (primary,):
            base = _resumable(bases, key, trace, activations, stalls)
            if base is not None:
                break
        if base is None:
            telemetry.count("perturb.fresh_variant_runs")
        else:
            system, shells, sinks = base.system, base.shells, base.sinks
            detach, rode = base.riders, key[len(primary):]
            resume = base.checkpoint
            telemetry.count("perturb.resumed_runs")
            telemetry.count(
                "perturb.resumed_cycles", resume.cycle - resume.start
            )
    fields: dict[str, Any] = {"style": style}
    if reference is not None:
        fields["reference"] = reference
    if rode:
        fields["riders"] = rode
    if resume is None:
        with telemetry.span("build", **fields):
            system, shells, sinks = build_system(
                topology, style, trace=trace, engine=engine,
                activations=activations, reference=reference,
                riders=detach,
            )
            simulation = Simulation(system, stalls)
    else:
        simulation = Simulation(system, stalls)
    if rode and (resume is not None or detach.riding):
        lockstep._STATS["grouped"] += 1
    with telemetry.span("simulate", **fields):
        result = simulation.run(
            cycles,
            deadlock_window=deadlock_window,
            checkpoint_at=checkpoint_at,
            resume=resume,
        )
    if detach is not None:
        # A resumed run counts only what detached after its checkpoint.
        start = -1 if resume is None else resume.cycle
        for at in detach.detached:
            if at is not None and at >= start:
                lockstep.count_detach(at)
    if checkpoint_at is not None and result.checkpoint is not None:
        key = primary
        if detach is not None:
            key += detach.riding_at(result.checkpoint.cycle)
        bases[key] = BaseSystem(
            system, shells, sinks, result.checkpoint, trace, activations,
            detach,
        )
    carried = () if detach is None else detach.riding_at()
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
    return run, carried


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

    The cycle-exact pairs run in lockstep groups
    (:func:`repro.verify.lockstep.lockstep_groups`): one system per
    group, its first pair the primary and the rest riders, and every
    style of a pair that stayed on gets that run.  If the primary pair
    disagrees on any decision or anything raises, the run is discarded
    and the primary's styles are simulated separately through
    :func:`simulate_topology`, which also runs every unpaired style.
    A rider pair that detached (or every rider of a discarded run)
    then runs as a group of its own, with the same fallback; so every
    divergence and error text is a separate run's.  Groups and single
    styles run in the order their first style appears.

    Styles that need a planned static activation (the registry's
    ``needs_activation`` flag) trigger one per-topology planning pass,
    reusing the FSM run when it already happened; a planning failure
    becomes each dependent style's ``error`` record.  Unknown style
    names become error records too (a finding for the oracles, never
    a crash).

    The per-case base-system cache ``bases`` (keyed by the styles a
    system stands for at its checkpoint: the style, its lockstep
    reference and the riders still riding there) works two ways.
    With ``checkpoint_at``, every run pauses at that cycle for a
    checkpoint, and each system whose run did not raise is kept in
    ``bases``: a group whose riders detached before the checkpoint
    under its primary pair alone.  Without it, a run whose styles are
    in ``bases`` (a group's, else its primary pair's) restores that
    checkpoint and simulates only the remaining cycles under
    ``stalls`` instead of building a system; that is exact when the
    topology is the cached one (up to its name) and ``stalls`` forces
    nothing before the checkpoint, which it checks.
    """
    group_of: dict[str, tuple[tuple[str, str], ...]] = {}
    for group in lockstep_groups(styles):
        for pair in group:
            group_of.update(dict.fromkeys(pair, group))
    runs: dict[str, StyleRun] = {}
    activations: dict[str, StaticActivation] | None = None
    planning_error: str | None = None

    def separately(style: str) -> StyleRun:
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

    def lockstepped(
        group: tuple[tuple[str, str], ...]
    ) -> dict[str, StyleRun]:
        (checked, reference), riders = group[0], group[1:]
        lockstep._STATS["runs"] += 1
        try:
            run, carried = _simulate(
                topology, checked, cycles, deadlock_window, engine, trace,
                activations, stalls, reference=reference, riders=riders,
                checkpoint_at=checkpoint_at, bases=bases,
            )
        except Exception:
            lockstep._STATS["fallbacks"] += 1
            found = {style: separately(style) for style in group[0]}
            carried = ()
        else:
            found = dict.fromkeys((checked, reference, *carried), run)
        for pair in riders:
            if pair[0] not in carried:
                found.update(lockstepped((pair,)))
        return found

    for style in styles:
        if style in runs:
            continue
        group = group_of.get(style)
        members = [s for pair in group for s in pair] if group else [style]
        try:
            needs_activation = get_style(style).needs_activation
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
                for member in members:
                    runs[member] = StyleRun(
                        streams={}, traces={}, periods={}, executed=0,
                        error=planning_error,
                    )
                continue
        if group is None:
            runs[style] = separately(style)
        else:
            runs.update(lockstepped(group))
    return {style: runs[style] for style in styles}


def run_case(case: VerifyCase) -> CaseOutcome:
    """Execute every style of one case and fold the oracle pipeline
    over the results.

    Styles run through :func:`run_styles`: the cycle-exact pairs run
    as lockstep groups, ``rtl-fsm``/``fsm`` riding on ``rtl-sp``/``sp``
    unless it detaches, so the regular style set simulates three
    systems per case (four when the riders detach), not seven.  The
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
        reference = next(
            (s for s in case.styles if runs[s].error is None), None
        )
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
