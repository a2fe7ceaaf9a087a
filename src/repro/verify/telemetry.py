"""Campaign telemetry: spans, counters and gauges over an event bus.

A 10k-case campaign's only signal used to be one summary line — when
it was slow, retrying, or starving the corpus scheduler, nothing said
*where* time and faults went.  This module is the instrumentation
layer: a process-wide **session** collects timestamped records from
lightweight probes sprinkled through the pipeline and feeds two sinks,

* an append-only JSONL **event stream** (``repro verify --events``) —
  one record per line, written through :class:`EventWriter` with a
  header line and a torn-tail-tolerant reader (:func:`read_events`),
  under the campaign journal's crash-safe JSONL contract
  (:mod:`repro.verify.jsonl`); and
* an in-memory :class:`Rollup` — per-stage span totals (with
  per-style breakdown), counters, gauges, per-worker fault tables and
  the slowest cases — exported as ``--metrics-json`` and rendered in
  the expanded end-of-run summary (:meth:`Rollup.render`).

Record kinds are plain dicts (pickle-safe, so the supervised pool can
relay worker-side records over its result pipes):

* ``span``  — ``{kind, name, t, dur_s, ...fields}``: a timed region
  (``generate``/``build``/``simulate``/``oracle``/``case``/
  ``shrink``); ``build`` and ``simulate`` spans carry a ``style``
  field (a lockstep pair's spans carry the checked style plus a
  ``reference`` field, and a lockstep group's the styles of its rider
  pairs as a ``riders`` field), ``case`` and ``shrink`` spans a
  ``case`` index;
* ``count`` — ``{kind, name, t, n}``: a monotonic counter increment
  (``supervise.*``, ``fault.*``, ``corpus.*``, ``rtl.*``,
  ``fabric.*``, ``lockstep.*``, ``shrink.*``);
* ``gauge`` — ``{kind, name, t, value}``: a point-in-time level;
* ``event`` — ``{kind, name, t, ...fields}``: a discrete occurrence
  (worker lifecycle, faults — chaos-injected ones tagged
  ``injected=true``).

Timestamps are ``time.monotonic()`` — on Linux ``CLOCK_MONOTONIC`` is
system-wide, so worker records order correctly against the parent's
and are rebased to the session start only at the sink boundary.

**Telemetry is liveness-only.**  Probes are module-level functions
that no-op (one global read) while no session is active, so outcomes,
coverage and journals are byte-identical with telemetry on or off,
and the off cost is bench-guarded (see
``benchmarks/bench_batch_verify.py``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from .jsonl import JsonlWriter, read_jsonl

__all__ = [
    "EVENTS_VERSION",
    "STAGE_SPANS",
    "EventWriter",
    "Rollup",
    "TelemetrySession",
    "activate",
    "active",
    "count",
    "deactivate",
    "emit_engine_delta",
    "engine_stats",
    "event",
    "gauge",
    "read_events",
    "render_compare",
    "render_report",
    "rollup_from_records",
    "span",
]

#: Event-stream schema version (the header line's ``version`` field).
EVENTS_VERSION = 1

#: Span names whose totals partition the batch's wall clock:
#: ``generate`` (topology scheduling), ``build`` (system construction,
#: per style), ``simulate`` (cycle loop, per style), ``oracle`` (the
#: check pipeline) and ``shrink`` (reproducer minimization).  ``case``
#: spans *wrap* build/simulate/oracle and are excluded so the stage
#: total never double-counts.
STAGE_SPANS = ("generate", "build", "simulate", "oracle", "shrink")

#: Cap on slowest-case entries retained in a rollup.
_SLOWEST_KEEP = 10


# -- the session and its probes ------------------------------------------------


class Rollup:
    """Streaming aggregation of telemetry records.

    Built incrementally (:meth:`add` per record) so a session never
    has to retain its full event list just to produce
    ``--metrics-json``; :func:`read_events` output can be folded
    through the same method to aggregate a stream after the fact.
    """

    __slots__ = (
        "spans", "counters", "gauges", "events", "workers", "_slowest",
    )

    def __init__(self) -> None:
        # name -> {"count", "total_s", "by_style": {style: {...}}}
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.events: dict[str, int] = {}
        # pid -> {"spawn"/"crash"/"timeout"/"retry": count}
        self.workers: dict[int, dict[str, int]] = {}
        self._slowest: list[tuple[float, int, int]] = []

    def add(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind")
        name = record.get("name", "")
        if kind == "span":
            dur = float(record.get("dur_s", 0.0))
            bucket = self.spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "by_style": {}}
            )
            bucket["count"] += 1
            bucket["total_s"] += dur
            style = record.get("style")
            if style is not None:
                sub = bucket["by_style"].setdefault(
                    style, {"count": 0, "total_s": 0.0}
                )
                sub["count"] += 1
                sub["total_s"] += dur
            if name == "case" and "case" in record:
                self._slowest.append(
                    (dur, int(record["case"]), int(record.get("seed", 0)))
                )
                if len(self._slowest) > 4 * _SLOWEST_KEEP:
                    self._slowest.sort(reverse=True)
                    del self._slowest[_SLOWEST_KEEP:]
        elif kind == "count":
            self.counters[name] = (
                self.counters.get(name, 0) + record.get("n", 1)
            )
        elif kind == "gauge":
            self.gauges[name] = record.get("value", 0)
        elif kind == "event":
            self.events[name] = self.events.get(name, 0) + 1
            pid = record.get("pid")
            if pid is not None and name.startswith("supervise."):
                table = self.workers.setdefault(int(pid), {})
                what = name.removeprefix("supervise.")
                table[what] = table.get(what, 0) + 1

    def stage_total_s(self) -> float:
        """Summed duration of the :data:`STAGE_SPANS` — the portion of
        the batch the instrumentation accounts for."""
        return sum(
            self.spans.get(name, {}).get("total_s", 0.0)
            for name in STAGE_SPANS
        )

    def slowest_cases(
        self, top: int = _SLOWEST_KEEP
    ) -> list[tuple[float, int, int]]:
        """Up to ``top`` ``(dur_s, case index, seed)`` triples, slowest
        first."""
        return sorted(self._slowest, reverse=True)[:top]

    def to_dict(self, wall_s: float | None = None) -> dict:
        """The ``--metrics-json`` document (JSON-serializable, stable
        key order under ``sort_keys``)."""
        return {
            "version": EVENTS_VERSION,
            "wall_s": wall_s,
            "stage_total_s": round(self.stage_total_s(), 6),
            "spans": {
                name: {
                    "count": bucket["count"],
                    "total_s": round(bucket["total_s"], 6),
                    "by_style": {
                        style: {
                            "count": sub["count"],
                            "total_s": round(sub["total_s"], 6),
                        }
                        for style, sub in sorted(
                            bucket["by_style"].items()
                        )
                    },
                }
                for name, bucket in sorted(self.spans.items())
            },
            "counters": {
                name: round(value, 6)
                for name, value in sorted(self.counters.items())
            },
            "gauges": dict(sorted(self.gauges.items())),
            "events": dict(sorted(self.events.items())),
            "workers": {
                str(pid): dict(sorted(table.items()))
                for pid, table in sorted(self.workers.items())
            },
            "slowest_cases": [
                {"case": index, "seed": seed, "dur_s": round(dur, 6)}
                for dur, index, seed in self.slowest_cases()
            ],
        }

    def render(self, wall_s: float | None = None) -> str:
        """The expanded end-of-run telemetry summary."""
        lines = []
        stage_total = self.stage_total_s()
        if wall_s is not None and wall_s > 0:
            lines.append(
                f"telemetry: stage spans total {stage_total:.2f}s "
                f"({100.0 * stage_total / wall_s:.0f}% of "
                f"{wall_s:.2f}s wall clock; parallel stages may "
                "exceed it)"
            )
        else:
            lines.append(
                f"telemetry: stage spans total {stage_total:.2f}s"
            )
        parts = []
        for name in STAGE_SPANS:
            bucket = self.spans.get(name)
            if bucket is not None:
                parts.append(
                    f"{name} {bucket['total_s']:.2f}s"
                    f" ({bucket['count']})"
                )
        if parts:
            lines.append("  " + " | ".join(parts))
        simulate = self.spans.get("simulate")
        if simulate and simulate["by_style"]:
            total = simulate["total_s"] or 1.0
            shares = ", ".join(
                f"{style} {sub['total_s']:.2f}s"
                f" ({100.0 * sub['total_s'] / total:.0f}%)"
                for style, sub in sorted(
                    simulate["by_style"].items(),
                    key=lambda kv: (-kv[1]["total_s"], kv[0]),
                )
            )
            lines.append(f"  simulate by style: {shares}")
        if self.workers:
            spawns = sum(t.get("spawn", 0) for t in self.workers.values())
            crashes = sum(t.get("crash", 0) for t in self.workers.values())
            timeouts = sum(
                t.get("timeout", 0) for t in self.workers.values()
            )
            retries = sum(t.get("retry", 0) for t in self.workers.values())
            lines.append(
                f"  workers: {spawns} spawned, {crashes} crash(es), "
                f"{timeouts} timeout(s), {retries} retr"
                f"{'y' if retries == 1 else 'ies'}"
            )
        rtl = _render_rtl(self.counters)
        if rtl:
            lines.append(rtl)
        fabric = _render_fabric(self.counters)
        if fabric:
            lines.append(fabric)
        lockstep = _render_lockstep(self.counters)
        if lockstep:
            lines.append(lockstep)
        resume = _render_resume(self.counters)
        if resume:
            lines.append(resume)
        skips = self.counters.get("perturb.vacuity_skips", 0)
        if skips:
            lines.append(
                f"  perturb: {skips:.0f} vacuity-guard skip(s) (base "
                "deadlocked, variant lowers a latency)"
            )
        tournaments = self.counters.get("corpus.tournaments", 0)
        if tournaments:
            mutants = self.counters.get("corpus.mutant_won", 0)
            lines.append(
                f"  corpus: {tournaments:.0f} tournament(s), mutants "
                f"won {mutants:.0f}; fresh-bin yield by op: "
                + (_render_op_yield(self.counters) or "none")
            )
        injected = self.counters.get("fault.injected", 0)
        organic = self.counters.get("fault.organic", 0)
        if injected or organic:
            lines.append(
                f"  faults: {injected:.0f} injected, "
                f"{organic:.0f} organic"
            )
        attempts = self.counters.get("shrink.attempts", 0)
        budget = self.counters.get("shrink.budget", 0)
        if budget:
            lines.append(
                f"  shrink: {attempts:.0f}/{budget:.0f} candidate "
                "executions used"
            )
        return "\n".join(lines)


def _render_rtl(counters: Mapping[str, float]) -> str:
    """The RTL-engine summary line: plan consults that compiled nothing
    (hits) and kernel compiles (misses), the kernel forms compiled for
    the plans elaborated, then the transitions the bound drivers'
    tables computed."""
    hits = counters.get("rtl.cache.hits", 0)
    misses = counters.get("rtl.cache.misses", 0)
    if not (hits or misses):
        return ""
    line = (
        f"  rtl plan cache: {hits:.0f} hit(s) / {misses:.0f} miss(es) "
        f"({100.0 * hits / (hits + misses):.0f}% reused), "
    )
    plans = counters.get("rtl.cache.plans", 0)
    if plans:
        line += (
            f"{misses:.0f} kernel form(s) compiled for {plans:.0f} "
            "plan(s), "
        )
    line += f"{counters.get('rtl.cache.compile_ms', 0):.1f}ms compiling"
    tables = counters.get("rtl.cache.tables", 0)
    if tables:
        line += (
            f"; {counters.get('rtl.cache.transitions', 0):.0f} "
            f"transition(s) computed over {tables:.0f} driver table(s)"
        )
    return line


def _render_fabric(counters: Mapping[str, float]) -> str:
    """The fabric-engine summary line: runs per engine and the code
    cache, flagging a campaign that never took the lowered loop."""
    lowered = counters.get("fabric.lowered", 0)
    reference = counters.get("fabric.reference", 0)
    if not lowered and not reference:
        return ""
    line = (
        f"  lis fabric: {lowered:.0f} lowered / {reference:.0f} "
        "reference run(s)"
    )
    stalled = counters.get("fabric.stall_cycles", 0)
    if stalled:
        line += f" ({stalled:.0f} stall cycle(s) on the reference loop)"
    hits = counters.get("fabric.cache.hits", 0)
    misses = counters.get("fabric.cache.misses", 0)
    if hits or misses:
        line += (
            f", code cache {hits:.0f} hit(s) / {misses:.0f} miss(es) "
            f"({100.0 * hits / (hits + misses):.0f}%), "
            f"{counters.get('fabric.cache.compile_ms', 0):.1f}ms compiling, "
            f"{counters.get('fabric.cache.lower_ms', 0):.1f}ms lowering"
        )
    if not lowered:
        line += " -- every run fell back to the reference loop"
    return line


def _render_lockstep(counters: Mapping[str, float]) -> str:
    """The lockstep summary line: lockstep systems simulated, how many
    of those runs were discarded for separate runs, how many carried
    rider pairs, and the rider pairs detached, by the cycle they
    detached at (the first three cycles)."""
    runs = counters.get("lockstep.runs", 0)
    if not runs:
        return ""
    fallbacks = counters.get("lockstep.fallbacks", 0)
    line = (
        f"  lockstep: {runs:.0f} cycle-exact pair run(s), "
        f"{fallbacks:.0f} fell back to separate runs"
    )
    grouped = counters.get("lockstep.grouped", 0)
    detached = sorted(
        (int(name.rpartition(".")[2]), n)
        for name, n in counters.items()
        if name.startswith("lockstep.detached.")
    )
    if grouped or detached:
        line += (
            f"; {grouped:.0f} system(s) carried rider pairs, "
            f"{sum(n for _cycle, n in detached):.0f} rider pair(s) "
            "detached"
        )
    if detached:
        shown = ", ".join(
            f"{n:.0f} at cycle {cycle}" for cycle, n in detached[:3]
        )
        line += f" ({shown}{', ...' if len(detached) > 3 else ''})"
    return line


def _render_resume(counters: Mapping[str, float]) -> str:
    """The dynamic-variant line: runs resumed from their base run's
    checkpoint (with the prefix cycles they did not re-simulate), and
    runs that had to build fresh."""
    resumed = counters.get("perturb.resumed_runs", 0)
    fresh = counters.get("perturb.fresh_variant_runs", 0)
    if not (resumed or fresh):
        return ""
    skipped = counters.get("perturb.resumed_cycles", 0)
    return (
        f"  perturb: {resumed:.0f} dynamic-variant run(s) resumed "
        f"({skipped:.0f} prefix cycle(s) skipped), {fresh:.0f} built "
        "fresh"
    )


def _render_op_yield(counters: Mapping[str, float]) -> str:
    """``op won/candidates (+fresh-bins)`` pairs, most productive op
    first."""
    ops: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        if not name.startswith("corpus.op."):
            continue
        _, _, rest = name.partition("corpus.op.")
        op, _, what = rest.rpartition(".")
        if op:
            ops.setdefault(op, {})[what] = value
    parts = []
    for op, stats in sorted(
        ops.items(),
        key=lambda kv: (-kv[1].get("fresh_bins", 0), kv[0]),
    ):
        parts.append(
            f"{op} {stats.get('won', 0):.0f}/"
            f"{stats.get('candidates', 0):.0f}"
            f" (+{stats.get('fresh_bins', 0):.0f} bins)"
        )
    return ", ".join(parts)


class TelemetrySession:
    """One process's (or one worker task's) telemetry collection.

    The parent session streams records into its :class:`Rollup` and,
    when attached, an :class:`EventWriter`; a worker-side session is
    ``buffered`` instead — it retains the raw records so the worker
    loop can :meth:`drain` them into the result envelope the
    supervised pool relays back.
    """

    __slots__ = ("t0", "rollup", "writer", "buffer")

    def __init__(self, buffered: bool = False) -> None:
        self.t0 = time.monotonic()
        self.rollup = Rollup()
        self.writer: EventWriter | None = None
        self.buffer: list[dict] | None = [] if buffered else None

    def attach_writer(self, writer: "EventWriter") -> None:
        self.writer = writer

    def add(self, record: dict) -> None:
        self.rollup.add(record)
        if self.buffer is not None:
            self.buffer.append(record)
        if self.writer is not None:
            self.writer.write(record)

    def drain(self) -> list[dict]:
        """Hand over (and clear) the buffered records — the worker
        loop's per-task relay payload."""
        records, self.buffer = self.buffer or [], []
        return records


_active: TelemetrySession | None = None


def active() -> TelemetrySession | None:
    """The process's active session, or ``None`` (telemetry off)."""
    return _active


def activate(session: TelemetrySession) -> TelemetrySession:
    global _active
    _active = session
    return session


def deactivate() -> None:
    global _active
    _active = None


class _NullSpan:
    """The no-session span: a shared, allocation-free no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_session", "_name", "_fields", "_start")

    def __init__(
        self, session: TelemetrySession, name: str, fields: dict
    ) -> None:
        self._session = session
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._start = time.monotonic()
        return self

    def __exit__(self, *_exc) -> bool:
        record = {
            "kind": "span",
            "name": self._name,
            "t": self._start,
            "dur_s": time.monotonic() - self._start,
        }
        record.update(self._fields)
        self._session.add(record)
        return False


def span(name: str, **fields: Any):
    """Context manager timing one region; a shared no-op when no
    session is active."""
    session = _active
    if session is None:
        return _NULL_SPAN
    return _Span(session, name, fields)


def count(name: str, n: float = 1) -> None:
    session = _active
    if session is not None:
        session.add(
            {"kind": "count", "name": name, "t": time.monotonic(), "n": n}
        )


def gauge(name: str, value: float) -> None:
    session = _active
    if session is not None:
        session.add(
            {
                "kind": "gauge",
                "name": name,
                "t": time.monotonic(),
                "value": value,
            }
        )


def event(name: str, **fields: Any) -> None:
    session = _active
    if session is not None:
        record = {"kind": "event", "name": name, "t": time.monotonic()}
        record.update(fields)
        session.add(record)


# -- engine-counter bridging ---------------------------------------------------


def engine_stats() -> dict[str, float]:
    """Snapshot of the engine counters under their counter names:
    :func:`repro.rtl.compile_sim.cache_stats` as ``rtl.cache.*``, and
    :func:`repro.lis.compile_fabric.cache_stats` as
    ``fabric.lowered``/``fabric.reference`` (``Simulation.run`` calls
    per engine), ``fabric.stall_cycles`` (cycles lowered runs handed
    to the reference loop because a stall injector was due) plus
    ``fabric.cache.*``, and
    :func:`repro.verify.lockstep.lockstep_stats` (lockstep systems
    simulated, lockstep runs discarded for separate runs, systems that
    carried rider pairs, and rider pairs detached by cycle) as
    ``lockstep.runs``/``lockstep.fallbacks``/``lockstep.grouped``/
    ``lockstep.detached.<cycle>``.
    The modules are imported lazily so probes never drag the engines
    in."""
    from ..lis.compile_fabric import cache_stats as fabric_stats
    from ..rtl.compile_sim import cache_stats as rtl_stats
    from .lockstep import lockstep_stats

    stats = {f"rtl.cache.{key}": value for key, value in rtl_stats().items()}
    for key, value in lockstep_stats().items():
        stats[f"lockstep.{key}"] = value
    for key, value in fabric_stats().items():
        runs = key in ("lowered", "reference", "stall_cycles")
        stats[f"fabric.{key}" if runs else f"fabric.cache.{key}"] = value
    return stats


def emit_engine_delta(before: Mapping[str, float]) -> None:
    """Emit the engine-counter movement since ``before`` (an
    :func:`engine_stats` snapshot) as counts (only keys that moved)."""
    if _active is None:
        return
    for key, value in engine_stats().items():
        delta = value - before.get(key, 0)
        if delta:
            count(key, delta)


# -- the JSONL sink ------------------------------------------------------------


class EventWriter:
    """Append-only JSONL event stream.

    Line one is a header (``kind="header"``, schema version, run
    metadata); every subsequent line is one record with its timestamp
    rebased to the session start.  Lines are flushed as written and
    the file is fsynced on :meth:`close`, so a crash mid-record can
    lose at most a torn final line — which :func:`read_events`
    tolerates exactly like the campaign journal's loader.
    """

    def __init__(
        self,
        path: str | Path,
        t0: float,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.path = Path(path)
        self.t0 = t0
        header = {
            "kind": "header",
            "version": EVENTS_VERSION,
            "meta": dict(meta or {}),
        }
        self._writer = JsonlWriter.create(self.path, header, durable=False)

    def write(self, record: Mapping[str, Any]) -> None:
        if self._writer.closed:
            return
        rebased = dict(record)
        rebased["t"] = round(float(rebased.get("t", self.t0)) - self.t0, 6)
        self._writer.append(rebased)

    def close(self) -> None:
        """Flush, fsync and close (idempotent) — the clean tail the
        interrupted path promises."""
        self._writer.close()


def read_events(path: str | Path) -> tuple[dict | None, list[dict]]:
    """Load an event stream: ``(header, records)``.

    Tolerates a torn tail — parsing stops at the first incomplete or
    unparseable line, exactly like
    :meth:`repro.verify.campaign.CampaignJournal` recovery — and
    returns ``(None, [])`` for a missing file or one whose first line
    is not a valid header.
    """
    try:
        header, records, _valid_bytes = read_jsonl(path)
    except OSError:
        return None, []
    return header, records


# -- `repro report` rendering --------------------------------------------------


def rollup_from_records(records: Iterable[Mapping[str, Any]]) -> Rollup:
    """Fold a loaded event stream back into a :class:`Rollup`."""
    rollup = Rollup()
    for record in records:
        rollup.add(record)
    return rollup


def _stream_wall_s(records: list[dict]) -> float:
    """Observed wall clock of a loaded stream: the latest record end
    (timestamps are already session-relative in the file)."""
    wall = 0.0
    for record in records:
        t = float(record.get("t", 0.0))
        wall = max(wall, t + float(record.get("dur_s", 0.0)))
    return wall


def render_report(
    header: dict | None, records: list[dict], top: int = 10
) -> str:
    """The ``repro report events.jsonl`` analysis: stage breakdown,
    per-style time share, engine paths, slowest cases, fault timeline
    and mutation-operator yield."""
    rollup = rollup_from_records(records)
    wall = _stream_wall_s(records)
    meta = (header or {}).get("meta", {})
    described = ", ".join(
        f"{key} {meta[key]}" for key in sorted(meta) if meta[key] is not None
    )
    lines = [
        f"telemetry report: {len(records)} event(s), "
        f"~{wall:.2f}s observed"
        + (f" ({described})" if described else "")
    ]
    lines.append("stage breakdown:")
    stage_total = rollup.stage_total_s()
    for name in STAGE_SPANS:
        bucket = rollup.spans.get(name)
        if bucket is None:
            continue
        share = (
            100.0 * bucket["total_s"] / stage_total if stage_total else 0.0
        )
        lines.append(
            f"  {name:<9} {bucket['total_s']:>8.2f}s  {share:5.1f}%  "
            f"({bucket['count']} span(s))"
        )
    lines.append(f"  {'total':<9} {stage_total:>8.2f}s")
    simulate = rollup.spans.get("simulate", {"by_style": {}})
    if simulate["by_style"]:
        lines.append("per-style simulate time:")
        total = simulate.get("total_s", 0.0) or 1.0
        for style, sub in sorted(
            simulate["by_style"].items(),
            key=lambda kv: (-kv[1]["total_s"], kv[0]),
        ):
            lines.append(
                f"  {style:<13} {sub['total_s']:>8.2f}s  "
                f"{100.0 * sub['total_s'] / total:5.1f}%  "
                f"({sub['count']} run(s))"
            )
    engines = [
        line
        for line in (
            _render_rtl(rollup.counters),
            _render_fabric(rollup.counters),
            _render_lockstep(rollup.counters),
            _render_resume(rollup.counters),
        )
        if line
    ]
    if engines:
        lines.append("engine paths:")
        lines.extend(engines)
    slowest = rollup.slowest_cases(top)
    if slowest:
        lines.append(f"slowest cases (top {min(top, len(slowest))}):")
        for dur, index, seed in slowest:
            lines.append(
                f"  case {index} (seed {seed}): {dur:.3f}s"
            )
    timeline = [
        record
        for record in records
        if record.get("kind") == "event"
        and (
            record.get("name", "").startswith("supervise.")
            or record.get("name", "").startswith("fault")
        )
    ]
    if timeline:
        lines.append("fault timeline:")
        for record in sorted(
            timeline, key=lambda r: float(r.get("t", 0.0))
        ):
            extra = ", ".join(
                f"{key}={record[key]}"
                for key in ("case", "pid", "attempts", "injected", "detail")
                if key in record
            )
            lines.append(
                f"  +{float(record.get('t', 0.0)):.3f}s "
                f"{record.get('name')}"
                + (f" ({extra})" if extra else "")
            )
    op_yield = _render_op_yield(rollup.counters)
    if op_yield:
        lines.append(f"mutation-operator yield (won/candidates): {op_yield}")
    return "\n".join(lines)


def render_compare(
    old: tuple[dict | None, list[dict]],
    new: tuple[dict | None, list[dict]],
    labels: tuple[str, str] = ("old", "new"),
) -> str:
    """Run-over-run comparison of two event streams: per-stage totals
    with ratios (regression markers past 1.25x), fault/case counts."""
    rollups = (
        rollup_from_records(old[1]), rollup_from_records(new[1])
    )
    lines = [
        f"telemetry compare: {labels[0]} ({len(old[1])} events) vs "
        f"{labels[1]} ({len(new[1])} events)"
    ]
    for name in STAGE_SPANS + ("case",):
        before = rollups[0].spans.get(name, {}).get("total_s", 0.0)
        after = rollups[1].spans.get(name, {}).get("total_s", 0.0)
        if not before and not after:
            continue
        if before > 0:
            ratio = f"{after / before:5.2f}x"
            flag = (
                "  <-- REGRESSION"
                if after > before * 1.25 and after - before > 0.05
                else ""
            )
        else:
            ratio, flag = "  new", ""
        lines.append(
            f"  {name:<9} {before:>8.2f}s -> {after:>8.2f}s  "
            f"{ratio}{flag}"
        )
    for counter in ("fault.injected", "fault.organic", "shrink.attempts"):
        before = rollups[0].counters.get(counter, 0)
        after = rollups[1].counters.get(counter, 0)
        if before or after:
            lines.append(
                f"  {counter:<16} {before:.0f} -> {after:.0f}"
            )
    cases = (
        rollups[0].spans.get("case", {}).get("count", 0),
        rollups[1].spans.get("case", {}).get("count", 0),
    )
    if any(cases):
        lines.append(f"  case spans       {cases[0]} -> {cases[1]}")
    return "\n".join(lines)
