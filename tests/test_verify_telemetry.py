"""Telemetry tests: the event bus, its sinks, and the liveness-only
contract.

The contract under test: probes are inert without an active session
(one global read, no allocation); with one, the rollup and event
stream describe the batch without *changing* it — outcomes, coverage
JSON and checkpoint journals are byte-identical with telemetry on or
off, at any job count; an interrupted campaign still lands a valid
partial rollup and a clean event-stream tail; and ``repro report``
renders a loaded stream deterministically.
"""

from __future__ import annotations

import json
import weakref
from collections import OrderedDict

import pytest

import repro.cli as cli
import repro.verify.runner as runner_mod
from repro.rtl import compile_sim
from repro.verify import (
    BatchConfig,
    BatchRunner,
    ChaosConfig,
    telemetry,
)
from repro.verify.campaign import outcome_to_record
from repro.verify.telemetry import (
    EventWriter,
    Rollup,
    TelemetrySession,
    read_events,
)

BEHAVIOURAL = ("fsm", "sp")


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """A failing test must not leave a session active for the rest of
    the suite (the probes are process-global)."""
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def _config(**kwargs):
    defaults = dict(
        cases=6, seed=5, jobs=1, cycles=120, styles=BEHAVIOURAL
    )
    defaults.update(kwargs)
    return BatchConfig(**defaults)


def _outcome_records(report):
    return [outcome_to_record(o) for o in report.outcomes]


# -- probes and the session ----------------------------------------------------


def test_probes_no_op_without_session():
    assert telemetry.active() is None
    # The off-path span is one shared object — no per-call allocation.
    assert telemetry.span("simulate") is telemetry.span("build")
    with telemetry.span("simulate", style="sp"):
        pass
    telemetry.count("supervise.dispatch")
    telemetry.gauge("pool.live", 3)
    telemetry.event("supervise.spawn", pid=1)


def test_session_collects_spans_counts_gauges_events():
    session = telemetry.activate(TelemetrySession())
    with telemetry.span("simulate", style="sp"):
        pass
    with telemetry.span("case", case=4, seed=77):
        pass
    telemetry.count("supervise.dispatch")
    telemetry.count("shrink.attempts", 12)
    telemetry.gauge("pool.live", 3)
    telemetry.event("supervise.crash", pid=41, detail="exit code 9")
    telemetry.deactivate()
    rollup = session.rollup
    assert rollup.spans["simulate"]["count"] == 1
    assert rollup.spans["simulate"]["by_style"]["sp"]["count"] == 1
    assert rollup.counters == {
        "supervise.dispatch": 1, "shrink.attempts": 12,
    }
    assert rollup.gauges == {"pool.live": 3}
    assert rollup.events == {"supervise.crash": 1}
    assert rollup.workers == {41: {"crash": 1}}
    assert rollup.slowest_cases() == [
        (rollup.spans["case"]["total_s"], 4, 77)
    ]


def test_span_exception_propagates_and_still_records():
    session = telemetry.activate(TelemetrySession())
    with pytest.raises(RuntimeError):
        with telemetry.span("build", style="fsm"):
            raise RuntimeError("boom")
    assert session.rollup.spans["build"]["count"] == 1


def test_rollup_to_dict_is_json_stable():
    rollup = Rollup()
    rollup.add({"kind": "span", "name": "simulate", "t": 0.0,
                "dur_s": 0.25, "style": "sp"})
    rollup.add({"kind": "count", "name": "fault.injected", "t": 0.0,
                "n": 1})
    document = rollup.to_dict(wall_s=1.0)
    assert json.loads(json.dumps(document)) == document
    assert document["stage_total_s"] == 0.25
    assert document["counters"]["fault.injected"] == 1


# -- the JSONL sink ------------------------------------------------------------


def test_event_writer_round_trips_with_rebased_timestamps(tmp_path):
    path = tmp_path / "events.jsonl"
    session = telemetry.activate(TelemetrySession())
    session.attach_writer(
        EventWriter(path, session.t0, meta={"seed": 9, "cases": 2})
    )
    with telemetry.span("simulate", style="sp"):
        pass
    telemetry.count("supervise.dispatch")
    telemetry.deactivate()
    session.writer.close()
    session.writer.close()  # idempotent

    header, records = read_events(path)
    assert header["version"] == telemetry.EVENTS_VERSION
    assert header["meta"] == {"seed": 9, "cases": 2}
    assert [r["name"] for r in records] == [
        "simulate", "supervise.dispatch",
    ]
    stamps = [r["t"] for r in records]
    # Rebased to the session start: small, non-negative, ordered.
    assert all(0 <= t < 60 for t in stamps)
    assert stamps == sorted(stamps)


def test_read_events_tolerates_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    lines = [
        json.dumps({"kind": "header", "version": 1, "meta": {}}),
        json.dumps({"kind": "count", "name": "a", "t": 0.1, "n": 1}),
        json.dumps({"kind": "count", "name": "b", "t": 0.2, "n": 1}),
    ]
    path.write_text("\n".join(lines) + "\n" + '{"kind": "count", "na')
    header, records = read_events(path)
    assert header is not None
    assert [r["name"] for r in records] == ["a", "b"]


def test_read_events_rejects_headerless_stream(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps({"kind": "count", "name": "a", "t": 0.1}) + "\n"
    )
    assert read_events(path) == (None, [])
    assert read_events(tmp_path / "missing.jsonl") == (None, [])


# -- the liveness-only contract ------------------------------------------------


def test_outcomes_coverage_and_journal_identical_on_or_off(tmp_path):
    plain = BatchRunner(
        _config(), checkpoint=tmp_path / "off.jsonl"
    ).run()

    session = telemetry.activate(TelemetrySession())
    observed = BatchRunner(
        _config(), checkpoint=tmp_path / "on.jsonl"
    ).run()
    telemetry.deactivate()

    assert _outcome_records(observed) == _outcome_records(plain)
    assert observed.coverage.to_json() == plain.coverage.to_json()
    assert (
        (tmp_path / "on.jsonl").read_bytes()
        == (tmp_path / "off.jsonl").read_bytes()
    )
    # …and the session did observe the batch.
    assert session.rollup.spans["case"]["count"] == 6
    assert session.rollup.stage_total_s() > 0


def test_rollup_equivalent_across_job_counts():
    counts = {}
    timings = {}
    for jobs in (1, 4):
        session = telemetry.activate(TelemetrySession())
        report = BatchRunner(_config(jobs=jobs)).run()
        telemetry.deactivate()
        assert report.ok
        counts[jobs] = {
            name: bucket["count"]
            for name, bucket in session.rollup.spans.items()
        }
        timings[jobs] = session.rollup.stage_total_s()
    # Same spans land, whether emitted in-process or relayed over the
    # supervised pool's pipes; only their durations may differ.
    assert counts[1] == counts[4]
    assert timings[1] > 0 and timings[4] > 0


def test_chaos_faults_are_tagged_injected():
    session = telemetry.activate(TelemetrySession())
    report = BatchRunner(
        _config(jobs=2, retries=0, chaos=ChaosConfig(crash=(2,)))
    ).run()
    telemetry.deactivate()
    assert report.outcomes[2].status == "crash"
    assert session.rollup.counters.get("fault.injected") == 1
    assert "fault.organic" not in session.rollup.counters
    assert session.rollup.events.get("fault") == 1
    # The crash surfaced as worker lifecycle events too.
    assert session.rollup.events.get("supervise.crash", 0) >= 1


# -- CLI: --events / --metrics-json, interrupt flush ---------------------------


def test_cli_writes_event_stream_and_metrics(tmp_path, capsys):
    events = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "3", "--cycles", "60",
        "--events", str(events), "--metrics-json", str(metrics),
    ])
    assert code == 0
    header, records = read_events(events)
    assert header["meta"]["cases"] == 3
    assert any(r.get("name") == "case" for r in records)
    document = json.loads(metrics.read_text())
    assert document["spans"]["case"]["count"] == 3
    assert document["wall_s"] > 0
    out = capsys.readouterr().out
    assert "telemetry: stage spans total" in out
    # Telemetry must stay opt-in: no session survives the command.
    assert telemetry.active() is None


def test_rtl_cache_line_counts_plan_reuse():
    rollup = Rollup()
    for name, n in (
        ("rtl.cache.hits", 95), ("rtl.cache.misses", 5),
        ("rtl.cache.compile_ms", 12.5),
    ):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  rtl plan cache: 95 hit(s) / 5 miss(es) (95% reused), "
        "12.5ms compiling"
    ) in rollup.render().splitlines()


def test_rtl_line_counts_driver_transitions():
    rollup = Rollup()
    for name, n in (
        ("rtl.cache.hits", 4), ("rtl.cache.tables", 6),
        ("rtl.cache.transitions", 180),
    ):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  rtl plan cache: 4 hit(s) / 0 miss(es) (100% reused), "
        "0.0ms compiling; "
        "180 transition(s) computed over 6 driver table(s)"
    ) in rollup.render().splitlines()


def test_rtl_line_counts_kernel_forms_per_plan():
    rollup = Rollup()
    for name, n in (
        ("rtl.cache.hits", 30), ("rtl.cache.misses", 10),
        ("rtl.cache.plans", 25), ("rtl.cache.compile_ms", 8.0),
    ):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  rtl plan cache: 30 hit(s) / 10 miss(es) (75% reused), "
        "10 kernel form(s) compiled for 25 plan(s), 8.0ms compiling"
    ) in rollup.render().splitlines()


def test_cli_reports_kernel_forms_per_plan(tmp_path, capsys, monkeypatch):
    # Regular traffic elaborates a plan per distinct wrapper module;
    # modules that differ only in literals share a kernel compile.
    # Cold caches, so the count does not hang on earlier tests.
    monkeypatch.setattr(compile_sim, "_KERNEL_CACHE", OrderedDict())
    monkeypatch.setattr(
        compile_sim, "_PLAN_MEMO", weakref.WeakKeyDictionary()
    )
    events = tmp_path / "events.jsonl"
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "6", "--traffic", "regular",
        "--events", str(events), "--metrics-json", str(metrics),
    ])
    assert code == 0
    counters = json.loads(metrics.read_text())["counters"]
    compiles = counters["rtl.cache.misses"]
    plans = counters["rtl.cache.plans"]
    assert 0 < compiles < plans
    clause = f"{compiles:.0f} kernel form(s) compiled for {plans:.0f} plan(s)"
    assert clause in capsys.readouterr().out
    assert cli.main(["report", str(events)]) == 0
    assert clause in capsys.readouterr().out


def test_cli_metrics_carry_driver_table_counts(tmp_path, capsys):
    # Regular traffic runs every RTL style; each RTL shell binding
    # builds one transition table (a shell binds again after a reset),
    # and the tables compute the transitions.
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "5", "--traffic", "regular",
        "--metrics-json", str(metrics),
    ])
    assert code == 0
    document = json.loads(metrics.read_text())
    counters = document["counters"]
    rtl_builds = sum(
        bucket["count"]
        for style, bucket in document["spans"]["build"]["by_style"].items()
        if style.startswith("rtl-")
    )
    tables = counters["rtl.cache.tables"]
    assert tables >= rtl_builds > 0
    assert counters["rtl.cache.transitions"] > 0
    assert (
        f"transition(s) computed over {tables:.0f} driver table(s)"
        in capsys.readouterr().out
    )


def test_rtl_line_absent_without_compiled_plans():
    # Under the interpreter no plan is compiled and no driver table is
    # built, so there is no RTL line to show.
    rollup = Rollup()
    rollup.add({"kind": "count", "name": "fabric.lowered", "t": 0.0, "n": 3})
    assert not any(
        line.startswith("  rtl ") for line in rollup.render().splitlines()
    )


def test_fabric_line_reports_lowering_time():
    rollup = Rollup()
    for name, n in (
        ("fabric.lowered", 14), ("fabric.cache.hits", 12),
        ("fabric.cache.misses", 2), ("fabric.cache.compile_ms", 6.25),
        ("fabric.cache.lower_ms", 9.5),
    ):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  lis fabric: 14 lowered / 0 reference run(s), code cache "
        "12 hit(s) / 2 miss(es) (86%), 6.2ms compiling, 9.5ms lowering"
    ) in rollup.render().splitlines()


def test_fabric_line_counts_stall_cycles():
    rollup = Rollup()
    for name, n in (("fabric.lowered", 6), ("fabric.stall_cycles", 41)):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  lis fabric: 6 lowered / 0 reference run(s) (41 stall cycle(s) "
        "on the reference loop)"
    ) in rollup.render().splitlines()


def test_cli_metrics_carry_stall_cycles(tmp_path, capsys):
    # Dynamic variants run their stall windows on the reference loop;
    # the runs still count as lowered.
    assert "fabric.stall_cycles" in telemetry.engine_stats()
    metrics = tmp_path / "metrics.json"
    events = tmp_path / "events.jsonl"
    code = cli.main([
        "verify", "--cases", "2", "--cycles", "120", "--perturb", "1",
        "--perturb-dynamic", "--metrics-json", str(metrics),
        "--events", str(events),
    ])
    assert code == 0
    counters = json.loads(metrics.read_text())["counters"]
    stalled = counters["fabric.stall_cycles"]
    assert stalled > 0
    assert counters.get("fabric.reference", 0) == 0
    assert not any(key.startswith("fabric.cache.stall") for key in counters)
    line = f"({stalled:.0f} stall cycle(s) on the reference loop)"
    assert line in capsys.readouterr().out
    assert cli.main(["report", str(events)]) == 0
    assert line in capsys.readouterr().out


def test_lockstep_line_counts_pair_runs_and_fallbacks():
    rollup = Rollup()
    for name, n in (("lockstep.runs", 12), ("lockstep.fallbacks", 2)):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  lockstep: 12 cycle-exact pair run(s), 2 fell back to "
        "separate runs"
    ) in rollup.render().splitlines()


def test_lockstep_line_counts_riders_and_detach_cycles():
    rollup = Rollup()
    for name, n in (
        ("lockstep.runs", 14), ("lockstep.grouped", 10),
        ("lockstep.detached.0", 3), ("lockstep.detached.37", 1),
    ):
        rollup.add({"kind": "count", "name": name, "t": 0.0, "n": n})
    assert (
        "  lockstep: 14 cycle-exact pair run(s), 0 fell back to "
        "separate runs; 10 system(s) carried rider pairs, 4 rider "
        "pair(s) detached (3 at cycle 0, 1 at cycle 37)"
    ) in rollup.render().splitlines()
    for cycle in (120, 9):
        rollup.add({
            "kind": "count", "name": f"lockstep.detached.{cycle}",
            "t": 0.0, "n": 1,
        })
    assert rollup.render().count(
        "6 rider pair(s) detached (3 at cycle 0, 1 at cycle 9, 1 at "
        "cycle 37, ...)"
    ) == 1


def test_cli_metrics_carry_lockstep_counts(tmp_path, capsys):
    # Two random-traffic cases: one lockstep group per case, rtl-sp/sp
    # with rtl-fsm/fsm riding along; a rider pair that detaches runs
    # as a pair of its own.
    metrics = tmp_path / "metrics.json"
    events = tmp_path / "events.jsonl"
    code = cli.main([
        "verify", "--cases", "2", "--cycles", "60",
        "--metrics-json", str(metrics), "--events", str(events),
    ])
    assert code == 0
    counters = json.loads(metrics.read_text())["counters"]
    detached = {
        name: n for name, n in counters.items()
        if name.startswith("lockstep.detached.")
    }
    assert counters["lockstep.grouped"] == 2
    assert counters["lockstep.runs"] == 2 + sum(detached.values())
    assert counters.get("lockstep.fallbacks", 0) == 0
    (line,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  lockstep:")
    ]
    assert line.startswith(
        f"  lockstep: {counters['lockstep.runs']:.0f} cycle-exact pair "
        "run(s), 0 fell back to separate runs; 2 system(s) carried "
        "rider pairs"
    )
    assert cli.main(["report", str(events)]) == 0
    assert line in capsys.readouterr().out
    spans = [
        record for record in read_events(events)[1]
        if record["kind"] == "span" and record.get("reference") == "sp"
    ]
    assert spans and all(
        span["riders"] == ["rtl-fsm", "fsm"] for span in spans
    )


@pytest.mark.parametrize("engine", ["compiled", "interp"])
def test_cli_metrics_carry_driver_and_lowering_counts(
    tmp_path, capsys, engine
):
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "2", "--cycles", "60", "--engine", engine,
        "--metrics-json", str(metrics),
    ])
    assert code == 0
    document = json.loads(metrics.read_text())
    counters = document["counters"]
    # Two cases, each with RTL styles: every compiled RTL shell builds
    # one driver table; interpreted ones run by name and build none.
    tables = counters.get("rtl.cache.tables", 0)
    assert (tables > 0) == (engine == "compiled")
    simulated = document["spans"]["simulate"]["by_style"]
    assert all(
        simulated[style]["count"] > 0 for style in ("rtl-sp", "rtl-fsm")
    )
    # Lowering time covers the walk, the text and the compile.
    assert counters["fabric.cache.lower_ms"] > 0
    assert counters["fabric.cache.lower_ms"] >= counters.get(
        "fabric.cache.compile_ms", 0
    )
    out = capsys.readouterr().out
    assert ("driver table(s)" in out) == (engine == "compiled")
    assert "ms lowering" in out


def test_cli_metrics_carry_plan_reuse(tmp_path, capsys):
    # Perturbation variants rebuild every RTL style on the base's
    # schedules, so the second build of each one is a plan-memo hit.
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "2", "--cycles", "60", "--perturb", "1",
        "--perturb-styles", "all", "--metrics-json", str(metrics),
    ])
    assert code == 0
    counters = json.loads(metrics.read_text())["counters"]
    assert counters["rtl.cache.hits"] > 0
    assert "rtl plan cache:" in capsys.readouterr().out


def test_cli_interrupted_batch_flushes_partial_telemetry(
    tmp_path, monkeypatch, capsys
):
    real = runner_mod.run_case
    calls = []

    def interrupt_on_second(case):
        if len(calls) == 1:
            raise KeyboardInterrupt
        calls.append(case.index)
        return real(case)

    monkeypatch.setattr(runner_mod, "run_case", interrupt_on_second)
    events = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "4", "--cycles", "60",
        "--events", str(events), "--metrics-json", str(metrics),
    ])
    assert code == 130
    assert "INTERRUPTED" in capsys.readouterr().out
    # Satellite contract: the partial rollup and a clean event tail.
    document = json.loads(metrics.read_text())
    assert document["spans"]["case"]["count"] == 1
    header, records = read_events(events)
    assert header is not None
    assert any(r.get("name") == "case" for r in records)
    assert telemetry.active() is None


def test_cli_outer_interrupt_still_writes_metrics(
    tmp_path, monkeypatch, capsys
):
    class Explosive:
        def __init__(self, config, checkpoint=None, resume=False):
            pass

        def run(self):
            raise KeyboardInterrupt

    monkeypatch.setattr("repro.verify.BatchRunner", Explosive)
    events = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    code = cli.main([
        "verify", "--cases", "2", "--cycles", "60",
        "--events", str(events), "--metrics-json", str(metrics),
    ])
    assert code == 130
    assert "interrupted" in capsys.readouterr().err
    document = json.loads(metrics.read_text())
    assert document["wall_s"] >= 0
    header, _ = read_events(events)
    assert header is not None
    assert telemetry.active() is None


# -- `repro report` ------------------------------------------------------------

CANNED_EVENTS = [
    {"kind": "header", "version": 1,
     "meta": {"cases": 2, "seed": 9, "jobs": 1}},
    {"kind": "span", "name": "generate", "t": 0.0, "dur_s": 0.05,
     "gen": "random"},
    {"kind": "span", "name": "build", "t": 0.06, "dur_s": 0.1,
     "style": "sp"},
    {"kind": "span", "name": "simulate", "t": 0.16, "dur_s": 0.6,
     "style": "sp"},
    {"kind": "span", "name": "simulate", "t": 0.76, "dur_s": 0.2,
     "style": "fsm"},
    {"kind": "span", "name": "oracle", "t": 0.96, "dur_s": 0.04},
    {"kind": "span", "name": "case", "t": 0.06, "dur_s": 0.95,
     "case": 0, "seed": 11},
    {"kind": "span", "name": "case", "t": 1.01, "dur_s": 0.4,
     "case": 1, "seed": 12},
    {"kind": "event", "name": "supervise.crash", "t": 0.5, "pid": 7,
     "detail": "exit code 86"},
    {"kind": "event", "name": "fault", "t": 0.6, "case": 0,
     "injected": True},
    {"kind": "count", "name": "fault.injected", "t": 0.6, "n": 1},
]

REPORT_GOLDEN = """\
telemetry report: 10 event(s), ~1.41s observed (cases 2, jobs 1, seed 9)
stage breakdown:
  generate      0.05s    5.1%  (1 span(s))
  build         0.10s   10.1%  (1 span(s))
  simulate      0.80s   80.8%  (2 span(s))
  oracle        0.04s    4.0%  (1 span(s))
  total         0.99s
per-style simulate time:
  sp                0.60s   75.0%  (1 run(s))
  fsm               0.20s   25.0%  (1 run(s))
slowest cases (top 2):
  case 0 (seed 11): 0.950s
  case 1 (seed 12): 0.400s
fault timeline:
  +0.500s supervise.crash (pid=7, detail=exit code 86)
  +0.600s fault (case=0, injected=True)"""


def _write_canned(path, events=CANNED_EVENTS):
    path.write_text(
        "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
    )


def test_cli_report_golden_output(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    _write_canned(path)
    assert cli.main(["report", str(path)]) == 0
    assert capsys.readouterr().out.rstrip("\n") == REPORT_GOLDEN


def test_cli_report_renders_engine_paths(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    _write_canned(path, CANNED_EVENTS + [
        {"kind": "count", "name": "fabric.lowered", "t": 1.0, "n": 8},
        {"kind": "count", "name": "lockstep.runs", "t": 1.0, "n": 6},
    ])
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert (
        "engine paths:\n"
        "  lis fabric: 8 lowered / 0 reference run(s)\n"
        "  lockstep: 6 cycle-exact pair run(s), 0 fell back to separate "
        "runs\n"
        "slowest cases"
    ) in out


def test_cli_report_compare_flags_regressions(tmp_path, capsys):
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    _write_canned(old)
    slower = [
        dict(e, dur_s=e["dur_s"] * 3) if e.get("name") == "simulate"
        else e
        for e in CANNED_EVENTS
    ]
    _write_canned(new, slower)
    assert cli.main(
        ["report", "--compare", str(old), str(new)]
    ) == 0
    out = capsys.readouterr().out
    assert "telemetry compare" in out
    assert "simulate" in out and "REGRESSION" in out
    # Unchanged stages carry no marker.
    generate_line = next(
        line for line in out.splitlines() if "generate" in line
    )
    assert "REGRESSION" not in generate_line


def test_cli_report_rejects_bad_stream(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert cli.main(["report", str(bad)]) == 2
    assert "not a telemetry event stream" in capsys.readouterr().err


def test_cli_report_requires_input(capsys):
    assert cli.main(["report"]) == 2
    assert "event stream" in capsys.readouterr().err
