"""Command-line wrapper synthesis — ``python -m repro``.

Subcommands:

* ``synth`` — schedule JSON in, wrapper artifacts out (Verilog, report,
  ROM image, optional self-checking testbench);
* ``stats`` — print a schedule's Table-1 complexity triple and the
  compiled SP program summary;
* ``table1`` — regenerate the paper's Table 1 from the built-in
  signature schedules;
* ``compare`` — synthesize every wrapper style for one schedule and
  print the comparison;
* ``verify`` — batch differential verification of random LIS
  topologies across wrapper styles (see :mod:`repro.verify` and
  ``docs/verify.md``): ``--traffic regular`` switches to jitter-free
  periodic traffic and adds the shift-register wrapper styles;
  ``--perturb K`` adds the metamorphic latency-perturbation oracle
  (K re-segmented variants per case, stream invariance enforced;
  ``--perturb-floorplan`` adds floorplan-driven variants,
  ``--perturb-dynamic`` adds mid-run stall-plan variants, and
  ``--perturb-styles all`` runs every variant under every wrapper
  style); ``--engine compiled|interp`` picks the RTL simulation
  backend of the rtl-* styles; ``--list-styles`` prints the style
  registry;
  ``--coverage`` / ``--coverage-json`` report topology-shape
  histograms; ``--gen coverage [--corpus DIR]`` switches topology
  generation to the coverage-guided corpus scheduler
  (:mod:`repro.verify.corpus` — seeded mutation toward
  under-populated histogram bins); ``--timeout``/``--retries`` bound each case's wall
  clock and retry budget under the supervised worker pool
  (:mod:`repro.verify.supervise` — crashes and hangs become
  structured ``crash``/``timeout`` outcomes), ``--checkpoint FILE
  [--resume]`` streams outcomes into a resumable campaign journal
  (:mod:`repro.verify.campaign`), and ``--chaos SPEC`` injects
  seeded worker faults to exercise exactly that machinery;
  ``--events FILE`` streams telemetry (stage spans, fault events,
  cache/corpus counters — :mod:`repro.verify.telemetry`) into an
  append-only JSONL file and ``--metrics-json FILE`` exports the
  aggregated rollup; Ctrl-C prints the partial summary, flushes the
  journal, the event-stream tail and the partial rollup, and exits
  130;
* ``report`` — analyze one or more ``--events`` streams (stage
  breakdown, per-style time share, slowest cases, fault timeline,
  mutation-operator yield) or ``--compare`` two of them run-over-run;
* ``coverage-diff`` — compare two ``--coverage-json`` artifacts and
  exit nonzero when the new batch's histogram support shrank
  (CI trend tracking).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from .core.compiler import compile_schedule, program_summary
from .core.io import export_wrapper, load_schedule
from .core.rtlgen.testbench import generate_sp_testbench
from .core.synthesis import SYNTH_STYLES, synthesize_wrapper
from .ips.signatures import rs_table1_schedule, viterbi_table1_schedule
from .synthesis.report import ComparisonRow, format_table1


def _cmd_synth(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    result = synthesize_wrapper(
        schedule,
        style=args.style,
        name=args.name,
        rom_style=args.rom_style,
    )
    written = export_wrapper(result, args.out)
    if args.testbench and result.program is not None:
        tb = generate_sp_testbench(
            result.program,
            schedule=schedule,
            module_name=result.module.name,
            cycles=args.tb_cycles,
        )
        tb_path = pathlib.Path(args.out) / f"{result.module.name}_tb.v"
        tb_path.write_text(tb)
        written.append(tb_path.name)
    print(result.summary())
    print(f"wrote {', '.join(written)} to {args.out}/")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    print(f"complexity (ports/wait/run): {schedule.stats()}")
    program = compile_schedule(schedule)
    for key, value in program_summary(program).items():
        print(f"  {key}: {value}")
    if args.listing:
        print(program.listing())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in (
        ("Viterbi", viterbi_table1_schedule),
        ("RS", rs_table1_schedule),
    ):
        schedule = factory()
        stats = schedule.stats()
        fsm = synthesize_wrapper(schedule, "fsm-onehot")
        sp = synthesize_wrapper(schedule, "sp", rom_style="block")
        rows.append(
            ComparisonRow(
                name, stats.ports, stats.waits, stats.run,
                fsm.report.slices, fsm.report.fmax_mhz,
                sp.report.slices, sp.report.fmax_mhz,
            )
        )
    print(format_table1(rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    print(f"schedule: {schedule.stats()} (ports/wait/run)")
    for style in SYNTH_STYLES:
        report = synthesize_wrapper(schedule, style).report
        print(
            f"  {style:>14}: {report.slices:>6} slices "
            f"{report.fmax_mhz:8.1f} MHz  ({report.mapping.luts} LUT / "
            f"{report.mapping.ffs} FF / {report.mapping.brams} BRAM)"
        )
    return 0


def _flush_telemetry(session, writer, metrics_path, wall_s) -> None:
    """Land the telemetry artifacts: close the event stream (clean,
    fsynced tail) and write the rollup as ``--metrics-json``.  Shared
    by the normal, interrupted-batch and Ctrl-C exit paths, so a
    partial campaign still leaves valid, parseable files."""
    from .verify import write_atomic

    if writer is not None:
        writer.close()
    if metrics_path is not None:
        path = pathlib.Path(metrics_path)
        write_atomic(
            path,
            json.dumps(
                session.rollup.to_dict(wall_s),
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        print(f"wrote metrics JSON to {path}")


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported lazily: the verify machinery drags in the RTL simulator
    # and multiprocessing, which the synthesis subcommands never need.
    from .rtl.simulator import resolve_engine
    from .sched.generate import topology_from_dict, variant_from_dict
    from .verify import (
        PERTURB_STYLE_MODES,
        BatchConfig,
        BatchRunner,
        VerifyCase,
        format_style_registry,
        parse_chaos,
        run_case,
        styles_for_traffic,
        telemetry,
        write_atomic,
    )

    if args.list_styles:
        print(format_style_registry())
        return 0

    if args.repro is not None:
        try:
            data = json.loads(pathlib.Path(args.repro).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load reproducer {args.repro}: {exc}",
                  file=sys.stderr)
            return 2
        # Saved reproducers carry their run parameters; CLI flags only
        # fill the gaps for hand-written topology files.  An explicit
        # --engine flag overrides the recorded engine; the fallback
        # resolves engine=None exactly like BatchConfig.__post_init__,
        # so a replay runs under the engine the failure was found with.
        # Reproducers from the retired "vectorized" engine replay under
        # "compiled": their outcomes were byte-identical by contract.
        # Their legacy "lanes" key is ignored.
        recorded_engine = data.get("engine")
        if recorded_engine == "vectorized":
            recorded_engine = "compiled"
        topology = topology_from_dict(data)
        case = VerifyCase(
            index=0,
            seed=int(data.get("seed", 0)),
            cycles=int(data.get("cycles", args.cycles)),
            topology=topology,
            # Hand-written files without a style list get the styles
            # their traffic regime would run with — regular-traffic
            # topologies include the shift-register styles.
            styles=(
                tuple(data["styles"])
                if "styles" in data
                else styles_for_traffic(topology.traffic)
            ),
            deadlock_window=data.get(
                "deadlock_window", args.deadlock_window
            ),
            engine=resolve_engine(
                args.engine
                if args.engine is not None
                else recorded_engine
            ),
            perturb=int(data.get("perturb", args.perturb)),
            perturb_floorplan=bool(
                data.get("perturb_floorplan", args.perturb_floorplan)
            ),
            perturb_styles=str(
                data.get("perturb_styles", args.perturb_styles)
            ),
            perturb_dynamic=bool(
                data.get("perturb_dynamic", args.perturb_dynamic)
            ),
            # Pinned variants replay verbatim; without them --perturb
            # re-derives from the topology and seed.
            variants=(
                tuple(
                    variant_from_dict(v) for v in data["variants"]
                )
                if "variants" in data
                else None
            ),
        )
        if case.perturb_styles not in PERTURB_STYLE_MODES:
            print(
                f"error: reproducer {args.repro}: unknown "
                f"perturb-styles mode {case.perturb_styles!r}; choose "
                f"from {PERTURB_STYLE_MODES}",
                file=sys.stderr,
            )
            return 2
        outcome = run_case(case)
        if outcome.ok:
            print(
                f"reproducer {args.repro}: no divergence "
                f"({outcome.checks} checks)"
            )
            return 0
        print(f"reproducer {args.repro}: DIVERGED")
        for divergence in outcome.divergences:
            print(f"  {divergence}")
        return 1

    if args.resume and args.checkpoint is None:
        print(
            "error: --resume needs --checkpoint <file> to resume from",
            file=sys.stderr,
        )
        return 2
    try:
        chaos = (
            parse_chaos(args.chaos, args.cases)
            if args.chaos is not None
            else None
        )
        config = BatchConfig(
            cases=args.cases,
            seed=args.seed,
            jobs=args.jobs,
            cycles=args.cycles,
            profile=args.profile,
            traffic=args.traffic,
            deadlock_window=args.deadlock_window,
            shrink=not args.no_shrink,
            engine=args.engine,
            perturb=args.perturb,
            perturb_floorplan=args.perturb_floorplan,
            perturb_styles=args.perturb_styles,
            perturb_dynamic=args.perturb_dynamic,
            timeout=args.timeout,
            retries=args.retries,
            retry_backoff=args.retry_backoff,
            chaos=chaos,
            gen=args.gen,
            corpus=args.corpus,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Telemetry is opt-in (liveness-only: outcomes, coverage and
    # journals are byte-identical either way) — a session only exists
    # when a sink was asked for.
    session = None
    writer = None
    if args.events is not None or args.metrics_json is not None:
        session = telemetry.activate(telemetry.TelemetrySession())
        if args.events is not None:
            writer = telemetry.EventWriter(
                args.events,
                session.t0,
                meta={
                    "cases": args.cases,
                    "seed": args.seed,
                    "jobs": args.jobs,
                    "profile": args.profile,
                    "traffic": args.traffic,
                    "engine": args.engine,
                    "gen": args.gen,
                },
            )
            session.attach_writer(writer)
    try:
        try:
            report = BatchRunner(
                config,
                checkpoint=args.checkpoint,
                resume=args.resume,
            ).run()
        except (ValueError, OSError) as exc:
            # Journal problems: unreadable file, wrong campaign, …
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        if session is not None:
            print(session.rollup.render(report.duration_s))
            _flush_telemetry(
                session, writer, args.metrics_json, report.duration_s
            )
        if report.coverage is not None:
            if args.coverage:
                print(report.coverage.render())
            if args.coverage_json is not None:
                path = pathlib.Path(args.coverage_json)
                write_atomic(path, report.coverage.to_json())
                print(f"wrote coverage JSON to {path}")
        if args.out is not None:
            out_dir = pathlib.Path(args.out)
            for outcome, topology in report.shrunk:
                path = out_dir / f"case{outcome.index}_minimal.json"
                write_atomic(path, json.dumps(topology, indent=2) + "\n")
                print(f"wrote {path}")
        if report.interrupted:
            return 130
        return 0 if report.ok else 1
    except KeyboardInterrupt:
        # A second Ctrl-C (or one outside the runner's window): the
        # journal, if any, was flushed per case — land the partial
        # telemetry the same way before exiting.
        print("interrupted", file=sys.stderr)
        if session is not None:
            _flush_telemetry(
                session,
                writer,
                args.metrics_json,
                time.monotonic() - session.t0,
            )
        return 130
    finally:
        if session is not None:
            telemetry.deactivate()
            if writer is not None:
                writer.close()


def _cmd_report(args: argparse.Namespace) -> int:
    from .verify import telemetry

    if args.compare is not None:
        loaded = []
        for name in args.compare:
            header, records = telemetry.read_events(name)
            if header is None:
                print(
                    f"error: {name}: not a telemetry event stream "
                    "(missing or invalid header line)",
                    file=sys.stderr,
                )
                return 2
            loaded.append((header, records))
        print(
            telemetry.render_compare(
                loaded[0], loaded[1], labels=tuple(args.compare)
            )
        )
        return 0
    if not args.events:
        print(
            "error: need an event stream (or --compare OLD NEW)",
            file=sys.stderr,
        )
        return 2
    status = 0
    for index, name in enumerate(args.events):
        header, records = telemetry.read_events(name)
        if header is None:
            print(
                f"error: {name}: not a telemetry event stream "
                "(missing or invalid header line)",
                file=sys.stderr,
            )
            status = 2
            continue
        if len(args.events) > 1:
            if index:
                print()
            print(f"== {name} ==")
        print(telemetry.render_report(header, records, top=args.top))
    return status


def _cmd_coverage_diff(args: argparse.Namespace) -> int:
    from .verify.coverage import diff_coverage, support_total

    documents = []
    for label, name in (("old", args.old), ("new", args.new)):
        try:
            documents.append(
                json.loads(pathlib.Path(name).read_text())
            )
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot load {label} coverage {name}: {exc}",
                file=sys.stderr,
            )
            return 2
    if args.totals:
        old_total = support_total(documents[0])
        new_total = support_total(documents[1])
        print(
            f"coverage-diff --totals: {old_total} -> {new_total} "
            "populated bucket(s)"
        )
        return 0 if new_total >= old_total else 1
    diff = diff_coverage(documents[0], documents[1])
    print(diff.render())
    return 0 if diff.ok else 1


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Synchronization-processor wrapper synthesis for latency "
            "insensitive systems (DATE'05 reproduction)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize one wrapper")
    synth.add_argument("schedule", help="schedule JSON file")
    synth.add_argument("--style", default="sp", choices=SYNTH_STYLES)
    synth.add_argument("--name", default=None, help="module name")
    synth.add_argument(
        "--rom-style", default="auto",
        choices=("auto", "block", "distributed"),
    )
    synth.add_argument("--out", default="wrapper_out")
    synth.add_argument(
        "--testbench", action="store_true",
        help="also write a self-checking Verilog testbench (SP style)",
    )
    synth.add_argument("--tb-cycles", type=int, default=500)
    synth.set_defaults(fn=_cmd_synth)

    stats = sub.add_parser("stats", help="schedule/program statistics")
    stats.add_argument("schedule")
    stats.add_argument("--listing", action="store_true")
    stats.set_defaults(fn=_cmd_stats)

    table1 = sub.add_parser("table1", help="regenerate the paper's table")
    table1.set_defaults(fn=_cmd_table1)

    compare = sub.add_parser(
        "compare", help="all wrapper styles for one schedule"
    )
    compare.add_argument("schedule")
    compare.set_defaults(fn=_cmd_compare)

    verify = sub.add_parser(
        "verify",
        help="batch differential verification of random topologies",
    )
    verify.add_argument(
        "--cases", type=int, default=50,
        help="number of random topologies to check",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="master seed"
    )
    verify.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (results are job-count independent)",
    )
    verify.add_argument(
        "--cycles", type=int, default=300,
        help="simulated cycles per case and style",
    )
    from .sched.generate import PROFILE_PRESETS, TRAFFIC_MODES

    verify.add_argument(
        "--profile", default="small",
        choices=tuple(sorted(PROFILE_PRESETS)),
        help="topology-shape preset (size/feedback/jitter bundle)",
    )
    verify.add_argument(
        "--traffic", default=None,
        choices=tuple(sorted(TRAFFIC_MODES)),
        help=(
            "traffic regime override: 'regular' draws jitter-free "
            "periodic topologies and adds the shift-register wrapper "
            "styles; default: the profile's own regime"
        ),
    )
    from .verify.runner import GEN_MODES

    verify.add_argument(
        "--gen", default="random", choices=GEN_MODES,
        help=(
            "topology-generation strategy: 'random' draws every case "
            "i.i.d. from the profile; 'coverage' schedules a corpus "
            "and mutates toward under-populated coverage-histogram "
            "bins (same seeds, wider histogram support)"
        ),
    )
    verify.add_argument(
        "--corpus", default=None, metavar="DIR",
        help=(
            "corpus directory for --gen coverage (one reproducer-"
            "format topology JSON per file): loaded into the mutation "
            "pool before generation; a completed batch persists its "
            "interesting topologies and shrunk reproducers back"
        ),
    )
    verify.add_argument(
        "--perturb", type=int, default=0, metavar="K",
        help=(
            "metamorphic latency perturbation: derive K latency-"
            "perturbed variants per case (re-segmented channels, "
            "extra feed-forward pipelining) and require identical "
            "sink streams, per-variant throughput bounds, and relay "
            "occupancy invariants"
        ),
    )
    verify.add_argument(
        "--perturb-floorplan", action="store_true",
        help=(
            "add floorplan-driven variants to the perturbation kinds "
            "(seeded placements; repro.lis.floorplan.plan_channels at "
            "a drawn target clock dictates relay counts)"
        ),
    )
    verify.add_argument(
        "--perturb-dynamic", action="store_true",
        help=(
            "add dynamic-latency variants to the perturbation kinds: "
            "seeded mid-run relay/link stall plans (repro.lis.stall) "
            "injected while the system is running"
        ),
    )
    verify.add_argument(
        "--perturb-styles", default="reference",
        choices=("reference", "all"),
        help=(
            "run perturbation variants under the reference style only "
            "(default) or under every style of the case, RTL-in-the-"
            "loop styles included, with per-variant cycle-exact checks"
        ),
    )
    verify.add_argument(
        "--list-styles", action="store_true",
        help=(
            "print the wrapper-style registry (name, kind, traffic "
            "eligibility, cycle-exact reference) and exit"
        ),
    )
    verify.add_argument(
        "--coverage", action="store_true",
        help="print topology-shape coverage histograms after the batch",
    )
    verify.add_argument(
        "--coverage-json", default=None, metavar="FILE",
        help="write the coverage histograms as JSON (CI trend tracking)",
    )
    from .rtl.simulator import ENGINES

    verify.add_argument(
        "--engine", default=None,
        choices=ENGINES,
        help=(
            "RTL simulation backend for the rtl-* styles (default: "
            "compiled, or the REPRO_RTL_ENGINE environment override); "
            "'interp' is the reference tree-walking evaluator"
        ),
    )
    verify.add_argument(
        "--deadlock-window", type=int, default=64,
        help="stop a run after this many globally idle cycles",
    )
    verify.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimizing failing cases",
    )
    verify.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-case wall-clock budget; a case past it is killed and "
            "retried, then reported as a structured 'timeout' outcome "
            "(default: none)"
        ),
    )
    verify.add_argument(
        "--retries", type=int, default=1,
        help=(
            "extra attempts a crashed or timed-out case gets before "
            "its fault is finalized as an outcome (default: 1)"
        ),
    )
    verify.add_argument(
        "--retry-backoff", type=float, default=0.1, metavar="SECONDS",
        help=(
            "base of the capped exponential delay between retries "
            "(default: 0.1, capped at 5s)"
        ),
    )
    verify.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help=(
            "seeded worker-fault injection, e.g. 'crash:3,11;hang:7;"
            "flaky:5' (explicit case indices) or 'seed:7;"
            "crash-rate:0.1;hang-rate:0.05;flaky-rate:0.1;hang-s:30' "
            "(seeded draws); exercises the supervised fault model"
        ),
    )
    verify.add_argument(
        "--events", default=None, metavar="FILE",
        help=(
            "stream telemetry (stage spans, fault events, cache and "
            "corpus counters) into an append-only JSONL file — a "
            "header line plus one record per line; analyze with "
            "'repro report FILE'"
        ),
    )
    verify.add_argument(
        "--metrics-json", default=None, metavar="FILE",
        help=(
            "write the aggregated telemetry rollup (stage timings, "
            "per-style simulate shares, worker fault tables, cache "
            "and corpus counters, slowest cases) as JSON; also "
            "written for the completed prefix on Ctrl-C"
        ),
    )
    verify.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help=(
            "stream finished outcomes into a resumable JSONL campaign "
            "journal (config header + one record per case, fsynced)"
        ),
    )
    verify.add_argument(
        "--resume", action="store_true",
        help=(
            "resume from the --checkpoint journal: replay recorded "
            "outcomes, run only the remainder"
        ),
    )
    verify.add_argument(
        "--out", default=None,
        help="directory for minimal-reproducer JSON files",
    )
    verify.add_argument(
        "--repro", default=None,
        help="replay one saved topology JSON instead of a batch",
    )
    verify.set_defaults(fn=_cmd_verify)

    report = sub.add_parser(
        "report",
        help=(
            "analyze verify --events telemetry streams: stage "
            "breakdown, per-style time share, slowest cases, fault "
            "timeline, mutation-operator yield"
        ),
    )
    report.add_argument(
        "events", nargs="*",
        help="telemetry event stream(s) written by verify --events",
    )
    report.add_argument(
        "--compare", nargs=2, default=None, metavar=("OLD", "NEW"),
        help=(
            "compare two event streams run-over-run: per-stage "
            "totals with ratios (regressions past 1.25x flagged) "
            "and fault/shrink counter deltas"
        ),
    )
    report.add_argument(
        "--top", type=int, default=10,
        help="slowest-case entries to list (default: 10)",
    )
    report.set_defaults(fn=_cmd_report)

    coverage_diff = sub.add_parser(
        "coverage-diff",
        help=(
            "compare two verify --coverage-json artifacts; exit 1 "
            "when histogram support shrank"
        ),
    )
    coverage_diff.add_argument("old", help="baseline coverage JSON")
    coverage_diff.add_argument("new", help="candidate coverage JSON")
    coverage_diff.add_argument(
        "--totals", action="store_true",
        help=(
            "compare total populated bucket counts instead of "
            "per-bucket support: exit 1 only when the new document's "
            "total is below the old one's (generator A/B checks)"
        ),
    )
    coverage_diff.set_defaults(fn=_cmd_coverage_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
