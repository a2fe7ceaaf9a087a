"""Run one verify campaign in this (fresh) interpreter and print one
JSON line describing it.

Invoked by ``run.py`` once per campaign, so the process-global kernel
cache starts cold, as it does for a user's ``repro verify``.  ``--t0``
is the parent's ``time.monotonic()`` just before this process was
started (the clock is system-wide on Linux), so ``setup_s`` spans
interpreter start, imports and config resolution.

An untraced campaign also times the host probe (``hostprobe.py``)
before the first case and after every case, so that ``run.py`` can
scale each case's time to the reference host.  Traced campaigns
skip the probes, which would land inside the layer spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time


def outcome_digest(outcomes) -> str:
    """SHA-256 over the sorted per-case outcomes: everything a speed-only
    change must leave byte-identical."""
    records = [
        [
            outcome.index,
            outcome.seed,
            outcome.status,
            outcome.checks,
            outcome.sink_tokens,
            sorted(outcome.cycles_executed.items()),
            [str(divergence) for divergence in outcome.divergences],
        ]
        for outcome in sorted(outcomes, key=lambda o: o.index)
    ]
    blob = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cases", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop after measuring setup_s",
    )
    args = parser.parse_args(argv)

    from hostprobe import probe
    from repro.verify import runner
    from workloads import WORKLOADS

    config = runner.BatchConfig(
        cases=args.cases,
        seed=args.seed,
        jobs=1,
        **WORKLOADS[args.workload].config,
    )
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    fingerprint = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy_imported": "numpy" in sys.modules,
        "engine": config.engine,
    }

    # Each case's wall time, in case order, with a host probe before
    # the first case and after every case: case i sits between probes
    # i and i + 1.
    case_s: list[float] = []
    probe_s: list[float] = []
    run_case = runner.run_case

    def timed_case(case):
        if not args.trace and not probe_s:
            probe()  # warm-up
            probe_s.append(probe())
        started = time.perf_counter()
        try:
            return run_case(case)
        finally:
            case_s.append(time.perf_counter() - started)
            if not args.trace:
                probe_s.append(probe())

    runner.run_case = timed_case
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        started = time.perf_counter()
        report = runner.BatchRunner(config).run()
        run_s = time.perf_counter() - started
    finally:
        restored = tracer.uninstall() if tracer is not None else True
        runner.run_case = run_case

    outcomes = report.outcomes
    result = {
        "traced": args.trace,
        "seed": args.seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "case_s": case_s,
        "probe_s": probe_s,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "fingerprint": fingerprint,
        "ok": report.ok,
        "restored": restored,
        "counts": {
            "cases": len(outcomes),
            "cases_failed": len(report.failures) + len(report.faulted),
            "checks": report.checks,
            "sink_tokens": sum(o.sink_tokens for o in outcomes),
            "style_cycles": sum(
                sum(o.cycles_executed.values()) for o in outcomes
            ),
            "digest": outcome_digest(outcomes),
        },
        "styles_run": sorted(
            {style for o in outcomes for style in o.cycles_executed}
        ),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(report.checks)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
