"""Batch-verification engine benchmarks.

End-to-end ``repro verify`` throughput in cases/second — which bounds
how much topology space a CI budget can cover — for plain, regular,
latency-perturbed and dynamically perturbed batches, plus two overhead
guards: the supervised worker pool against a plain
``ProcessPoolExecutor`` fan-out, and an instrumented (telemetry-on)
batch against the same batch with telemetry off.
"""

from __future__ import annotations

import os
import time

from repro.verify import (
    BEHAVIOURAL_STYLES,
    BatchConfig,
    BatchRunner,
    make_cases,
    run_case,
)

from _bench_common import write_result


def test_batch_verify_throughput(benchmark):
    config = BatchConfig(
        cases=12,
        seed=0,
        jobs=1,
        cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
    )
    lines = [
        "Batch differential verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"styles {', '.join(config.styles)})",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Every case simulates the same random topology once per "
        "wrapper style and cross-checks sink streams, enable traces "
        "and analytic throughput bounds.",
    ]
    write_result("batch_verify_throughput.txt", "\n".join(lines))


def test_regular_traffic_verify_throughput(benchmark):
    """Regular-traffic batches run two extra styles (behavioural and
    RTL shift-register) plus the static-activation planning pass; this
    tracks their cases/second so the oracle's widest mode stays cheap
    enough for CI smoke batches."""
    config = BatchConfig(
        cases=8,
        seed=0,
        jobs=1,
        cycles=200,
        traffic="regular",
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
        styles=len(config.styles),
    )
    lines = [
        "Regular-traffic batch verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"{len(config.styles)} styles incl. shiftreg + rtl-shiftreg)",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Each case plans every process's static activation from the "
        "FSM reference run, then holds both shift-register styles to "
        "the same stream/trace/throughput cross-checks.",
    ]
    write_result("batch_verify_regular.txt", "\n".join(lines))


def test_dynamic_perturbed_verify_throughput(benchmark):
    """Dynamic perturbation adds stall-plan derivation, injector
    blocks on the hot simulation loop, and (in all-styles mode) one
    run per style per variant; this tracks its cases/second so the
    `--perturb-dynamic --perturb-styles all` CI smoke stays
    predictable."""
    perturb = 2
    config = BatchConfig(
        cases=8,
        seed=0,
        jobs=1,
        cycles=200,
        styles=BEHAVIOURAL_STYLES,
        perturb=perturb,
        perturb_dynamic=True,
        perturb_styles="all",
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
        perturb=perturb,
    )
    lines = [
        "Dynamic latency-perturbation verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"{perturb} variants/case incl. mid-run stall plans, "
        "all-styles mode)",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Each case leads its variant rotation with a dynamic variant "
        "(seeded mid-run link/relay stalls over the unchanged "
        "topology) and runs every variant under every behavioural "
        "style, with per-variant stream, throughput, relay and "
        "cycle-exact checks.",
    ]
    write_result("batch_verify_dynamic.txt", "\n".join(lines))


def test_perturbed_verify_throughput(benchmark):
    """Latency-perturbed batches simulate each case K extra times (one
    run per derived variant, plus per-variant marked-graph analysis);
    this tracks the metamorphic oracle's cases/second so the CI smoke
    budget for `--perturb` stays predictable."""
    perturb = 3
    config = BatchConfig(
        cases=8,
        seed=0,
        jobs=1,
        cycles=200,
        styles=BEHAVIOURAL_STYLES,
        perturb=perturb,
        perturb_floorplan=True,
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
        perturb=perturb,
    )
    lines = [
        "Latency-perturbation verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"{perturb} variants/case incl. floorplan-driven)",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Each case derives latency-perturbed topology variants "
        "(re-segmented channels, extra feed-forward pipelining, "
        "floorplan-planned relay counts), simulates each under the "
        "reference style and checks stream invariance, per-variant "
        "marked-graph bounds and relay occupancy.",
    ]
    write_result("batch_verify_perturb.txt", "\n".join(lines))


# -- supervised-pool overhead guard --------------------------------------------


def test_supervised_pool_overhead(benchmark):
    """Supervision (pipe-per-worker channels, deadline bookkeeping,
    sentinel waits) must cost at most 10% of fault-free throughput:
    the supervised pool is required to deliver >= 0.9x the
    cases/second of a plain ``ProcessPoolExecutor.map`` fan-out on
    identical fault-free batches (best of 3 rounds)."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.verify.runner import run_cases_supervised

    required_ratio = 0.9
    rounds = 3
    jobs = 2
    config = BatchConfig(
        cases=12, seed=0, jobs=jobs, cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )
    cases = make_cases(config)

    def time_pair():
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            plain = list(pool.map(run_case, cases))
        plain_s = time.perf_counter() - started
        started = time.perf_counter()
        supervised = run_cases_supervised(cases, jobs=jobs, retries=0)
        supervised_s = time.perf_counter() - started
        # Identical work, identical results, nothing faulted.
        assert all(o.status == "completed" for o in supervised)
        assert [
            (o.index, o.checks, o.sink_tokens) for o in plain
        ] == [
            (o.index, o.checks, o.sink_tokens) for o in supervised
        ]
        return plain_s, supervised_s

    rows = benchmark.pedantic(
        lambda: [time_pair() for _ in range(rounds)],
        rounds=1,
        iterations=1,
    )
    best_plain = min(p for p, _s in rows)
    best_supervised = min(s for _p, s in rows)
    ratio = best_plain / best_supervised
    assert ratio >= required_ratio, (
        f"supervised pool at {ratio:.2f}x of the plain pool "
        f"(required >= {required_ratio}x)"
    )

    benchmark.extra_info.update(
        cases=len(cases),
        plain_ms=round(best_plain * 1e3, 1),
        supervised_ms=round(best_supervised * 1e3, 1),
        ratio=round(ratio, 2),
    )
    lines = [
        "Supervised worker pool vs plain ProcessPoolExecutor.map "
        f"({len(cases)} behavioural cases, {config.cycles} cycles, "
        f"jobs={jobs}, fault-free, best of {rounds})",
        "",
        f"{'variant':>12} | {'ms/batch':>9} {'cases/s':>9}",
        "-" * 36,
        f"{'plain':>12} | {best_plain * 1e3:>9.1f} "
        f"{len(cases) / best_plain:>9.1f}",
        f"{'supervised':>12} | {best_supervised * 1e3:>9.1f} "
        f"{len(cases) / best_supervised:>9.1f}",
        "",
        f"throughput ratio: {ratio:.2f}x "
        f"(required >= {required_ratio}x)",
        "",
        "Supervision buys crash isolation, per-case deadlines and "
        "retry/backoff; this guard holds its fault-free overhead "
        "under 10%.",
    ]
    write_result("batch_verify_supervised_guard.txt", "\n".join(lines))


# -- telemetry overhead guard --------------------------------------------------


def test_telemetry_overhead(benchmark, tmp_path):
    """Telemetry is liveness-only and must stay near-free: a fully
    instrumented batch (active session, rollup, JSONL event stream)
    has to deliver >= 0.95x the cases/second of the same batch with
    telemetry off (best of 3 rounds)."""
    from repro.verify import telemetry
    from repro.verify.telemetry import EventWriter, TelemetrySession

    # Quick (CI smoke) mode widens the bar: batch times on a loaded CI
    # box jitter by far more than the real probe cost, so the smoke
    # only catches structural overhead; the full run holds the 0.95x
    # acceptance bar.
    required_ratio = 0.85 if os.environ.get(
        "REPRO_BENCH_QUICK"
    ) == "1" else 0.95
    # Rounds are interleaved off/on pairs and the guard takes the
    # median of per-pair ratios — back-to-back pairing cancels the
    # slow CPU-frequency drift a min-of-rounds would trip over.
    rounds = 5
    config = BatchConfig(
        cases=12, seed=0, jobs=1, cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )
    # One untimed batch warms the synthesis/elaboration caches, so the
    # first timed round measures steady state rather than cold start.
    BatchRunner(config).run()

    def time_pair(round_index):
        started = time.perf_counter()
        plain = BatchRunner(config).run()
        plain_s = time.perf_counter() - started

        session = TelemetrySession()
        session.attach_writer(
            EventWriter(
                tmp_path / f"events{round_index}.jsonl", session.t0
            )
        )
        telemetry.activate(session)
        started = time.perf_counter()
        observed = BatchRunner(config).run()
        observed_s = time.perf_counter() - started
        telemetry.deactivate()
        session.writer.close()
        # Liveness-only: identical outcomes, and the stream observed
        # the whole batch.
        assert plain.ok and observed.ok
        assert [o.sink_tokens for o in plain.outcomes] == [
            o.sink_tokens for o in observed.outcomes
        ]
        assert session.rollup.spans["case"]["count"] == config.cases
        return plain_s, observed_s

    rows = benchmark.pedantic(
        lambda: [time_pair(i) for i in range(rounds)],
        rounds=1,
        iterations=1,
    )
    from statistics import median

    best_plain = median(p for p, _o in rows)
    best_observed = median(o for _p, o in rows)
    ratio = median(p / o for p, o in rows)
    assert ratio >= required_ratio, (
        f"telemetry-on batch at {ratio:.2f}x of telemetry-off "
        f"(required >= {required_ratio}x)"
    )

    benchmark.extra_info.update(
        cases=config.cases,
        off_ms=round(best_plain * 1e3, 1),
        on_ms=round(best_observed * 1e3, 1),
        ratio=round(ratio, 2),
    )
    lines = [
        "Telemetry-instrumented batch vs telemetry-off "
        f"({config.cases} behavioural cases, {config.cycles} cycles, "
        f"rollup + JSONL event stream, median of {rounds})",
        "",
        f"{'variant':>14} | {'ms/batch':>9} {'cases/s':>9}",
        "-" * 38,
        f"{'telemetry off':>14} | {best_plain * 1e3:>9.1f} "
        f"{config.cases / best_plain:>9.1f}",
        f"{'telemetry on':>14} | {best_observed * 1e3:>9.1f} "
        f"{config.cases / best_observed:>9.1f}",
        "",
        f"throughput ratio: {ratio:.2f}x "
        f"(required >= {required_ratio}x)",
        "",
        "Probes are single-global-check no-ops when off; when on, "
        "spans/counters feed a streaming rollup and a line-flushed "
        "JSONL event stream.",
    ]
    write_result("batch_verify_telemetry_guard.txt", "\n".join(lines))
