"""Verify-campaign benchmark: cases/s of real ``repro verify`` campaigns.

Usage (from the repository root)::

    python3 verifybench/run.py --workload regular --seed 0 \\
        --seconds 55 --trace 0

Each campaign is ``BatchRunner(BatchConfig(...)).run()`` at ``jobs=1``
in a fresh interpreter (``campaign.py``).  Campaign ``k`` of a run uses
the seed ``--seed * 1000 + k % SEEDS_PER_RUN``, so a run covers a few
hundred distinct cases and the figure does not hang on a few expensive
ones; campaigns follow one another until ``--seconds`` are used, with
``--trace 0`` each seed at least once.  Every campaign must report zero failed cases, and
the same outcome counts and digest as every other campaign of its
seed, traced or not.  The last stdout line is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced campaigns, each run right after an untraced campaign
of the same seed, whose speed ``trace.overhead`` compares.

The host changes speed by up to 2x within seconds, so the end-to-end
``cases_per_s`` is host-normalized: each case's wall time is scaled by
the host probe (``hostprobe.py``) timed on either side of it, to
seconds on a reference host that runs the probe in
``hostprobe.REFERENCE_S`` (``hostprobe.scale``).  ``setup_s``, the
median over every interpreter start of the run, is scaled by the
median probe of the run.  ``peak_rss_mb`` is raw.  The line before the
result also holds the raw figures, the median probe time, the outcome
counts and digest of every campaign and the machine fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from hostprobe import SETUP_SENSITIVITY, scale  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and units, all from untraced campaigns.
END_TO_END = {"cases_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Distinct campaign seeds per run; every seed runs at least once.
SEEDS_PER_RUN = 4

#: Setup-only interpreter starts per run, on top of one per campaign, so
#: that the median ``setup_s`` rests on enough samples.
SETUP_PROBES = 6

#: Wall-clock budget of one whole run; every run must end within 180 s.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result."""


@dataclass
class Run:
    """Everything one benchmark run measured."""

    setups: list[float] = field(default_factory=list)
    untraced: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)


def campaign_seed(seed: int, number: int) -> int:
    return seed * 1000 + number % SEEDS_PER_RUN


def run_campaign(
    workload: str, seed: int, cases: int, flags: list[str], timeout: float
) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Pin the default RTL engine whatever the caller's environment says.
    env.pop("REPRO_RTL_ENGINE", None)
    command = [
        sys.executable, str(HERE / "campaign.py"),
        "--workload", workload, "--seed", str(seed),
        "--cases", str(cases), *flags,
    ]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"campaign exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"campaign exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def measure(
    workload: str, seed: int, seconds: float, trace: bool, cases: int
) -> Run:
    """Setup probes, then campaigns filling ``seconds``.

    With ``trace`` each seed runs untraced, then traced.  A further
    campaign (or pair) starts only while the median wall time of one
    still fits, so a run ends close to ``seconds``.
    """
    started = time.monotonic()
    run = Run()

    def child(number: int, flags: list[str]) -> dict:
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        return run_campaign(
            workload, campaign_seed(seed, number), cases, flags, remaining
        )

    for _ in range(SETUP_PROBES):
        run.setups.append(child(0, ["--setup-only"])["setup_s"])

    def due() -> bool:
        if len(run.untraced) < (1 if trace else SEEDS_PER_RUN):
            return True
        walls = [c["wall_s"] for c in run.untraced]
        for number, campaign in enumerate(run.traced):
            walls[number] += campaign["wall_s"]
        elapsed = time.monotonic() - started
        return elapsed + statistics.median(walls) <= seconds

    number = 0
    while due():
        run.untraced.append(child(number, []))
        if trace:
            run.traced.append(child(number, ["--trace"]))
        number += 1
    run.setups.extend(c["setup_s"] for c in run.untraced)
    return run


def check(
    workload: str, untraced: list[dict], traced: list[dict]
) -> list[str]:
    """Every correctness and self-check problem of one run."""
    spec = WORKLOADS[workload]
    problems = []
    reference: dict[int, dict] = {}
    for campaign in untraced + traced:
        kind = "traced" if campaign["traced"] else "untraced"
        name = f"{kind} campaign seed {campaign['seed']}"
        counts = campaign["counts"]
        if counts["cases_failed"] or not campaign["ok"]:
            problems.append(
                f"{name}: {counts['cases_failed']} failed case(s) or a "
                "vacuous batch"
            )
        first = reference.setdefault(campaign["seed"], counts)
        if counts != first:
            problems.append(
                f"{name}: outcome counts or digest differ from the first "
                f"campaign of this seed ({counts} vs {first})"
            )
        if not campaign["restored"]:
            problems.append(f"{name}: wrappers left behind")
        shiftreg = "rtl-shiftreg" in campaign["styles_run"]
        if shiftreg != spec.plans:
            problems.append(f"{name}: rtl-shiftreg ran={shiftreg}")
    for campaign in traced:
        name = f"traced campaign seed {campaign['seed']}"
        layers = campaign["layers"]
        expected = {
            "plan.calls": spec.plans,
            "simulate.style.rtl-shiftreg.s": spec.plans,
            "perturb.simulations": spec.perturbs,
        }
        for metric, present in expected.items():
            if (layers[metric] > 0) != present:
                problems.append(
                    f"{name}: {metric}={layers[metric]} but this workload "
                    f"{'must' if present else 'must not'} run it"
                )
    return problems


def case_times(campaign: dict, normalized: bool) -> tuple[list, float]:
    """Each case's wall seconds and the rest of ``BatchRunner.run``
    (generation, coverage report), probes left out.  With
    ``normalized``, each case is scaled to the reference host by the
    mean of the probes on either side of it, and the rest by their
    median."""
    cases, probes = campaign["case_s"], campaign["probe_s"]
    rest = campaign["run_s"] - sum(cases) - sum(probes)
    if not normalized:
        return cases, rest
    scaled = [
        case * scale((before + after) / 2)
        for case, before, after in zip(cases, probes, probes[1:])
    ]
    return scaled, rest * scale(statistics.median(probes))


def cases_per_s(campaigns: list[dict], normalized: bool = True) -> float:
    """Cases of every seed over their time, each seed's time taken
    piece by piece over its repeated campaigns: each case's median time
    plus the median rest.  A burst of load from other processes then
    skews one campaign's case, not the figure."""
    by_seed: dict[int, list] = {}
    for campaign in campaigns:
        by_seed.setdefault(campaign["seed"], []).append(
            case_times(campaign, normalized)
        )
    cases = seconds = 0.0
    for repeats in by_seed.values():
        per_case = [
            statistics.median(times)
            for times in zip(*(times for times, _ in repeats))
        ]
        cases += len(per_case)
        seconds += sum(per_case) + statistics.median(
            rest for _, rest in repeats
        )
    return cases / seconds


def probe_median(run: Run) -> float:
    return statistics.median(p for c in run.untraced for p in c["probe_s"])


def result_metrics(run: Run, trace: bool) -> dict[str, dict]:
    if not trace:
        values = {
            "cases_per_s": cases_per_s(run.untraced),
            "setup_s": statistics.median(run.setups) * scale(
                probe_median(run), SETUP_SENSITIVITY
            ),
            "peak_rss_mb": statistics.median(
                c["peak_rss_mb"] for c in run.untraced
            ),
        }
        units = END_TO_END
    else:
        values = {
            name: statistics.median(c["layers"][name] for c in run.traced)
            for name in LAYER_METRICS
            if name != "trace.overhead"
        }
        # Raw times: each traced campaign ran right after its untraced
        # twin, so the host's drift mostly cancels in the ratio.
        values["trace.overhead"] = cases_per_s(
            run.traced, normalized=False
        ) / cases_per_s(run.untraced, normalized=False)
        units = LAYER_METRICS
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify-campaign benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cases", type=int, default=None,
        help="cases per campaign (default: the workload's size)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    cases = args.cases or WORKLOADS[args.workload].cases
    try:
        run = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), cases
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    problems = check(args.workload, run.untraced, run.traced)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    campaigns = run.untraced + run.traced
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_campaigns": len(run.untraced),
        "traced_campaigns": len(run.traced),
        "raw_cases_per_s": cases_per_s(run.untraced, normalized=False),
        "raw_setup_s": statistics.median(run.setups),
        "probe_median_s": probe_median(run),
        "fingerprint": campaigns[0]["fingerprint"],
        "counts": {c["seed"]: c["counts"] for c in campaigns},
        "problems": problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c["counts"]["cases"] for c in campaigns),
        "failed": sum(c["counts"]["cases_failed"] for c in campaigns),
        "metrics": result_metrics(run, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
