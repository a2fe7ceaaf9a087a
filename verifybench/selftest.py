"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest verifybench/selftest.py -q

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from hostprobe import SENSITIVITY  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "verifybench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_names_match_emitted_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for declared in SPEC["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        LAYER_METRICS
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_through_entry_point(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", trace, "--cases", "3",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "verifybench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench(
        "--workload", "regular", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_puts_back_every_original():
    from repro.lis.simulator import Simulation
    from repro.rtl.compile_sim import CompiledSimulator
    from repro.verify import cases, oracles, perturb, runner

    watched = [
        (runner.BatchRunner, "run"), (runner, "make_cases"),
        (cases, "build_system"), (cases, "plan_topology_activations"),
        (Simulation, "run"), (CompiledSimulator, "settle"),
        (CompiledSimulator, "step"), (CompiledSimulator, "poke"),
        (CompiledSimulator, "peek"), (oracles, "run_pipeline"),
        (perturb, "derive_variants"), (perturb.PerturbationOracle, "check"),
        (oracles.StreamPrefixOracle, "check"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = Tracer()
    tracer.install()
    wrapped = [vars(owner)[attr] for owner, attr in watched]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in watched] == before


def _campaign(layers=None, **overrides):
    campaign = {
        "seed": 0,
        "traced": layers is not None,
        "ok": True,
        "restored": True,
        "counts": {"cases": 3, "cases_failed": 0, "digest": "d"},
        "styles_run": ["fsm", "rtl-sp"],
    }
    if layers is not None:
        campaign["layers"] = {
            "plan.calls": 0,
            "simulate.style.rtl-shiftreg.s": 0.0,
            "perturb.simulations": 0,
            **layers,
        }
    campaign.update(overrides)
    return campaign


def test_self_checks_fail_loudly():
    assert run.check(
        "perturb-dynamic", [_campaign()],
        [_campaign({"perturb.simulations": 4})],
    ) == []
    # A regular campaign whose planner silently never ran.
    problems = run.check(
        "regular",
        [_campaign(styles_run=["fsm", "rtl-shiftreg"])],
        [_campaign({"simulate.style.rtl-shiftreg.s": 0.5},
                   styles_run=["fsm", "rtl-shiftreg"])],
    )
    assert any("plan.calls" in problem for problem in problems)
    # Perturbation simulations missing from perturb-dynamic.
    problems = run.check("perturb-dynamic", [_campaign()], [_campaign({})])
    assert any("perturb.simulations" in problem for problem in problems)
    # A traced run whose outcomes differ from the untraced one.
    changed = _campaign({"perturb.simulations": 4})
    changed["counts"] = dict(changed["counts"], digest="e")
    problems = run.check("perturb-dynamic", [_campaign()], [changed])
    assert any("digest" in problem for problem in problems)


def test_normalization_follows_host_speed():
    """The same campaign on a host whose probe runs twice as slow, and
    which slows the campaign by ``2 ** SENSITIVITY``, scores the same."""

    def campaign(slowdown: float, probe_factor: float) -> dict:
        case_s = [slowdown * t for t in (0.2, 0.1, 0.3)]
        probe_s = [probe_factor * t for t in (0.004, 0.005, 0.004, 0.006)]
        rest = slowdown * 0.08
        return {
            "case_s": case_s, "probe_s": probe_s, "seed": 0,
            "run_s": sum(case_s) + sum(probe_s) + rest,
        }

    quiet = campaign(1, 1)
    slow = campaign(2 ** SENSITIVITY, 2)
    assert run.case_times(quiet, normalized=False)[1] == pytest.approx(0.08)
    assert run.cases_per_s([slow]) == pytest.approx(run.cases_per_s([quiet]))
    assert run.cases_per_s([slow], normalized=False) == pytest.approx(
        run.cases_per_s([quiet], normalized=False) / 2 ** SENSITIVITY
    )


def test_spans_agree_with_the_program_telemetry(tmp_path):
    """The benchmark's external spans sit where ``repro verify
    --metrics-json`` puts its own build, simulate and oracle spans."""
    metrics_path = tmp_path / "metrics.json"
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(HERE)!r})
        from layers import Tracer
        from repro.cli import main
        tracer = Tracer()
        tracer.install()
        code = main(["verify", "--cases", "20", "--seed", "0",
                     "--metrics-json", {str(metrics_path)!r}])
        assert tracer.uninstall()
        print(json.dumps({{"code": code, "layers": tracer.metrics(0)}}))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    layers = result["layers"]
    spans = json.loads(metrics_path.read_text())["spans"]
    ours = {
        "build": layers["build.s"],
        "simulate": layers["simulate.s"],
        "oracle": sum(
            value for name, value in layers.items()
            if name.startswith("oracle.") and name.endswith(".s")
            and name != "oracle.self.s"
        ),
    }
    for stage, value in ours.items():
        theirs = spans[stage]["total_s"]
        assert abs(value - theirs) <= 0.1 * theirs + 0.02, (
            stage, value, theirs,
        )
