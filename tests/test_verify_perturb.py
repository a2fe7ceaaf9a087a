"""Metamorphic latency-perturbation verification.

Covers the variant generator (`repro.sched.generate.derive_variants`),
the perturbation oracle (`repro.verify.perturb`), its coverage axes,
the variant-pair shrinker, the `coverage-diff` trend tool, and the CLI
threading (`repro verify --perturb K`, reproducer replay).
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.sched.generate import (
    PERTURB_KINDS,
    PROFILE_PRESETS,
    TopologyVariant,
    derive_variants,
    random_topology,
    topology_from_dict,
    topology_to_dict,
    variant_from_dict,
    variant_to_dict,
)
from repro.verify import (
    BatchConfig,
    CoverageReport,
    VerifyCase,
    case_variants,
    diff_coverage,
    make_cases,
    run_case,
    shrink_case,
    simulate_topology,
)
from repro.verify import telemetry
from repro.verify.perturb import (
    lowers_latency,
    perturb_style_set,
    reference_style,
)
from repro.verify.telemetry import TelemetrySession


def _case(topology, **kwargs):
    defaults = dict(
        index=0, seed=topology.seed, cycles=200, topology=topology
    )
    defaults.update(kwargs)
    return VerifyCase(**defaults)


def _feedback_topology():
    """A seeded topology that actually has credit-marked feedback."""
    for seed in range(200):
        topology = random_topology(seed)
        if topology.has_feedback and topology.sinks:
            return topology
    raise AssertionError("no feedback topology in the first 200 seeds")


# -- derive_variants -----------------------------------------------------------


class TestDeriveVariants:
    def test_deterministic_per_seed_and_k(self):
        topology = random_topology(11)
        first = derive_variants(topology, 5, seed=11)
        second = derive_variants(topology, 5, seed=11)
        assert first == second

    def test_smaller_draws_are_prefixes(self):
        """Variant i of a K-variant draw is independent of K, so a
        shrunk perturb count replays the same leading variants."""
        topology = random_topology(11)
        assert (
            derive_variants(topology, 2, seed=11)
            == derive_variants(topology, 5, seed=11)[:2]
        )

    def test_seed_changes_variants(self):
        topology = random_topology(11)
        assert derive_variants(topology, 3, seed=11) != derive_variants(
            topology, 3, seed=12
        )

    def test_kinds_round_robin(self):
        topology = random_topology(3)
        plain = derive_variants(topology, 4, seed=3)
        assert [v.kind for v in plain] == [
            "resegment", "pipeline", "resegment", "pipeline",
        ]
        with_fp = derive_variants(topology, 4, seed=3, floorplan=True)
        assert [v.kind for v in with_fp] == [
            "resegment", "pipeline", "floorplan", "resegment",
        ]
        assert [v.label for v in with_fp] == [
            "resegment0", "pipeline1", "floorplan2", "resegment3",
        ]

    def test_only_latencies_change(self):
        """Processes, wiring, markings, jitter and backpressure are
        invariant across every perturbation kind."""
        topology = _feedback_topology()
        for variant in derive_variants(
            topology, 6, seed=topology.seed, floorplan=True
        ):
            perturbed = variant.topology
            assert perturbed.processes == topology.processes
            assert perturbed.port_depth == topology.port_depth
            assert perturbed.traffic == topology.traffic
            for old, new in zip(topology.channels, perturbed.channels):
                assert (old.producer, old.out_port) == (
                    new.producer, new.out_port
                )
                assert (old.consumer, old.in_port) == (
                    new.consumer, new.in_port
                )
                assert new.tokens == old.tokens
            for old, new in zip(topology.sources, perturbed.sources):
                assert replace(new, latency=old.latency) == old
            for old, new in zip(topology.sinks, perturbed.sinks):
                assert replace(new, latency=old.latency) == old

    def test_feedback_credits_preserved(self):
        """Reset markings (loop credits) survive every kind, and the
        pipeline kind leaves marked channels' latency alone too."""
        topology = _feedback_topology()
        marked = [ch for ch in topology.channels if ch.tokens > 0]
        assert marked
        for variant in derive_variants(
            topology, 6, seed=topology.seed, floorplan=True
        ):
            for old, new in zip(
                topology.channels, variant.topology.channels
            ):
                assert new.tokens == old.tokens
                if variant.kind == "pipeline" and old.tokens > 0:
                    assert new.latency == old.latency

    def test_latency_bounds(self):
        topology = random_topology(5, PROFILE_PRESETS["soc"])
        for variant in derive_variants(
            topology, 9, seed=5, floorplan=True, max_latency=6
        ):
            perturbed = variant.topology
            latencies = (
                [ch.latency for ch in perturbed.channels]
                + [src.latency for src in perturbed.sources]
                + [snk.latency for snk in perturbed.sinks]
            )
            assert all(1 <= lat <= 6 for lat in latencies)

    def test_pipeline_adds_forward_latency(self):
        topology = random_topology(11)
        variant = derive_variants(topology, 2, seed=11)[1]
        assert variant.kind == "pipeline"
        forward = [
            (old, new)
            for old, new in zip(
                topology.channels, variant.topology.channels
            )
            if old.tokens == 0
        ]
        assert all(new.latency >= old.latency for old, new in forward)

    def test_floorplan_variant_carries_clock(self):
        topology = random_topology(11)
        variants = derive_variants(topology, 3, seed=11, floorplan=True)
        by_kind = {v.kind: v for v in variants}
        assert by_kind["floorplan"].clock_period_ns in (
            1.0, 1.5, 2.0, 3.0
        )
        assert by_kind["resegment"].clock_period_ns is None

    def test_variant_names_distinct(self):
        topology = random_topology(11)
        names = [
            v.topology.name
            for v in derive_variants(topology, 4, seed=11)
        ]
        assert len(set(names)) == 4
        assert all(name.startswith(topology.name) for name in names)

    def test_bad_arguments(self):
        topology = random_topology(0)
        with pytest.raises(ValueError):
            derive_variants(topology, -1)
        with pytest.raises(ValueError):
            derive_variants(topology, 1, max_latency=0)

    def test_zero_variants(self):
        assert derive_variants(random_topology(0), 0) == ()


class TestVariantJson:
    def test_perturbed_topology_round_trip(self):
        topology = _feedback_topology()
        for variant in derive_variants(
            topology, 3, seed=topology.seed, floorplan=True
        ):
            data = json.loads(
                json.dumps(topology_to_dict(variant.topology))
            )
            assert topology_from_dict(data) == variant.topology

    def test_variant_round_trip(self):
        topology = random_topology(9)
        for variant in derive_variants(
            topology, 3, seed=9, floorplan=True
        ):
            data = json.loads(json.dumps(variant_to_dict(variant)))
            assert variant_from_dict(data) == variant


# -- the metamorphic oracle ----------------------------------------------------


class TestPerturbOracle:
    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 19, 42])
    def test_stream_invariance_holds(self, seed):
        """The repo's wrappers really are latency-insensitive: every
        perturbed sibling produces identical sink streams."""
        topology = random_topology(seed)
        outcome = run_case(
            _case(topology, styles=("fsm", "sp"), perturb=3)
        )
        assert outcome.ok, [str(d) for d in outcome.divergences]

    def test_floorplan_variants_verify(self):
        topology = random_topology(4)
        outcome = run_case(
            _case(
                topology,
                styles=("fsm",),
                perturb=3,
                perturb_floorplan=True,
            )
        )
        assert outcome.ok, [str(d) for d in outcome.divergences]

    def test_perturb_adds_checks(self):
        topology = random_topology(7)
        plain = run_case(_case(topology, styles=("fsm",)))
        perturbed = run_case(
            _case(topology, styles=("fsm",), perturb=3)
        )
        assert perturbed.checks > plain.checks

    def test_case_variants_derives_and_pins(self):
        topology = random_topology(7)
        derived = case_variants(_case(topology, perturb=2))
        assert derived == derive_variants(topology, 2, seed=7)
        pinned = case_variants(
            _case(topology, perturb=5, variants=derived[:1])
        )
        assert pinned == derived[:1]
        assert case_variants(_case(topology)) == ()

    def test_reference_style_prefers_fsm(self):
        assert reference_style(("sp", "fsm", "rtl-sp")) == "fsm"
        assert reference_style(("sp", "combinational")) == "sp"
        assert reference_style(("shiftreg", "rtl-shiftreg")) == "fsm"

    def test_simulate_topology_collects_relay_telemetry(self):
        topology = random_topology(7)
        deep = derive_variants(topology, 2, seed=7)[1].topology
        run = simulate_topology(deep, "fsm", cycles=200)
        assert run.error is None
        assert run.relay_peak is not None
        station, depth = run.relay_peak
        assert 0 <= depth <= 2
        assert ".rs" in station

    def test_zero_progress_variant_is_vacuous_not_green(self):
        """A variant that moves no tokens while the base did (e.g. it
        deadlocked under deeper segmentation) must fail, not pass its
        stream checks over empty data."""
        topology, _bad = _divergent_setup()
        variant = derive_variants(topology, 1, seed=topology.seed)[0]
        starved = TopologyVariant(
            kind=variant.kind,
            index=variant.index,
            topology=replace(
                variant.topology,
                sinks=tuple(
                    replace(snk, stalls=(False,))
                    for snk in variant.topology.sinks
                ),
            ),
        )
        outcome = run_case(
            _case(topology, styles=("fsm",), variants=(starved,))
        )
        assert not outcome.ok
        divergence = next(
            d
            for d in outcome.divergences
            if d.check == "perturb-streams"
        )
        assert "moved no tokens" in divergence.detail

    def test_crashed_reference_style_not_reported_twice(self):
        """When the reference style already crashed in the style loop,
        the perturbation pass skips instead of re-running the crash
        and duplicating the exception divergence."""
        topology = random_topology(7)
        outcome = run_case(
            _case(topology, styles=("bogus",), perturb=2)
        )
        assert not outcome.ok
        exceptions = [
            d for d in outcome.divergences if d.check == "exception"
        ]
        assert len(exceptions) == 1

    def test_regular_traffic_cases_accept_perturbation(self):
        topology = random_topology(2, PROFILE_PRESETS["regular"])
        outcome = run_case(
            _case(topology, styles=("fsm", "shiftreg"), perturb=2)
        )
        assert outcome.ok, [str(d) for d in outcome.divergences]


def _deadlocking_case(seed: int, index: int) -> VerifyCase:
    """A generated case whose base runs deadlock after two tokens and
    whose ``resegment1`` variant shortens a channel latency."""
    config = BatchConfig(
        cases=index + 1, seed=seed, cycles=300, profile="small",
        perturb=2, perturb_dynamic=True, perturb_styles="all",
    )
    return make_cases(config)[index]


class TestVacuityExemption:
    """A base that deadlocks after a few tokens can legitimately move
    none once a variant removes relay storage; the guard must not call
    that vacuous, and must keep firing everywhere else."""

    @pytest.mark.parametrize("seed, index", [(43001, 7), (44002, 32)])
    def test_lowered_latency_on_deadlocked_base_passes(self, seed, index):
        case = _deadlocking_case(seed, index)
        variant = next(
            v for v in case_variants(case) if v.label == "resegment1"
        )
        assert lowers_latency(case.topology, variant.topology)
        base = simulate_topology(case.topology, "fsm", case.cycles)
        assert base.deadlocked and 0 < sum(map(len, base.streams.values()))
        assert not sum(
            map(len, simulate_topology(variant.topology, "fsm", case.cycles)
                .streams.values())
        )
        session = telemetry.activate(TelemetrySession())
        try:
            outcome = run_case(case)
        finally:
            telemetry.deactivate()
        assert outcome.ok, [str(d) for d in outcome.divergences]
        skips = session.rollup.counters["perturb.vacuity_skips"]
        assert skips == len(perturb_style_set(case))
        assert f"perturb: {skips} vacuity-guard skip(s)" in (
            session.rollup.render()
        )

    def test_guard_still_fires_without_a_lowered_latency(self):
        case = _deadlocking_case(43001, 7)
        starved = TopologyVariant(
            kind="resegment",
            index=0,
            topology=replace(
                case.topology,
                sinks=tuple(
                    replace(snk, stalls=(False,))
                    for snk in case.topology.sinks
                ),
            ),
        )
        assert not lowers_latency(case.topology, starved.topology)
        outcome = run_case(
            replace(case, styles=("fsm",), variants=(starved,))
        )
        assert any(
            "moved no tokens" in d.detail for d in outcome.divergences
        )


def _tampered_variant(topology):
    """A structurally legal variant whose first source stream was
    corrupted (every token value shifted by one) — the injected fault
    the metamorphic stream check must catch."""
    variant = derive_variants(topology, 1, seed=topology.seed)[0]
    sources = list(variant.topology.sources)
    assert sources, "expected at least one source"
    sources[0] = replace(sources[0], base=sources[0].base + 1)
    return TopologyVariant(
        kind=variant.kind,
        index=variant.index,
        topology=replace(variant.topology, sources=tuple(sources)),
    )


@functools.lru_cache(maxsize=1)
def _divergent_setup():
    """A seeded (topology, tampered variant) pair whose injected fault
    provably reaches a sink within the test horizon."""
    for seed in range(100):
        topology = random_topology(seed)
        if not (topology.sources and topology.sinks):
            continue
        bad = _tampered_variant(topology)
        outcome = run_case(
            _case(topology, styles=("fsm",), variants=(bad,))
        )
        if any(
            d.check == "perturb-streams" for d in outcome.divergences
        ):
            return topology, bad
    raise AssertionError(
        "no seed in the first 100 propagates the injected fault"
    )


class TestInjectedDivergence:
    def test_corrupted_variant_is_caught(self):
        topology, bad = _divergent_setup()
        outcome = run_case(
            _case(topology, styles=("fsm",), variants=(bad,))
        )
        assert not outcome.ok
        divergence = next(
            d
            for d in outcome.divergences
            if d.check == "perturb-streams"
        )
        assert divergence.style == bad.label

    def test_shrinker_reduces_to_minimal_variant_pair(self):
        """A failing perturbation shrinks to base + exactly the one
        corrupt variant; the healthy variants are dropped."""
        topology, bad = _divergent_setup()
        good = derive_variants(topology, 3, seed=topology.seed + 1)
        case = _case(
            topology,
            styles=("fsm",),
            variants=good[:1] + (bad,) + good[1:],
            cycles=200,
        )
        assert not run_case(case).ok
        minimal = shrink_case(case)
        assert minimal.variants is not None
        assert len(minimal.variants) == 1
        assert minimal.variants[0].topology == bad.topology
        assert not run_case(minimal).ok

    def test_healthy_perturbation_shrinks_away(self):
        """When the failure has nothing to do with perturbation, the
        variant set shrinks to empty (perturbation exonerated)."""
        topology = _feedback_topology()
        case = _case(
            topology,
            styles=("fsm",),
            perturb=2,
            # An impossible style forces a non-perturb failure.
            cycles=60,
        )
        broken = replace(case, styles=("fsm", "no-such-style"))
        assert not run_case(broken).ok
        minimal = shrink_case(broken, max_attempts=40)
        assert minimal.variants is not None
        assert minimal.variants == ()


# -- coverage axes and trend diffing ------------------------------------------


class TestPerturbCoverage:
    def test_perturb_axes_reported(self):
        config = BatchConfig(
            cases=4, seed=0, styles=("fsm",), perturb=3,
            perturb_floorplan=True, shrink=False,
        )
        report = CoverageReport.from_cases(make_cases(config))
        data = report.to_dict()["histograms"]
        assert data["perturb_variants"] == {"3": 4}
        assert set(data["perturb_kinds"]) <= set(PERTURB_KINDS)
        assert sum(data["perturb_kinds"].values()) == 12
        assert data["perturb_max_latency"]

    def test_unperturbed_batches_keep_stable_json(self):
        config = BatchConfig(
            cases=4, seed=0, styles=("fsm",), shrink=False
        )
        data = CoverageReport.from_cases(
            make_cases(config)
        ).to_dict()["histograms"]
        assert not any(key.startswith("perturb") for key in data)


class TestCoverageDiff:
    def _doc(self, histograms, cases=10):
        return {"cases": cases, "histograms": histograms}

    def test_identical_documents_pass(self):
        doc = self._doc({"processes": {"2": 5, "3": 5}})
        diff = diff_coverage(doc, doc)
        assert diff.ok
        assert "did not shrink" in diff.render()

    def test_lost_bucket_is_regression(self):
        old = self._doc({"processes": {"2": 5, "3": 5}})
        new = self._doc({"processes": {"2": 10}})
        diff = diff_coverage(old, new)
        assert not diff.ok
        assert any("processes[3]" in r for r in diff.regressions)

    def test_lost_metric_is_regression(self):
        old = self._doc({"styles": {"fsm": 5}})
        new = self._doc({})
        diff = diff_coverage(old, new)
        assert diff.regressions == ["metric styles (entirely)"]

    def test_new_buckets_are_additions_only(self):
        old = self._doc({"processes": {"2": 5}})
        new = self._doc(
            {"processes": {"2": 1, "4": 9}, "styles": {"fsm": 10}}
        )
        diff = diff_coverage(old, new)
        assert diff.ok
        assert len(diff.additions) == 2

    def test_count_changes_are_not_regressions(self):
        old = self._doc({"processes": {"2": 30}})
        new = self._doc({"processes": {"2": 1}})
        assert diff_coverage(old, new).ok

    def test_zero_count_bucket_is_no_support(self):
        old = self._doc({"processes": {"2": 0}})
        new = self._doc({"processes": {}})
        assert diff_coverage(old, new).ok


# -- CLI threading -------------------------------------------------------------


class TestPerturbCli:
    def test_verify_perturb_batch(self, capsys):
        code = main([
            "verify", "--cases", "3", "--seed", "0", "--perturb", "2",
            "--cycles", "150", "--no-shrink",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "perturb 2" in out

    def test_verify_perturb_floorplan_batch(self, capsys):
        code = main([
            "verify", "--cases", "2", "--seed", "1", "--perturb", "3",
            "--perturb-floorplan", "--cycles", "150", "--no-shrink",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "perturb 3+floorplan" in out

    def test_repro_replays_pinned_variants(self, tmp_path, capsys):
        topology, bad = _divergent_setup()
        data = topology_to_dict(topology)
        data["styles"] = ["fsm"]
        data["cycles"] = 150
        data["perturb"] = 1
        data["variants"] = [variant_to_dict(bad)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["verify", "--repro", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in out
        assert "perturb" in out

    def test_repro_rederives_from_perturb_count(
        self, tmp_path, capsys
    ):
        topology = random_topology(3)
        data = topology_to_dict(topology)
        data["styles"] = ["fsm"]
        data["cycles"] = 150
        data["perturb"] = 2
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data))
        code = main(["verify", "--repro", str(path)])
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_coverage_diff_cli(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({
            "cases": 5,
            "histograms": {"processes": {"2": 3, "3": 2}},
        }))
        new.write_text(json.dumps({
            "cases": 5,
            "histograms": {"processes": {"2": 5}},
        }))
        assert main(["coverage-diff", str(old), str(old)]) == 0
        capsys.readouterr()
        assert main(["coverage-diff", str(old), str(new)]) == 1
        assert "LOST processes[3]" in capsys.readouterr().out

    def test_coverage_diff_unreadable(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"cases": 1, "histograms": {}}))
        assert main([
            "coverage-diff", str(tmp_path / "missing.json"), str(good)
        ]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["coverage-diff", str(good), str(bad)]) == 2

    def test_batch_shrinks_failure_to_variant_reproducer(
        self, tmp_path, monkeypatch, capsys
    ):
        """End-to-end: a batch whose perturbation diverges writes a
        reproducer that pins the minimal variant set."""
        import repro.verify.runner as runner_mod

        topology, bad = _divergent_setup()

        def fake_make_cases(config):
            return [
                VerifyCase(
                    index=0,
                    seed=topology.seed,
                    cycles=150,
                    topology=topology,
                    styles=("fsm",),
                    variants=(bad,) + derive_variants(
                        topology, 1, seed=topology.seed + 1
                    ),
                    perturb=2,
                )
            ]

        monkeypatch.setattr(runner_mod, "make_cases", fake_make_cases)
        code = main([
            "verify", "--cases", "1", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "latency variant(s)" in out
        written = json.loads(
            (tmp_path / "case0_minimal.json").read_text()
        )
        assert written["perturb"] == len(written["variants"]) == 1
        replayed = variant_from_dict(written["variants"][0])
        assert replayed.topology == bad.topology
