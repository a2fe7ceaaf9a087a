"""Dynamic latency perturbation: stall injection end to end.

Covers the stall layer (`repro.lis.stall`), the `dynamic` variant
kind (`repro.sched.generate.derive_variants`), the perturb-styles
modes of the oracle, stall-plan JSON round-trips, shrink-to-minimal-
stall-plan, coverage axes, and the CLI threading.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from repro.cli import main
from repro.lis import compile_fabric
from repro.lis.simulator import Simulation
from repro.lis.stall import (
    LinkStall,
    derive_stall_plan,
    stall_from_dict,
    stall_to_dict,
)
from repro.sched.generate import (
    PROFILE_PRESETS,
    TopologyVariant,
    derive_variants,
    random_topology,
    topology_link_names,
    topology_to_dict,
    variant_from_dict,
    variant_to_dict,
)
from repro.verify import (
    BatchConfig,
    BatchRunner,
    CoverageReport,
    VerifyCase,
    build_system,
    case_variants,
    make_cases,
    perturb_style_set,
    run_case,
    shrink_case,
    simulate_topology,
)
from repro.verify import cases
from repro.verify.lockstep import LockstepShell, Riders


def _stall_cycles_of(run) -> int:
    """The stall cycles a lowered ``run()`` hands to the reference
    loop (``fabric.stall_cycles``)."""
    before = compile_fabric.cache_stats()["stall_cycles"]
    run()
    return compile_fabric.cache_stats()["stall_cycles"] - before


def _case(topology, **kwargs):
    defaults = dict(
        index=0, seed=topology.seed, cycles=200, topology=topology
    )
    defaults.update(kwargs)
    return VerifyCase(**defaults)


# -- the stall layer -----------------------------------------------------------


class TestStallInjection:
    def test_topology_link_names_match_built_system(self):
        for seed in (0, 3, 11):
            topology = random_topology(seed)
            system, _shells, _sinks = build_system(topology, "fsm")
            assert set(topology_link_names(topology)) == {
                link.name for link in system.links
            }

    def test_stalled_run_preserves_streams_and_delays_arrival(self):
        """Stalling every link mid-run must delay tokens, never lose,
        duplicate or reorder them (the MixPearl streams would change
        on any such fault)."""
        topology = random_topology(4)
        baseline = simulate_topology(topology, "fsm", 150, None)
        # Freeze the whole fabric for a third of the horizon: long
        # enough that the throughput loss is still visible at the end.
        stalls = tuple(
            LinkStall(link, start=40, duration=50)
            for link in topology_link_names(topology)
        )
        stalled = simulate_topology(
            topology, "fsm", 150, None, stalls=stalls
        )
        assert stalled.error is None
        moved = sum(len(s) for s in stalled.streams.values())
        assert moved > 0
        for sink, stream in stalled.streams.items():
            reference = baseline.streams[sink]
            assert stream == reference[: len(stream)]
            # The freeze must actually cost throughput somewhere.
        assert sum(
            len(s) for s in stalled.streams.values()
        ) < sum(len(s) for s in baseline.streams.values())

    def test_stalled_cycles_are_counted(self):
        system, _shells, _sinks = build_system(random_topology(4), "fsm")
        link = system.links[0].name
        simulation = Simulation(system, (LinkStall(link, 10, 5),))
        assert _stall_cycles_of(lambda: simulation.run(50)) == 5

    def test_overlapping_windows_count_once(self):
        system, _shells, _sinks = build_system(random_topology(4), "fsm")
        link = system.links[0].name
        simulation = Simulation(
            system,
            (
                LinkStall(link, start=10, duration=5),
                LinkStall(link, start=12, duration=6),
            ),
        )
        # The union of [10, 15) and [12, 18).
        assert _stall_cycles_of(lambda: simulation.run(50)) == 8

    def test_unknown_link_rejected(self):
        topology = random_topology(4)
        system, _shells, _sinks = build_system(topology, "fsm")
        with pytest.raises(ValueError, match="unknown link"):
            Simulation(system, (LinkStall("no-such-link", 1, 1),))

    def test_step_honours_the_plan(self):
        """``step`` forces the stalled links as ``run`` does: the same
        streams and wires, and fewer tokens than an unstalled run."""
        topology = random_topology(4)
        stalls = tuple(
            LinkStall(link, start=40, duration=50)
            for link in topology_link_names(topology)
        )

        def observe(stalls, stepped):
            system, _shells, sinks = build_system(topology, "fsm")
            simulation = Simulation(system, stalls)
            if stepped:
                simulation.step(150)
            else:
                simulation.run(150)
            return (
                {name: list(sink.received) for name, sink in sinks.items()},
                [(link.data.value, link.stop.stop) for link in system.links],
            )

        stalled = observe(stalls, stepped=True)
        assert stalled == observe(stalls, stepped=False)
        moved = sum(map(len, stalled[0].values()))
        assert moved < sum(map(len, observe((), True)[0].values()))

    def test_stall_on_a_relay_hop(self):
        """A ``.seg{k}`` link between two relay stations can stall: its
        cycles are counted, and the streams only fall behind."""
        for seed in range(20):
            topology = random_topology(seed)
            hops = [
                name for name in topology_link_names(topology)
                if ".seg" in name
            ]
            if hops:
                break
        assert hops
        baseline = simulate_topology(topology, "fsm", 150, None)
        system, _shells, sinks = build_system(topology, "fsm")
        simulation = Simulation(system, (LinkStall(hops[0], 30, 12),))
        assert _stall_cycles_of(lambda: simulation.run(150)) == 12
        assert sum(map(len, baseline.streams.values())) > 0
        for name, sink in sinks.items():
            stream = list(sink.received)
            assert stream == baseline.streams[name][: len(stream)]

    def test_stall_validation(self):
        with pytest.raises(ValueError):
            LinkStall("l", start=-1, duration=1)
        with pytest.raises(ValueError):
            LinkStall("l", start=0, duration=0)


class TestStallPlans:
    def test_derivation_is_deterministic(self):
        links = topology_link_names(random_topology(9))
        first = derive_stall_plan(links, random.Random(5), 300)
        second = derive_stall_plan(links, random.Random(5), 300)
        assert first == second
        assert first != derive_stall_plan(links, random.Random(6), 300)

    def test_windows_land_mid_run(self):
        links = topology_link_names(random_topology(9))
        for seed in range(10):
            plan = derive_stall_plan(links, random.Random(seed), 300)
            assert plan
            for stall in plan:
                assert stall.link in links
                assert 1 <= stall.start <= 225
                assert 1 <= stall.duration <= 16

    def test_empty_inputs_yield_empty_plan(self):
        assert derive_stall_plan((), random.Random(0), 300) == ()
        links = ("a->b",)
        assert derive_stall_plan(links, random.Random(0), 1) == ()

    def test_json_round_trip(self):
        stall = LinkStall("p0.o0->p1.i0.seg2", 41, 7)
        data = json.loads(json.dumps(stall_to_dict(stall)))
        assert stall_from_dict(data) == stall


# -- the dynamic variant kind --------------------------------------------------


class TestDynamicVariants:
    def test_dynamic_kind_leads_the_rotation(self):
        topology = random_topology(11)
        variants = derive_variants(topology, 4, seed=11, dynamic=True)
        assert [v.kind for v in variants] == [
            "dynamic", "resegment", "pipeline", "dynamic"
        ]

    def test_without_flag_behaviour_is_unchanged(self):
        topology = random_topology(11)
        assert derive_variants(topology, 4, seed=11) == derive_variants(
            topology, 4, seed=11, dynamic=False
        )
        assert [
            v.kind for v in derive_variants(topology, 4, seed=11)
        ] == ["resegment", "pipeline", "resegment", "pipeline"]

    def test_dynamic_variant_keeps_topology_and_carries_stalls(self):
        topology = random_topology(11)
        variant = derive_variants(
            topology, 1, seed=11, dynamic=True
        )[0]
        assert variant.kind == "dynamic"
        assert variant.stalls
        assert variant.topology == replace(
            topology, name=f"{topology.name}~dynamic0"
        )
        links = set(topology_link_names(topology))
        for stall in variant.stalls:
            assert stall.link in links

    def test_prefix_property_holds_with_flags(self):
        topology = random_topology(11)
        small = derive_variants(
            topology, 2, seed=11, dynamic=True, floorplan=True
        )
        large = derive_variants(
            topology, 6, seed=11, dynamic=True, floorplan=True
        )
        assert small == large[:2]

    def test_horizon_bounds_the_stall_windows(self):
        topology = random_topology(11)
        variant = derive_variants(
            topology, 1, seed=11, dynamic=True, horizon=80
        )[0]
        for stall in variant.stalls:
            assert stall.start <= 60

    def test_variant_json_round_trip_with_stalls(self):
        topology = random_topology(11)
        variant = derive_variants(
            topology, 1, seed=11, dynamic=True
        )[0]
        data = json.loads(json.dumps(variant_to_dict(variant)))
        assert "stalls" in data
        assert variant_from_dict(data) == variant

    def test_static_variant_json_has_no_stalls_key(self):
        topology = random_topology(11)
        variant = derive_variants(topology, 1, seed=11)[0]
        assert "stalls" not in variant_to_dict(variant)
        assert variant_from_dict(
            variant_to_dict(variant)
        ) == variant

    def test_case_variants_passes_cycle_horizon(self):
        topology = random_topology(11)
        case = _case(
            topology, perturb=1, perturb_dynamic=True, cycles=80
        )
        (variant,) = case_variants(case)
        assert variant.kind == "dynamic"
        for stall in variant.stalls:
            assert stall.start <= 60


# -- the oracle under dynamic perturbation ------------------------------------


class TestDynamicOracle:
    @pytest.mark.parametrize("seed", (0, 5, 9))
    def test_reference_mode_is_clean(self, seed):
        topology = random_topology(seed)
        outcome = run_case(
            _case(
                topology, styles=("fsm",), perturb=3,
                perturb_dynamic=True,
            )
        )
        assert outcome.ok, [str(d) for d in outcome.divergences]

    @pytest.mark.parametrize("seed", (0, 9))
    def test_all_styles_mode_is_clean(self, seed):
        topology = random_topology(seed)
        outcome = run_case(
            _case(
                topology,
                styles=("fsm", "sp", "combinational", "rtl-sp",
                        "rtl-fsm"),
                perturb=3,
                perturb_dynamic=True,
                perturb_styles="all",
            )
        )
        assert outcome.ok, [str(d) for d in outcome.divergences]

    def test_all_styles_mode_regular_traffic_with_shiftreg(self):
        from repro.sched.generate import PROFILE_PRESETS
        from repro.verify import REGULAR_STYLES

        topology = random_topology(2, PROFILE_PRESETS["regular"])
        outcome = run_case(
            _case(
                topology,
                styles=REGULAR_STYLES,
                perturb=2,
                perturb_dynamic=True,
                perturb_styles="all",
                cycles=300,
            )
        )
        assert outcome.ok, [str(d) for d in outcome.divergences]

    def test_perturb_style_set_modes(self):
        topology = random_topology(0)
        case = _case(topology, styles=("sp", "fsm", "sp"))
        assert perturb_style_set(case) == ("fsm",)
        case = _case(
            topology, styles=("sp", "fsm", "sp"),
            perturb_styles="all",
        )
        assert perturb_style_set(case) == ("sp", "fsm")
        case = _case(topology, perturb_styles="everything")
        with pytest.raises(ValueError, match="perturb-styles"):
            perturb_style_set(case)

    def test_all_mode_labels_carry_variant_and_style(self):
        """An injected token corruption in one variant must surface
        with a `label/style` slot for every style it diverges under."""
        for seed in range(60):
            topology = random_topology(seed)
            if not (topology.sources and topology.sinks):
                continue
            variant = derive_variants(topology, 1, seed=seed)[0]
            sources = list(variant.topology.sources)
            sources[0] = replace(sources[0], base=sources[0].base + 1)
            bad = TopologyVariant(
                kind=variant.kind,
                index=variant.index,
                topology=replace(
                    variant.topology, sources=tuple(sources)
                ),
            )
            outcome = run_case(
                _case(
                    topology,
                    styles=("fsm", "sp"),
                    variants=(bad,),
                    perturb_styles="all",
                )
            )
            streams = [
                d
                for d in outcome.divergences
                if d.check == "perturb-streams"
            ]
            if streams:
                assert {d.style for d in streams} <= {
                    f"{bad.label}/fsm", f"{bad.label}/sp"
                }
                return
        pytest.fail("no seed propagated the injected fault")

    def test_crashed_base_style_not_rerun_per_variant(self):
        """A style that already crashed on the base topology is
        excluded from the all-styles variant runs: its deterministic
        crash is reported exactly once, never duplicated per variant
        (and never blamed on the perturbation)."""
        topology = random_topology(7)
        outcome = run_case(
            _case(
                topology,
                styles=("fsm", "bogus"),
                perturb=3,
                perturb_dynamic=True,
                perturb_styles="all",
            )
        )
        exceptions = [
            d for d in outcome.divergences if d.check == "exception"
        ]
        assert len(exceptions) == 1
        assert exceptions[0].style == "bogus"
        assert not any(
            d.check.startswith("perturb")
            for d in outcome.divergences
        )

    def test_batch_results_independent_of_job_count(self):
        def fingerprint(report):
            return [
                (o.index, o.seed, o.checks, o.sink_tokens)
                for o in report.outcomes
            ]

        base = dict(
            cases=4, seed=3, cycles=150, perturb=2,
            perturb_dynamic=True,
        )
        serial = BatchRunner(BatchConfig(jobs=1, **base)).run()
        parallel = BatchRunner(BatchConfig(jobs=2, **base)).run()
        assert fingerprint(serial) == fingerprint(parallel)
        assert serial.ok

    def test_config_validates_perturb_styles(self):
        with pytest.raises(ValueError, match="perturb-styles"):
            BatchConfig(perturb_styles="everything")

    def test_make_cases_threads_the_flags(self):
        config = BatchConfig(
            cases=2, perturb=1, perturb_dynamic=True,
            perturb_styles="all",
        )
        for case in make_cases(config):
            assert case.perturb_dynamic
            assert case.perturb_styles == "all"


# -- power-up restore and rerun -----------------------------------------------


def _run_observed(simulation, sinks, shells=None):
    """Run 200 cycles (deadlock window 64); the sink streams and the
    result fields a verify case compares, plus the shells' enable
    traces when ``shells`` is given."""
    result = simulation.run(200, deadlock_window=64)
    return (
        {name: list(sink.received) for name, sink in sinks.items()},
        result.cycles,
        result.deadlocked,
        result.shell_periods,
        {
            name: list(shell.trace_enable)
            for name, shell in (shells or {}).items()
        },
        # Where a lockstep group's riders detached.
        {
            name: list(shell.detach.detached)
            for name, shell in (shells or {}).items()
            if isinstance(shell, LockstepShell)
        },
    )


#: (lead style, riding styles) builds the random-topology tests cover.
_GROUP = ("rtl-sp", ("sp", "rtl-fsm", "fsm"))
_RESET_BUILDS = (
    ("fsm", ()), ("sp", ()), ("combinational", ()), ("rtl-fsm", ()),
    ("rtl-fsm", ("fsm",)), ("rtl-sp", ("sp",)), _GROUP,
)
#: The shift-register builds of the regular-topology test.
_REGULAR_BUILDS = (
    ("shiftreg", ()), ("rtl-shiftreg", ()), ("rtl-shiftreg", ("shiftreg",)),
)
_ENGINES = ("compiled", "interp")


def _build(topology, style, riders, **build):
    """``build_system`` with ``riders`` riding along (a fresh
    :class:`Riders` record per build)."""
    return build_system(
        topology, style, trace=True,
        riders=Riders(riders) if riders else None, **build,
    )


def _restored_rerun(topology, style, riders, engine, **build):
    """Run a traced build, restore the checkpoint taken before the run
    and rerun; (first run, rerun, a fresh build's run)."""
    system, shells, sinks = _build(
        topology, style, riders, engine=engine, **build
    )
    simulation = Simulation(system)
    power_up = simulation.checkpoint()
    first = _run_observed(simulation, sinks, shells)
    simulation.restore(power_up)
    assert all(shell.trace_enable == [] for shell in shells.values())
    rerun = _run_observed(simulation, sinks, shells)
    fresh, fresh_shells, fresh_sinks = _build(
        topology, style, riders, engine=engine, **build
    )
    return first, rerun, _run_observed(
        Simulation(fresh), fresh_sinks, fresh_shells
    )


class TestResetRerun:
    """A checkpoint taken before the first run holds the power-up
    state: restoring it rewinds sources, refills the channel markings
    and starts traced shells on a new enable trace, so a rerun, under
    the same stall plan or another one, equals a run of a fresh
    build."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rerun_equals_first_run(self, seed):
        topology = random_topology(seed)
        for style in ("fsm", "sp", "rtl-fsm"):
            system, _shells, sinks = build_system(topology, style)
            simulation = Simulation(system)
            power_up = simulation.checkpoint()
            first = _run_observed(simulation, sinks)
            simulation.restore(power_up)
            assert _run_observed(simulation, sinks) == first, style

    @pytest.mark.parametrize("seed", range(20))
    def test_traced_rerun_equals_a_fresh_build(self, seed):
        topology = random_topology(seed)
        for build in _RESET_BUILDS:
            for engine in _ENGINES:
                first, rerun, fresh = _restored_rerun(
                    topology, *build, engine
                )
                assert rerun == first == fresh, (build, engine)

    @pytest.mark.parametrize(
        "seed, detached", [(0, [None, 0, 0]), (1, [None] * 3)]
    )
    def test_restore_reattaches_detached_riders(self, seed, detached):
        """Topology seed 0's FSM styles detach at cycle 0 (the SP's
        reset cycle), seed 1's never: a power-up restore puts them back
        on, so the rerun detaches them again, at the same cycle."""
        topology = random_topology(seed)
        system, shells, sinks = _build(topology, *_GROUP)
        simulation = Simulation(system)
        power_up = simulation.checkpoint()
        first = _run_observed(simulation, sinks, shells)
        assert all(
            shell.detach.detached == detached for shell in shells.values()
        )
        simulation.restore(power_up)
        assert all(
            shell.detach.detached == [None] * 3
            for shell in shells.values()
        )
        assert _run_observed(simulation, sinks, shells) == first

    @pytest.mark.parametrize("seed", range(20))
    def test_regular_topology_rerun_equals_a_fresh_build(self, seed):
        topology = random_topology(seed, PROFILE_PRESETS["regular"])
        activations = cases._plan_activations(topology, 200, 64, {})
        for build in _REGULAR_BUILDS:
            for engine in _ENGINES:
                first, rerun, fresh = _restored_rerun(
                    topology, *build, engine, activations=activations,
                )
                assert rerun == first == fresh, (build, engine)
                assert any(first[0].values()), (build, engine)

    @pytest.mark.parametrize("seed", range(20))
    def test_reset_system_under_another_plan(self, seed):
        topology = random_topology(seed)
        links = topology_link_names(topology)
        first, second = (
            derive_stall_plan(links, random.Random(seed * 2 + k), 200)
            for k in (0, 1)
        )
        for build in _RESET_BUILDS:
            for engine in _ENGINES:
                system, shells, sinks = _build(
                    topology, *build, engine=engine
                )
                simulation = Simulation(system, first)
                power_up = simulation.checkpoint()
                _run_observed(simulation, sinks, shells)
                simulation = Simulation(system, second)
                simulation.restore(power_up)
                rerun = _run_observed(simulation, sinks, shells)
                fresh, fresh_shells, fresh_sinks = _build(
                    topology, *build, engine=engine
                )
                assert rerun == _run_observed(
                    Simulation(fresh, second), fresh_sinks, fresh_shells
                ), (build, engine)


# -- fabric code reuse ---------------------------------------------------------


class TestFabricReuse:
    """A dynamic variant reruns its base's topology: its stall plan is
    data the run splits on, so it compiles no fabric of its own."""

    @pytest.mark.parametrize("seed", (0, 4))
    def test_dynamic_variants_compile_no_shape(self, seed, monkeypatch):
        from collections import OrderedDict

        topology = random_topology(seed, PROFILE_PRESETS["small"])
        case = _case(
            topology, styles=("fsm", "sp", "rtl-sp", "rtl-fsm"),
            perturb=2, perturb_dynamic=True, perturb_styles="all",
        )
        variants = case_variants(case)
        assert [v.kind for v in variants][0] == "dynamic"
        monkeypatch.setattr(compile_fabric, "_CODE_CACHE", OrderedDict())
        before = compile_fabric.cache_stats()
        assert run_case(case).ok
        middle = compile_fabric.cache_stats()
        # One shape for the base and its dynamic variant, at most one
        # more for the resegmented variant.
        assert 1 <= middle["misses"] - before["misses"] <= 2
        assert middle["stall_cycles"] > before["stall_cycles"]
        assert middle["reference"] == before["reference"]
        shrunk = tuple(
            replace(
                variant,
                stalls=(replace(variant.stalls[0], duration=1),),
            )
            if variant.kind == "dynamic"
            else variant
            for variant in variants
        )
        assert run_case(replace(case, variants=shrunk)).ok
        after = compile_fabric.cache_stats()
        assert after["misses"] == middle["misses"]
        assert after["hits"] > middle["hits"]


# -- shrinking stall plans -----------------------------------------------------


def _stall_fault_case(topology, cycles=200):
    """A pinned dynamic variant whose stall plan carries one poisoned
    event (unknown link — a deterministic injected fault) among
    healthy ones: the failure persists exactly while the poisoned
    event survives, so the shrinker must isolate it."""
    links = topology_link_names(topology)
    stalls = (
        LinkStall(links[0], start=30, duration=8),
        LinkStall("poisoned->link", start=50, duration=8),
        LinkStall(links[-1], start=70, duration=8),
    )
    variant = TopologyVariant(
        kind="dynamic",
        index=0,
        topology=topology,
        stalls=stalls,
    )
    healthy = derive_variants(topology, 1, seed=topology.seed + 1)
    return _case(
        topology,
        styles=("fsm",),
        variants=healthy + (variant,),
        cycles=cycles,
    )


class TestStallPlanShrinking:
    def test_shrinks_to_minimal_stall_plan(self):
        topology = random_topology(6)
        case = _stall_fault_case(topology)
        assert not run_case(case).ok
        minimal = shrink_case(case)
        assert not run_case(minimal).ok
        # The healthy variant and the healthy stall events are gone;
        # the poisoned event survives with a minimal window.
        assert minimal.variants is not None
        assert len(minimal.variants) == 1
        (variant,) = minimal.variants
        assert len(variant.stalls) == 1
        assert variant.stalls[0].link == "poisoned->link"
        assert variant.stalls[0].duration == 1

    def test_reproducer_json_with_stalls_replays(self, tmp_path, capsys):
        topology = random_topology(6)
        case = _stall_fault_case(topology)
        minimal = shrink_case(case)
        data = topology_to_dict(minimal.topology)
        data["cycles"] = minimal.cycles
        data["styles"] = list(minimal.styles)
        data["perturb"] = len(minimal.variants)
        data["variants"] = [
            variant_to_dict(v) for v in minimal.variants
        ]
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--repro", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "poisoned->link" in out

    def test_batch_reproducer_carries_dynamic_flags(self):
        config = BatchConfig(
            cases=1, seed=0, jobs=1, cycles=100,
            styles=("fsm", "bogus"), perturb=1,
            perturb_dynamic=True, perturb_styles="all",
        )
        report = BatchRunner(config).run()
        assert not report.ok
        _outcome, reproducer = report.shrunk[0]
        assert reproducer["perturb_dynamic"] is True
        assert reproducer["perturb_styles"] == "all"


# -- coverage and CLI ----------------------------------------------------------


class TestDynamicCoverageAndCli:
    def test_dynamic_batches_report_stall_events(self):
        config = BatchConfig(
            cases=4, perturb=2, perturb_dynamic=True
        )
        report = CoverageReport.from_cases(make_cases(config))
        data = report.to_dict()["histograms"]
        assert "dynamic" in data["perturb_kinds"]
        assert data["perturb_stall_events"]

    def test_non_dynamic_batches_omit_the_metric(self):
        config = BatchConfig(cases=4, perturb=2)
        report = CoverageReport.from_cases(make_cases(config))
        data = report.to_dict()["histograms"]
        assert "perturb_stall_events" not in data
        assert "dynamic" not in data["perturb_kinds"]

    def test_cli_repro_rejects_bad_perturb_styles_mode(
        self, tmp_path, capsys
    ):
        topology = random_topology(6)
        data = topology_to_dict(topology)
        data["perturb_styles"] = "al"  # typo'd hand-edited reproducer
        path = tmp_path / "bad_mode.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--repro", str(path)]) == 2
        assert "perturb-styles" in capsys.readouterr().err

    def test_cli_dynamic_all_styles_batch(self, capsys):
        assert main(
            ["verify", "--cases", "3", "--cycles", "150",
             "--perturb", "2", "--perturb-dynamic",
             "--perturb-styles", "all"]
        ) == 0
        out = capsys.readouterr().out
        assert "perturb 2+dynamic (all styles)" in out
        assert "0 divergent" in out
