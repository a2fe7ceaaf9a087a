"""The batch differential-verification engine end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sched.generate import (
    TopologyProfile,
    random_topology,
    topology_to_dict,
)
from repro.verify import (
    BEHAVIOURAL_STYLES,
    BatchConfig,
    BatchRunner,
    CaseOutcome,
    MixPearl,
    VerifyCase,
    build_system,
    make_cases,
    run_case,
    shrink_case,
    topology_marked_graph,
)
from repro.verify.cases import StyleRun
from repro.verify.oracles import check_cycle_exact, check_stream_prefixes
from repro.lis.simulator import Simulation

SMALL = TopologyProfile(
    min_processes=2, max_processes=3, max_points=3, max_run=4
)


def _case(seed: int, styles=BEHAVIOURAL_STYLES, cycles: int = 150):
    return VerifyCase(
        index=0,
        seed=seed,
        cycles=cycles,
        topology=random_topology(seed, SMALL),
        styles=tuple(styles),
    )


class TestMixPearl:
    def test_deterministic_across_instances(self):
        topology = random_topology(1, SMALL)
        node = topology.processes[0]
        a = MixPearl(node.name, node.schedule)
        b = MixPearl(node.name, node.schedule)
        point = node.schedule.points[0]
        popped = {name: 5 for name in point.inputs}
        assert a.on_sync(0, popped) == b.on_sync(0, popped)

    def test_outputs_depend_on_inputs(self):
        topology = random_topology(1, SMALL)
        node = topology.processes[0]
        point_index, point = next(
            (i, p)
            for i, p in enumerate(node.schedule.points)
            if p.inputs and p.outputs
        ) if any(
            p.inputs and p.outputs for p in node.schedule.points
        ) else (None, None)
        if point is None:
            pytest.skip("no combined point in this schedule")
        a = MixPearl(node.name, node.schedule)
        b = MixPearl(node.name, node.schedule)
        out_a = a.on_sync(point_index, {n: 1 for n in point.inputs})
        out_b = b.on_sync(point_index, {n: 2 for n in point.inputs})
        assert out_a != out_b

    def test_reset_restores_stream(self):
        topology = random_topology(2, SMALL)
        node = topology.processes[0]
        pearl = MixPearl(node.name, node.schedule)
        popped = {n: 3 for n in node.schedule.points[0].inputs}
        first = pearl.on_sync(0, popped)
        pearl.on_reset()
        assert pearl.on_sync(0, popped) == first


class TestBuildSystem:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "style", BEHAVIOURAL_STYLES + ("rtl-sp", "rtl-fsm")
    )
    def test_builds_and_simulates(self, seed, style):
        topology = random_topology(seed, SMALL)
        system, shells, sinks = build_system(topology, style)
        assert set(shells) == {n.name for n in topology.processes}
        assert set(sinks) == {s.name for s in topology.sinks}
        Simulation(system).run(50, deadlock_window=30)

    def test_unknown_style_rejected(self):
        topology = random_topology(0, SMALL)
        with pytest.raises(ValueError, match="unknown verify style"):
            build_system(topology, "warp-drive")

    def test_shiftreg_without_plan_rejected(self):
        topology = random_topology(0, SMALL)
        with pytest.raises(ValueError, match="static activation"):
            build_system(topology, "shiftreg")

    def test_marked_graph_mirrors_channels(self):
        topology = random_topology(5, SMALL)
        graph = topology_marked_graph(topology)
        assert set(graph.nodes) == {p.name for p in topology.processes}
        assert len(graph.edges) == len(topology.channels)


class TestRunCase:
    @pytest.mark.parametrize("seed", range(6))
    def test_behavioural_styles_agree(self, seed):
        outcome = run_case(_case(seed))
        assert outcome.ok, outcome.divergences
        assert outcome.checks > 0

    @pytest.mark.parametrize("seed", (0, 3))
    def test_rtl_styles_agree(self, seed):
        outcome = run_case(
            _case(seed, styles=("fsm", "sp", "rtl-sp", "rtl-fsm"))
        )
        assert outcome.ok, outcome.divergences

    def test_is_reproducible(self):
        first = run_case(_case(9))
        second = run_case(_case(9))
        assert first.checks == second.checks
        assert first.sink_tokens == second.sink_tokens
        assert first.cycles_executed == second.cycles_executed

    def test_broken_style_reports_exception_divergence(self):
        outcome = run_case(_case(1, styles=("fsm", "bogus")))
        assert not outcome.ok
        assert outcome.divergences[0].check == "exception"
        assert outcome.divergences[0].style == "bogus"


class TestOracleSensitivity:
    """The cross-checks must actually fire on divergent data."""

    @staticmethod
    def _style_run(streams, traces=None, executed=10):
        return StyleRun(
            streams=streams,
            traces=traces or {},
            periods={},
            executed=executed,
        )

    def test_stream_prefix_mismatch_detected(self):
        runs = {
            "fsm": self._style_run({"snk0": [1, 2, 3]}),
            "sp": self._style_run({"snk0": [1, 9]}),
        }
        outcome = CaseOutcome(index=0, seed=0)
        check_stream_prefixes(runs, "fsm", outcome)
        assert not outcome.ok
        assert outcome.divergences[0].check == "streams"
        assert "token 1" in outcome.divergences[0].detail

    def test_prefix_of_longer_stream_is_clean(self):
        runs = {
            "fsm": self._style_run({"snk0": [1, 2, 3]}),
            "sp": self._style_run({"snk0": [1, 2]}),
        }
        outcome = CaseOutcome(index=0, seed=0)
        check_stream_prefixes(runs, "fsm", outcome)
        assert outcome.ok

    def test_trace_mismatch_detected(self):
        runs = {
            "sp": self._style_run(
                {}, traces={"p0": [True, False, True]}
            ),
            "rtl-sp": self._style_run(
                {}, traces={"p0": [True, True, True]}
            ),
        }
        outcome = CaseOutcome(index=0, seed=0)
        check_cycle_exact(runs, outcome)
        assert not outcome.ok
        assert outcome.divergences[0].check == "trace"
        assert "cycle 1" in outcome.divergences[0].detail

    def test_cycle_count_mismatch_detected(self):
        runs = {
            "sp": self._style_run({}, executed=10),
            "rtl-sp": self._style_run({}, executed=9),
        }
        outcome = CaseOutcome(index=0, seed=0)
        check_cycle_exact(runs, outcome)
        assert not outcome.ok


class TestShrink:
    def test_always_failing_case_shrinks_to_minimum(self):
        # A bogus style fails for every topology, so the shrinker can
        # reduce structure all the way down.
        case = _case(4, styles=("fsm", "bogus"), cycles=400)
        assert len(case.topology.processes) >= 2
        minimal = shrink_case(case, max_attempts=60)
        assert not run_case(minimal).ok
        assert len(minimal.topology.processes) == 1
        assert minimal.cycles < case.cycles

    def test_passing_case_is_returned_unchanged(self):
        case = _case(5)
        assert run_case(case).ok
        assert shrink_case(case, max_attempts=5) == case


class TestBatchRunner:
    def test_single_job_batch_is_clean(self):
        config = BatchConfig(
            cases=5, seed=0, jobs=1, cycles=120, profile=SMALL,
            styles=BEHAVIOURAL_STYLES,
        )
        report = BatchRunner(config).run()
        assert report.ok
        assert len(report.outcomes) == 5
        assert "zero divergences" in report.summary()

    def test_results_independent_of_job_count(self):
        def fingerprint(report):
            return [
                (
                    o.index,
                    o.seed,
                    o.checks,
                    o.sink_tokens,
                    sorted(o.cycles_executed.items()),
                )
                for o in report.outcomes
            ]

        base = dict(
            cases=6, seed=13, cycles=100, profile=SMALL,
            styles=BEHAVIOURAL_STYLES,
        )
        serial = BatchRunner(BatchConfig(jobs=1, **base)).run()
        parallel = BatchRunner(BatchConfig(jobs=2, **base)).run()
        assert fingerprint(serial) == fingerprint(parallel)

    def test_case_list_is_deterministic(self):
        config = BatchConfig(cases=4, seed=2, profile=SMALL)
        assert make_cases(config) == make_cases(config)

    def test_failing_batch_reports_and_shrinks(self):
        config = BatchConfig(
            cases=2, seed=0, jobs=1, cycles=100, profile=SMALL,
            styles=("fsm", "bogus"),
        )
        report = BatchRunner(config).run()
        assert not report.ok
        assert len(report.failures) == 2
        assert len(report.shrunk) == 2
        _outcome, reproducer = report.shrunk[0]
        assert len(reproducer["processes"]) == 1
        # Reproducers embed their run parameters for exact replay.
        assert reproducer["cycles"] <= config.cycles
        assert reproducer["styles"] == ["fsm", "bogus"]
        assert "deadlock_window" in reproducer

    def test_vacuous_batch_is_not_a_pass(self):
        config = BatchConfig(cases=1, profile=SMALL)
        outcome = CaseOutcome(index=0, seed=0, sink_tokens=0)
        from repro.verify.runner import BatchReport

        report = BatchReport(
            config=config, outcomes=[outcome], duration_s=0.1
        )
        assert report.vacuous
        assert not report.ok
        assert "VACUOUS" in report.summary()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(cases=0)
        with pytest.raises(ValueError):
            BatchConfig(jobs=0)
        with pytest.raises(ValueError):
            BatchConfig(engine="verilator")
        with pytest.raises(ValueError):
            BatchConfig(profile="galactic")

    def test_profile_presets_shape_the_cases(self, monkeypatch):
        from repro.sched.generate import PROFILE_PRESETS

        monkeypatch.delenv("REPRO_RTL_ENGINE", raising=False)
        assert set(PROFILE_PRESETS) == {
            "small", "soc", "stress", "regular"
        }
        small = make_cases(BatchConfig(cases=6, profile="small"))
        stress = make_cases(BatchConfig(cases=6, profile="stress"))
        assert max(
            len(c.topology.processes) for c in stress
        ) > max(len(c.topology.processes) for c in small)
        assert all(c.engine == "compiled" for c in small)

    def test_named_profile_matches_explicit_profile(self):
        from repro.sched.generate import PROFILE_PRESETS

        named = make_cases(BatchConfig(cases=4, profile="soc"))
        explicit = make_cases(
            BatchConfig(cases=4, profile=PROFILE_PRESETS["soc"])
        )
        assert [c.topology for c in named] == [
            c.topology for c in explicit
        ]


class TestVerifyCli:
    def test_clean_batch_exits_zero(self, capsys):
        assert main(
            ["verify", "--cases", "3", "--seed", "0",
             "--cycles", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 divergent" in out

    def test_repro_replay(self, tmp_path, capsys):
        topology = random_topology(6, SMALL)
        data = topology_to_dict(topology)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(data))
        assert main(
            ["verify", "--repro", str(path), "--cycles", "120"]
        ) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_shrunk_reproducer_replays_as_failure(self, tmp_path, capsys):
        config = BatchConfig(
            cases=1, seed=0, jobs=1, cycles=100, profile=SMALL,
            styles=("fsm", "bogus"),
        )
        report = BatchRunner(config).run()
        _outcome, reproducer = report.shrunk[0]
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(reproducer))
        assert main(["verify", "--repro", str(path)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_bad_arguments_exit_cleanly(self, tmp_path, capsys):
        assert main(["verify", "--cases", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--repro", str(bad)]) == 2
        assert "cannot load reproducer" in capsys.readouterr().err

    def test_retired_vectorized_engine_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--cases", "1", "--engine", "vectorized"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'vectorized'" in err
        assert "'compiled', 'interp'" in err

    def test_vacuous_batch_exits_nonzero(self, capsys):
        assert main(["verify", "--cases", "2", "--cycles", "1"]) == 1
        assert "VACUOUS" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro " in capsys.readouterr().out
