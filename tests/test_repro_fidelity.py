"""Reproducer-replay fidelity, end to end.

A failing batch shrinks its case, writes a reproducer via the real
``--out`` path, and the real ``--repro`` path must replay it under the
*recorded* seed and engine and reproduce the divergence.  Covered:
the {random, regular} x {plain, perturb-dynamic} matrix with engines
spread across it, engine-pinned failures that vanish under the wrong
engine, the replay parameter precedence rules (explicit ``--engine``
wins; absent keys resolve like ``BatchConfig``; missing style lists
follow the topology's traffic regime; reproducers recorded under the
retired ``vectorized`` engine replay under ``compiled``), and the hard
shrink-attempt budget shared between both shrinking passes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.rtl.simulator import InterpSimulator, resolve_engine
from repro.sched.generate import (
    PROFILE_PRESETS,
    TopologyVariant,
    derive_variants,
    random_topology,
    topology_to_dict,
)
from repro.verify import (
    BatchConfig,
    CaseOutcome,
    Divergence,
    VerifyCase,
    build_system,
    case_from_reproducer,
    make_cases,
    reproducer_dict,
    run_case,
    shrink_case,
    styles_for_traffic,
)


def _base_topology(traffic):
    profile = (
        PROFILE_PRESETS["regular"] if traffic == "regular" else None
    )
    for seed in range(100):
        topology = (
            random_topology(seed)
            if profile is None
            else random_topology(seed, profile)
        )
        if topology.sources and topology.sinks:
            yield topology


def _install_interp_corruption(monkeypatch):
    """Corrupt the interp engine only: ``ip_enable`` reads as low from
    cycle 10 on.  RTL-in-the-loop styles diverge from the behavioural
    reference *only* when the case runs under ``engine="interp"`` —
    an engine-pinned failure."""
    original = InterpSimulator.peek

    def corrupted(self, name):
        if name == "ip_enable" and self.cycle >= 10:
            return 0
        return original(self, name)

    monkeypatch.setattr(InterpSimulator, "peek", corrupted)


def _tampered_variant(topology):
    """A structurally legal variant whose first source stream is
    shifted by one token value — the injected fault the metamorphic
    stream check must catch (same idiom as test_verify_perturb)."""
    variant = derive_variants(topology, 1, seed=topology.seed)[0]
    sources = list(variant.topology.sources)
    sources[0] = replace(sources[0], base=sources[0].base + 1)
    return TopologyVariant(
        kind=variant.kind,
        index=variant.index,
        topology=replace(variant.topology, sources=tuple(sources)),
    )


@functools.lru_cache(maxsize=None)
def _perturbed_failing_case(traffic):
    """A seeded case whose pinned tampered variant provably reaches a
    sink, alongside a genuine dynamic (mid-run stall plan) variant."""
    for topology in _base_topology(traffic):
        bad = _tampered_variant(topology)
        dynamic = derive_variants(
            topology, 1, seed=topology.seed + 7, dynamic=True
        )
        case = VerifyCase(
            index=0,
            seed=topology.seed,
            cycles=150,
            topology=topology,
            styles=("fsm",),
            variants=(bad,) + dynamic,
            perturb=2,
            perturb_dynamic=True,
        )
        outcome = run_case(case)
        if any(
            d.check == "perturb-streams" for d in outcome.divergences
        ):
            return case
    raise AssertionError(
        f"no {traffic} seed propagates the injected fault"
    )


def _plain_failing_case(traffic, monkeypatch):
    """A case that diverges without perturbation, via the interp-only
    corruption: fails under engine='interp', passes under 'compiled'."""
    _install_interp_corruption(monkeypatch)
    for topology in _base_topology(traffic):
        case = VerifyCase(
            index=0,
            seed=topology.seed,
            cycles=120,
            topology=topology,
            styles=("fsm", "rtl-fsm"),
            engine="interp",
        )
        if not run_case(case).ok:
            return case
    raise AssertionError(
        f"no {traffic} seed diverges under the corrupted interp"
    )


def _spy_replay(monkeypatch, recorded):
    """Route the CLI --repro path's run_case through a recorder."""

    def spy(case):
        outcome = run_case(case)
        recorded["case"] = case
        recorded["outcome"] = outcome
        return outcome

    monkeypatch.setattr("repro.verify.run_case", spy)


class TestWriteReplayMatrix:
    """verify --out writes seed+engine; verify --repro honors them and
    reproduces the divergence kinds."""

    @pytest.mark.parametrize(
        "traffic,mode,engine",
        [
            ("random", "plain", "interp"),
            ("random", "perturb-dynamic", "interp"),
            ("regular", "plain", "interp"),
            ("regular", "perturb-dynamic", "compiled"),
        ],
    )
    def test_write_then_replay_reproduces(
        self, tmp_path, monkeypatch, capsys, traffic, mode, engine
    ):
        if mode == "plain":
            case = _plain_failing_case(traffic, monkeypatch)
        else:
            case = _perturbed_failing_case(traffic)
        assert not run_case(replace(case, engine=engine)).ok

        import repro.verify.runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "make_cases",
            lambda config: [replace(case, engine=config.engine)],
        )
        code = main([
            "verify", "--cases", "1", "--out", str(tmp_path),
            "--engine", engine, "--cycles", str(case.cycles),
        ])
        capsys.readouterr()
        assert code == 1
        path = tmp_path / "case0_minimal.json"
        data = json.loads(path.read_text())
        assert data["engine"] == engine
        assert data["case_seed"] == case.seed
        if mode == "perturb-dynamic":
            assert data["perturb_dynamic"] is True
            assert data["variants"]

        recorded = {}
        _spy_replay(monkeypatch, recorded)
        code = main(["verify", "--repro", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in out
        # The replay ran under the recorded parameters, not the CLI
        # defaults — the old behaviour was seed 0 + default engine.
        assert recorded["case"].engine == engine
        assert recorded["case"].seed == case.seed
        replay_kinds = {
            d.check for d in recorded["outcome"].divergences
        }
        assert replay_kinds
        if mode == "perturb-dynamic":
            # The injected fault is a corrupted variant stream; the
            # replay must rediscover exactly that kind of divergence.
            assert "perturb-streams" in replay_kinds

    def test_engine_pinned_failure_vanishes_off_engine(
        self, tmp_path, monkeypatch, capsys
    ):
        """The same reproducer passes when replayed with an explicit
        --engine compiled: the failure genuinely needed the recorded
        engine, and the explicit flag wins over the recorded one."""
        case = _plain_failing_case("random", monkeypatch)

        import repro.verify.runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "make_cases",
            lambda config: [replace(case, engine=config.engine)],
        )
        code = main([
            "verify", "--cases", "1", "--out", str(tmp_path),
            "--engine", "interp", "--cycles", str(case.cycles),
        ])
        capsys.readouterr()
        assert code == 1
        path = str(tmp_path / "case0_minimal.json")

        assert main(["verify", "--repro", path]) == 1
        capsys.readouterr()
        assert main(
            ["verify", "--repro", path, "--engine", "compiled"]
        ) == 0
        assert "no divergence" in capsys.readouterr().out


def test_legacy_vectorized_reproducer_replays_like_compiled(
    tmp_path, monkeypatch, capsys
):
    """A reproducer written by the retired ``vectorized`` engine (with
    its ``lanes`` key) replays through ``--repro`` to exactly the
    outcome the same file yields under ``compiled``."""
    case = replace(
        _perturbed_failing_case("random"), styles=("fsm", "rtl-fsm")
    )
    outcomes = {}
    for engine in ("compiled", "vectorized"):
        data = reproducer_dict(replace(case, engine="compiled"))
        data["engine"] = engine
        if engine == "vectorized":
            data["lanes"] = 64
        path = tmp_path / f"{engine}.json"
        path.write_text(json.dumps(data))
        recorded = {}
        _spy_replay(monkeypatch, recorded)
        assert main(["verify", "--repro", str(path)]) == 1
        assert "DIVERGED" in capsys.readouterr().out
        assert recorded["case"].engine == "compiled"
        outcomes[engine] = recorded["outcome"]
    assert outcomes["vectorized"] == outcomes["compiled"]


class TestReplayParameters:
    """Unit-level precedence rules of the --repro parameter handling."""

    def _replay(self, tmp_path, monkeypatch, data, extra=()):
        recorded = {}

        def fake(case):
            recorded["case"] = case
            return CaseOutcome(index=case.index, seed=case.seed)

        monkeypatch.setattr("repro.verify.run_case", fake)
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(data))
        assert main(
            ["verify", "--repro", str(path), *extra]
        ) == 0
        return recorded["case"]

    def test_recorded_engine_honored(self, tmp_path, monkeypatch):
        data = topology_to_dict(random_topology(1))
        data["engine"] = "interp"
        case = self._replay(tmp_path, monkeypatch, data)
        assert case.engine == "interp"

    def test_explicit_engine_flag_wins(self, tmp_path, monkeypatch):
        data = topology_to_dict(random_topology(1))
        data["engine"] = "interp"
        case = self._replay(
            tmp_path, monkeypatch, data,
            extra=("--engine", "compiled"),
        )
        assert case.engine == "compiled"

    def test_absent_engine_resolves_like_batch_config(
        self, tmp_path, monkeypatch
    ):
        data = topology_to_dict(random_topology(1))
        case = self._replay(tmp_path, monkeypatch, data)
        assert case.engine == resolve_engine(None)

    def test_recorded_seed_honored(self, tmp_path, monkeypatch):
        data = topology_to_dict(random_topology(1))
        data["seed"] = 31337
        case = self._replay(tmp_path, monkeypatch, data)
        assert case.seed == 31337

    def test_missing_styles_follow_traffic_regime(
        self, tmp_path, monkeypatch
    ):
        """A hand-written regular-traffic topology without a style
        list replays under the regular style set (shift-register
        styles included), not the random-traffic default."""
        topology = random_topology(2, PROFILE_PRESETS["regular"])
        assert topology.traffic == "regular"
        case = self._replay(
            tmp_path, monkeypatch, topology_to_dict(topology)
        )
        assert case.styles == styles_for_traffic("regular")
        assert "shiftreg" in case.styles

    def test_missing_styles_random_traffic(
        self, tmp_path, monkeypatch
    ):
        data = topology_to_dict(random_topology(1))
        case = self._replay(tmp_path, monkeypatch, data)
        assert case.styles == styles_for_traffic("random")


class TestCaseFromReproducer:
    """The reproducer reader sits beside its writer and inverts it."""

    # Flag values that differ from every recorded parameter below.
    DEFAULTS = dict(
        cycles=999, deadlock_window=5, engine=None, perturb=7,
        perturb_floorplan=True, perturb_styles="all",
        perturb_dynamic=False,
    )

    def test_inverts_reproducer_dict(self):
        topology = random_topology(3)
        case = VerifyCase(
            index=0, seed=3, cycles=120, topology=topology,
            styles=("fsm", "sp"), deadlock_window=32, engine="interp",
            perturb=1, perturb_dynamic=True,
            variants=tuple(
                derive_variants(topology, 1, seed=3, dynamic=True)
            ),
        )
        data = json.loads(json.dumps(reproducer_dict(case)))
        replayed = case_from_reproducer(data, self.DEFAULTS)
        # Schedules compare by identity: compare the topology as data.
        assert topology_to_dict(replayed.topology) == (
            topology_to_dict(topology)
        )
        assert replace(replayed, topology=topology) == case

    def test_replays_build_the_recorded_system(self):
        """Coverage-guided topologies keep the seed of the topology
        they were drawn or mutated from, which differs from their case
        seed in 26 of these 40 cases.  Each replay builds the same
        credit tokens (``build_system`` derives them from the topology
        seed) and returns the original outcome."""

        def credit_tokens(topology):
            _system, shells, _sinks = build_system(topology, "fsm")
            return {
                (name, port.name): list(port._preload)
                for name, shell in shells.items()
                for port in shell.in_ports.values()
            }

        cases = [
            case
            for case in make_cases(
                BatchConfig(cases=40, seed=0, gen="coverage")
            )
            if case.topology.seed != case.seed
        ]
        assert len(cases) == 26
        # The CLI's own defaults: these unperturbed reproducers carry
        # no perturbation keys.
        defaults = dict(
            cycles=300, deadlock_window=64, engine=None, perturb=0,
            perturb_floorplan=False, perturb_styles="reference",
            perturb_dynamic=False,
        )
        for case in cases:
            data = json.loads(json.dumps(reproducer_dict(case)))
            replayed = case_from_reproducer(data, defaults)
            assert replayed.seed == case.seed
            assert replayed.topology.seed == case.topology.seed
            assert credit_tokens(replayed.topology) == (
                credit_tokens(case.topology)
            )
            assert run_case(replace(replayed, index=case.index)) == (
                run_case(case)
            ), case.index

    def test_legacy_reproducer_seed_seeds_both(self):
        """A reproducer without ``case_seed`` replays as before: its
        ``seed`` is the case seed and the topology's."""
        data = topology_to_dict(random_topology(1))
        data["seed"] = 31337
        replayed = case_from_reproducer(data, self.DEFAULTS)
        assert replayed.seed == replayed.topology.seed == 31337

    def test_unknown_perturb_styles_mode(self):
        data = topology_to_dict(random_topology(1))
        data["perturb_styles"] = "some"
        with pytest.raises(ValueError, match="perturb-styles mode 'some'"):
            case_from_reproducer(data, self.DEFAULTS)


class TestShrinkBudget:
    """max_attempts is a hard cap on candidate *executions*, shared
    between the structural pass and the variant-pinning pass."""

    def _count_executions(self, monkeypatch):
        import repro.verify.shrink as shrink_mod

        calls = {"n": 0}

        def always_failing(case):
            calls["n"] += 1
            return CaseOutcome(
                index=case.index,
                seed=case.seed,
                divergences=[
                    Divergence("streams", "fsm", "snk", "boom")
                ],
            )

        monkeypatch.setattr(shrink_mod, "run_case", always_failing)
        return calls

    def _pathological_case(self):
        # Enormous cycle count: the cycle-halving reduction alone
        # yields ~24 candidates, and every one of them "fails", so an
        # unbounded greedy loop would grind far past any budget.
        return VerifyCase(
            index=0,
            seed=0,
            cycles=10**9,
            topology=random_topology(0),
            styles=("fsm",),
            perturb=2,
        )

    def test_budget_is_exact_hard_cap(self, monkeypatch):
        calls = self._count_executions(monkeypatch)
        shrink_case(self._pathological_case(), max_attempts=25)
        # Exactly 25: the old accounting let the pinning pass add up
        # to 8 more attempts on top of an exhausted budget.
        assert calls["n"] == 25

    def test_exhausted_budget_still_pins_variants(self, monkeypatch):
        calls = self._count_executions(monkeypatch)
        minimal = shrink_case(
            self._pathological_case(), max_attempts=0
        )
        assert calls["n"] == 0
        # Pinning itself is free and still happens, so the reproducer
        # carries an explicit variant set even with no budget left.
        assert minimal.variants is not None

    def test_unused_budget_not_spent_on_generation(self, monkeypatch):
        """Candidates merely *generated* cost nothing: a case with no
        failing reduction stops after one sweep of executions."""
        import repro.verify.shrink as shrink_mod

        calls = {"n": 0}

        def never_failing(case):
            calls["n"] += 1
            return CaseOutcome(index=case.index, seed=case.seed)

        monkeypatch.setattr(shrink_mod, "run_case", never_failing)
        case = VerifyCase(
            index=0, seed=0, cycles=100,
            topology=random_topology(0), styles=("fsm",),
        )
        shrink_case(case, max_attempts=1000)
        assert calls["n"] < 50
