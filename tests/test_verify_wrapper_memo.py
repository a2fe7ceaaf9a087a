"""Per-schedule reuse of generated wrapper RTL (`repro.verify.styles`).

The RTL style builders memoize their generated ``(program, Module)``
per schedule (plus the activation for shift-register wrappers), so
processes, cases and perturbation variants that repeat a schedule share
one module and hit the compiled engine's per-module plan memo.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest

from repro.core.schedule import IOSchedule
from repro.rtl.compile_sim import cache_stats
from repro.sched.generate import PROFILE_PRESETS, random_topology
from repro.verify import MixPearl, VerifyCase, run_case
from repro.verify import styles
from repro.verify.regular import StaticActivation


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    monkeypatch.setattr(styles, "_WRAPPER_MEMO", OrderedDict())


def _twin(node, name: str):
    """``node`` under another name, with an equal but distinct
    schedule object."""
    schedule = node.schedule
    return dataclasses.replace(
        node,
        name=name,
        schedule=IOSchedule(
            schedule.inputs, schedule.outputs, schedule.points
        ),
    )


def _build(style: str, node, activation=None):
    return styles.get_style(style).build(
        MixPearl(node.name, node.schedule), node, 2, activation=activation
    )


@pytest.mark.parametrize("style", ["rtl-sp", "rtl-fsm"])
def test_equal_schedules_share_one_module(style):
    node = random_topology(21).processes[0]
    twin = _twin(node, "elsewhere")
    first = _build(style, node)
    before = cache_stats()
    second = _build(style, twin)
    assert second.module is first.module
    # The shared module hits the plan memo: no elaboration, no compile.
    after = cache_stats()
    assert (after["hits"], after["misses"]) == (
        before["hits"] + 1, before["misses"]
    )
    if style == "rtl-sp":
        assert second._script == first._script


def test_shiftreg_key_includes_the_activation():
    node = random_topology(3, PROFILE_PRESETS["regular"]).processes[0]
    period = node.schedule.period_cycles
    ring = StaticActivation(prefix=(False,), pattern=(True,) * period)
    other = StaticActivation(prefix=(False, False), pattern=ring.pattern)
    first = _build("rtl-shiftreg", node, ring)
    assert _build("rtl-shiftreg", _twin(node, "b"), ring).module is (
        first.module
    )
    assert _build("rtl-shiftreg", node, other).module is not first.module


def test_different_schedules_do_not_share():
    a, b = random_topology(5).processes[:2]
    assert a.schedule.points != b.schedule.points
    assert _build("rtl-fsm", a).module is not _build("rtl-fsm", b).module


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(styles, "WRAPPER_MEMO_MAX", 3)
    nodes = [
        node
        for seed in range(4)
        for node in random_topology(seed).processes
    ]
    for node in nodes:
        _build("rtl-fsm", node)
    assert len(styles._WRAPPER_MEMO) <= 3


@pytest.mark.parametrize(
    "case",
    [
        dict(seed=8, profile="small", perturb=0),
        dict(seed=4, profile="small", perturb=1),
        dict(seed=2, profile="regular", perturb=0),
    ],
)
def test_outcomes_never_read_the_module_name(case):
    """A memoized module serves every node with an equal schedule
    under whatever name it was generated with; renaming every memoized
    module must leave the outcome, divergence texts included,
    unchanged."""
    topology = random_topology(case["seed"], PROFILE_PRESETS[case["profile"]])
    verify = VerifyCase(
        index=0,
        seed=case["seed"],
        cycles=150,
        topology=topology,
        styles=styles.styles_for_traffic(
            "regular" if case["profile"] == "regular" else "random"
        ),
        perturb=case["perturb"],
        perturb_styles="all",
    )
    cold = run_case(verify)
    assert styles._WRAPPER_MEMO
    for entry in styles._WRAPPER_MEMO.values():
        module = entry[1] if isinstance(entry, tuple) else entry
        module.name = "renamed"
    warm = run_case(verify)
    assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
