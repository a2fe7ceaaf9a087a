"""Shared fixtures: schedules, pearls, and small helpers."""

from __future__ import annotations

import pytest

from repro.core.schedule import IOSchedule, SyncPoint
from repro.lis.pearl import FunctionPearl


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden files (tests/golden/) instead of comparing",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def simple_schedule() -> IOSchedule:
    """2-in / 1-out, two sync points, some free run."""
    return IOSchedule(
        ["a", "b"],
        ["y"],
        [
            SyncPoint({"a"}, frozenset(), run=1),
            SyncPoint({"b"}, {"y"}, run=2),
        ],
    )


@pytest.fixture
def uniform_1in_1out() -> IOSchedule:
    """Every-port-every-op schedule (Carloni-compatible)."""
    return IOSchedule(
        ["x"], ["y"], [SyncPoint({"x"}, {"y"}, run=0)]
    )


@pytest.fixture
def long_wait_schedule() -> IOSchedule:
    """Wait-dominated schedule (RS-like shape, small enough for sim)."""
    points = [SyncPoint({"x"}, frozenset()) for _ in range(30)]
    points.append(SyncPoint(frozenset(), {"y"}, run=1))
    return IOSchedule(["x"], ["y"], points)


def make_adder_pearl(schedule: IOSchedule) -> FunctionPearl:
    """Pearl for the simple_schedule: y = a + b."""
    state: dict[str, int] = {}

    def fn(index, popped):
        if index == 0:
            state["a"] = popped["a"]
            return {}
        return {"y": state["a"] + popped["b"]}

    return FunctionPearl("adder", schedule, fn)


def make_passthrough_pearl(schedule: IOSchedule) -> FunctionPearl:
    """Pearl for 1-in/1-out schedules: forwards its input."""
    out_name = schedule.outputs[0]
    in_name = schedule.inputs[0]
    buffer: list = []

    def fn(index, popped):
        if in_name in popped:
            buffer.append(popped[in_name])
        point = schedule.points[index]
        if out_name in point.outputs:
            return {out_name: buffer.pop(0)}
        return {}

    return FunctionPearl("pass", schedule, fn)


@pytest.fixture
def adder_pearl(simple_schedule):
    return make_adder_pearl(simple_schedule)


def hold_one_fire(
    monkeypatch, shell_class, victim: str, at: int, only=None
) -> None:
    """Make every ``shell_class`` shell of process ``victim`` hold back
    its first fire from cycle ``at`` on by one cycle: the decision is
    taken again, with the decision state it started from, on a
    readiness word of zeros (empty inputs, full outputs), as if the
    wrapper had seen no room that cycle.  The style's own run stays
    consistent (an RTL wrapper sees the zeros too, so its strobes match
    the missed fire), so the flip shows as a trace difference, not an
    exception.  Each shell marks the cycle it held at as ``held``
    (every run builds fresh shells, so every run sees the same bug).
    ``only``, when given, picks the shells affected."""
    decide = shell_class._sync_ready

    def held(self, cycle, ready):
        if (
            self.name != victim
            or cycle < at
            or hasattr(self, "held")
            or (only is not None and not only(self))
        ):
            return decide(self, cycle, ready)
        state = self._decision_state()
        if not decide(self, cycle, ready):
            return False
        self._load_decision(state)
        enabled = decide(self, cycle, 0)
        if not enabled:
            self.held = cycle
        return enabled

    monkeypatch.setattr(shell_class, "_sync_ready", held)
