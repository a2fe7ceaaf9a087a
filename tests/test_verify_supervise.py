"""Supervised worker pool + chaos fault-injection tests.

Two layers: generic :class:`~repro.verify.supervise.SupervisedPool`
unit tests over toy workers (crash, hang, flaky, raise), and
chaos-driven batch tests proving the campaign runner's fault model —
an injected crash/hang yields a structured ``crash``/``timeout``
outcome while every other case's results stay identical to a
fault-free run (the job-count-independence invariant extended to
faults).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.verify import (
    CHAOS_EXIT,
    BatchConfig,
    BatchRunner,
    ChaosConfig,
    MAX_BACKOFF,
    SupervisedPool,
    WorkerFault,
    backoff_delay,
    parse_chaos,
)
from repro.verify.runner import run_cases_supervised, make_cases

BEHAVIOURAL = ("fsm", "sp")


# -- toy workers (module-level: payloads cross a process boundary) -------------


def _echo(payload, attempt):
    return ("echo", payload, attempt)


def _boom(payload, attempt):
    os._exit(3)


def _sleepy(payload, attempt):
    time.sleep(30)


def _flaky(payload, attempt):
    if attempt == 0:
        os._exit(3)
    return ("recovered", payload, attempt)


def _raises(payload, attempt):
    raise RuntimeError(f"no thanks to {payload}")


# -- backoff -------------------------------------------------------------------


def test_backoff_delay_doubles_and_caps():
    assert backoff_delay(1, 0.1) == pytest.approx(0.1)
    assert backoff_delay(2, 0.1) == pytest.approx(0.2)
    assert backoff_delay(3, 0.1) == pytest.approx(0.4)
    assert backoff_delay(20, 0.1) == MAX_BACKOFF
    assert backoff_delay(5, 0.0) == 0.0


def test_pool_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SupervisedPool(_echo, jobs=0)
    with pytest.raises(ValueError):
        SupervisedPool(_echo, timeout=0)
    with pytest.raises(ValueError):
        SupervisedPool(_echo, retries=-1)
    with pytest.raises(ValueError):
        SupervisedPool(_echo, backoff=-0.5)


# -- generic pool behaviour ----------------------------------------------------


def test_pool_runs_all_payloads():
    pool = SupervisedPool(_echo, jobs=2)
    results = dict(pool.run(list(range(7))))
    assert results == {
        n: ("echo", n, 0) for n in range(7)
    }


def test_dead_worker_becomes_crash_fault_not_exception():
    pool = SupervisedPool(_boom, jobs=2, retries=1, backoff=0.01)
    results = pool.run(["a", "b"])
    assert len(results) == 2
    for payload, fault in results:
        assert isinstance(fault, WorkerFault)
        assert fault.kind == "crash"
        assert "exit code 3" in fault.detail
        assert fault.attempts == 2  # first try + one retry


def test_hung_worker_is_killed_at_deadline():
    pool = SupervisedPool(_sleepy, jobs=1, timeout=0.5, retries=0)
    started = time.monotonic()
    ((payload, fault),) = pool.run(["x"])
    elapsed = time.monotonic() - started
    assert isinstance(fault, WorkerFault)
    assert fault.kind == "timeout"
    assert fault.attempts == 1
    assert elapsed < 10  # nowhere near the 30s sleep


def test_flaky_worker_recovers_on_retry():
    pool = SupervisedPool(_flaky, jobs=1, retries=1, backoff=0.01)
    ((payload, result),) = pool.run(["x"])
    assert result == ("recovered", "x", 1)


def test_retry_budget_is_honored():
    # retries=2 -> exactly 3 attempts, then a finalized fault.
    pool = SupervisedPool(_boom, jobs=1, retries=2, backoff=0.01)
    ((_, fault),) = pool.run(["x"])
    assert fault.attempts == 3


def test_worker_exception_is_a_crash_fault_without_respawn():
    pool = SupervisedPool(_raises, jobs=1, retries=0)
    ((_, fault),) = pool.run(["x"])
    assert isinstance(fault, WorkerFault)
    assert fault.kind == "crash"
    assert "RuntimeError" in fault.detail
    assert "no thanks to x" in fault.detail


def test_on_result_fires_per_completion():
    seen = []
    pool = SupervisedPool(_echo, jobs=2)
    pool.run([1, 2, 3], on_result=lambda p, r: seen.append(p))
    assert sorted(seen) == [1, 2, 3]


# -- chaos configs -------------------------------------------------------------


def test_parse_chaos_explicit_indices():
    chaos = parse_chaos("crash:3,11;hang:7;flaky:5", 20)
    assert chaos.crash == (3, 11)
    assert chaos.hang == (7,)
    assert chaos.flaky == (5,)
    assert chaos.faulted == frozenset({3, 5, 7, 11})


def test_parse_chaos_seeded_rates_are_deterministic():
    spec = "seed:7;crash-rate:0.2;hang-rate:0.1;hang-s:12"
    one = parse_chaos(spec, 50)
    two = parse_chaos(spec, 50)
    assert one == two
    assert one.hang_s == 12
    assert one.faulted  # 0.3 aggregate rate over 50 cases


@pytest.mark.parametrize(
    "spec",
    [
        "crash",  # no value
        "crash:x",  # non-integer index
        "warp:3",  # unknown key
        "crash-rate:0.5",  # rates without a seed
        "seed:1;crash:3",  # mixed grammars
        "crash:99",  # out of range for 10 cases
        "seed:1;crash-rate:1.5",  # rate out of [0, 1]
        "hang:1;hang-s:0",  # non-positive hang
    ],
)
def test_parse_chaos_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_chaos(spec, 10)


def test_chaos_config_round_trips_through_dict():
    chaos = parse_chaos("crash:1;flaky:2;hang-s:9", 5)
    assert ChaosConfig.from_dict(chaos.to_dict()) == chaos


# -- chaos-driven batches ------------------------------------------------------


def _fingerprint(outcome):
    return (
        outcome.index,
        outcome.seed,
        outcome.checks,
        outcome.sink_tokens,
        sorted(outcome.cycles_executed.items()),
    )


def test_crashed_case_is_isolated_and_others_identical():
    base = BatchRunner(
        BatchConfig(
            cases=6, seed=3, jobs=2, cycles=120, styles=BEHAVIOURAL
        )
    ).run()
    chaotic = BatchRunner(
        BatchConfig(
            cases=6,
            seed=3,
            jobs=2,
            cycles=120,
            styles=BEHAVIOURAL,
            retries=0,
            chaos=ChaosConfig(crash=(2,)),
        )
    ).run()
    crashed = chaotic.outcomes[2]
    assert crashed.status == "crash"
    assert crashed.faulted
    assert CHAOS_EXIT == 86 and "exit code 86" in crashed.fault
    assert crashed.ok  # a fault is not a divergence
    assert chaotic.ok  # the batch still passes
    assert chaotic.crashes == [crashed]
    for outcome in chaotic.outcomes:
        if outcome.index == 2:
            continue
        assert _fingerprint(outcome) == _fingerprint(
            base.outcomes[outcome.index]
        )
    assert "1 crashed" in chaotic.summary()
    assert "crash after 1 attempt —" in chaotic.summary()


def test_hung_case_times_out_and_others_identical():
    base = BatchRunner(
        BatchConfig(
            cases=4, seed=3, jobs=2, cycles=120, styles=BEHAVIOURAL
        )
    ).run()
    chaotic = BatchRunner(
        BatchConfig(
            cases=4,
            seed=3,
            jobs=2,
            cycles=120,
            styles=BEHAVIOURAL,
            timeout=1.0,
            retries=0,
            chaos=ChaosConfig(hang=(1,), hang_s=30.0),
        )
    ).run()
    hung = chaotic.outcomes[1]
    assert hung.status == "timeout"
    assert "wall clock" in hung.fault
    assert chaotic.duration_s < 20  # the 30s sleep was killed
    for outcome in chaotic.outcomes:
        if outcome.index == 1:
            continue
        assert _fingerprint(outcome) == _fingerprint(
            base.outcomes[outcome.index]
        )
    assert "1 timed out" in chaotic.summary()


def test_flaky_case_recovers_with_identical_results():
    base = BatchRunner(
        BatchConfig(
            cases=4, seed=3, jobs=2, cycles=120, styles=BEHAVIOURAL
        )
    ).run()
    chaotic = BatchRunner(
        BatchConfig(
            cases=4,
            seed=3,
            jobs=2,
            cycles=120,
            styles=BEHAVIOURAL,
            retries=1,
            retry_backoff=0.01,
            chaos=ChaosConfig(flaky=(2,)),
        )
    ).run()
    recovered = chaotic.outcomes[2]
    assert recovered.status == "completed"
    assert recovered.attempts == 2  # crashed once, recovered on retry
    assert not chaotic.faulted
    for outcome in chaotic.outcomes:
        assert _fingerprint(outcome) == _fingerprint(
            base.outcomes[outcome.index]
        )


def test_retry_cap_finalizes_repeated_crash():
    chaotic = BatchRunner(
        BatchConfig(
            cases=3,
            seed=3,
            jobs=1,
            cycles=120,
            styles=BEHAVIOURAL,
            retries=2,
            retry_backoff=0.01,
            chaos=ChaosConfig(crash=(1,)),
        )
    ).run()
    crashed = chaotic.outcomes[1]
    assert crashed.status == "crash"
    assert crashed.attempts == 3  # first try + retries=2


def test_chaos_forces_supervision_at_jobs_1():
    # Without subprocess isolation an injected os._exit would kill the
    # test process itself; completing at all proves the supervised
    # path engaged.
    report = BatchRunner(
        BatchConfig(
            cases=3,
            seed=3,
            jobs=1,
            cycles=120,
            styles=BEHAVIOURAL,
            retries=0,
            chaos=ChaosConfig(crash=(0,)),
        )
    ).run()
    assert report.outcomes[0].status == "crash"
    assert [o.status for o in report.outcomes[1:]] == [
        "completed",
        "completed",
    ]


def test_run_cases_supervised_preserves_case_order():
    config = BatchConfig(
        cases=5, seed=2, jobs=2, cycles=120, styles=BEHAVIOURAL
    )
    outcomes = run_cases_supervised(
        make_cases(config), jobs=2, retries=0
    )
    assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]


# -- config validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"deadlock_window": 0},
        {"deadlock_window": -3},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"retries": -1},
        {"retry_backoff": -0.1},
    ],
)
def test_batch_config_rejects_bad_robustness_fields(kwargs):
    with pytest.raises(ValueError):
        BatchConfig(cases=1, **kwargs)


def test_batch_config_accepts_disabled_deadlock_window():
    config = BatchConfig(cases=1, deadlock_window=None)
    assert config.deadlock_window is None
