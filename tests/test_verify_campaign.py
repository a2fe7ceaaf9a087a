"""Campaign journal, resume, graceful-interrupt and atomic-write tests.

The checkpoint journal's contract: a campaign killed at any byte —
mid-record included — resumes to the exact same :class:`BatchReport`
an uninterrupted run produces; a journal from a *different* campaign
(any result-determining config field changed) is rejected; Ctrl-C
yields a flushed journal, a partial summary, and exit 130.
"""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
import repro.verify.runner as runner_mod
from repro.verify import (
    BatchConfig,
    BatchRunner,
    CampaignJournal,
    CaseOutcome,
    ChaosConfig,
    Divergence,
    config_fingerprint,
    write_atomic,
)
from repro.verify.campaign import (
    JOURNAL_VERSION,
    outcome_from_record,
    outcome_to_record,
)

BEHAVIOURAL = ("fsm", "sp")


def _config(**kwargs):
    defaults = dict(
        cases=6, seed=5, jobs=2, cycles=120, styles=BEHAVIOURAL
    )
    defaults.update(kwargs)
    return BatchConfig(**defaults)


def _fingerprint(outcome):
    return (
        outcome.index,
        outcome.seed,
        outcome.checks,
        outcome.sink_tokens,
        sorted(outcome.cycles_executed.items()),
    )


# -- record round trip ---------------------------------------------------------


def test_outcome_record_round_trips_divergences():
    outcome = CaseOutcome(
        index=7,
        seed=1234,
        checks=9,
        divergences=[
            Divergence("streams", "sp", "sink0", "prefix mismatch"),
        ],
        cycles_executed={"fsm": 120, "sp": 118},
        sink_tokens=42,
        topology_stats="3p/4c",
        status="completed",
        attempts=2,
    )
    record = outcome_to_record(outcome)
    json_line = json.dumps(record, sort_keys=True)
    assert outcome_from_record(json.loads(json_line)) == outcome


def test_fault_outcome_record_round_trips():
    outcome = CaseOutcome(
        index=3,
        seed=99,
        topology_stats="2p/2c",
        status="crash",
        attempts=2,
        fault="worker died (exit code 86)",
    )
    assert outcome_from_record(outcome_to_record(outcome)) == outcome
    assert outcome.faulted


# -- fingerprints --------------------------------------------------------------


def test_fingerprint_ignores_liveness_knobs():
    base = _config()
    assert config_fingerprint(base) == config_fingerprint(
        _config(jobs=4, timeout=10.0, retries=3, retry_backoff=0.5)
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cases": 7},
        {"seed": 6},
        {"cycles": 121},
        {"styles": ("fsm",)},
        {"deadlock_window": 65},
        {"chaos": ChaosConfig(crash=(1,))},
    ],
)
def test_fingerprint_tracks_result_determining_fields(kwargs):
    assert config_fingerprint(_config()) != config_fingerprint(
        _config(**kwargs)
    )


# -- journal lifecycle ---------------------------------------------------------


def test_checkpointed_run_writes_header_plus_outcomes(tmp_path):
    path = tmp_path / "journal.jsonl"
    config = _config()
    report = BatchRunner(config, checkpoint=path).run()
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + config.cases
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["version"] == JOURNAL_VERSION
    assert header["config"] == config_fingerprint(config)
    recorded = sorted(
        json.loads(line)["case"] for line in lines[1:]
    )
    assert recorded == [o.index for o in report.outcomes]


def test_resume_mid_campaign_reproduces_full_report(tmp_path):
    path = tmp_path / "journal.jsonl"
    config = _config()
    full = BatchRunner(config).run()
    BatchRunner(config, checkpoint=path).run()
    lines = path.read_text().splitlines()
    # Keep the header + three outcomes + a torn trailing record, as a
    # SIGKILL mid-append would leave it.
    path.write_text("\n".join(lines[:4]) + "\n" + lines[4][:25])
    resumed = BatchRunner(config, checkpoint=path, resume=True).run()
    assert [_fingerprint(o) for o in resumed.outcomes] == [
        _fingerprint(o) for o in full.outcomes
    ]
    # The journal was re-truncated and completed: full record set.
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + config.cases
    assert all(json.loads(line) for line in lines)


def test_resume_with_complete_journal_runs_nothing(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    config = _config()
    full = BatchRunner(config, checkpoint=path).run()

    def explode(case):
        raise AssertionError("resume re-ran a recorded case")

    monkeypatch.setattr(runner_mod, "run_case", explode)
    resumed = BatchRunner(config, checkpoint=path, resume=True).run()
    assert [_fingerprint(o) for o in resumed.outcomes] == [
        _fingerprint(o) for o in full.outcomes
    ]


def test_resume_rejects_other_campaigns_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    BatchRunner(_config(), checkpoint=path).run()
    other = _config(seed=6)
    with pytest.raises(ValueError, match="different campaign"):
        BatchRunner(other, checkpoint=path, resume=True).run()


def test_resume_accepts_different_liveness_knobs(tmp_path):
    path = tmp_path / "journal.jsonl"
    config = _config()
    full = BatchRunner(config, checkpoint=path).run()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")
    # Resume with more workers and a timeout: same campaign.
    resumed = BatchRunner(
        _config(jobs=1, timeout=60.0, retries=0),
        checkpoint=path,
        resume=True,
    ).run()
    assert [_fingerprint(o) for o in resumed.outcomes] == [
        _fingerprint(o) for o in full.outcomes
    ]


def test_resume_without_journal_file_is_friendly(tmp_path):
    with pytest.raises(ValueError, match="no journal"):
        CampaignJournal.resume(tmp_path / "absent.jsonl", _config())


def test_resume_rejects_wrong_version(tmp_path):
    path = tmp_path / "journal.jsonl"
    header = {
        "kind": "header",
        "version": JOURNAL_VERSION + 1,
        "config": config_fingerprint(_config()),
    }
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match="version"):
        CampaignJournal.resume(path, _config())


def test_journal_tolerates_garbage_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    config = _config()
    BatchRunner(config, checkpoint=path).run()
    with open(path, "a") as handle:
        handle.write("{not json at all\n")
    resumed = BatchRunner(config, checkpoint=path, resume=True).run()
    assert len(resumed.outcomes) == config.cases


def test_faulted_outcomes_checkpoint_and_resume(tmp_path):
    path = tmp_path / "journal.jsonl"
    config = _config(
        retries=0, retry_backoff=0.01, chaos=ChaosConfig(crash=(2,))
    )
    first = BatchRunner(config, checkpoint=path).run()
    assert first.outcomes[2].status == "crash"
    resumed = BatchRunner(config, checkpoint=path, resume=True).run()
    # The recorded crash outcome is replayed verbatim, not re-run.
    assert resumed.outcomes[2] == first.outcomes[2]


# -- graceful interrupt --------------------------------------------------------


def test_keyboard_interrupt_yields_partial_report(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    config = BatchConfig(
        cases=5, seed=5, jobs=1, cycles=120, styles=BEHAVIOURAL
    )
    real = runner_mod.run_case
    ran = []

    def interrupt_after_two(case):
        if len(ran) == 2:
            raise KeyboardInterrupt
        outcome = real(case)
        ran.append(case.index)
        return outcome

    monkeypatch.setattr(runner_mod, "run_case", interrupt_after_two)
    report = BatchRunner(config, checkpoint=path).run()
    assert report.interrupted
    assert len(report.outcomes) == 2
    assert "INTERRUPTED after 2/5 cases" in report.summary()
    # The journal holds exactly the finished cases, flushed.
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2
    # …and the campaign resumes to completion from it.
    monkeypatch.setattr(runner_mod, "run_case", real)
    resumed = BatchRunner(config, checkpoint=path, resume=True).run()
    assert not resumed.interrupted
    assert len(resumed.outcomes) == 5


def test_cli_interrupt_exits_130(tmp_path, monkeypatch, capsys):
    def interrupt(case):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "run_case", interrupt)
    code = cli.main(
        [
            "verify",
            "--cases",
            "3",
            "--cycles",
            "60",
            "--checkpoint",
            str(tmp_path / "journal.jsonl"),
        ]
    )
    assert code == 130
    out = capsys.readouterr().out
    assert "INTERRUPTED" in out


# -- CLI plumbing --------------------------------------------------------------


def test_cli_resume_requires_checkpoint(capsys):
    code = cli.main(["verify", "--cases", "2", "--resume"])
    assert code == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_cli_rejects_bad_chaos_spec(capsys):
    code = cli.main(["verify", "--cases", "2", "--chaos", "warp:1"])
    assert code == 2
    assert "chaos" in capsys.readouterr().err


def test_cli_rejects_bad_timeout(capsys):
    code = cli.main(["verify", "--cases", "2", "--timeout", "0"])
    assert code == 2
    assert "timeout" in capsys.readouterr().err


def test_cli_resume_against_changed_config_exits_2(tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    assert (
        cli.main(
            [
                "verify", "--cases", "2", "--cycles", "60",
                "--checkpoint", journal,
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = cli.main(
        [
            "verify", "--cases", "3", "--cycles", "60",
            "--checkpoint", journal, "--resume",
        ]
    )
    assert code == 2
    assert "different campaign" in capsys.readouterr().err


def test_cli_checkpoint_resume_round_trip(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    args = ["verify", "--cases", "4", "--cycles", "60", "--seed", "8"]
    assert cli.main(args + ["--checkpoint", str(journal)]) == 0
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:3]) + "\n")
    assert (
        cli.main(args + ["--checkpoint", str(journal), "--resume"])
        == 0
    )
    assert "4 cases" in capsys.readouterr().out
    assert len(journal.read_text().splitlines()) == 5


def test_cli_creates_missing_artifact_directories(tmp_path, capsys):
    """Journal, event stream, metrics and coverage JSON each land in
    a directory the run has to create."""
    paths = {
        flag: tmp_path / f"new{index}" / "deeper" / name
        for index, (flag, name) in enumerate(
            [
                ("--checkpoint", "j.jsonl"),
                ("--events", "e.jsonl"),
                ("--metrics-json", "m.json"),
                ("--coverage-json", "c.json"),
            ]
        )
    }
    args = ["verify", "--cases", "2", "--cycles", "60", "--seed", "8"]
    for flag, path in paths.items():
        args += [flag, str(path)]
    assert cli.main(args) == 0, capsys.readouterr().err
    journal = paths["--checkpoint"].read_text().splitlines()
    assert len(journal) == 3  # header + two outcomes
    for flag in ("--metrics-json", "--coverage-json"):
        json.loads(paths[flag].read_text())


# -- atomic writes -------------------------------------------------------------


def test_write_atomic_replaces_content(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(path, "first")
    write_atomic(path, "second")
    assert path.read_text() == "second"
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_cli_coverage_json_written_atomically(tmp_path, capsys):
    path = tmp_path / "cov.json"
    code = cli.main(
        [
            "verify", "--cases", "2", "--cycles", "150",
            "--coverage-json", str(path),
        ]
    )
    assert code == 0
    json.loads(path.read_text())  # complete, parseable artifact
    assert not list(tmp_path.glob(".*.tmp"))
