"""Resumable campaign journals: checkpoint a batch, resume after a kill.

A long campaign that dies at case 9,999 of 10,000 should not restart
from zero.  ``repro verify --checkpoint file`` streams every finished
:class:`~repro.verify.cases.CaseOutcome` into a JSONL journal as it
lands; ``--resume`` replays the journal's outcomes and runs only the
remainder.  This journal is the embryo of the ROADMAP's campaign
results store.

Journal layout (one JSON object per line):

* line 1 — a ``header`` record: journal version plus the batch's
  *result fingerprint* — every :class:`~repro.verify.runner.BatchConfig`
  field that determines outcomes (cases, seed, cycles, styles,
  profile, traffic, deadlock window, engine, perturbation, chaos).
  Liveness-only knobs (jobs, timeout, retries, backoff, shrink) are
  deliberately excluded: resuming with more workers or a different
  timeout is fine, resuming a different batch is an error.
* following lines — one ``outcome`` record per finished case, written
  with ``flush`` + ``fsync`` so a SIGKILL costs at most the in-flight
  case.

The file follows the crash-safe JSONL contract of
:mod:`repro.verify.jsonl`: keys are emitted sorted, so fault-free
journals of the same campaign are byte-comparable after a sort by case
index, and a truncated trailing line (the record being written when
the process died) is tolerated on load —
:meth:`CampaignJournal.resume` truncates the file back to the last
complete record before appending.

Also home to :func:`write_atomic`, the temp-file + ``os.replace``
helper that keeps reproducer/coverage JSON writes crash-safe.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Mapping

from .cases import CaseOutcome, Divergence
from .jsonl import JsonlWriter, read_jsonl

__all__ = [
    "JOURNAL_VERSION",
    "CampaignJournal",
    "config_fingerprint",
    "open_journal",
    "outcome_from_record",
    "outcome_to_record",
    "write_atomic",
]

JOURNAL_VERSION = 1


def write_atomic(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: temp file in the same
    directory (created if missing), fsync, then ``os.replace`` — a
    crash mid-write leaves either the old file or the new one, never a
    truncated hybrid."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def config_fingerprint(config) -> dict:
    """The result-determining identity of a batch config.

    Everything that feeds the job-count-independence invariant —
    results are a pure function of these fields — and nothing that
    only affects liveness (jobs, timeout, retries, backoff) or
    reporting (shrink).

    The generator strategy (``gen``) and — for coverage-guided
    batches — a digest of the corpus directory contents are part of
    the fingerprint: the corpus seeds the mutation pool, so resuming
    a ``--gen coverage`` journal under ``--gen random`` (or against a
    corpus that changed underneath it) would silently rerun different
    cases under the old journal's records.
    """
    profile = config.profile
    if is_dataclass(profile) and not isinstance(profile, type):
        profile = {"custom": asdict(profile)}
    chaos = config.chaos
    gen = getattr(config, "gen", "random")
    corpus = None
    if gen == "coverage" and getattr(config, "corpus", None) is not None:
        from .corpus import corpus_digest

        corpus = corpus_digest(config.corpus)
    return {
        "cases": config.cases,
        "seed": config.seed,
        "cycles": config.cycles,
        "styles": list(config.styles),
        "profile": profile,
        "traffic": config.traffic,
        "deadlock_window": config.deadlock_window,
        "engine": config.engine,
        "perturb": config.perturb,
        "perturb_floorplan": config.perturb_floorplan,
        "perturb_styles": config.perturb_styles,
        "perturb_dynamic": config.perturb_dynamic,
        "chaos": None if chaos is None else chaos.to_dict(),
        "gen": gen,
        "corpus": corpus,
    }


def outcome_to_record(outcome: CaseOutcome) -> dict:
    """One journal line's payload for a finished case."""
    return {
        "kind": "outcome",
        "case": outcome.index,
        "seed": outcome.seed,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "fault": outcome.fault,
        "checks": outcome.checks,
        "sink_tokens": outcome.sink_tokens,
        "topology_stats": outcome.topology_stats,
        "cycles_executed": outcome.cycles_executed,
        "divergences": [
            {
                "check": d.check,
                "style": d.style,
                "subject": d.subject,
                "detail": d.detail,
            }
            for d in outcome.divergences
        ],
    }


def _journaled_outcome(record: Mapping) -> CaseOutcome:
    """Parse one journal line after the header (``ValueError`` for a
    line that is not an outcome record)."""
    if record.get("kind") != "outcome":
        raise ValueError(f"not an outcome record: {record.get('kind')!r}")
    return outcome_from_record(record)


def outcome_from_record(record: Mapping) -> CaseOutcome:
    return CaseOutcome(
        index=record["case"],
        seed=record["seed"],
        checks=record.get("checks", 0),
        divergences=[
            Divergence(
                check=d["check"],
                style=d["style"],
                subject=d["subject"],
                detail=d["detail"],
            )
            for d in record.get("divergences", ())
        ],
        cycles_executed=dict(record.get("cycles_executed", {})),
        sink_tokens=record.get("sink_tokens", 0),
        topology_stats=record.get("topology_stats", ""),
        status=record.get("status", "completed"),
        attempts=record.get("attempts", 1),
        fault=record.get("fault"),
    )


class CampaignJournal:
    """Append-only JSONL checkpoint of one campaign."""

    def __init__(self, path: Path, writer: JsonlWriter) -> None:
        self.path = path
        self._writer = writer

    # -- creation / resumption -------------------------------------------------

    @classmethod
    def create(cls, path: Path | str, config) -> "CampaignJournal":
        """Start a fresh journal (truncating any existing file)."""
        path = Path(path)
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "config": config_fingerprint(config),
            "info": {
                "jobs": config.jobs,
                "timeout": config.timeout,
                "retries": config.retries,
            },
        }
        return cls(path, JsonlWriter.create(path, header, durable=True))

    @classmethod
    def resume(
        cls, path: Path | str, config
    ) -> tuple["CampaignJournal", dict[int, CaseOutcome]]:
        """Reopen ``path``, validate it belongs to ``config``'s
        campaign, and return the journal (positioned for appends)
        plus the outcomes already on record, keyed by case index.

        A truncated trailing line — the record in flight when the
        campaign was killed — is dropped and the file truncated back
        to the last complete record."""
        path = Path(path)
        if not path.exists():
            raise ValueError(
                f"cannot resume: no journal at {path} "
                "(run once with --checkpoint to create it)"
            )
        header, records, valid_bytes = read_jsonl(path, _journaled_outcome)
        if header is None:
            raise ValueError(
                f"cannot resume: {path} has no readable journal header"
            )
        version = header.get("version")
        if version != JOURNAL_VERSION:
            raise ValueError(
                f"cannot resume: {path} is journal version {version}, "
                f"this build writes version {JOURNAL_VERSION}"
            )
        recorded = header.get("config")
        expected = config_fingerprint(config)
        if recorded != expected:
            mismatched = sorted(
                key
                for key in expected
                if (recorded or {}).get(key) != expected[key]
            )
            raise ValueError(
                f"cannot resume: journal {path} belongs to a different "
                f"campaign (mismatched: {', '.join(mismatched)})"
            )
        writer = JsonlWriter.reopen(path, valid_bytes, durable=True)
        return cls(path, writer), {
            outcome.index: outcome for outcome in records
        }

    # -- appends ---------------------------------------------------------------

    def record(self, outcome: CaseOutcome) -> None:
        """Checkpoint one finished case (flushed and fsynced — a kill
        after this returns can never lose the outcome)."""
        self._writer.append(outcome_to_record(outcome))

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_journal(
    path: Path | str, config, resume: bool
) -> tuple[CampaignJournal, dict[int, CaseOutcome]]:
    """``--checkpoint``/``--resume`` entry point: resume an existing
    journal (validated against ``config``) or start a fresh one."""
    if resume:
        return CampaignJournal.resume(path, config)
    return CampaignJournal.create(path, config), {}
