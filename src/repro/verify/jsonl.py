"""The crash-safe JSONL contract of campaign journals and event streams.

A file is one ``header`` record on line one, then one record per line,
each a JSON object written with sorted keys.  :class:`JsonlWriter`
creates the parent directory, writes the header and appends records,
flushing every line; a *durable* writer also fsyncs every line, so a
record is on disk once :meth:`JsonlWriter.append` returns.  Closing
flushes and fsyncs.

A writer killed mid-record leaves at most a torn last line.
:func:`read_jsonl` tolerates it: it stops at the first unterminated,
unparseable or non-object line and reports the byte offset just past
the last valid one, where :meth:`JsonlWriter.reopen` resumes appending.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Mapping

__all__ = ["JsonlWriter", "read_jsonl"]


class JsonlWriter:
    """Append-only JSONL file (see the module docstring)."""

    def __init__(self, handle: IO[str], durable: bool) -> None:
        self._handle = handle
        self._durable = durable

    @classmethod
    def create(
        cls, path: Path | str, header: Mapping[str, Any], durable: bool
    ) -> "JsonlWriter":
        """Start a fresh file holding only ``header`` (truncating any
        existing file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        writer = cls(path.open("w", encoding="utf-8"), durable)
        writer.append(header)
        return writer

    @classmethod
    def reopen(
        cls, path: Path | str, offset: int, durable: bool
    ) -> "JsonlWriter":
        """Reopen ``path`` for appends after truncating it to
        ``offset``, the valid length :func:`read_jsonl` reported."""
        handle = open(path, "r+", encoding="utf-8")
        handle.truncate(offset)
        handle.seek(offset)
        return cls(handle, durable)

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def append(self, record: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        if self._durable:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()


def read_jsonl(
    path: Path | str, parse: Callable[[dict], Any] | None = None
) -> tuple[dict | None, list, int]:
    """Tolerant load: ``(header, records, valid bytes)``.

    ``header`` is line one when it is a ``kind == "header"`` object,
    else None with no records.  Records follow in file order, each
    passed through ``parse`` when given; reading stops at the first
    line that is unterminated, not JSON, not an object, or that
    ``parse`` rejects with ``KeyError``/``TypeError``/``ValueError``.
    ``valid bytes`` is the offset just past the last line kept.
    Raises :class:`OSError` when ``path`` cannot be read.
    """
    header: dict | None = None
    records: list = []
    valid_bytes = 0
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # in-flight record from a killed writer
            try:
                record = json.loads(raw)
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            if header is None:
                if record.get("kind") != "header":
                    break
                header = record
            else:
                try:
                    records.append(record if parse is None else parse(record))
                except (KeyError, TypeError, ValueError):
                    break
            valid_bytes += len(raw)
    return header, records, valid_bytes
