"""Supervised worker pool: crash isolation, timeouts, bounded retry.

``concurrent.futures`` fans work out efficiently but fails
catastrophically: one worker dying mid-task raises
``BrokenProcessPool`` and discards every completed result, and a task
that never returns stalls the whole pool forever.  For long
verification campaigns the runner needs the same fault model we impose
on the systems under test, so this module supervises its workers
explicitly:

* every worker is one ``multiprocessing.Process`` with a private
  duplex :func:`multiprocessing.Pipe` — a worker killed mid-message
  can corrupt only its own channel, never a shared result queue;
* each task carries a wall-clock **deadline** (``timeout`` seconds);
  a worker that blows its deadline is SIGKILLed and replaced;
* a worker that dies (segfault, OOM kill, ``os._exit``) while holding
  a task is detected promptly via its process sentinel and replaced;
* failed tasks are retried up to ``retries`` times with capped
  exponential backoff (:func:`backoff_delay`), and a task still
  failing after its budget is *finalized* as a structured
  :class:`WorkerFault` instead of an exception — the caller decides
  what a crash means.

The pool is generic — ``worker(payload, attempt, *worker_args)`` is
any picklable module-level callable — and makes no ordering promise:
results arrive in completion order, each as a ``(payload, result)``
pair, with ``on_result`` fired as they land (the campaign journal
hangs off that hook).

When the parent has an active telemetry session
(:mod:`repro.verify.telemetry`), each worker runs its task under a
fresh buffered session and ships the collected records back inside a
:class:`_Relayed` envelope over the existing result pipe; the parent
unwraps and ingests them, and additionally emits ``supervise.*``
lifecycle events (spawn / crash / timeout / retry, tagged with the
worker pid).  None of this machinery runs when telemetry is off — the
envelope is never created — so results are byte-identical either way.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Sequence

from . import telemetry

__all__ = [
    "MAX_BACKOFF",
    "SupervisedPool",
    "WorkerFault",
    "backoff_delay",
]

#: Ceiling on one retry's backoff sleep, whatever the attempt count —
#: a campaign should degrade, not stall, under repeated faults.
MAX_BACKOFF = 5.0


def backoff_delay(
    attempt: int, backoff: float, cap: float = MAX_BACKOFF
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based): exponential
    in the attempt number, capped at ``cap``."""
    if backoff <= 0:
        return 0.0
    return min(backoff * (2 ** (attempt - 1)), cap)


@dataclass(frozen=True)
class WorkerFault:
    """A task that exhausted its attempt budget.

    ``kind`` is ``"crash"`` (the worker died, or the worker callable
    raised) or ``"timeout"`` (the task blew its wall-clock deadline);
    ``detail`` is human-readable context (exit code, deadline);
    ``attempts`` counts every execution attempt, the first included.
    """

    kind: str
    detail: str
    attempts: int


class _WorkerError:
    """An exception that escaped the worker callable (the worker
    process itself survived)."""

    __slots__ = ("detail",)

    def __init__(self, detail: str) -> None:
        self.detail = detail


class _Relayed:
    """A worker result plus the telemetry records its task emitted —
    the pipe envelope used only while the parent session is active."""

    __slots__ = ("result", "records")

    def __init__(self, result: Any, records: list) -> None:
        self.result = result
        self.records = records


def _worker_main(conn, worker, worker_args, relay_telemetry=False) -> None:
    """Worker loop: receive ``(attempt, payload)``, run, send result.
    A ``None`` message (or a closed pipe) is the shutdown signal.

    With ``relay_telemetry`` each task runs under a fresh buffered
    session (replacing whatever session a fork inherited, so parent
    records are never double-counted) whose drained records — plus the
    task's engine-counter movement — ride back in a :class:`_Relayed`
    envelope."""
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        attempt, payload = item
        session = None
        if relay_telemetry:
            session = telemetry.activate(
                telemetry.TelemetrySession(buffered=True)
            )
            engine_before = telemetry.engine_stats()
        try:
            result = worker(payload, attempt, *worker_args)
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            result = _WorkerError(f"{type(exc).__name__}: {exc}")
        if session is not None:
            telemetry.emit_engine_delta(engine_before)
            telemetry.deactivate()
            result = _Relayed(result, session.drain())
        try:
            conn.send(result)
        except (BrokenPipeError, EOFError, KeyboardInterrupt):
            return
        except Exception as exc:  # e.g. an unpicklable result
            conn.send(
                _WorkerError(
                    f"result not transferable: "
                    f"{type(exc).__name__}: {exc}"
                )
            )


class _Task:
    __slots__ = ("payload", "attempts")

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.attempts = 0


class _Worker:
    """One supervised worker process and its private channel."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, ctx, worker, worker_args, relay=False) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker, worker_args, relay),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: _Task | None = None
        self.deadline: float | None = None

    def discard(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass


class SupervisedPool:
    """Fan payloads over supervised workers; faults become results.

    * ``worker`` — picklable ``(payload, attempt, *worker_args)``
      callable executed in the worker processes;
    * ``jobs`` — worker process count;
    * ``timeout`` — per-task wall-clock seconds (``None`` disables
      deadlines);
    * ``retries`` / ``backoff`` — attempt budget beyond the first try,
      and the base of the capped exponential retry delay.
    """

    def __init__(
        self,
        worker: Callable[..., Any],
        *,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.1,
        worker_args: tuple = (),
    ) -> None:
        if jobs < 1:
            raise ValueError("need at least one worker")
        if timeout is not None and not timeout > 0:
            raise ValueError("per-task timeout must be positive")
        if retries < 0:
            raise ValueError("retry count must be >= 0")
        if backoff < 0:
            raise ValueError("retry backoff must be >= 0")
        self.worker = worker
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.worker_args = tuple(worker_args)
        self._ctx = mp.get_context()

    # -- internals -------------------------------------------------------------

    def _spawn(self) -> _Worker:
        # Relay worker telemetry only while the parent session exists:
        # the envelope (and its cost) never appears with telemetry off.
        relay = telemetry.active() is not None
        worker = _Worker(self._ctx, self.worker, self.worker_args, relay)
        telemetry.event("supervise.spawn", pid=worker.process.pid)
        return worker

    def _dispatch(self, worker: _Worker, task: _Task) -> None:
        telemetry.count("supervise.dispatch")
        worker.conn.send((task.attempts, task.payload))
        worker.task = task
        worker.deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )

    def run(
        self,
        payloads: Sequence[Any],
        on_result: Callable[[Any, Any], None] | None = None,
    ) -> list[tuple[Any, Any]]:
        """Execute every payload; return ``(payload, result)`` pairs in
        completion order, where a result is the worker's return value
        or a :class:`WorkerFault`.  ``on_result`` fires per completed
        task.  On :class:`KeyboardInterrupt` the workers are killed and
        the interrupt propagates — results delivered so far have
        already reached ``on_result``."""
        pending: deque[_Task] = deque(_Task(p) for p in payloads)
        retry_heap: list[tuple[float, int, _Task]] = []
        tiebreak = itertools.count()
        workers: list[_Worker] = []
        results: list[tuple[Any, Any]] = []
        outstanding = len(pending)

        def finalize(task: _Task, result: Any) -> None:
            nonlocal outstanding
            results.append((task.payload, result))
            outstanding -= 1
            if on_result is not None:
                on_result(task.payload, result)

        def fault(
            task: _Task, kind: str, detail: str, pid: int | None = None
        ) -> None:
            task.attempts += 1
            if task.attempts <= self.retries:
                telemetry.event(
                    "supervise.retry", pid=pid, attempts=task.attempts
                )
                ready = time.monotonic() + backoff_delay(
                    task.attempts, self.backoff
                )
                heapq.heappush(
                    retry_heap, (ready, next(tiebreak), task)
                )
            else:
                finalize(
                    task, WorkerFault(kind, detail, task.attempts)
                )

        def on_dead(worker: _Worker) -> None:
            task, worker.task = worker.task, None
            worker.discard()  # joins, so exitcode is settled
            code = worker.process.exitcode
            workers.remove(worker)
            if task is not None:
                telemetry.event(
                    "supervise.crash",
                    pid=worker.process.pid,
                    detail=f"exit code {code}",
                )
                fault(
                    task,
                    "crash",
                    f"worker died (exit code {code})",
                    pid=worker.process.pid,
                )

        def on_deadline(worker: _Worker) -> None:
            task, worker.task = worker.task, None
            worker.discard()
            workers.remove(worker)
            if task is not None:
                telemetry.event(
                    "supervise.timeout",
                    pid=worker.process.pid,
                    detail=f"exceeded {self.timeout:.1f}s",
                )
                fault(
                    task,
                    "timeout",
                    f"exceeded {self.timeout:.1f}s wall clock",
                    pid=worker.process.pid,
                )

        try:
            while outstanding > 0:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    pending.append(heapq.heappop(retry_heap)[2])
                for worker in workers:
                    if worker.task is None and pending:
                        self._dispatch(worker, pending.popleft())
                while pending and len(workers) < self.jobs:
                    worker = self._spawn()
                    workers.append(worker)
                    self._dispatch(worker, pending.popleft())
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    if retry_heap:
                        time.sleep(
                            max(0.0, retry_heap[0][0] - now)
                        )
                        continue
                    if pending:  # pragma: no cover - defensive
                        continue
                    break
                wake_at = [
                    w.deadline for w in busy if w.deadline is not None
                ]
                if retry_heap:
                    wake_at.append(retry_heap[0][0])
                wait_s = (
                    None
                    if not wake_at
                    else max(0.0, min(wake_at) - time.monotonic())
                )
                handles = [w.conn for w in busy] + [
                    w.process.sentinel for w in busy
                ]
                ready = _wait_ready(handles, wait_s)
                now = time.monotonic()
                for worker in busy:
                    if worker.task is None:
                        continue
                    if worker.conn in ready or worker.conn.poll():
                        try:
                            result = worker.conn.recv()
                        except (EOFError, OSError):
                            on_dead(worker)
                            continue
                        task, worker.task = worker.task, None
                        if isinstance(result, _Relayed):
                            session = telemetry.active()
                            if session is not None:
                                for record in result.records:
                                    session.add(record)
                            result = result.result
                        if isinstance(result, _WorkerError):
                            telemetry.event(
                                "supervise.crash",
                                pid=worker.process.pid,
                                detail=f"raised: {result.detail}",
                            )
                            fault(
                                task,
                                "crash",
                                f"worker raised: {result.detail}",
                                pid=worker.process.pid,
                            )
                        else:
                            finalize(task, result)
                        if not worker.process.is_alive():
                            worker.discard()
                            workers.remove(worker)
                    elif (
                        worker.process.sentinel in ready
                        or not worker.process.is_alive()
                    ):
                        on_dead(worker)
                    elif (
                        worker.deadline is not None
                        and now >= worker.deadline
                    ):
                        on_deadline(worker)
        finally:
            self._shutdown(workers)
        return results

    @staticmethod
    def _shutdown(workers: list[_Worker]) -> None:
        for worker in workers:
            try:
                if worker.task is None and worker.process.is_alive():
                    worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 0.5
        for worker in workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            worker.discard()
        workers.clear()
