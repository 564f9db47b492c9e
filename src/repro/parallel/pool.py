"""Supervised multiprocessing run pool with fault tolerance.

Architecture: the supervisor owns one duplex pipe per worker process
and dispatches one task at a time to each idle worker, so it always
knows *which* task a worker is running and since when.  That is what
makes the three failure modes recoverable:

* a task that **raises** — the worker catches it and reports an error
  reply; the supervisor retries on another attempt (same or different
  worker) up to ``max_attempts``, then quarantines the task;
* a task that **hangs** — the supervisor tracks a per-task deadline;
  on timeout it terminates the worker, respawns a fresh one in its
  slot, and retries/quarantines the task;
* a worker that **dies hard** (``os._exit``, OOM-kill, segfault) — the
  pipe reads EOF / the process stops being alive; same recovery.

A quarantined task never takes the sweep down: the pool records the
failure in its :class:`PoolReport` and keeps draining the queue.
Callers map ``report.ok`` to an exit code (the CLI uses
:data:`PARTIAL_FAILURE_EXIT`).

At ``jobs=1`` without a timeout the same retry, quarantine,
checkpoint and status code runs the tasks in-process, one after
another, and a failed attempt is described by the same error text, so
a report reads the same at every job count.  An in-process task cannot
be preempted, so a ``jobs=1`` run with a timeout goes to one
supervised worker instead.

Determinism: task functions derive all randomness from their payload
(each task's params carry its seed), so results do not depend on which
worker ran a task or in what order.  The report keeps outcomes keyed
by task id; merging layers iterate in task-list order.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.context import BaseContext
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.export import write_textfile_atomic
from .tasks import STATUS_OK, STATUS_QUARANTINED, Task, TaskOutcome

__all__ = [
    "PARTIAL_FAILURE_EXIT",
    "PoolConfig",
    "PoolReport",
    "resolve_jobs",
    "run_tasks",
]

# Process exit code for "the sweep finished but some tasks were
# quarantined" — distinct from 0 (all ok) and 1/2 (hard/usage errors).
PARTIAL_FAILURE_EXIT = 3

JOBS_ENV = "REPRO_JOBS"

# Supervisor poll granularity; bounds how late a timeout fires.
_POLL_S = 0.05

# Minimum seconds between pool.status.json rewrites (the supervisor
# polls every _POLL_S; rewriting the status at that rate would be
# wasted I/O nobody can read that fast).
_STATUS_MIN_INTERVAL_S = 0.5


class _PoolStatusWriter:
    """Maintains the live ``pool.status.json`` of one pool run.

    Schema ``repro.pool-status/1``: worker liveness states and task
    progress counts.  ``repro watch DIR`` renders them above the tails
    of the per-task telemetry streams, which it reads itself.  Rewrites
    are atomic (:func:`~repro.obs.export.write_textfile_atomic`) and
    throttled; write failures are swallowed so a full disk can never
    take the sweep down.
    """

    def __init__(self, directory: str, jobs: int, total: int) -> None:
        self.directory = directory
        self.jobs = jobs
        self.total = total
        self.done = 0
        self.quarantined = 0
        self.resumed = 0
        self._last = 0.0
        os.makedirs(directory, exist_ok=True)

    def note(self, outcome: TaskOutcome) -> None:
        self.done += 1
        if outcome.status == STATUS_QUARANTINED:
            self.quarantined += 1

    def write(
        self,
        workers: List[Dict[str, Any]],
        done: bool = False,
        force: bool = False,
    ) -> None:
        now = time.monotonic()
        if not force and now - self._last < _STATUS_MIN_INTERVAL_S:
            return
        self._last = now
        doc = {
            "schema": "repro.pool-status/1",
            "jobs": self.jobs,
            "done": done,
            "tasks": {
                "total": self.total,
                "done": self.done + self.resumed,
                "quarantined": self.quarantined,
                "resumed": self.resumed,
            },
            "workers": workers,
        }
        path = os.path.join(self.directory, "pool.status.json")
        try:
            write_textfile_atomic(
                path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
        except OSError:  # pragma: no cover - disk full etc.
            pass


def resolve_jobs(jobs: Optional[int] = None, env: str = JOBS_ENV) -> int:
    """Effective worker count: explicit argument, else ``$REPRO_JOBS``,
    else 1 (serial)."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(env, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"{env} must be an integer (got {raw!r})") from None
    return 1


@dataclass
class PoolConfig:
    """Knobs of one pool run.

    ``jobs=1`` runs the tasks in-process with no multiprocessing
    overhead; ``jobs > 1`` fans them out over that many worker
    processes.  An in-process task cannot be preempted, so a ``jobs=1``
    run with a ``timeout`` uses one supervised worker process, which is
    killed when a task overruns it.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    max_attempts: int = 2
    # Directory for the live pool-level view: the supervisor rewrites
    # ``pool.status.json`` there (worker liveness + task counts) so
    # `repro watch DIR` can follow a running sweep.  None disables the
    # writer entirely.
    status_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1 (got {self.jobs})")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be positive (got {self.timeout})")


def _mp_context() -> BaseContext:
    # fork is the cheap path on POSIX; spawn works too (tasks are
    # pickled over the pipe either way) but pays interpreter startup.
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _failure(exc: BaseException) -> str:
    """The recorded error of one failed attempt, in-process or in a
    worker alike: type and message, without the call stack that
    differs between the two."""
    return f"{type(exc).__name__}: {exc}"


@dataclass
class PoolReport:
    """Everything a caller needs to know about one pool run."""

    outcomes: Dict[str, TaskOutcome] = field(default_factory=dict)
    executed: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)

    @property
    def quarantined(self) -> List[str]:
        return [t for t, o in self.outcomes.items() if o.status == STATUS_QUARANTINED]

    @property
    def ok(self) -> bool:
        return not self.quarantined

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else PARTIAL_FAILURE_EXIT

    def value(self, task_id: str) -> Any:
        out = self.outcomes[task_id]
        if not out.ok:
            raise KeyError(f"task {task_id!r} was quarantined: {out.error}")
        return out.value

    def as_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        # "tasks" keeps task-list order (deterministic); executed/resumed
        # are sorted because completion order is scheduling-dependent and
        # the artifact must be identical across worker counts.
        return {
            "tasks": [o.as_dict(include_timing) for o in self.outcomes.values()],
            "executed": sorted(self.executed),
            "resumed": sorted(self.resumed),
            "quarantined": self.quarantined,
            "ok": self.ok,
        }


def run_tasks(
    tasks: Sequence[Task],
    config: Optional[PoolConfig] = None,
    checkpoint: Optional[Any] = None,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> PoolReport:
    """Run ``tasks`` to completion; never raises on task failure.

    ``config.jobs == 1`` without a timeout runs them in-process, in
    task order; otherwise they run on supervised worker processes.

    ``checkpoint`` (a :class:`~repro.parallel.checkpoint.SweepCheckpoint`)
    short-circuits tasks it already holds and records each fresh "ok"
    outcome as it lands, so a killed sweep resumes with exactly the
    missing tasks.  ``on_outcome`` is called once per task (resumed or
    fresh), in completion order — for progress display only; consumers
    needing determinism must iterate ``report.outcomes`` in their own
    task order.
    """
    config = config or PoolConfig()
    report = PoolReport()
    status = (
        _PoolStatusWriter(config.status_dir, config.jobs, len(tasks))
        if config.status_dir
        else None
    )
    # Outcomes are pre-seeded in task order so the report dict iterates
    # deterministically no matter in which order workers finish.
    seen: set = set()
    pending: deque = deque()
    for task in tasks:
        if task.task_id in seen:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        seen.add(task.task_id)
        report.outcomes[task.task_id] = TaskOutcome(task.task_id, "pending")
        done = checkpoint.get(task.task_id) if checkpoint is not None else None
        if done is not None:
            outcome = TaskOutcome.from_dict(done, resumed=True)
            report.outcomes[task.task_id] = outcome
            report.resumed.append(task.task_id)
            if on_outcome is not None:
                on_outcome(outcome)
        else:
            pending.append((task, 0))
    if status is not None:
        status.resumed = len(report.resumed)

    def record(outcome: TaskOutcome) -> None:
        report.outcomes[outcome.task_id] = outcome
        report.executed.append(outcome.task_id)
        if status is not None:
            status.note(outcome)
        if checkpoint is not None and outcome.ok:
            checkpoint.record(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    if pending:
        if config.jobs == 1 and config.timeout is None:
            _run_inline(pending, config, record, status)
        else:
            _run_pool(pending, config, record, status)
    if status is not None:
        status.write(workers=[], done=True, force=True)
    return report


# ----------------------------------------------------------------------
# Inline execution (jobs == 1, no timeout; no subprocess machinery)
# ----------------------------------------------------------------------
def _run_inline(
    pending: deque,
    config: PoolConfig,
    record: Callable[[TaskOutcome], None],
    status: Optional[_PoolStatusWriter] = None,
) -> None:
    while pending:
        task, attempts = pending.popleft()
        started = time.perf_counter()
        attempts += 1
        if status is not None:
            status.write(
                workers=[
                    {"slot": 0, "state": "inline", "task": task.task_id,
                     "busy_s": 0.0}
                ]
            )
        try:
            value = task.fn(task.payload)
        except Exception as exc:
            if attempts >= config.max_attempts:
                record(
                    TaskOutcome(
                        task.task_id,
                        STATUS_QUARANTINED,
                        error=_failure(exc),
                        attempts=attempts,
                        wall_time_s=time.perf_counter() - started,
                    )
                )
            else:
                pending.appendleft((task, attempts))
            continue
        record(
            TaskOutcome(
                task.task_id,
                STATUS_OK,
                value=value,
                attempts=attempts,
                wall_time_s=time.perf_counter() - started,
            )
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn: Connection) -> None:  # pragma: no cover - runs in subprocess
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        task_id, fn, payload = msg
        try:
            value = fn(payload)
            reply = (STATUS_OK, task_id, value)
        except BaseException as exc:
            reply = ("error", task_id, _failure(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:  # e.g. unpicklable return value
            conn.send(("error", task_id, f"result not sendable: {exc}"))


class _Worker:
    __slots__ = ("proc", "conn", "task", "attempts", "started", "deadline")

    def __init__(self, ctx: BaseContext) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[Task] = None
        self.attempts = 0
        self.started = 0.0
        self.deadline: Optional[float] = None

    def assign(self, task: Task, attempts: int, timeout: Optional[float]) -> None:
        self.task = task
        self.attempts = attempts + 1
        self.started = time.perf_counter()
        self.deadline = None if timeout is None else self.started + timeout
        self.conn.send((task.task_id, task.fn, task.payload))

    def clear(self) -> None:
        self.task = None
        self.deadline = None

    def kill(self) -> None:
        try:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join(timeout=2.0)
            if self.proc.is_alive():  # pragma: no cover - stuck in kernel
                self.proc.kill()
                self.proc.join(timeout=2.0)
        finally:
            self.conn.close()

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.kill()
        else:
            self.conn.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _worker_states(workers: Sequence[Any], now: float) -> List[Dict[str, Any]]:
    return [
        {
            "slot": i,
            "state": "busy" if w.task is not None else "idle",
            "task": w.task.task_id if w.task is not None else None,
            "busy_s": round(now - w.started, 3) if w.task is not None else 0.0,
        }
        for i, w in enumerate(workers)
    ]


def _run_pool(
    pending: deque,
    config: PoolConfig,
    record: Callable[[TaskOutcome], None],
    status: Optional[_PoolStatusWriter] = None,
) -> None:
    ctx = _mp_context()
    n_workers = min(config.jobs, len(pending))
    workers: List[Optional[_Worker]] = [_Worker(ctx) for _ in range(n_workers)]

    def fail(worker: _Worker, error: str, respawn_at: Optional[int]) -> None:
        """Handle one failed attempt: retry or quarantine, and optionally
        replace the (dead) worker so its slot keeps draining the queue."""
        task, attempts = worker.task, worker.attempts
        worker.clear()
        if attempts < config.max_attempts:
            pending.append((task, attempts))
        else:
            record(
                TaskOutcome(
                    task.task_id,
                    STATUS_QUARANTINED,
                    error=error,
                    attempts=attempts,
                    wall_time_s=time.perf_counter() - worker.started,
                )
            )
        if respawn_at is not None:
            worker.kill()
            workers[respawn_at] = _Worker(ctx)

    try:
        while pending or any(w.task is not None for w in workers):
            for i, w in enumerate(workers):
                if w.task is None and pending:
                    task, attempts = pending.popleft()
                    try:
                        w.assign(task, attempts, config.timeout)
                    except (BrokenPipeError, OSError):
                        fail(w, "worker pipe broken at dispatch", respawn_at=i)
            if status is not None:
                status.write(_worker_states(workers, time.perf_counter()))
            busy = [w for w in workers if w.task is not None]
            if not busy:
                continue
            ready = _conn_wait([w.conn for w in busy], timeout=_POLL_S)
            now = time.perf_counter()
            for i, w in enumerate(workers):
                if w.task is None:
                    continue
                if w.conn in ready:
                    try:
                        kind, task_id, payload = w.conn.recv()
                    except (EOFError, OSError):
                        code = w.proc.exitcode
                        fail(
                            w,
                            f"worker died mid-task (exit code {code})",
                            respawn_at=i,
                        )
                        continue
                    wall = now - w.started
                    if kind == STATUS_OK:
                        record(
                            TaskOutcome(
                                task_id,
                                STATUS_OK,
                                value=payload,
                                attempts=w.attempts,
                                wall_time_s=wall,
                            )
                        )
                        w.clear()
                    else:
                        fail(w, str(payload), respawn_at=None)
                elif w.deadline is not None and now > w.deadline:
                    fail(
                        w,
                        f"timeout: task exceeded {config.timeout:g}s",
                        respawn_at=i,
                    )
                elif not w.proc.is_alive():
                    fail(
                        w,
                        f"worker died mid-task (exit code {w.proc.exitcode})",
                        respawn_at=i,
                    )
    finally:
        for w in workers:
            w.shutdown()
