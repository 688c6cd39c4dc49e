"""The daemon's job store: submitted work, its lifecycle, its results.

A :class:`Job` is one unit of routing work (a full route or an ECO delta)
travelling through ``queued -> running -> done | failed | cancelled``.  The
:class:`JobStore` is thread-safe (the daemon mutates it from its worker pool
and reads it from socket handler threads) and keeps every job as one row of
an SQLite table: in ``<state_dir>/jobs.sqlite3`` when given a state
directory, so a restarted daemon still answers ``status``/``result`` for
jobs of previous lifetimes, in memory otherwise.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import obs

__all__ = ["DB_NAME", "HISTORY_LIMIT", "JobState", "Job", "JobStore", "JobCancelled"]

#: Per-job bound on retained round-history samples (drop-oldest), matching
#: the router's own RoundSeries bound in spirit: generous for real flows,
#: finite for persistence.
HISTORY_LIMIT = 256

#: The job table's file name inside a state directory.
DB_NAME = "jobs.sqlite3"

#: SQLite page cache per store, in KiB.  The table is written far more
#: often than it is read back, so a small fixed cache costs nothing; the
#: 2 MiB default shows in the daemon's peak RSS.
_CACHE_KIB = 256


class JobCancelled(Exception):
    """Raised inside a worker when a job's cancellation flag is set."""


class JobState:
    """The job lifecycle states (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted routing job.

    ``started_at``/``finished_at`` are wall-clock stamps (human-readable,
    comparable across processes); ``duration_seconds`` is measured on the
    monotonic clock between ``mark_running`` and the terminal transition,
    so it stays correct across wall-clock adjustments.  ``progress`` is
    the job's latest live-progress payload (per-round events emitted
    through the router's ``on_round_end`` hook); ``history`` is the full
    per-round time-series of such samples (bounded by
    :data:`HISTORY_LIMIT`), persisted with the job and served by the
    ``history`` op.
    """

    job_id: str
    kind: str
    params: Dict[str, object]
    status: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    duration_seconds: Optional[float] = None
    progress: Optional[Dict[str, object]] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    history: List[Dict[str, object]] = field(default_factory=list)
    #: Monotonic mark of ``mark_running`` (process-local; never persisted).
    started_monotonic: Optional[float] = field(default=None, repr=False, compare=False)

    def as_dict(
        self, with_result: bool = True, with_history: bool = False
    ) -> Dict[str, object]:
        record: Dict[str, object] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_seconds": self.duration_seconds,
            "progress": self.progress,
            "error": self.error,
        }
        if with_result:
            record["result"] = self.result
        if with_history:
            record["history"] = [dict(sample) for sample in self.history]
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Job":
        return cls(
            job_id=str(record["job_id"]),
            kind=str(record["kind"]),
            params=dict(record.get("params") or {}),  # type: ignore[arg-type]
            status=str(record.get("status", JobState.QUEUED)),
            submitted_at=float(record.get("submitted_at") or 0.0),  # type: ignore[arg-type]
            started_at=record.get("started_at"),  # type: ignore[arg-type]
            finished_at=record.get("finished_at"),  # type: ignore[arg-type]
            duration_seconds=record.get("duration_seconds"),  # type: ignore[arg-type]
            progress=record.get("progress"),  # type: ignore[arg-type]
            result=record.get("result"),  # type: ignore[arg-type]
            error=record.get("error"),  # type: ignore[arg-type]
            history=[
                dict(sample) for sample in record.get("history") or []  # type: ignore[union-attr]
            ],
        )


class JobStore:
    """Thread-safe registry of jobs, one SQLite row per job.

    Every transition is one ``INSERT OR REPLACE`` of the job's row, made
    under the store lock before the new state can be read, so whatever a
    reader sees is already committed.  Only jobs still queued or running
    stay in memory as :class:`Job` objects; ``get``, ``snapshot`` and
    ``history`` of a finished job read its row and return a detached copy.

    Parameters
    ----------
    state_dir:
        When given, the table lives in ``<state_dir>/jobs.sqlite3`` (WAL
        journal, ``synchronous=NORMAL``: a committed transition survives a
        killed daemon, a power loss can lose the last commits but never
        tears a record) and is loaded on startup.  Without one it lives in
        memory.  Per-job ``.json`` files of older daemons are not read.
    adopt:
        What happens to jobs found in a non-terminal state (interrupted
        by a daemon crash or shutdown).  ``False`` (default) marks them
        failed.  ``True`` re-queues the *re-runnable* ones -- standalone
        ``route`` jobs, whose runs are pure functions of their params and
        pick up mid-flow from their auto-checkpoint when they kept one --
        and records their ids in :attr:`adopted_jobs` so the daemon can
        resubmit them.  ECO jobs (their session state died with the old
        daemon) are always marked failed.
    """

    def __init__(self, state_dir: Optional[str] = None, adopt: bool = False) -> None:
        self._lock = threading.Lock()
        #: The queued and running jobs; finished ones live only in the table.
        self._live: Dict[str, Job] = {}
        self._counts: Dict[str, int] = {}
        self._counter = 0
        self.state_dir = state_dir
        #: Ids of interrupted jobs re-queued by ``adopt=True``, in id order.
        self.adopted_jobs: List[str] = []
        path = ":memory:"
        if state_dir:
            os.makedirs(state_dir, exist_ok=True)
            path = os.path.join(state_dir, DB_NAME)
        self._db = _connect(path)
        try:
            self._load(adopt)
        except sqlite3.DatabaseError as exc:
            self._db.close()
            if isinstance(exc, sqlite3.OperationalError):
                raise  # locked, unwritable, ...: a valid file is never moved aside
            aside = f"{path}.corrupt-{time.strftime('%Y%m%d-%H%M%S')}"
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(path + suffix):
                    os.replace(path + suffix, aside + suffix)
            obs.get_logger("serve").warning(
                "job database %s is not a database (%s); moved it to %s and started empty",
                path,
                exc,
                aside,
            )
            self._live.clear()
            self._counts.clear()
            self._counter = 0
            self.adopted_jobs.clear()
            self._db = _connect(path)
            self._load(adopt)

    def close(self) -> None:
        """Release the database connection (idempotent)."""
        with self._lock:
            self._db.close()

    # ----------------------------------------------------------- lifecycle
    def submit(self, kind: str, params: Dict[str, object]) -> Job:
        """Register a new queued job and return it."""
        with self._lock:
            self._counter += 1
            job = Job(job_id=f"job-{self._counter:05d}", kind=kind, params=params)
            self._write(job)
            self._live[job.job_id] = job
            self._count(job.status, 1)
            return job

    def mark_running(self, job_id: str) -> None:
        self._transition(
            job_id,
            JobState.RUNNING,
            started_at=time.time(),
            started_monotonic=time.monotonic(),
        )

    def update_progress(self, job_id: str, progress: Dict[str, object]) -> None:
        """Record a live-progress payload on a running job.

        Late progress events racing a terminal transition are dropped by
        ``_transition``'s terminal-state guard, so a finished job's last
        observed progress stays frozen.
        """
        self._transition(job_id, JobState.RUNNING, progress=progress)

    def append_history(self, job_id: str, sample: Dict[str, object]) -> None:
        """Append one per-round sample to a running job's time-series.

        Shares ``_transition``'s terminal guard: samples racing a terminal
        transition are dropped, and the retained list is bounded at
        :data:`HISTORY_LIMIT` (drop-oldest).
        """
        with self._lock:
            job = self._live.get(job_id)
            if job is None:
                self._finished(job_id)  # raises for unknown ids
                return  # late sample after done/failed/cancelled: dropped
            job.history.append(dict(sample))
            if len(job.history) > HISTORY_LIMIT:
                del job.history[: len(job.history) - HISTORY_LIMIT]
            self._write(job)

    def history(self, job_id: str) -> List[Dict[str, object]]:
        """Detached copies of a job's round samples, oldest first."""
        with self._lock:
            return [dict(sample) for sample in self._lookup(job_id).history]

    def mark_done(self, job_id: str, result: Dict[str, object]) -> None:
        self._transition(
            job_id, JobState.DONE, finished_at=time.time(), result=result
        )

    def mark_failed(self, job_id: str, error: str) -> None:
        self._transition(job_id, JobState.FAILED, finished_at=time.time(), error=error)

    def mark_cancelled(self, job_id: str) -> None:
        self._transition(job_id, JobState.CANCELLED, finished_at=time.time())

    # ------------------------------------------------------------- queries
    def get(self, job_id: str) -> Job:
        """The live job while it is queued or running, a detached copy of
        its row once it has finished."""
        with self._lock:
            return self._lookup(job_id)

    def snapshot(self, job_id: str, with_result: bool = True) -> Dict[str, object]:
        """A consistent ``as_dict`` view taken under the store lock, so a
        reader can never observe a terminal status with its payload still
        missing."""
        with self._lock:
            return self._lookup(job_id).as_dict(with_result=with_result)

    def list(self) -> List[Job]:
        with self._lock:
            return list(self._all())

    def snapshots(self, with_result: bool = False) -> List[Dict[str, object]]:
        """Consistent ``as_dict`` views of every job, in id order."""
        with self._lock:
            return [job.as_dict(with_result=with_result) for job in self._all()]

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (for ping/health responses)."""
        with self._lock:
            return dict(self._counts)

    # ------------------------------------------------------------ internals
    def _transition(self, job_id: str, status: str, **fields: object) -> None:
        with self._lock:
            job = self._live.get(job_id)
            if job is None:
                self._finished(job_id)  # raises for unknown ids
                return  # a finished job never changes state again
            # Payload fields land before the status flips so that even an
            # unlocked reader never sees "done" without its result.
            for name, value in fields.items():
                setattr(job, name, value)
            if status in JobState.TERMINAL and job.started_monotonic is not None:
                job.duration_seconds = time.monotonic() - job.started_monotonic
            previous, job.status = job.status, status
            try:
                self._write(job)
            except BaseException:
                job.status = previous  # a transition that did not commit did not happen
                raise
            self._count(previous, -1)
            self._count(status, 1)
            if status in JobState.TERMINAL:
                del self._live[job_id]

    def _write(self, job: Job) -> None:
        """Commit ``job``'s row (the caller holds the lock)."""
        started = time.perf_counter()
        self._db.execute(
            "INSERT OR REPLACE INTO jobs (job_id, status, record) VALUES (?, ?, ?)",
            (job.job_id, job.status, json.dumps(job.as_dict(with_history=True))),
        )
        obs.observe("serve.store.write_ms", (time.perf_counter() - started) * 1e3)

    def _count(self, status: str, delta: int) -> None:
        count = self._counts.get(status, 0) + delta
        if count:
            self._counts[status] = count
        else:
            del self._counts[status]

    def _lookup(self, job_id: str) -> Job:
        job = self._live.get(job_id)
        return job if job is not None else self._finished(job_id)

    def _finished(self, job_id: str) -> Job:
        """A detached copy of a finished job's row."""
        row = self._db.execute(
            "SELECT record FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        job = _decode(job_id, row[0]) if row is not None else None
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _all(self) -> Iterator[Job]:
        """Every job in id order: live objects, detached finished ones."""
        for job_id, record in self._db.execute(
            "SELECT job_id, record FROM jobs ORDER BY job_id"
        ):
            job = self._live.get(job_id) or _decode(job_id, record)
            if job is not None:
                yield job

    @staticmethod
    def _adoptable(job: Job) -> bool:
        """Whether an interrupted job can simply be re-run (see ``adopt``)."""
        return job.kind == "route"

    def _load(self, adopt: bool) -> None:
        """Set the connection up and read every row once; rewrite only the
        interrupted jobs, which are re-queued (``adopt``) or failed."""
        for pragma in ("journal_mode=WAL", "synchronous=NORMAL", f"cache_size=-{_CACHE_KIB}"):
            self._db.execute(f"PRAGMA {pragma}")
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS jobs "
            "(job_id TEXT PRIMARY KEY, status TEXT NOT NULL, record TEXT NOT NULL)"
        )
        interrupted: List[Job] = []
        for job_id, record in self._db.execute(
            "SELECT job_id, record FROM jobs ORDER BY job_id"
        ):
            self._counter = max(self._counter, _job_number(str(job_id)))
            job = _decode(job_id, record)
            if job is None:
                # Unreadable leftovers never block a restart.
                obs.get_logger("serve").warning(
                    "skipping job row %r: its record is not a job", job_id
                )
                continue
            if job.status not in JobState.TERMINAL:
                if adopt and self._adoptable(job):
                    job.status = JobState.QUEUED
                    job.error = None
                    job.result = None
                    job.started_at = None
                    job.finished_at = None
                    job.duration_seconds = None
                    self.adopted_jobs.append(job.job_id)
                    self._live[job.job_id] = job
                else:
                    job.status = JobState.FAILED
                    job.error = "interrupted by daemon shutdown"
                    job.finished_at = job.finished_at or time.time()
                interrupted.append(job)
            self._count(job.status, 1)
        for job in interrupted:
            self._write(job)


def _connect(path: str) -> sqlite3.Connection:
    """The store's one connection, in autocommit mode: each statement is
    its own transaction.  Every use is serialised by the store lock."""
    return sqlite3.connect(path, check_same_thread=False, isolation_level=None)


def _decode(job_id: str, record: str) -> Optional[Job]:
    """The job a row holds, or ``None`` when its record is not one."""
    try:
        payload = json.loads(record)
        if not isinstance(payload, dict):
            return None
        job = Job.from_dict(payload)
    except (TypeError, ValueError, KeyError):
        return None
    return job if job.job_id == job_id else None


def _job_number(job_id: str) -> int:
    try:
        return int(job_id.rsplit("-", 1)[-1])
    except ValueError:
        return 0
