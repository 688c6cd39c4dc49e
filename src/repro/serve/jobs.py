"""The daemon's job store: submitted work, its lifecycle, its results.

A :class:`Job` is one unit of routing work (a full route or an ECO delta)
travelling through ``queued -> running -> done | failed | cancelled``.  The
:class:`JobStore` is thread-safe (the daemon mutates it from its worker pool
and reads it from socket handler threads) and optionally *persistent*: given
a state directory it mirrors every job to one JSON file, so a restarted
daemon still answers ``status``/``result`` for jobs of previous lifetimes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["HISTORY_LIMIT", "JobState", "Job", "JobStore", "JobCancelled"]

#: Per-job bound on retained round-history samples (drop-oldest), matching
#: the router's own RoundSeries bound in spirit: generous for real flows,
#: finite for persistence.
HISTORY_LIMIT = 256


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
            history=list(record.get("history") or []),  # type: ignore[arg-type]
        )


class JobStore:
    """Thread-safe registry of jobs with optional JSON persistence.

    Parameters
    ----------
    state_dir:
        When given, every job is mirrored to ``<state_dir>/<job_id>.json``
        on each state change, and existing files are loaded on startup.
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
        self._jobs: Dict[str, Job] = {}
        self._counter = 0
        self.state_dir = state_dir
        #: Ids of interrupted jobs re-queued by ``adopt=True``, in id order.
        self.adopted_jobs: List[str] = []
        if state_dir:
            os.makedirs(state_dir, exist_ok=True)
            self._load_existing(state_dir, adopt)

    # ----------------------------------------------------------- lifecycle
    def submit(self, kind: str, params: Dict[str, object]) -> Job:
        """Register a new queued job and return it."""
        with self._lock:
            self._counter += 1
            job = Job(job_id=f"job-{self._counter:05d}", kind=kind, params=params)
            self._jobs[job.job_id] = job
            self._persist(job)
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
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.status in JobState.TERMINAL:
                return  # late sample after done/failed/cancelled: dropped
            job.history.append(dict(sample))
            if len(job.history) > HISTORY_LIMIT:
                del job.history[: len(job.history) - HISTORY_LIMIT]
            self._persist(job)

    def history(self, job_id: str) -> List[Dict[str, object]]:
        """Detached copies of a job's round samples, oldest first."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            return [dict(sample) for sample in job.history]

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
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            return job

    def snapshot(self, job_id: str, with_result: bool = True) -> Dict[str, object]:
        """A consistent ``as_dict`` view taken under the store lock, so a
        reader can never observe a terminal status with its payload still
        missing."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            return job.as_dict(with_result=with_result)

    def list(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.job_id)

    def snapshots(self, with_result: bool = False) -> List[Dict[str, object]]:
        """Consistent ``as_dict`` views of every job, in id order."""
        with self._lock:
            return [
                job.as_dict(with_result=with_result)
                for job in sorted(self._jobs.values(), key=lambda job: job.job_id)
            ]

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (for ping/health responses)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return counts

    # ------------------------------------------------------------ internals
    def _transition(self, job_id: str, status: str, **fields: object) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.status in JobState.TERMINAL:
                return  # a finished job never changes state again
            # Payload fields land before the status flips so that even an
            # unlocked reader never sees "done" without its result.
            for name, value in fields.items():
                setattr(job, name, value)
            if status in JobState.TERMINAL and job.started_monotonic is not None:
                job.duration_seconds = time.monotonic() - job.started_monotonic
            job.status = status
            self._persist(job)

    def _persist(self, job: Job) -> None:
        if not self.state_dir:
            return
        path = os.path.join(self.state_dir, f"{job.job_id}.json")
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(job.as_dict(with_history=True), handle)
        os.replace(tmp_path, path)

    @staticmethod
    def _adoptable(job: Job) -> bool:
        """Whether an interrupted job can simply be re-run (see ``adopt``)."""
        return job.kind == "route"

    def _load_existing(self, state_dir: str, adopt: bool = False) -> None:
        for entry in sorted(os.listdir(state_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(state_dir, entry)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    job = Job.from_dict(json.load(handle))
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                continue  # unreadable leftovers never block a restart
            if job.status not in JobState.TERMINAL:
                if adopt and self._adoptable(job):
                    job.status = JobState.QUEUED
                    job.error = None
                    job.result = None
                    job.started_at = None
                    job.finished_at = None
                    job.duration_seconds = None
                    self.adopted_jobs.append(job.job_id)
                else:
                    job.status = JobState.FAILED
                    job.error = "interrupted by daemon shutdown"
                    job.finished_at = job.finished_at or time.time()
            self._jobs[job.job_id] = job
            try:
                number = int(job.job_id.rsplit("-", 1)[-1])
            except ValueError:
                number = 0
            self._counter = max(self._counter, number)
        for job in self._jobs.values():
            self._persist(job)
