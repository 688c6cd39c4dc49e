"""The job store's contract: one SQLite row per job, only unfinished jobs
in memory, restarts that read every row once and rewrite only what they
change, and state files that never block a daemon from starting."""

import gc
import glob
import json
import logging
import os
import sqlite3
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import closing

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import DB_NAME, HISTORY_LIMIT, JobState, JobStore

#: A finished route job's result as the daemon stores it, in shape and size.
RESULT = {
    "result": {
        "Chip": "c1",
        "Method": "CD",
        "WS": -6.7312,
        "TNS": -41.0675,
        "ACE4": 22.9431,
        "WL": 1288,
        "Vias": 402,
        "Overflow": 0.0,
        "Objective": 1257.5123,
        "Walltime": 0.0912,
    },
    "session": None,
    "backend": "serial",
}


def insert_row(state_dir, job_id, record):
    with closing(sqlite3.connect(os.path.join(state_dir, DB_NAME))) as db, db:
        db.execute(
            "INSERT INTO jobs (job_id, status, record) VALUES (?, ?, ?)",
            (job_id, "done", record),
        )


def finish(store, kind="route", params=None):
    job = store.submit(kind, params or {"chip": "c1"})
    store.mark_running(job.job_id)
    store.append_history(job.job_id, {"round": 1, "overflow": 0.0})
    store.mark_done(job.job_id, RESULT)
    return job.job_id


class TestUnreadableState:
    def test_rows_that_are_not_jobs_are_skipped_with_one_warning_each(
        self, tmp_path, caplog
    ):
        state = str(tmp_path)
        store = JobStore(state)
        good = finish(store)
        store.close()
        insert_row(state, "job-00002", "[1, 2]")
        not_params = {"job_id": "job-00003", "kind": "route", "params": [1]}
        insert_row(state, "job-00003", json.dumps(not_params))
        insert_row(state, "job-00004", "{not json")

        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            reopened = JobStore(state, adopt=True)
        warned = [r.getMessage() for r in caplog.records if r.name == "repro.serve"]
        assert len(warned) == 3
        for job_id in ("job-00002", "job-00003", "job-00004"):
            assert sum(job_id in message for message in warned) == 1
        assert [job.job_id for job in reopened.list()] == [good]
        assert reopened.counts() == {JobState.DONE: 1}
        assert reopened.get(good).result == RESULT
        # A fresh id never lands on a skipped row.
        assert reopened.submit("route", {}).job_id == "job-00005"
        reopened.close()

    def test_a_file_that_is_not_a_database_is_moved_aside(self, tmp_path, caplog):
        state = str(tmp_path)
        garbage = b'{"job_id": "job-00001", "status": "done"}\n' * 8
        with open(os.path.join(state, DB_NAME), "wb") as handle:
            handle.write(garbage)

        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            store = JobStore(state, adopt=True)
        assert store.list() == [] and store.counts() == {}
        (aside,) = glob.glob(os.path.join(state, DB_NAME + ".corrupt-*"))
        with open(aside, "rb") as handle:
            assert handle.read() == garbage
        assert any(aside in r.getMessage() for r in caplog.records if r.name == "repro.serve")
        job_id = finish(store)
        store.close()
        reopened = JobStore(state)
        assert reopened.get(job_id).status == JobState.DONE
        reopened.close()

    def test_daemon_starts_on_a_state_dir_with_a_bad_row(self, tmp_path):
        state = str(tmp_path)
        JobStore(state).close()
        insert_row(state, "job-00001", "[1, 2]")
        with ServeDaemon(port=0, job_workers=1, state_dir=state) as daemon:
            daemon.start()
            assert daemon.handle({"op": "ping"})["jobs"] == {}


class TestRestart:
    def test_reopen_rewrites_only_the_interrupted_row(self, tmp_path):
        state = str(tmp_path)
        store = JobStore(state)
        finished = [finish(store) for _ in range(2000)]
        interrupted = store.submit("route", {"chip": "c2"})
        store.mark_running(interrupted.job_id)
        store.close()

        reopened = JobStore(state, adopt=True)
        assert reopened._db.total_changes == 1
        assert reopened.adopted_jobs == [interrupted.job_id]
        assert reopened.counts() == {JobState.DONE: 2000, JobState.QUEUED: 1}
        assert reopened.get(finished[-1]).result == RESULT
        reopened.close()

    def test_finished_jobs_keep_no_python_memory(self, tmp_path):
        store = JobStore(str(tmp_path))
        finish(store)  # connection, statement cache and metric set up
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2000):
                finish(store)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            store.close()
        assert retained / 2000 < 512, f"{retained / 2000:.0f} B per finished job"


class TestConcurrency:
    def test_concurrent_lifecycles_lose_no_update(self):
        store = JobStore()
        threads_n, jobs_per_thread = 8, 40
        interval = sys.getswitchinterval()

        def worker():
            for _ in range(jobs_per_thread):
                job = store.submit("route", {})
                store.mark_running(job.job_id)
                store.update_progress(job.job_id, {"round": 1})
                store.counts()
                store.mark_done(job.job_id, {"ok": True})

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        jobs = store.list()
        assert len({job.job_id for job in jobs}) == threads_n * jobs_per_thread
        assert store.counts() == {JobState.DONE: threads_n * jobs_per_thread}
        store.close()


#: One step of a store's life: an operation and the index of the job it
#: touches (taken modulo the jobs submitted so far).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "running", "progress", "history", "done", "failed", "cancelled", "reopen"]
        ),
        st.integers(0, 9),
        st.sampled_from(["route", "eco"]),
    ),
    max_size=40,
)


class TestStoreContract:
    @settings(max_examples=30, deadline=None)
    @given(steps=STEPS, adopt=st.booleans())
    def test_counts_and_finished_jobs_survive_any_sequence(self, steps, adopt):
        with tempfile.TemporaryDirectory() as state:
            store = JobStore(state, adopt=adopt)
            ids = []
            for op, index, kind in steps:
                if op == "submit":
                    ids.append(store.submit(kind, {"chip": "c1"}).job_id)
                    continue
                if op == "reopen":
                    finished = {
                        job.job_id: job.as_dict(with_history=True)
                        for job in store.list()
                        if job.status in JobState.TERMINAL
                    }
                    store.close()
                    store = JobStore(state, adopt=adopt)
                    for job_id, record in finished.items():
                        assert store.get(job_id).as_dict(with_history=True) == record
                    continue
                if not ids:
                    continue
                job_id = ids[index % len(ids)]
                if op == "running":
                    store.mark_running(job_id)
                elif op == "progress":
                    store.update_progress(job_id, {"round": index})
                elif op == "history":
                    store.append_history(job_id, {"round": index, "at": time.time()})
                    assert len(store.history(job_id)) <= HISTORY_LIMIT
                elif op == "done":
                    store.mark_done(job_id, {"k": index})
                elif op == "failed":
                    store.mark_failed(job_id, f"error {index}")
                else:
                    store.mark_cancelled(job_id)
            jobs = store.list()
            assert [job.job_id for job in jobs] == sorted(ids)
            assert store.counts() == dict(Counter(job.status for job in jobs))
            assert store.snapshots() == [job.as_dict(with_result=False) for job in jobs]
            store.close()


def test_a_daemon_job_records_its_store_writes(tmp_path):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with ServeDaemon(port=0, job_workers=1, state_dir=str(tmp_path)) as daemon:
            daemon.start()
            params = {"chip": "c1", "net_scale": 0.1, "rounds": 1}
            job_id = daemon.handle({"op": "submit", "kind": "route", "params": params})["job_id"]
            deadline = time.monotonic() + 60
            while daemon.store.get(job_id).status not in JobState.TERMINAL:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert daemon.store.get(job_id).status == JobState.DONE
    writes = registry.snapshot()["histograms"]["serve.store.write_ms"]
    # submit, running, one round's progress and history, done.
    assert writes["count"] >= 4
