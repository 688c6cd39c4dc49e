"""Chaos battery: injected faults must never change a routed bit.

The recovery contract under test (see DESIGN.md, "Recovery contract"):

* a killed region-pool worker costs walltime, never
  correctness -- its lost tasks re-execute (fresh worker or in-process)
  on their original name-keyed RNG streams, so the merged round is
  bit-identical to the unfaulted run;
* a dropped region outcome is recomputed in-process, same guarantee;
* a crash after a checkpointed round resumes bit-identically, because the
  checkpoint is durably renamed before the ``crash-run`` choke point;
* a daemon restart re-adopts interrupted route jobs and re-runs them to
  the same result, resuming from their auto-checkpoint when one exists.

The randomized sweep runs a bounded subset by default and is widened by
``REPRO_TEST_SWEEP=1`` (more seeds, more fault rounds) for nightly runs.
"""

import json
import os
import sqlite3
from contextlib import closing

import pytest

from repro import faults
from repro.core.cost_distance import CostDistanceSolver
from repro import obs
from repro.engine.executor import WorkerPool
from repro.grid.graph import build_grid_graph
from repro.instances.generator import NetlistGeneratorConfig, generate_netlist
from repro.router.metrics import PARITY_FIELDS
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.checkpoint import checkpoint_hook, try_resume_router
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import DB_NAME

#: Wide-sweep opt-in (nightly-style): more seeds, more fault rounds.
SWEEP = os.environ.get("REPRO_TEST_SWEEP") == "1"
SWEEP_SEEDS = (101, 202, 303) if SWEEP else (101,)
FAULT_ROUNDS = (1, 2) if SWEEP else (2,)


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def random_design(seed, num_nets=20, nx=12, ny=12, layers=4):
    graph = build_grid_graph(nx, ny, layers)
    netlist = generate_netlist(
        graph, NetlistGeneratorConfig(num_nets=num_nets), seed=seed, name=f"rand{seed}"
    )
    return graph, netlist


def run_router(graph, netlist, **config):
    router = GlobalRouter(
        graph, netlist, CostDistanceSolver(), GlobalRouterConfig(**config)
    )
    return router, router.run()


def tree_key(trees):
    return [
        None if t is None else (t.root, tuple(t.sinks), tuple(t.edges)) for t in trees
    ]


def assert_bit_identical(router_a, result_a, router_b, result_b):
    for field in PARITY_FIELDS:
        assert getattr(result_a, field) == getattr(result_b, field), field
    assert tree_key(router_a.trees) == tree_key(router_b.trees)


class TestFaultParityBattery:
    """seeds x K in {2, 4} x fault rounds: killed workers and dropped
    outcomes leave PARITY_FIELDS and the per-net trees bit-identical."""

    @pytest.mark.slow
    @pytest.mark.parametrize("fault_round", FAULT_ROUNDS)
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_killed_worker_changes_nothing(self, seed, shards, fault_round):
        graph, netlist = random_design(seed)
        clean_router, clean = run_router(graph, netlist, num_rounds=3, shards=shards)
        faults.install_plan(f"kill-region-worker:round={fault_round}")
        chaos_router, chaos = run_router(
            graph, netlist, num_rounds=3, shards=shards, shard_workers=2
        )
        assert_bit_identical(clean_router, clean, chaos_router, chaos)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_dropped_outcome_is_recomputed(self, seed):
        graph, netlist = random_design(seed)
        clean_router, clean = run_router(graph, netlist, num_rounds=2, shards=2)
        faults.install_plan("drop-outcome:round=1")
        chaos_router, chaos = run_router(
            graph, netlist, num_rounds=2, shards=2, shard_workers=2
        )
        assert_bit_identical(clean_router, clean, chaos_router, chaos)

    def test_slow_oracle_changes_nothing(self):
        graph, netlist = random_design(17, num_nets=12, nx=10, ny=10)
        clean_router, clean = run_router(graph, netlist, num_rounds=2, shards=2)
        faults.install_plan("slow-oracle:ms=1")  # honoured inside region workers too
        chaos_router, chaos = run_router(
            graph, netlist, num_rounds=2, shards=2, shard_workers=2
        )
        assert_bit_identical(clean_router, clean, chaos_router, chaos)


class _SimulatedCrash(BaseException):
    """Stops a run mid-flow the way a crash would, without killing pytest."""


class TestKillThenResume:
    """The ISSUE's acceptance scenario: a worker killed mid-round, an
    auto-checkpoint taken, the run interrupted, and the resumed run must
    land bit-identical to the unfaulted straight-through run."""

    @pytest.mark.slow
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_kill_checkpoint_resume_parity(self, tmp_path, seed, shards):
        graph, netlist = random_design(seed)
        rounds = 3
        interrupt_after = 1  # 0-based round whose checkpoint the resume uses
        path = str(tmp_path / f"chaos-{seed}-{shards}.ckpt")

        clean_router, clean = run_router(graph, netlist, num_rounds=rounds, shards=shards)
        fault = "kill-region-worker:round=2"
        chaos_config = dict(num_rounds=rounds, shards=shards, shard_workers=2)

        save = checkpoint_hook(path)

        def hook(router, round_index):
            save(router, round_index)
            if round_index == interrupt_after:
                raise _SimulatedCrash

        faults.install_plan(fault)
        interrupted = GlobalRouter(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(**chaos_config)
        )
        with pytest.raises(_SimulatedCrash):
            interrupted.run(on_round_end=hook)
        interrupted.engine.close()
        faults.clear_plan()

        resumed = GlobalRouter(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(**chaos_config)
        )
        assert try_resume_router(resumed, path)
        assert resumed.rounds_completed == interrupt_after + 1
        result = resumed.run()
        assert_bit_identical(clean_router, clean, resumed, result)


class TestRecoveryMachinery:
    """Direct tests of WorkerPool.map's recovery and executor teardown."""

    def test_recovery_retries_when_every_worker_dies(self, caplog, monkeypatch):
        import logging

        def kill_all(raw_pool):
            for process in list(raw_pool._pool):
                if process.exitcode is None:
                    os.kill(process.pid, 9)

        def counter(name):
            return obs.default_registry().snapshot()["counters"].get(name, 0)

        def run(tasks, fault=None):
            return pool.map(
                tasks,
                dict,
                _slow_square_worker,
                lambda task: task * task,
                fault=fault,
                stall_timeout=1.0,
            )

        pool = WorkerPool("process", "toy tasks degrade to the inline loop", workers=2)
        if not pool.start(dict, _slow_square_worker, 2):
            pytest.skip("no process pool available in this environment")
        try:
            # The fault of this choke point kills every worker, not just one.
            monkeypatch.setattr(faults, "kill_pool_worker", kill_all)
            faults.install_plan("kill-region-worker")
            retried = counter("recovery.tasks_retried.process")
            discarded = counter("recovery.pools_discarded")
            with caplog.at_level(logging.WARNING, logger="repro.engine"):
                results = run([1, 2, 3], fault=("kill-region-worker", None))
            assert results == [1, 4, 9]
            # The deaths were observed (the lost tasks went through the
            # inline ``route``) and the broken pool was discarded ...
            assert any("worker death" in rec.getMessage() for rec in caplog.records)
            assert counter("recovery.tasks_retried.process") > retried
            assert counter("recovery.pools_discarded") == discarded + 1
            assert pool.used and not pool.active
            # ... and the next call rebuilds a working one.
            assert run([4, 5]) == [16, 25]
            assert pool.active
        finally:
            pool.close()
        assert not pool.active

    def test_region_executor_double_close_after_fault(self):
        """Close (twice) after a faulted round: no hang, no error."""
        graph, netlist = random_design(23, num_nets=14)
        faults.install_plan("kill-region-worker:round=1")
        router = GlobalRouter(
            graph,
            netlist,
            CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=1, shards=2, shard_workers=2),
        )
        try:
            router.run()
        finally:
            executor = router.engine.region_executor
            router.engine.close()
            router.engine.close()
        assert executor.backend == "process"
        assert executor.closed


def _slow_square_worker(payload):
    """Worker factory of the toy pool (module level, like the real ones)."""

    def slow_square(task):
        # Slow enough that the sabotage kill (0.05 s after dispatch) lands
        # while the tasks are still in flight -- the recoverable scenario.
        import time

        time.sleep(0.5)
        return task * task

    return slow_square


class TestDaemonReadoption:
    """A restarted daemon re-queues interrupted route jobs and re-runs
    them to the same result, resuming from their auto-checkpoint."""

    FIELDS = ("WS", "TNS", "ACE4", "WL", "Vias", "Overflow", "Objective")

    def _route_params(self, **extra):
        return dict(chip="c1", net_scale=0.1, rounds=3, checkpoint_every=1, **extra)

    def _run_to_done(self, state_dir, params):
        with ServeDaemon(port=0, job_workers=1, state_dir=state_dir) as daemon:
            host, port = daemon.start()
            client = ServeClient(host, port, timeout=30.0)
            client.wait_until_up()
            job_id = client.submit_route(**params)
            job = client.wait(job_id, timeout=120)
        assert job["status"] == "done"
        return job_id, job["result"]["result"]

    def _mark_interrupted(self, state_dir, job_id):
        with closing(sqlite3.connect(os.path.join(state_dir, DB_NAME))) as db, db:
            (text,) = db.execute(
                "SELECT record FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            record = json.loads(text)
            record["status"] = "running"
            record["result"] = None
            db.execute(
                "UPDATE jobs SET status = ?, record = ? WHERE job_id = ?",
                ("running", json.dumps(record), job_id),
            )

    def test_readopted_job_reaches_same_result(self, tmp_path):
        # shards=2: sharded daemon jobs run the shard coordinator, so they
        # checkpoint and re-adopt like any other route job.
        for index, extra in enumerate(({}, {"shards": 2})):
            state = str(tmp_path / f"state{index}")
            job_id, want = self._run_to_done(state, self._route_params(**extra))
            self._mark_interrupted(state, job_id)

            with ServeDaemon(port=0, job_workers=1, state_dir=state) as daemon:
                assert daemon.store.adopted_jobs == [job_id]
                host, port = daemon.start()
                client = ServeClient(host, port, timeout=30.0)
                client.wait_until_up()
                job = client.wait(job_id, timeout=120)
            assert job["status"] == "done"
            assert job["result"].get("shards") == extra.get("shards")
            for field in self.FIELDS:
                assert job["result"]["result"][field] == want[field], field

    def test_corrupt_checkpoint_restarts_from_round_zero(self, tmp_path, caplog):
        import logging

        state = str(tmp_path / "state")
        job_id, want = self._run_to_done(state, self._route_params())
        self._mark_interrupted(state, job_id)
        with open(os.path.join(state, f"{job_id}.ckpt"), "w") as handle:
            handle.write('{"format": "repro-checkpoint", "version": 2, "fing')

        with caplog.at_level(logging.WARNING, logger="repro.serve.checkpoint"):
            with ServeDaemon(port=0, job_workers=1, state_dir=state) as daemon:
                host, port = daemon.start()
                client = ServeClient(host, port, timeout=30.0)
                client.wait_until_up()
                job = client.wait(job_id, timeout=120)
        assert job["status"] == "done"
        for field in self.FIELDS:
            assert job["result"]["result"][field] == want[field], field
        warnings = [
            rec
            for rec in caplog.records
            if "ignoring unusable checkpoint" in rec.getMessage()
        ]
        assert len(warnings) == 1

    def test_eco_jobs_are_not_adopted(self, tmp_path):
        """Interrupted ECO jobs fail on restart (their session died)."""
        from repro.serve.jobs import JobStore

        state = str(tmp_path / "state")
        store = JobStore(state_dir=state)
        job = store.submit("eco", {"session": "s1", "ops": []})
        store.mark_running(job.job_id)

        reloaded = JobStore(state_dir=state, adopt=True)
        assert reloaded.adopted_jobs == []
        assert reloaded.get(job.job_id).status == "failed"
