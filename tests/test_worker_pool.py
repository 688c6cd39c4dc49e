"""Unit tests of ``WorkerPool.map`` on its own API, with toy tasks.

The pool is the one task map of the repo (DESIGN.md, "One task map"): pure
tasks run inline or on pool workers and come back in task order, with the
workers' metric snapshots merged as if everything had run here.  The toy
worker below squares integers and books one counter, one gauge and one
histogram sample per task -- everything a registry snapshot can carry.
"""

import logging
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.cost_distance import CostDistanceSolver
from repro.engine.executor import WorkerPool
from repro.grid.graph import build_grid_graph
from repro.instances.generator import NetlistGeneratorConfig, generate_netlist
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.shard.executor import region_worker


def toy_worker(payload):
    """``build(payload) -> route(task)``: module level, like the real ones."""

    def route(task):
        obs.inc("toy.calls")
        obs.set_gauge("toy.last", task)
        obs.observe("toy.value", float(task))
        return payload["offset"] + task * task

    return route


def toy_payload():
    return {"offset": 1000}


def make_pool(workers=2, **kwargs):
    return WorkerPool("toy", "toy tasks degrade to the inline loop", workers, **kwargs)


def run_map(pool, tasks):
    """``pool.map`` under a private registry: (results, its snapshot)."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        results = pool.map(tasks, toy_payload, toy_worker, toy_worker(toy_payload()))
    return results, registry.snapshot()


class TestWorkerPoolMap:
    def test_results_and_metrics_match_the_inline_run(self):
        tasks = list(range(7, 0, -1))
        inline, inline_metrics = run_map(make_pool(workers=1), tasks)
        pool = make_pool(workers=3)
        try:
            pooled, pooled_metrics = run_map(pool, tasks)
            if not pool.used:
                pytest.skip("no process pool available in this environment")
            assert pool.active
        finally:
            pool.close()
        # Result order is task order, whichever worker finished first ...
        assert pooled == inline == [1000 + t * t for t in tasks]
        # ... and the worker snapshots were merged in task order: same
        # counters, the last task's gauge, the histogram samples in sequence.
        assert pooled_metrics == inline_metrics
        assert inline_metrics["counters"] == {"toy.calls": len(tasks)}
        assert inline_metrics["gauges"] == {"toy.last": tasks[-1]}
        assert inline_metrics["histograms"]["toy.value"]["samples"] == [
            float(t) for t in tasks
        ]

    @pytest.mark.parametrize("workers, tasks", [(1, [1, 2, 3]), (4, [5]), (4, [])])
    def test_one_worker_or_one_task_never_starts_a_pool(self, workers, tasks):
        pool = make_pool(workers=workers)

        def payload():
            raise AssertionError("an inline map must not build the payload")

        assert pool.map(tasks, payload, toy_worker, lambda t: -t) == [-t for t in tasks]
        assert not pool.used and not pool.active
        pool.close()

    def test_pool_is_capped_at_the_task_count(self):
        pool = make_pool(workers=4)
        try:
            if not pool.start(toy_payload, toy_worker, 2):
                pytest.skip("no process pool available in this environment")
            assert len(pool._pool._pool) == 2
        finally:
            pool.close()

    def test_default_size_counts_usable_cpus(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert make_pool(workers=None).workers == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
        assert make_pool(workers=None).workers == 8
        with pytest.raises(ValueError, match="positive"):
            make_pool(workers=0)
        with pytest.raises(ValueError, match="start method"):
            make_pool(start_method="frok")

    def test_unstartable_pool_degrades_to_inline_with_one_warning(self, monkeypatch, caplog):
        def broken_context(*args, **kwargs):
            raise OSError("forking is forbidden here")

        monkeypatch.setattr(multiprocessing, "get_context", broken_context)
        pool = make_pool(workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.obs.pool"):
            first, first_metrics = run_map(pool, [1, 2, 3])
            second, second_metrics = run_map(pool, [4, 5])
        assert first == [1001, 1004, 1009] and second == [1016, 1025]
        warnings = [rec for rec in caplog.records if rec.name == "repro.obs.pool"]
        assert len(warnings) == 1  # remembered: the second call does not retry
        assert "backend=toy" in warnings[0].getMessage()
        assert "toy tasks degrade to the inline loop" in warnings[0].getMessage()
        assert first_metrics["counters"]["pool.degraded.toy"] == 1
        assert "pool.degraded.toy" not in second_metrics["counters"]
        assert not pool.used and not pool.active

    def test_close_twice(self):
        pool = make_pool(workers=2)
        started = pool.start(toy_payload, toy_worker, 2)
        pool.close()
        pool.close()
        assert not pool.active
        assert pool.used == started  # ``used`` survives close


def random_design(seed, num_nets):
    graph = build_grid_graph(12, 12, 4)
    netlist = generate_netlist(
        graph, NetlistGeneratorConfig(num_nets=num_nets), seed=seed, name=f"rand{seed}"
    )
    return graph, netlist


class TestRegionTasksThroughTheMap:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        num_nets=st.integers(8, 16),
        shards=st.sampled_from([2, 4]),
        load=st.floats(0.0, 3.0),
    )
    def test_inline_and_pooled_maps_return_equal_outcomes(self, seed, num_nets, shards, load):
        """A region round is a pure function of its task: the same
        ``RegionTask``s through an inline and a pooled map (fresh runners on
        both sides) give equal ``RegionOutcome``s."""
        graph, netlist = random_design(seed, num_nets)
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=1, shards=shards, shard_workers=2),
        )
        coordinator = router.engine
        pool = make_pool(workers=2)
        try:
            usage = np.random.default_rng(seed).random(graph.num_edges) * load
            tasks = [
                region.make_task(coordinator, 0, router.trees, usage)
                for region in coordinator.regions
            ]
            payload = coordinator.region_worker_payload
            inline = make_pool(workers=1).map(
                tasks, payload, region_worker, region_worker(payload())
            )
            pooled = pool.map(tasks, payload, region_worker, region_worker(payload()))
        finally:
            pool.close()
            coordinator.close()
        assert [outcome.key for outcome in pooled] == [task.key for task in tasks]
        for got, want in zip(pooled, inline):
            assert got.key == want.key
            assert got.trees == want.trees
            assert np.array_equal(got.delta, want.delta)
            assert got.report[:4] == want.report[:4]  # [4] is walltime
            assert got.log_signatures == want.log_signatures
