"""Determinism/parity battery for region-parallel shard execution.

The shard layer's region-parallel backend (``GlobalRouterConfig.shard_workers
> 1``) promises *bit-exact* equality with the serial shard path -- and, in
``shard_parity`` mode, with the unsharded router.  This battery pins that
contract:

* randomized sweeps over small random chips x K in {1, 2, 4} x workers in
  {1, 2}, asserting routed metrics and per-net trees are identical across
  serial-shard, parallel-shard, and (parity mode) unsharded runs,
* both ``fork`` and ``spawn`` start methods where the platform offers them,
* graceful degradation to the serial loop when no pool can be started,
* pool/engine teardown when a round raises mid-flight, and
* checkpoint/resume across *different* ``shard_workers`` values.

The randomized sweep runs a bounded subset by default (one seed, ``fork``
only; the ``slow`` marker labels it for ``-m "not slow"`` deselection) and is
widened by ``REPRO_TEST_SWEEP=1`` (more seeds, every start method) for
nightly-style runs; the wide combinations carry the ``slow`` marker.
"""

import multiprocessing
import os

import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.grid.graph import build_grid_graph
from repro.instances.chips import CHIP_SUITE, build_chip
from repro.instances.generator import NetlistGeneratorConfig, generate_netlist
from repro.router.metrics import PARITY_FIELDS
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.checkpoint import resume_router, save_checkpoint
from repro.shard.coordinator import ShardCoordinator
from repro.shard.executor import RegionExecutor

#: Wide-sweep opt-in (nightly-style): more seeds, every start method.
SWEEP = os.environ.get("REPRO_TEST_SWEEP") == "1"
SWEEP_SEEDS = (101, 202, 303) if SWEEP else (101,)
START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]
SWEEP_START_METHODS = START_METHODS if SWEEP else START_METHODS[:1]


def random_design(seed, num_nets=20, nx=12, ny=12, layers=4):
    """A small random chip: the sweep's workload class."""
    graph = build_grid_graph(nx, ny, layers)
    netlist = generate_netlist(
        graph,
        NetlistGeneratorConfig(num_nets=num_nets),
        seed=seed,
        name=f"rand{seed}",
    )
    return graph, netlist


def run_router(graph, netlist, **config):
    router = GlobalRouter(
        graph, netlist, CostDistanceSolver(), GlobalRouterConfig(**config)
    )
    return router, router.run()


def tree_key(trees):
    return [
        None if t is None else (t.root, tuple(t.sinks), tuple(t.edges))
        for t in trees
    ]


def assert_bit_identical(router_a, result_a, router_b, result_b):
    for field in PARITY_FIELDS:
        assert getattr(result_a, field) == getattr(result_b, field), field
    assert tree_key(router_a.trees) == tree_key(router_b.trees)


class TestDeterminismBattery:
    """Seeded randomized sweep: serial-shard == parallel-shard (== unsharded
    in parity mode), for every K x workers x start-method combination."""

    @pytest.mark.slow
    @pytest.mark.parametrize("start_method", SWEEP_START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_parallel_matches_serial_shards(self, seed, shards, workers, start_method):
        graph, netlist = random_design(seed)
        serial_router, serial = run_router(
            graph, netlist, num_rounds=2, shards=shards
        )
        parallel_router, parallel = run_router(
            graph,
            netlist,
            num_rounds=2,
            shards=shards,
            shard_workers=workers,
            shard_start_method=start_method,
        )
        assert_bit_identical(serial_router, serial, parallel_router, parallel)
        if shards > 1 and workers > 1:
            assert parallel_router.engine.region_executor.backend == "process"

    @pytest.mark.slow
    @pytest.mark.parametrize("start_method", SWEEP_START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_parity_mode_matches_unsharded(self, seed, shards, workers, start_method):
        """In shard_parity mode (full-round cost window) every worker count
        reproduces the *unsharded* router bit for bit."""
        graph, netlist = random_design(seed)
        plain_router, plain = run_router(
            graph, netlist, num_rounds=2, cost_refresh_interval=10**9
        )
        shard_router, sharded = run_router(
            graph,
            netlist,
            num_rounds=2,
            cost_refresh_interval=10**9,
            shards=shards,
            shard_parity=True,
            shard_workers=workers,
            shard_start_method=start_method,
        )
        assert_bit_identical(plain_router, plain, shard_router, sharded)

    def test_suite_chip_parallel_matches_serial(self):
        """The battery's fixed-chip anchor: c1 at K=4, fork, 2 workers."""
        graph, netlist = build_chip(CHIP_SUITE[0].scaled(0.5))
        serial_router, serial = run_router(graph, netlist, num_rounds=3, shards=4)
        parallel_router, parallel = run_router(
            graph, netlist, num_rounds=3, shards=4, shard_workers=2
        )
        assert_bit_identical(serial_router, serial, parallel_router, parallel)

    @pytest.mark.skipif("spawn" not in START_METHODS, reason="no spawn on platform")
    def test_spawn_start_method_matches_serial(self):
        """Spawn workers re-import the package from a clean interpreter;
        name-keyed RNG streams keep the trees identical anyway."""
        graph, netlist = random_design(7, num_nets=14, nx=10, ny=10)
        serial_router, serial = run_router(graph, netlist, num_rounds=2, shards=2)
        spawn_router, spawned = run_router(
            graph,
            netlist,
            num_rounds=2,
            shards=2,
            shard_workers=2,
            shard_start_method="spawn",
        )
        assert_bit_identical(serial_router, serial, spawn_router, spawned)


class TestDegradation:
    def test_degrades_to_serial_loop_when_pool_unavailable(self, monkeypatch, caplog):
        """No multiprocessing -> one structured log record, route serially,
        same bits."""
        import logging

        graph, netlist = random_design(11, num_nets=16)
        serial_router, serial = run_router(graph, netlist, num_rounds=2, shards=4)

        def broken_get_context(*args, **kwargs):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(multiprocessing, "get_context", broken_get_context)
        with caplog.at_level(logging.WARNING, logger="repro.obs.pool"):
            degraded_router, degraded = run_router(
                graph, netlist, num_rounds=2, shards=4, shard_workers=2
            )
        degradations = [
            rec
            for rec in caplog.records
            if rec.name == "repro.obs.pool"
            and "degrades to the serial region loop" in rec.getMessage()
        ]
        assert len(degradations) == 1
        assert "backend=region-process" in degradations[0].getMessage()
        executor = degraded_router.engine.region_executor
        assert executor.backend == "process"
        assert not executor.pool.used
        assert not executor.pool.active
        assert_bit_identical(serial_router, serial, degraded_router, degraded)

    def test_workers_ignored_without_sharding(self):
        """shard_workers is a shard-layer knob; the K=1 flow stays the
        plain single-region engine."""
        graph, netlist = random_design(12, num_nets=14)
        plain_router, plain = run_router(graph, netlist, num_rounds=2)
        one_router, one = run_router(graph, netlist, num_rounds=2, shard_workers=2)
        assert not isinstance(one_router.engine, ShardCoordinator)
        assert_bit_identical(plain_router, plain, one_router, one)

    def test_region_executor_backend_follows_worker_count(self):
        assert RegionExecutor(None).backend == "serial"
        assert RegionExecutor(1).backend == "serial"
        assert RegionExecutor(3).backend == "process"
        assert RegionExecutor(3).pool.workers == 3
        with pytest.raises(ValueError, match="positive"):
            RegionExecutor(0)
        with pytest.raises(ValueError, match="shard_workers"):
            GlobalRouterConfig(shard_workers=0)

    def test_invalid_start_method_raises_instead_of_degrading(self):
        """A pinned-but-mistyped start method is an explicit request gone
        wrong; it must fail at construction, not silently route serially."""
        with pytest.raises(ValueError, match="start method"):
            RegionExecutor(2, start_method="frok")
        graph, netlist = random_design(14, num_nets=12)
        with pytest.raises(ValueError, match="start method"):
            GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(
                    num_rounds=1, shards=2, shard_workers=2,
                    shard_start_method="frok",
                ),
            )


class TestTraceIsSingleProcess:
    """Trace writing is the parent's alone: a forked pool worker inherits
    the tracer (file handle, span-id counter), and must drop it -- the trace
    of a pooled run must not depend on the start method."""

    ROUNDS = 2

    def _traced_run(self, tmp_path, start_method):
        from collections import Counter

        from repro import obs
        from repro.obs.summary import load_trace

        graph, netlist = random_design(21, num_nets=16)
        path = tmp_path / f"{start_method}.jsonl"
        obs.configure_tracing(str(path))
        try:
            router, _ = run_router(
                graph, netlist, num_rounds=self.ROUNDS, shards=2,
                shard_workers=2, shard_start_method=start_method,
            )
        finally:
            obs.close_tracing()
        if not router.engine.region_executor.pool.used:
            pytest.skip("no process pool available in this environment")
        records = load_trace(str(path))
        names = Counter((r["type"], r.get("name")) for r in records)
        return router, records, names

    @pytest.mark.skipif("fork" not in START_METHODS, reason="no fork on platform")
    def test_forked_workers_write_no_trace_records(self, tmp_path):
        router, records, names = self._traced_run(tmp_path, "fork")
        spans = {r["span_id"]: r for r in records if r["type"] == "span"}
        assert len(spans) == sum(1 for r in records if r["type"] == "span")  # unique ids
        regions = [
            (span["attrs"]["key"], span["attrs"]["round"])
            for span in spans.values()
            if span["name"] == "region"
        ]
        assert sorted(regions) == sorted(
            (region.key, round_index)
            for region in router.engine.regions
            for round_index in range(self.ROUNDS)
        )
        # Every batch span and net event was written by this process's own
        # seam passes; the regions' were routed (and dropped) in the workers.
        batches = [span for span in spans.values() if span["name"] == "batch"]
        assert batches
        for span in batches:
            assert spans[span["parent_id"]]["name"] in ("seam", "seam_scope")
        nets = [r for r in records if r["type"] == "event" and r["name"] == "net"]
        assert len(nets) == router.engine.stats.seam_nets * self.ROUNDS
        for event in nets:
            assert spans[event["parent_id"]]["name"] == "batch"
        other = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
        _, _, other_names = self._traced_run(tmp_path, other)
        assert names == other_names


def cached_flow(shards, cache_scope, workers=None, fault=None, rounds=4):
    """c1 x 0.4 with the re-route cache on: the router after its run, and
    the ``engine.*`` counters the run booked."""
    from repro import faults, obs
    from repro.engine.engine import EngineConfig

    graph, netlist = build_chip(CHIP_SUITE[0].scaled(0.4))
    if fault is not None:
        faults.install_plan(fault)
    try:
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            router, _ = run_router(
                graph, netlist, num_rounds=rounds, shards=shards, shard_workers=workers,
                engine=EngineConfig(reroute_cache=True, cache_scope=cache_scope),
            )
    finally:
        faults.clear_plan()
    counters = registry.snapshot()["counters"]
    names = ("engine.oracle_calls", "engine.nets_cached")
    return router, {name: counters.get(name, 0) for name in names}


def round_counts(router):
    return [(r.nets_routed, r.nets_cached, r.nets_replayed) for r in router.engine.round_reports]


def outcome_key(outcome):
    """Every field of a ``RegionOutcome`` but the walltime, comparable."""
    return (
        outcome.key, outcome.trees, outcome.delta.tobytes(), outcome.report[:4],
        outcome.log_signatures, outcome.signatures,
    )


class TestScopeCaches:
    """The re-route cache's signatures travel in the task, so the cache
    works -- and counts -- identically wherever a region's round runs."""

    def test_serial_regions_keep_reroute_cache(self):
        from repro.engine.engine import EngineConfig

        graph, netlist = random_design(15, num_nets=16)
        nocache_router, nocache = run_router(graph, netlist, num_rounds=3, shards=4)
        cached_router, cached = run_router(
            graph, netlist, num_rounds=3, shards=4,
            engine=EngineConfig(reroute_cache=True, cache_scope="global"),
        )
        assert all(
            region.engine.cache is not None
            for region in cached_router.engine.regions
        )
        # The cache is a pure memoization: results match running without it.
        assert_bit_identical(nocache_router, nocache, cached_router, cached)

    @pytest.mark.parametrize(
        "fault", [None, "kill-region-worker:round=2", "drop-outcome:round=1"]
    )
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("cache_scope", ["bbox", "global"])
    def test_cache_is_placement_independent(self, cache_scope, shards, fault):
        """Round reports, engine counters and trees of a cached sharded flow
        do not depend on where the regions ran -- serial loop, region pool,
        or the parent's retry of a task lost with its worker.  (Region
        scopes of a pooled coordinator used to route cache-free: c1 x 0.4,
        2 shards gave (18,0),(17,1),(16,2),(14,4) serial against
        (18,0),(18,0),(17,1),(17,1) pooled.)"""
        serial, serial_counters = cached_flow(shards, cache_scope)
        pooled, pooled_counters = cached_flow(shards, cache_scope, workers=2, fault=fault)
        assert pooled.engine.region_executor.pool.used
        assert round_counts(pooled) == round_counts(serial)
        assert sum(cached for _, cached, _ in round_counts(serial)) > 0
        if fault != "drop-outcome:round=1":
            # A dropped outcome was computed twice -- by the worker, whose
            # counters were already merged, and again here -- and the
            # process-wide counters say so; a lost task is booked once.
            assert pooled_counters == serial_counters
        assert tree_key(pooled.trees) == tree_key(serial.trees)

    def test_cache_stats_derive_from_round_reports(self):
        """``reroute_stats`` -- what the CLI and the daemon report -- equals
        the cache's own counters where one cache sees the whole flow."""
        from repro.engine.cache import reroute_stats

        router, _ = cached_flow(1, "bbox")
        stats = reroute_stats(router.engine.round_reports)
        assert stats == router.engine.cache.stats
        assert stats.hits > 0 and stats.lookups == 3 * router.netlist.num_nets
        sharded, _ = cached_flow(4, "bbox", workers=2)
        assert reroute_stats(sharded.engine.round_reports).lookups == stats.lookups

    def test_region_runner_route_is_pure(self):
        """``_RegionRunner.route(task)`` is a function of the task alone:
        a fresh runner, a runner that just routed another round's task and
        a pool worker all return the outcome the flow recorded."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.engine.engine import EngineConfig
        from repro.engine.executor import WorkerPool
        from repro.shard.executor import _RegionRunner, region_worker

        graph, netlist = build_chip(CHIP_SUITE[0].scaled(0.4))
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(
                num_rounds=4, shards=2, engine=EngineConfig(reroute_cache=True)
            ),
        )
        coordinator = router.engine
        recorded = {}
        for region in coordinator.regions:
            def recording(task, _route=region.runner.route):
                outcome = _route(task)
                recorded[task.key, task.round_index] = (task, outcome_key(outcome))
                return outcome

            region.runner.route = recording
        router.run(record_log=True)
        assert any(task.signatures != outcome[5] for task, outcome in recorded.values())

        specs = {region.key: region.worker_spec() for region in coordinator.regions}

        def fresh_route(task):
            return _RegionRunner(specs[task.key], coordinator.runner_shared).route(task)

        pool = WorkerPool("region-process", "purity test routes inline", workers=2)
        try:
            @settings(max_examples=20, deadline=None)
            @given(st.lists(st.sampled_from(sorted(recorded)), min_size=2, max_size=4))
            def check(picks):
                tasks = [recorded[pick][0] for pick in picks]
                expected = [recorded[pick][1] for pick in picks]
                assert [outcome_key(fresh_route(task)) for task in tasks] == expected
                # One runner per region, reused from task to task.
                used = region_worker(coordinator.region_worker_payload())
                assert [outcome_key(used(task)) for task in tasks] == expected
                shipped = pool.map(
                    tasks, coordinator.region_worker_payload, region_worker, fresh_route
                )
                assert [outcome_key(outcome) for outcome in shipped] == expected

            check()
            assert pool.used
        finally:
            pool.close()


class TestTeardown:
    """ShardCoordinator.close() must release every engine and both pools
    even when a round raises mid-flight."""

    def _failing_router(self, **config):
        graph, netlist = random_design(13, num_nets=16)
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=2, shards=4, **config),
        )
        return router

    def test_close_releases_engines_when_a_region_fails(self):
        router = self._failing_router()
        coordinator = router.engine
        region = coordinator.regions[0]

        def explode(*args, **kwargs):
            raise RuntimeError("injected region failure")

        region.engine.route_round = explode
        with pytest.raises(RuntimeError, match="injected region failure"):
            router.run()
        assert coordinator._closed
        assert coordinator.seam_engine.executor.closed
        assert coordinator.region_executor.closed

    def test_close_releases_pool_when_a_round_fails_mid_flight(self):
        router = self._failing_router(shard_workers=2)
        coordinator = router.engine

        original = coordinator.seam_engine.route_round
        calls = {"n": 0}

        def explode_after_interior(*args, **kwargs):
            # The interior pass already ran on the pool when the seam engine
            # is reached, so the pool is live at failure time.
            calls["n"] += 1
            raise RuntimeError("injected seam failure")

        coordinator.seam_engine.route_round = explode_after_interior
        assert coordinator.region_executor.backend == "process"
        with pytest.raises(RuntimeError, match="injected seam failure"):
            router.run()
        assert calls["n"] == 1
        assert original is not None
        assert coordinator._closed
        assert coordinator.region_executor.closed
        assert coordinator.region_executor.pool.used  # live when the round failed
        assert not coordinator.region_executor.pool.active  # ...and released
        assert coordinator.seam_engine.executor.closed

    def test_close_is_idempotent(self):
        router = self._failing_router(shard_workers=2)
        router.run()
        router.engine.close()
        router.engine.close()
        assert router.engine.region_executor.closed


class TestCheckpointAcrossWorkerCounts:
    def test_resume_with_different_shard_workers(self, tmp_path):
        """A checkpoint taken under shard_workers=2 resumes under the
        serial region loop (and vice versa) with bit-identical results --
        the region backend, like the engine backend, is not part of the
        resume fingerprint."""
        graph, netlist = build_chip(CHIP_SUITE[0].scaled(0.4))
        straight_router, straight = run_router(
            graph, netlist, num_rounds=3, shards=4
        )

        for ckpt_workers, resume_workers in ((2, None), (None, 2)):
            path = str(tmp_path / f"w{ckpt_workers}-{resume_workers}.ckpt")

            def hook(router, round_index, _path=path):
                if round_index == 1:
                    save_checkpoint(router, _path)

            first = GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=3, shards=4, shard_workers=ckpt_workers),
            )
            first.run(on_round_end=hook)
            resumed = GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=3, shards=4, shard_workers=resume_workers),
            )
            assert resume_router(resumed, path)
            assert resumed.rounds_completed == 2
            result = resumed.run()
            for field in PARITY_FIELDS:
                assert getattr(result, field) == getattr(straight, field), field
            assert tree_key(resumed.trees) == tree_key(straight_router.trees)
