"""Tests for the shard layer: coordinator parity, fast path, sharded serve jobs."""

import inspect
import os
import pickle
import re

import numpy as np
import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.engine.cache import reroute_stats
from repro.engine.engine import EngineConfig
from repro.engine.rng import (
    derive_net_rng_for_name,
    net_name_key,
    net_stream_seed_for_name,
)
from repro.grid.geometry import BoundingBox, GridPoint
from repro.grid.graph import EDGE_ARRAYS, build_grid_graph, extract_prism
from repro.instances.chips import CHIP_SUITE, build_chip
from repro.instances.eco_stream import EcoStreamConfig, generate_eco_stream
from repro.router.metrics import PARITY_FIELDS, RoutingResult
from repro.router.netlist import Net, Netlist, Pin
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.session import RoutingSession
from repro.shard.coordinator import ShardCoordinator


def smoke_design(scale=0.5):
    return build_chip(CHIP_SUITE[0].scaled(scale))


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


class TestNameKeyedRng:
    def test_name_key_is_stable(self):
        assert net_name_key("n0") == net_name_key("n0")
        assert net_name_key("n0") != net_name_key("n1")

    def test_streams_differ_across_seeds_and_names(self):
        assert net_stream_seed_for_name(0, "a") != net_stream_seed_for_name(1, "a")
        a = derive_net_rng_for_name(0, "a").random()
        b = derive_net_rng_for_name(0, "b").random()
        assert a != b
        assert derive_net_rng_for_name(3, "x").random() == derive_net_rng_for_name(3, "x").random()

    def test_net_keeps_stream_inside_a_sub_netlist(self):
        """The property the shard layer and ECO memos rely on: a net's tree
        does not depend on which netlist slice it is routed in."""
        graph, netlist = smoke_design(0.4)
        full, _ = run_router(graph, netlist, num_rounds=1)
        sub_netlist = netlist.subset(list(range(netlist.num_nets - 1, -1, -1)))
        sub, _ = run_router(graph, sub_netlist, num_rounds=1)
        # Reversed subset: net i of `netlist` is net (N-1-i) of `sub_netlist`.
        full_tree = full.route_single_net(0)
        sub_tree = sub.route_single_net(netlist.num_nets - 1)
        assert (full_tree.root, full_tree.sinks, full_tree.edges) == (
            sub_tree.root, sub_tree.sinks, sub_tree.edges,
        )

    def test_duplicate_net_names_rejected(self):
        nets = [
            Net("dup", Pin("a:d", GridPoint(0, 0, 0)), [Pin("a:s", GridPoint(1, 1, 0))]),
            Net("dup", Pin("b:d", GridPoint(2, 2, 0)), [Pin("b:s", GridPoint(3, 3, 0))]),
        ]
        with pytest.raises(ValueError, match="duplicate net name"):
            Netlist("bad", nets)


class TestShardParity:
    def test_k4_parity_reproduces_unsharded_bit_for_bit(self):
        """The acceptance criterion: sharded K=4 parity routing equals the
        unsharded router exactly on every metric and every tree."""
        graph, netlist = smoke_design(0.5)
        plain_router, plain = run_router(
            graph, netlist, num_rounds=3, cost_refresh_interval=10**9
        )
        shard_router, sharded = run_router(
            graph, netlist, num_rounds=3, cost_refresh_interval=10**9,
            shards=4, shard_parity=True,
        )
        for field in PARITY_FIELDS:
            assert getattr(sharded, field) == getattr(plain, field), field
        assert tree_key(shard_router.trees) == tree_key(plain_router.trees)

    def test_parity_holds_for_strip_partitions(self):
        graph, netlist = smoke_design(0.4)
        _, plain = run_router(
            graph, netlist, num_rounds=2, cost_refresh_interval=10**9
        )
        _, sharded = run_router(
            graph, netlist, num_rounds=2, cost_refresh_interval=10**9,
            shards=2, shard_parity=True,
        )
        for field in PARITY_FIELDS:
            assert getattr(sharded, field) == getattr(plain, field), field


class TestShardFastPath:
    def test_fast_path_routes_every_net(self):
        graph, netlist = smoke_design(0.5)
        router, result = run_router(graph, netlist, num_rounds=2, shards=4)
        assert isinstance(router.engine, ShardCoordinator)
        assert all(tree is not None for tree in router.trees)
        assert result.num_nets == netlist.num_nets
        assert result.wire_length > 0
        stats = router.engine.stats
        assert stats.num_regions == 4
        assert stats.total_interior + stats.seam_nets == netlist.num_nets

    def test_fast_path_is_deterministic(self):
        graph, netlist = smoke_design(0.4)
        router_a, a = run_router(graph, netlist, num_rounds=2, shards=4)
        router_b, b = run_router(graph, netlist, num_rounds=2, shards=4)
        for field in PARITY_FIELDS:
            assert getattr(a, field) == getattr(b, field), field
        assert tree_key(router_a.trees) == tree_key(router_b.trees)

    def test_interior_trees_stay_inside_their_region(self):
        graph, netlist = smoke_design(0.5)
        router, _ = run_router(graph, netlist, num_rounds=2, shards=4)
        coordinator = router.engine
        for region_index, interior in enumerate(
            coordinator.classification.interior
        ):
            box = coordinator.partition.regions[region_index].box
            for net_index in interior:
                tree = router.trees[net_index]
                for edge in tree.edges:
                    for node in (int(graph.edge_u[edge]), int(graph.edge_v[edge])):
                        x, y = graph.node_planar(node)
                        assert box.xlo <= x <= box.xhi
                        assert box.ylo <= y <= box.yhi

    def test_all_seam_netlist_degenerates_to_global_routing(self):
        graph = build_grid_graph(16, 16, 4)
        nets = [
            Net(f"n{i}", Pin(f"n{i}:d", GridPoint(0, i, 0)),
                [Pin(f"n{i}:s0", GridPoint(15, i, 0))])
            for i in range(4)
        ]
        netlist = Netlist("spans", nets, [], clock_period=400.0)
        router, result = run_router(graph, netlist, num_rounds=2, shards=4)
        assert router.engine.stats.seam_nets == 4
        assert router.engine.stats.total_interior == 0
        assert all(tree is not None for tree in router.trees)
        _, plain = run_router(graph, netlist, num_rounds=2)
        # With no interior nets the shard flow is the plain flow.
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(plain, field), field

    def test_checkpoint_resume_through_shards(self, tmp_path):
        from repro.serve.checkpoint import resume_router, save_checkpoint

        graph, netlist = smoke_design(0.4)
        path = str(tmp_path / "shard.ckpt")
        uninterrupted, expected = run_router(
            graph, netlist, num_rounds=3, shards=4
        )

        def hook(router, round_index):
            if round_index == 1:
                save_checkpoint(router, path)

        first = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=3, shards=4),
        )
        first.run(on_round_end=hook)
        resumed = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=3, shards=4),
        )
        assert resume_router(resumed, path)
        assert resumed.rounds_completed == 2
        result = resumed.run()
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(expected, field), field
        assert tree_key(resumed.trees) == tree_key(uninterrupted.trees)

    def test_record_log_through_shards_covers_every_net(self):
        """The shard coordinator records replay memos: one per round, with a
        lookup signature and a post-round tree for every net of the design
        (interior, seam-scope, and global-seam alike)."""
        graph, netlist = smoke_design(0.3)
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(
                num_rounds=2, shards=2,
                engine=EngineConfig(reroute_cache=True),
            ),
        )
        router.run(record_log=True)
        assert router.replay_log is not None
        assert len(router.replay_log) == 2
        for memo in router.replay_log:
            assert sorted(memo.signatures) == list(range(netlist.num_nets))
            assert sorted(memo.trees) == list(range(netlist.num_nets))

    def test_memo_rounds_without_cache_rejected_through_shards(self):
        graph, netlist = smoke_design(0.3)
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=1, shards=2),
        )
        with pytest.raises(ValueError, match="reroute_cache"):
            router.run(record_log=True)
        router.engine.close()

    def test_sharded_session_routes_and_replays(self):
        """Sessions drive sharded engines: the PR-2 shards=1 guard is gone
        (the cross-backend battery lives in tests/test_session_shard.py)."""
        graph, netlist = smoke_design(0.3)
        session = RoutingSession(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=2, shards=2),
        )
        session.route()
        net = netlist.nets[0]
        sink = net.sinks[0]
        report = session.apply_eco(
            [{"op": "move_pin", "net": net.name, "pin": sink.name,
              "x": (sink.position.x + 1) % graph.nx, "y": sink.position.y,
              "layer": sink.position.layer}]
        )
        assert report.nets_reused > 0  # clean scopes replayed their memos
        assert report.nets_rerouted + report.nets_reused == 2 * session.num_nets

    @pytest.mark.parametrize("shard_parity", [False, True])
    def test_round_routes_every_net_in_place(self, shard_parity):
        """One sharded round (interior, stitch, seam) writes a tree for
        every net into the caller's list and returns nothing."""
        graph, netlist = smoke_design(0.4)
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(
                num_rounds=1, shards=4, shard_parity=shard_parity,
            ),
        )
        with router.engine:
            assert router.engine.route_round(0, router.trees) is None
        for net, tree in zip(netlist.nets, router.trees):
            assert tree is not None and tree.graph is graph
            assert len(tree.sinks) == len(net.sinks)


def scopes_of(router):
    return router.engine.regions + router.engine.seam_scopes


class TestScaffoldingMemo:
    """Sub-graphs and edge maps are memoised per (graph, box)."""

    def test_prism_is_memoised_and_equals_a_fresh_extraction(self):
        graph = build_grid_graph(9, 7, 3)
        box = BoundingBox(2, 1, 6, 5)
        prism = graph.prism(box)
        assert graph.prism(BoundingBox(2, 1, 6, 5)) is prism
        fresh, edge_to_global = extract_prism(graph, 2, 1, 6, 5)
        assert np.array_equal(prism.edge_to_global, edge_to_global)
        for name in EDGE_ARRAYS:
            ours, theirs = getattr(prism.sub_graph, name), getattr(fresh, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
        assert prism.sub_graph.incident == fresh.incident
        assert prism.sub_graph.neighbours == fresh.neighbours
        # The inverse map: -1 outside the prism, the sub-edge index inside.
        inverse = prism.edge_to_local
        assert inverse.dtype == np.int64 and len(inverse) == graph.num_edges
        assert np.array_equal(inverse[edge_to_global], np.arange(len(edge_to_global)))
        assert (np.delete(inverse, edge_to_global) == -1).all()
        assert graph.prism(BoundingBox(0, 0, 3, 3)) is not prism

    def test_successive_coordinators_share_sub_graphs(self):
        graph, netlist = smoke_design(0.4)
        first, first_result = run_router(graph, netlist, num_rounds=2, shards=4)
        second, second_result = run_router(graph, netlist, num_rounds=2, shards=4)
        assert [s.key for s in scopes_of(first)] == [s.key for s in scopes_of(second)]
        for ours, theirs in zip(scopes_of(first), scopes_of(second)):
            assert ours.sub_graph is theirs.sub_graph
            assert ours.edge_to_global is theirs.edge_to_global
        assert tree_key(first.trees) == tree_key(second.trees)
        for field in PARITY_FIELDS:
            assert getattr(first_result, field) == getattr(second_result, field), field
        # Routing wrote to no edge array, of the graph or of any sub-graph.
        for routed in [graph] + [s.sub_graph for s in scopes_of(second)]:
            assert not any(getattr(routed, name).flags.writeable for name in EDGE_ARRAYS)
        # A coordinator with another decomposition takes the memo over.
        third, _ = run_router(graph, netlist, num_rounds=1, shards=2)
        assert set(graph._prisms) == {s.box for s in scopes_of(third)}
        assert len(graph._prisms) < len(scopes_of(second))

    def test_worker_spec_pickles_without_the_memos(self):
        """What a region worker receives is the sub-graph alone, as before
        the memo existed: byte for byte the pickle of a fresh extraction."""
        graph, netlist = smoke_design(0.5)
        router, _ = run_router(
            graph, netlist, num_rounds=2, shards=4,
            engine=EngineConfig(reroute_cache=True),
        )
        regions = [s for s in router.engine.regions if s.sub_graph._box_edges]
        assert regions  # the routed flow did fill region arrays
        for scope in regions:
            scope.sub_graph.prism(BoundingBox(0, 0, 1, 1))
            spec = scope.worker_spec()
            box = scope.box
            bare = dict(spec, graph=extract_prism(graph, box.xlo, box.ylo, box.xhi, box.yhi)[0])
            shipped = pickle.dumps(spec, pickle.HIGHEST_PROTOCOL)
            assert len(shipped) <= len(pickle.dumps(bare, pickle.HIGHEST_PROTOCOL))
            received = pickle.loads(shipped)["graph"]
            assert received._box_edges == {} and received._prisms == {}
            assert not received.edge_capacity.flags.writeable

    def test_eco_stream_keeps_the_memos_bounded(self):
        """200 ECO batches through a 4-shard session: at every batch at most
        one shared region array per live net and one prism per live scope,
        and the final state equals a cold route of the final netlist."""
        graph, netlist = smoke_design(0.3)
        batches = generate_eco_stream(
            netlist, graph, EcoStreamConfig(ops=200, batch_size=1, seed=4)
        )
        assert len(batches) == 200
        config = GlobalRouterConfig(num_rounds=1, shards=4)
        session = RoutingSession(graph, netlist, CostDistanceSolver(), config)
        session.route()
        partition = session.router.engine.partition
        boxes = [region.box for region in partition.regions]
        unions = {
            BoundingBox(
                min(a.xlo, b.xlo), min(a.ylo, b.ylo), max(a.xhi, b.xhi), max(a.yhi, b.yhi)
            )
            for a in boxes for b in boxes
        }
        seen_scopes = set()
        for batch in batches:
            session.apply_eco(batch)
            scopes = scopes_of(session.router)
            seen_scopes.add(tuple(s.key for s in scopes))
            assert set(graph._prisms) == {s.box for s in scopes} <= unions
            arrays = len(graph._box_edges) + sum(
                len(prism.sub_graph._box_edges) for prism in graph._prisms.values()
            )
            assert arrays <= session.num_nets
        assert len(seen_scopes) > 1  # scopes came and went along the stream
        cold = RoutingSession(graph, session.netlist, CostDistanceSolver(), config)
        cold.weight_overrides = session.weight_overrides
        cold_result = cold.route()
        for field in PARITY_FIELDS:
            assert getattr(session.last_result, field) == getattr(cold_result, field), field
        assert tree_key(session.router.trees) == tree_key(cold.router.trees)


class TestOneRegionRound:
    """Every scope routes a round as task -> runner -> outcome, on the one
    runner it owns; a parity region is that scope over the full-die prism."""

    @pytest.mark.parametrize("shard_parity", [False, True])
    def test_scope_engine_is_its_runners_engine(self, shard_parity):
        graph, netlist = smoke_design(0.4)
        router, _ = run_router(
            graph, netlist, num_rounds=2, shards=4, shard_parity=shard_parity
        )
        scopes = scopes_of(router)
        assert scopes and {type(scope).__name__ for scope in scopes} == {"_SubgraphScope"}
        for scope in scopes:
            assert scope.engine is scope.runner.engine
            assert len(scope.engine.round_reports) == 2
            if shard_parity:
                assert scope.key.startswith("parity")
                assert np.array_equal(scope.edge_to_global, np.arange(graph.num_edges))

    def test_dropped_outcome_is_routed_by_the_scopes_own_runner(self):
        """The recovery path has no engine of its own: a dropped pool outcome
        is recomputed by ``coordinator.regions[0].runner`` -- the object the
        serial loop routes on -- and changes no bit."""
        from repro import faults

        graph, netlist = smoke_design(0.4)
        serial, expected = run_router(graph, netlist, num_rounds=3, shards=4)
        # The serial loop routed every round on the scope runners.
        assert [len(r.runner.engine.round_reports) for r in serial.engine.regions] == [
            3
        ] * len(serial.engine.regions)
        faults.install_plan("drop-outcome:round=2")
        try:
            chaos = GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=3, shards=4, shard_workers=2),
            )
            regions = chaos.engine.regions
            routed = []
            original = regions[0].runner.route
            regions[0].runner.route = lambda task: (
                routed.append(task.round_index), original(task)
            )[1]
            result = chaos.run()
        finally:
            faults.clear_plan()
        if not chaos.engine.region_executor.pool.used:
            pytest.skip("no process pool available in this environment")
        assert routed == [1]  # the dropped round, and only that one
        assert [len(r.runner.engine.round_reports) for r in regions] == [1] + [0] * (
            len(regions) - 1
        )
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(expected, field), field
        assert tree_key(chaos.trees) == tree_key(serial.trees)


class TestOneShardingPathOnePoolLifecycle:
    """The daemon's shard fan-out, the per-executor pool lifecycles, the
    shared-memory region transport, the incremental digest memos and the
    forked region rounds (parity twin, in-process twin, recovery twin) were
    *deleted*, not renamed: their names must not survive anywhere in src/,
    exactly one class starts ``multiprocessing`` pools, and the shard layer
    constructs engines in exactly two places."""

    REMOVED_NAMES = (
        "_run_shard",
        "_run_children_on",
        "_merge_results",
        "submit_shard",
        "emit_usage",
        "shard_index",
        "serve-shard",
        "force_single_shard",
        "create_worker_pool",
        "run_tasks_with_recovery",
        "discard_broken_pool",
        "_ensure_pool",
        "_discard_pool",
        "_pool_unavailable",
        # One region-state transport, one digest path (PR 14).
        "shared_memory",
        "resource_tracker",
        "SharedRegionStateStore",
        "state_ref",
        "incremental_digests",
        "_edge_epoch",
        "_chunk_digests",
        "_region_digests",
        "_observe",
        # One region round (PR 15).
        "_ParityRegion",
        "_prepare_memo_round",
        "_RegionPrices",
        "_recovery_runners",
        # One task map (PR 20).  Written in two pieces so that a repo-wide
        # grep for a deleted name finds live code only; the first two also
        # cover the daemon's shard child and the forked region rounds.
        "_route_" "shard",
        "_route_" "region",
        "Serial" "Executor",
        "Process" "Executor",
        "Serial" "RegionExecutor",
        "Process" "RegionExecutor",
        "make_" "executor",
        "make_region_" "executor",
        "_owns_" "executor",
        "_WORKER_" "STATE",
        "_REGION_" "STATE",
        # A round is a function of its task (PR 21): the cache-free fork of
        # pooled region scopes and the per-scope checkpoint sections.
        "state" "less",
        "ensure_" "cache",
        "parallel_" "regions",
        "region_cache_" "signatures",
        "_restore_cache_" "signatures",
        "code_region_" "signatures",
        "export_cache_" "signatures",
        "load_cache_" "signatures",
        "cache_signatures_" "by_name",
        # Routing-graph storage without per-edge Python objects: the pair
        # adjacency and the list edge maps of a prism.
        "." "adjacency",
        "edge_to_global_" "list",
        "edge_to_local_" "list",
        # The kernel reads the batch arrays in place: no context chain.
        "_last_context",
        # Knob audit, round two: flow options with one value in use and the
        # router's instance recorder.
        "max_batch_" "size",
        "bbox_" "halo",
        "record_" "instances",
        "collected_" "instances",
        "_record_" "instance",
        "_record_" "scope",
        "record_" "delay",
        # The engine places each batch itself: no backend option.
        "EXECUTOR_" "BACKENDS",
        "config." "backend",
        # Batches run in-process: the engine's batch pool and its placement
        # rule are gone (the region pool is the one process pool).
        "num_" "workers",
        "POOL_BREAK_" "EVEN",
        "balanced_" "chunks",
        "batch_" "worker",
        "batches_" "pooled",
        "kill-pool-" "worker",
        # The engine routes each net itself: no task, payload or record
        # round trip on the batch path; no index-keyed RNG streams.
        "Batch" "Executor",
        "Net" "Task",
        "from_" "payload",
        "derive_net_" "rng(",
        "net_stream_" "seed(",
    )

    @staticmethod
    def _sources():
        src_root = os.path.join(os.path.dirname(__file__), "..", "src")
        for dirpath, _dirnames, filenames in os.walk(src_root):
            for filename in filenames:
                if filename.endswith(".py"):
                    file_path = os.path.join(dirpath, filename)
                    with open(file_path, "r", encoding="utf-8") as handle:
                        yield file_path, handle.read()

    def test_removed_names_gone_from_codebase(self):
        offenders = [
            (file_path, name)
            for file_path, text in self._sources()
            for name in self.REMOVED_NAMES
            if name in text
        ]
        assert not offenders, offenders

    def test_only_worker_pool_starts_process_pools(self):
        callers = [
            (os.path.basename(file_path), line.strip())
            for file_path, text in self._sources()
            for line in text.splitlines()
            if re.search(r"\bPool\(", line) and not line.lstrip().startswith("#")
        ]
        assert [name for name, _ in callers] == ["executor.py"], callers
        from repro.engine import executor

        source = inspect.getsource(executor.WorkerPool)
        assert callers[0][1] in source

    def test_one_executor_class_per_layer_and_one_worker_protocol(self):
        """PR 20: both executor hierarchies folded into one class each on
        top of ``WorkerPool.map``; the worker-local metrics registry lives
        in the pool's one worker-side call and nowhere else."""
        import ast

        from repro.engine import executor as engine_executor
        from repro.shard import executor as shard_executor

        def classes(module):
            tree = ast.parse(inspect.getsource(module))
            return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}

        assert classes(engine_executor) == {"WorkerPool"}
        assert classes(shard_executor) == {
            "RegionTask", "RegionOutcome", "_TaskPrices", "_RegionRunner", "RegionExecutor",
        }
        layers = tuple(
            os.path.join("src", "repro", layer) + os.sep for layer in ("engine", "shard")
        )
        users = [
            (os.path.basename(file_path), line.strip())
            for file_path, text in self._sources()
            if any(layer in os.path.normpath(file_path) for layer in layers)
            for line in text.splitlines()
            if re.search(r"MetricsRegistry\(\)|swap_registry\(", line)
        ]
        assert {name for name, _ in users} == {"executor.py"}, users
        worker_call = inspect.getsource(engine_executor._worker_call)
        assert all(line in worker_call for _, line in users), users

    def test_shard_layer_constructs_engines_in_two_places(self):
        """The scope runner (every region and seam scope, on every backend)
        and the coordinator's global seam engine."""
        shard_dir = os.path.join("src", "repro", "shard") + os.sep
        sites = [
            os.path.basename(file_path)
            for file_path, text in self._sources()
            if shard_dir in os.path.normpath(file_path) + os.sep
            for line in text.splitlines()
            if re.search(r"\bRoutingEngine\(", line)
        ]
        assert sorted(sites) == ["coordinator.py", "executor.py"], sites


class TestServeShardJobs:
    @pytest.fixture()
    def daemon(self):
        daemon = ServeDaemon(port=0, job_workers=2)
        daemon.start()
        yield daemon
        daemon.shutdown()

    @pytest.mark.parametrize("shard_workers", [None, 2])
    def test_sharded_route_job_matches_in_process_router(self, daemon, shard_workers):
        """A sharded daemon job *is* `route --shards K`: the same shard
        coordinator, bit-identical to an in-process router, with or
        without the region pool -- and with ``cache`` it reports the
        re-route cache like an unsharded job does."""
        host, port = daemon.address
        client = ServeClient(host, port)
        client.wait_until_up()
        params = dict(chip="c1", net_scale=0.4, rounds=2, shards=4, cache=True)
        if shard_workers is not None:
            params["shard_workers"] = shard_workers
        record = client.wait(client.submit_route(**params), timeout=300)
        assert record["status"] == "done", record
        payload = record["result"]
        graph, netlist = build_chip(CHIP_SUITE[0].scaled(0.4))
        router, want = run_router(
            graph, netlist, num_rounds=2, shards=4, engine=EngineConfig(reroute_cache=True)
        )
        got = RoutingResult.from_dict(payload["result"])
        for field in PARITY_FIELDS:
            assert getattr(got, field) == getattr(want, field), field
        cache = reroute_stats(router.engine.round_reports)
        assert payload["cache"] == {"hits": cache.hits, "lookups": cache.lookups}
        assert cache.hits > 0 and cache.lookups == 18
        stats = router.engine.stats
        assert payload["shards"] == stats.num_regions == 4
        assert payload["interior_nets"] == list(stats.interior_nets)
        assert payload["seam_nets"] == stats.seam_nets
        assert payload["seam_nets"] + sum(payload["interior_nets"]) == got.num_nets == 18
        if shard_workers is None:
            assert payload["region_backend"] == "serial"
        else:
            assert payload["region_backend"] in ("process", "serial")

    def test_shard_kind_is_rejected(self, daemon):
        """The daemon's own fan-out is gone; `shard` is not a job kind."""
        host, port = daemon.address
        client = ServeClient(host, port)
        client.wait_until_up()
        with pytest.raises(ServeError, match="unknown job kind 'shard'"):
            client.request(
                "submit", kind="shard", params={"chip": "c1", "shards": 2}
            )
        assert client.jobs() == []

    def test_sharded_session_route_then_eco(self, daemon):
        """A route job may open a *sharded* session; eco jobs against it
        replay their memos through the shard coordinator."""
        host, port = daemon.address
        client = ServeClient(host, port)
        client.wait_until_up()
        job_id = client.submit_route(
            chip="c1", net_scale=0.3, rounds=2, shards=2, session="s1"
        )
        record = client.wait(job_id, timeout=300)
        assert record["status"] == "done", record
        assert record["result"]["session"] == "s1"
        eco_id = client.submit_eco(
            "s1",
            [{"op": "move_pin", "net": "n0", "pin": "n0:s0", "x": 1, "y": 1}],
        )
        eco_record = client.wait(eco_id, timeout=300)
        assert eco_record["status"] == "done", eco_record
        payload = eco_record["result"]
        assert payload["touched"] == ["n0"]
        assert payload["nets_reused"] > 0  # clean scopes replayed

    def test_eco_job_reshards_session(self, daemon):
        """eco jobs accept shard overrides: the session's next flows run
        under the new decomposition/worker count."""
        host, port = daemon.address
        client = ServeClient(host, port)
        client.wait_until_up()
        job_id = client.submit_route(chip="c1", net_scale=0.3, rounds=1, session="s2")
        assert client.wait(job_id, timeout=300)["status"] == "done"
        eco_id = client.submit_eco(
            "s2",
            [{"op": "move_pin", "net": "n0", "pin": "n0:s0", "x": 1, "y": 1}],
            shards=2, shard_workers=2,
        )
        record = client.wait(eco_id, timeout=300)
        assert record["status"] == "done", record
        with daemon._sessions_guard:
            session = daemon.sessions["s2"]
        assert session.config.shards == 2
        assert session.config.shard_workers == 2

    def test_failed_eco_does_not_reshard_session(self, daemon):
        """A failed ECO leaves the session exactly as it was -- including
        its decomposition: shard overrides of a failing job roll back."""
        host, port = daemon.address
        client = ServeClient(host, port)
        client.wait_until_up()
        job_id = client.submit_route(chip="c1", net_scale=0.3, rounds=1, session="s3")
        assert client.wait(job_id, timeout=300)["status"] == "done"
        eco_id = client.submit_eco(
            "s3",
            [{"op": "move_pin", "net": "no_such_net", "pin": "p", "x": 1, "y": 1}],
            shards=4,
        )
        record = client.wait(eco_id, timeout=300)
        assert record["status"] == "failed"
        assert "unknown net" in record["error"]
        with daemon._sessions_guard:
            session = daemon.sessions["s3"]
        assert session.config.shards == 1  # the override rolled back
