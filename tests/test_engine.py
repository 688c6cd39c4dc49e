"""Tests for the batch-routing engine (scheduler, executors, cache, façade)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bifurcation import BifurcationModel
from repro.core.cost_distance import CostDistanceSolver
from repro.core.instance import SteinerInstance, instance_signature
from repro.engine.cache import RerouteCache
from repro.engine.engine import EngineConfig
from repro.engine.executor import EXECUTOR_BACKENDS, BatchExecutor, NetTask
from repro.engine.rng import NET_STREAM_STRIDE, derive_net_rng, net_stream_seed
from repro.engine.scheduler import BoundingBox, NetScheduler
from repro.grid.congestion import CongestionMap
from repro.grid.geometry import GridPoint
from repro.grid.graph import build_grid_graph
from repro.router.netlist import Net, Netlist, Pin, Stage
from repro.router.router import GlobalRouter, GlobalRouterConfig


def tiny_netlist():
    nets = [
        Net("n0", Pin("n0:d", GridPoint(0, 0, 0)), [Pin("n0:s0", GridPoint(4, 1, 0)),
                                                    Pin("n0:s1", GridPoint(2, 5, 0))]),
        Net("n1", Pin("n1:d", GridPoint(4, 1, 0)), [Pin("n1:s0", GridPoint(7, 7, 0))]),
        Net("n2", Pin("n2:d", GridPoint(1, 6, 0)), [Pin("n2:s0", GridPoint(6, 3, 0))]),
        Net("n3", Pin("n3:d", GridPoint(8, 8, 0)), [Pin("n3:s0", GridPoint(9, 9, 0))]),
    ]
    stages = [Stage(0, 0, 1, cell_delay=5.0)]
    return Netlist("tiny", nets, stages, clock_period=60.0)


def result_key(result):
    return (
        result.worst_slack,
        result.total_negative_slack,
        result.ace4,
        result.wire_length,
        result.via_count,
        result.overflow,
        result.objective,
    )


def run_router(graph_dims, engine_config, num_rounds=2):
    graph = build_grid_graph(*graph_dims)
    netlist = tiny_netlist()
    router = GlobalRouter(
        graph,
        netlist,
        CostDistanceSolver(),
        GlobalRouterConfig(num_rounds=num_rounds, engine=engine_config),
    )
    return router, router.run()


class TestRng:
    def test_stable_formula(self):
        assert net_stream_seed(3, 7) == 3 * NET_STREAM_STRIDE + 7

    def test_streams_are_independent(self):
        a = derive_net_rng(0, 1)
        b = derive_net_rng(0, 2)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_streams_are_reproducible(self):
        assert derive_net_rng(5, 9).random() == derive_net_rng(5, 9).random()


class TestBoundingBox:
    def test_overlap_and_separation(self):
        a = BoundingBox(0, 0, 3, 3)
        assert a.overlaps(BoundingBox(3, 3, 5, 5))  # shared corner tile
        assert not a.overlaps(BoundingBox(4, 0, 6, 2))
        assert not a.overlaps(BoundingBox(0, 4, 2, 6))

    def test_expand_clips_to_grid(self):
        box = BoundingBox(0, 0, 2, 2).expanded(3, 5, 5)
        assert box == BoundingBox(0, 0, 4, 4)


class TestScheduler:
    @pytest.fixture(scope="class")
    def sched(self):
        graph = build_grid_graph(10, 10, 4)
        return NetScheduler(graph, tiny_netlist(), halo=0)

    def test_window_policy_preserves_order(self, sched):
        batches = sched.schedule(policy="window", window_size=3)
        assert [batch.nets for batch in batches] == [(0, 1, 2), (3,)]

    def test_every_net_scheduled_exactly_once(self, sched):
        for policy in ("window", "bbox"):
            batches = sched.schedule(policy=policy, window_size=2)
            routed = [n for batch in batches for n in batch.nets]
            assert sorted(routed) == [0, 1, 2, 3]

    def test_bbox_batches_are_conflict_free(self, sched):
        for batch in sched.schedule(policy="bbox"):
            for i, a in enumerate(batch.nets):
                for b in batch.nets[i + 1 :]:
                    assert not sched.conflict(a, b)

    def test_bbox_separates_overlapping_nets(self, sched):
        # Nets 0 and 1 share the tile (4, 1); they must not share a batch.
        assert sched.conflict(0, 1)
        for batch in sched.schedule(policy="bbox"):
            assert not ({0, 1} <= set(batch.nets))

    def test_disjoint_net_rides_along(self, sched):
        # Net 3 lives at (8..9, 8..9), disjoint from net 0's box: same batch.
        assert not sched.conflict(0, 3)
        first = sched.schedule(policy="bbox")[0]
        assert 0 in first.nets and 3 in first.nets

    def test_halo_expands_conflicts(self):
        graph = build_grid_graph(10, 10, 4)
        wide = NetScheduler(graph, tiny_netlist(), halo=9)
        # With a grid-sized halo every pair conflicts.
        assert wide.conflict(0, 3)

    def test_invalid_arguments(self, sched):
        with pytest.raises(ValueError):
            sched.schedule(policy="nope")
        with pytest.raises(ValueError):
            sched.schedule(policy="window", window_size=0)
        with pytest.raises(ValueError):
            NetScheduler(build_grid_graph(4, 4, 2), tiny_netlist(), halo=-1)


class TestExecutors:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = build_grid_graph(10, 10, 4)
        netlist = tiny_netlist()
        tasks = []
        for i in range(netlist.num_nets):
            root, sinks = netlist.net_terminals(graph, i)
            tasks.append(
                NetTask(i, root, tuple(sinks), tuple([0.2] * len(sinks)), f"t/{i}")
            )
        costs = graph.base_cost_array()
        return graph, tasks, costs

    def test_serial_routes_all_tasks(self, setup):
        graph, tasks, costs = setup
        executor = BatchExecutor(graph, CostDistanceSolver(), BifurcationModel(), 0)
        trees = executor.route_batch(costs, tasks)
        assert sorted(trees) == [t.net_index for t in tasks]
        for task in tasks:
            trees[task.net_index].validate(task.root, list(task.sinks))

    def test_process_matches_serial_bit_for_bit(self, setup):
        graph, tasks, costs = setup
        serial = BatchExecutor(graph, CostDistanceSolver(), BifurcationModel(), 0)
        with BatchExecutor(
            graph, CostDistanceSolver(), BifurcationModel(), 0, workers=2
        ) as process:
            expected = serial.route_batch(costs, tasks)
            actual = process.route_batch(costs, tasks)
        assert sorted(actual) == sorted(expected)
        for net_index, tree in expected.items():
            assert actual[net_index].edges == tree.edges
            assert actual[net_index].root == tree.root
            assert actual[net_index].sinks == tree.sinks
            assert actual[net_index].method == tree.method

    def test_single_task_avoids_pool(self, setup):
        graph, tasks, costs = setup
        process = BatchExecutor(
            graph, CostDistanceSolver(), BifurcationModel(), 0, workers=2
        )
        trees = process.route_batch(costs, tasks[:1])
        assert not process.pool.used  # inline fast path, no pool spawned
        assert len(trees) == 1
        process.close()

    def test_backend_selection(self, setup):
        graph, *_ = setup
        oracle = CostDistanceSolver()
        assert EXECUTOR_BACKENDS == ("serial", "process")
        assert BatchExecutor(graph, oracle, BifurcationModel(), 0).backend == "serial"
        assert (
            BatchExecutor(graph, oracle, BifurcationModel(), 0, workers=3).backend
            == "process"
        )
        with pytest.raises(ValueError, match="positive"):
            BatchExecutor(graph, oracle, BifurcationModel(), 0, workers=0)
        with pytest.raises(ValueError, match="thread"):
            EngineConfig(backend="thread")
        netlist = tiny_netlist()
        for backend, workers, expected in (
            ("serial", 4, "serial"),  # num_workers is a process-backend knob
            ("process", 2, "process"),
        ):
            router = GlobalRouter(
                graph, netlist, oracle,
                GlobalRouterConfig(engine=EngineConfig(backend=backend, num_workers=workers)),
            )
            assert router.engine.executor.backend == expected
            router.engine.close()

    def test_close_is_idempotent(self, setup):
        graph, tasks, costs = setup
        process = BatchExecutor(
            graph, CostDistanceSolver(), BifurcationModel(), 0, workers=2
        )
        process.route_batch(costs, tasks)
        process.close()
        process.close()

    def test_degrades_to_serial_when_pool_unavailable(self, setup, monkeypatch, caplog):
        """Sandboxed/no-fork environments log a warning and route in-process."""
        import logging
        import multiprocessing

        graph, tasks, costs = setup

        def broken_context(*args, **kwargs):
            raise OSError("forking is forbidden here")

        monkeypatch.setattr(multiprocessing, "get_context", broken_context)
        serial = BatchExecutor(graph, CostDistanceSolver(), BifurcationModel(), 0)
        expected = serial.route_batch(costs, tasks)
        with BatchExecutor(
            graph, CostDistanceSolver(), BifurcationModel(), 0, workers=2
        ) as process:
            with caplog.at_level(logging.WARNING, logger="repro.obs.pool"):
                actual = process.route_batch(costs, tasks)
            degradations = [
                rec
                for rec in caplog.records
                if rec.name == "repro.obs.pool" and "degrades to in-process" in rec.getMessage()
            ]
            assert len(degradations) == 1
            assert not process.pool.used and not process.pool.active
            caplog.clear()
            # The degradation is remembered: no second record, same trees.
            with caplog.at_level(logging.WARNING, logger="repro.obs.pool"):
                again = process.route_batch(costs, tasks)
            assert not [r for r in caplog.records if r.name == "repro.obs.pool"]
        for net_index, tree in expected.items():
            assert actual[net_index].edges == tree.edges
            assert again[net_index].edges == tree.edges


class TestCongestionSnapshot:
    def test_snapshot_is_frozen(self, small_graph):
        live = CongestionMap(small_graph)
        live.add_usage([0, 1])
        snap = live.snapshot()
        live.add_usage([0, 1, 2])
        assert snap.usage[2] == 0.0
        assert live.usage[2] > 0.0
        with pytest.raises(ValueError):
            snap.usage[0] = 99.0

    def test_snapshot_costs_match_map_costs(self, small_graph):
        live = CongestionMap(small_graph)
        live.add_usage(range(100), amount=5.0)
        prices = np.full(small_graph.num_edges, 1.5)
        snap = live.snapshot()
        assert np.array_equal(snap.edge_costs(prices), live.edge_costs(prices))

    def test_restore_and_delta(self, small_graph):
        live = CongestionMap(small_graph)
        live.add_usage([0])
        snap = live.snapshot()
        live.add_usage([5], amount=2.0)
        delta = live.delta_since(snap)
        assert delta[5] == pytest.approx(2.0)
        assert np.count_nonzero(delta) == 1
        live.restore(snap)
        assert np.array_equal(live.usage, snap.usage)

    def test_apply_tree_delta(self, small_graph):
        live = CongestionMap(small_graph)
        live.apply_tree_delta(None, [0, 1])
        before = live.usage.copy()
        live.apply_tree_delta([0, 1], [2, 3])
        assert live.usage[0] == 0.0 and live.usage[2] > 0.0
        live.apply_tree_delta([2, 3], [0, 1])
        assert np.allclose(live.usage, before)


class TestInstancePayload:
    def test_task_payload_roundtrip(self, instance_factory):
        """NetTask.payload (the production producer) feeds from_payload."""
        instance = instance_factory(num_sinks=3, dbif=2.0)
        task = NetTask(
            0,
            instance.root,
            tuple(instance.sinks),
            tuple(instance.weights),
            instance.name,
        )
        rebuilt = SteinerInstance.from_payload(
            instance.graph, task.payload(instance.cost, instance.bifurcation)
        )
        assert rebuilt.root == instance.root
        assert rebuilt.sinks == instance.sinks
        assert rebuilt.weights == instance.weights
        assert np.array_equal(rebuilt.cost, instance.cost)
        assert rebuilt.bifurcation == instance.bifurcation
        assert rebuilt.name == instance.name
        assert rebuilt.signature() == instance.signature()

    def test_signature_sensitivity(self, instance_factory):
        instance = instance_factory(num_sinks=3)
        base = instance.signature()
        assert instance.signature() == base  # deterministic
        bumped_cost = instance.cost.copy()
        bumped_cost[0] += 1.0
        assert instance.with_costs(bumped_cost).signature() != base
        heavier = instance_factory(num_sinks=3)
        heavier.weights[0] += 0.5
        assert heavier.signature() != base

    def test_region_restriction(self, instance_factory):
        instance = instance_factory(num_sinks=2)
        region = np.arange(10)
        base = instance.signature(region_edges=region)
        outside = instance.cost.copy()
        outside[-1] += 7.0  # far outside the region
        assert instance.with_costs(outside).signature(region_edges=region) == base
        inside = instance.cost.copy()
        inside[3] += 7.0
        assert instance.with_costs(inside).signature(region_edges=region) != base

    def test_signature_stable_across_equivalent_payload_round_trips(
        self, instance_factory
    ):
        """Equal-value payloads digest identically however they travelled:
        list vs. tuple containers, float32 vs. float64 cost dtypes, and a
        pickle round-trip (the process-backend wire format) all produce
        the same signature."""
        import pickle

        instance = instance_factory(num_sinks=3, dbif=2.0)
        task = NetTask(
            0, instance.root, tuple(instance.sinks), tuple(instance.weights)
        )
        payload = task.payload(instance.cost, instance.bifurcation)
        base = SteinerInstance.from_payload(instance.graph, payload).signature()

        listy = dict(payload)
        listy["sinks"] = list(payload["sinks"])
        listy["weights"] = list(payload["weights"])
        assert SteinerInstance.from_payload(instance.graph, listy).signature() == base

        downcast = dict(payload)
        downcast["cost"] = payload["cost"].astype(np.float32).astype(np.float64)
        assert (
            SteinerInstance.from_payload(instance.graph, downcast).signature() == base
        )

        pickled = pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        assert SteinerInstance.from_payload(instance.graph, pickled).signature() == base


class TestRerouteCache:
    @pytest.fixture()
    def cache(self, small_graph):
        boxes = [BoundingBox(0, 0, 4, 4), BoundingBox(6, 6, 9, 9)]
        return RerouteCache(small_graph, boxes, scope="bbox")

    def test_hit_after_store(self, cache, small_graph):
        costs = small_graph.base_cost_array()
        sig = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        assert not cache.is_fresh(0, sig)
        cache.store(0, sig)
        assert cache.is_fresh(0, sig)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_far_away_cost_change_keeps_signature(self, cache, small_graph):
        costs = small_graph.base_cost_array()
        sig = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        changed = costs.copy()
        # Bump an edge in the opposite grid corner, above the global minimum
        # so the A*-potential extra does not change either.
        corner_node = small_graph.node_index(9, 9, 0)
        edge_index = small_graph.incident[corner_node][0]
        changed[edge_index] += 3.0
        assert cache.signature(0, 0, [5], [0.2], changed, BifurcationModel()) == sig

    def test_nearby_cost_change_invalidates(self, cache, small_graph):
        costs = small_graph.base_cost_array()
        sig = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        changed = costs.copy()
        edge_index = small_graph.incident[0][0]  # incident to node 0
        changed[edge_index] += 3.0
        assert cache.signature(0, 0, [5], [0.2], changed, BifurcationModel()) != sig

    def test_global_min_cost_drop_invalidates(self, cache, small_graph):
        """Lowering the cheapest routing edge anywhere shifts the oracle's A*
        potentials, so the signature must change even far from the net."""
        costs = small_graph.base_cost_array()
        sig = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        changed = costs.copy()
        routing = np.flatnonzero(~small_graph.edge_is_via)
        changed[routing[-1]] *= 0.5
        assert cache.signature(0, 0, [5], [0.2], changed, BifurcationModel()) != sig

    def test_tree_edges_extend_region(self, cache, small_graph):
        costs = small_graph.base_cost_array()
        # Pick an edge outside box 0 and include it as a tree edge.
        corner_node = small_graph.node_index(9, 9, 0)
        edge_index = small_graph.incident[corner_node][0]
        sig = cache.signature(
            0, 0, [5], [0.2], costs, BifurcationModel(), tree_edges=[edge_index]
        )
        changed = costs.copy()
        changed[edge_index] += 3.0
        new_sig = cache.signature(
            0, 0, [5], [0.2], changed, BifurcationModel(), tree_edges=[edge_index]
        )
        assert new_sig != sig

    def test_invalidate(self, cache, small_graph):
        costs = small_graph.base_cost_array()
        sig = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        cache.store(0, sig)
        cache.invalidate(0)
        assert not cache.is_fresh(0, sig)
        cache.store(0, sig)
        cache.store(1, sig)
        cache.invalidate()
        assert len(cache) == 0

    def test_invalidation_after_apply_tree_delta(self, cache, small_graph):
        """Congestion changes from another net's re-route dirty exactly the
        nets whose priced costs changed inside their bounding region."""
        congestion = CongestionMap(small_graph)
        costs = congestion.edge_costs()
        near = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        far_node = small_graph.node_index(9, 9, 0)
        far = cache.signature(
            1, far_node, [far_node], [0.2], costs, BifurcationModel()
        )
        cache.store(0, near)
        cache.store(1, far)
        # Re-route "another net" through the corner of box 0: push an edge
        # incident to node 0 far over its congestion threshold.
        edge_near_origin = small_graph.incident[0][0]
        capacity = float(small_graph.edge_capacity[edge_near_origin])
        congestion.apply_tree_delta(None, [edge_near_origin] * int(2 * capacity + 2))
        changed = congestion.edge_costs()
        assert not cache.is_fresh(
            0, cache.signature(0, 0, [5], [0.2], changed, BifurcationModel())
        )
        assert cache.is_fresh(
            1, cache.signature(1, far_node, [far_node], [0.2], changed, BifurcationModel())
        )
        # Ripping the tree back up restores the costs and the signature.
        congestion.apply_tree_delta([edge_near_origin] * int(2 * capacity + 2), None)
        restored = congestion.edge_costs()
        assert cache.is_fresh(
            0, cache.signature(0, 0, [5], [0.2], restored, BifurcationModel())
        )

    def test_global_scope_digests_everything(self, small_graph):
        cache = RerouteCache(
            small_graph, [BoundingBox(0, 0, 2, 2)], scope="global"
        )
        costs = small_graph.base_cost_array()
        sig = cache.signature(0, 0, [5], [0.2], costs, BifurcationModel())
        changed = costs.copy()
        changed[-1] += 3.0  # anywhere at all
        assert cache.signature(0, 0, [5], [0.2], changed, BifurcationModel()) != sig

    def test_unknown_scope_rejected(self, small_graph):
        with pytest.raises(ValueError):
            RerouteCache(small_graph, [], scope="galaxy")


_DIGEST_GRAPH = build_grid_graph(8, 8, 3)
_DIGEST_COSTS = _DIGEST_GRAPH.base_cost_array() * (
    1.0 + (np.arange(_DIGEST_GRAPH.num_edges) % 5) / 4.0
)
_coordinate = st.integers(0, 7)
_edge = st.integers(0, _DIGEST_GRAPH.num_edges - 1)


@st.composite
def _box_and_tree(draw):
    """A box plus a tree edge list that is empty, inside the box, outside
    it, or mixed -- duplicates allowed in every non-empty case."""
    xs = sorted((draw(_coordinate), draw(_coordinate)))
    ys = sorted((draw(_coordinate), draw(_coordinate)))
    box = BoundingBox(xs[0], ys[0], xs[1], ys[1])
    region = _DIGEST_GRAPH.box_edges(box)
    outside = np.setdiff1d(np.arange(_DIGEST_GRAPH.num_edges), region)
    pools = {"empty": None, "mixed": _edge}
    if region.size:
        pools["inside"] = st.sampled_from(region.tolist())
    if outside.size:
        pools["outside"] = st.sampled_from(outside.tolist())
    pool = pools[draw(st.sampled_from(sorted(pools)))]
    tree = [] if pool is None else draw(st.lists(pool, min_size=1, max_size=24))
    return box, tree


class TestRegionDigest:
    """The merge-built region digest is the digest ``np.union1d`` gave."""

    @staticmethod
    def _reference(cache, box, tree, costs):
        """The union ``np.union1d`` gives, and the signature of its SHA-1."""
        union = np.union1d(_DIGEST_GRAPH.box_edges(box), np.asarray(tree, dtype=np.int64))
        digest = hashlib.sha1(np.ascontiguousarray(costs[union]).tobytes()).digest()
        return union, instance_signature(
            0, [5], [0.2], costs, BifurcationModel(),
            extras=[cache.global_cost_floor(costs)], cost_digest=digest,
        )

    @settings(max_examples=150, deadline=None)
    @given(_box_and_tree(), _edge)
    def test_matches_union1d_and_tracks_cost_changes(self, box_and_tree, bumped):
        box, tree = box_and_tree
        cache = RerouteCache(_DIGEST_GRAPH, [box], scope="bbox")

        def sign(costs):
            return cache.signature(0, 0, [5], [0.2], costs, BifurcationModel(), tree_edges=tree)

        union, expected = self._reference(cache, box, tree, _DIGEST_COSTS)
        assert sign(_DIGEST_COSTS) == expected
        merged = cache._region_with_tree(0, tree)
        assert merged.dtype == union.dtype and np.array_equal(merged, union)

        # Many edges share the minimum cost, so one bump leaves the floor
        # alone: the signature moves exactly when the bumped edge lies in
        # the region/tree union.
        changed = _DIGEST_COSTS.copy()
        changed[bumped] += 1.0
        after = sign(changed)
        assert after == self._reference(cache, box, tree, changed)[1]
        assert (after != expected) == bool(np.isin(bumped, union))

    def test_tree_inside_the_box_shares_the_region_array(self):
        box = BoundingBox(1, 1, 5, 5)
        cache = RerouteCache(_DIGEST_GRAPH, [box], scope="bbox")
        region = cache.region_edges(0)
        assert cache._region_with_tree(0, ()) is region
        assert cache._region_with_tree(0, [int(region[2]), int(region[2])]) is region
        assert not region.flags.writeable

    def test_golden_signature_bytes(self):
        """Signature bytes as the commit before the merge-built digests
        wrote them (v2 checkpoints and replay memos carry these bytes)."""
        graph = build_grid_graph(10, 10, 4)
        cache = RerouteCache(graph, [BoundingBox(2, 2, 5, 5)], scope="bbox")
        costs = graph.base_cost_array() * (1.0 + (np.arange(graph.num_edges) % 7) / 8.0)
        inside = cache.region_edges(0)
        tree = [int(inside[3]), int(inside[3]), int(inside[40]), 0, graph.num_edges - 1, 5]
        root = graph.node_index(2, 2, 0)
        sinks = [graph.node_index(5, 5, 0), graph.node_index(3, 4, 1)]
        model = BifurcationModel(dbif=2.0, eta=0.25)
        golden = {
            (): "a1a577f31a57dfb6067f82a2c842937f7b735b02",
            tuple(tree): "45e5a5a6fdfd73735847a9ef5532de37785a297d",
        }
        for edges, expected in golden.items():
            signature = cache.signature(
                0, root, sinks, [0.25, 1.5], costs, model, tree_edges=edges
            )
            assert signature.hex() == expected

    @pytest.mark.parametrize(
        "dims, expected",
        [
            ((10, 10, 4), "4320d13f929304c7ced3e8c126f6a08b4cb3c419"),  # one chunk
            ((24, 24, 6), "7da9156436386829e73c1e0b5389fddf0556898e"),  # two chunks
        ],
    )
    def test_golden_global_signature_bytes(self, dims, expected):
        """Global-scope bytes as the commit before the digests became
        stateless wrote them (same nets and cost pattern as the bbox goldens)."""
        graph = build_grid_graph(*dims)
        cache = RerouteCache(graph, [BoundingBox(2, 2, 5, 5)], scope="global")
        costs = graph.base_cost_array() * (1.0 + (np.arange(graph.num_edges) % 7) / 8.0)
        root = graph.node_index(2, 2, 0)
        sinks = [graph.node_index(5, 5, 0), graph.node_index(3, 4, 1)]
        model = BifurcationModel(dbif=2.0, eta=0.25)
        signature = cache.signature(0, root, sinks, [0.25, 1.5], costs, model)
        assert signature.hex() == expected

    def test_region_arrays_are_shared_per_graph_and_pruned_to_live_boxes(self):
        graph = build_grid_graph(8, 8, 3)
        kept, dropped = BoundingBox(0, 0, 3, 3), BoundingBox(4, 4, 7, 7)
        first = RerouteCache(graph, [kept, dropped], scope="bbox")
        arrays = [first.region_edges(0), first.region_edges(1)]
        second = RerouteCache(graph, [kept], scope="bbox")
        assert second.region_edges(0) is arrays[0]
        assert list(graph._box_edges) == [kept]
        # A full-vector cache never reads regions and prunes nothing.
        RerouteCache(graph, [], scope="global")
        assert list(graph._box_edges) == [kept]


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(scheduling="nope")
        with pytest.raises(ValueError):
            EngineConfig(cache_scope="nope")
        with pytest.raises(ValueError):
            EngineConfig(num_workers=0)

    def test_unknown_backend_rejected_at_router_construction(self):
        graph = build_grid_graph(10, 10, 4)
        with pytest.raises(ValueError):
            GlobalRouter(
                graph,
                tiny_netlist(),
                CostDistanceSolver(),
                GlobalRouterConfig(engine=EngineConfig(backend="gpu")),
            )


class TestEngineIntegration:
    DIMS = (10, 10, 4)

    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_router(self.DIMS, EngineConfig())

    def test_serial_baseline_routes_everything(self, serial_result):
        router, result = serial_result
        assert all(tree is not None for tree in router.trees)
        assert result.num_nets == 4
        reports = router.engine.round_reports
        assert [r.nets_routed for r in reports] == [4, 4]

    def test_process_backend_parity(self, serial_result):
        _, expected = serial_result
        _, actual = run_router(
            self.DIMS, EngineConfig(backend="process", num_workers=2)
        )
        assert result_key(actual) == result_key(expected)

    def test_cache_parity_and_hits(self, serial_result):
        _, expected = serial_result
        two_round = run_router(self.DIMS, EngineConfig(reroute_cache=True))[1]
        assert result_key(two_round) == result_key(expected)
        router, _ = run_router(
            self.DIMS, EngineConfig(reroute_cache=True), num_rounds=3
        )
        assert router.engine.cache is not None
        assert router.engine.cache.stats.lookups > 0

    def test_cache_global_scope_parity(self, serial_result):
        _, expected = serial_result
        _, actual = run_router(
            self.DIMS, EngineConfig(reroute_cache=True, cache_scope="global")
        )
        assert result_key(actual) == result_key(expected)

    def test_bbox_scheduling_backend_parity(self):
        _, serial = run_router(self.DIMS, EngineConfig(scheduling="bbox"))
        _, process = run_router(
            self.DIMS,
            EngineConfig(scheduling="bbox", backend="process", num_workers=2),
        )
        assert result_key(serial) == result_key(process)

    def test_cache_scope_upgrades_for_nonlocal_oracles(self):
        """bbox scope is only honoured for oracles whose trees depend on
        region-local costs; others are upgraded to exact signatures."""
        from repro.baselines.shallow_light import ShallowLightOracle
        from repro.core.cost_distance import CostDistanceConfig

        graph = build_grid_graph(*self.DIMS)
        config = GlobalRouterConfig(engine=EngineConfig(reroute_cache=True))
        cases = [
            (CostDistanceSolver(), "bbox"),
            (CostDistanceSolver(CostDistanceConfig(num_landmarks=4)), "global"),
            (ShallowLightOracle(), "global"),
        ]
        for oracle, expected_scope in cases:
            router = GlobalRouter(graph, tiny_netlist(), oracle, config)
            assert router.engine.cache.scope == expected_scope, oracle.name

    @pytest.mark.parametrize("reroute_cache", [False, True])
    def test_route_round_fills_trees_in_place(self, reroute_cache):
        """A round writes every net's tree into the caller's list and
        returns nothing."""
        graph = build_grid_graph(*self.DIMS)
        netlist = tiny_netlist()
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(engine=EngineConfig(reroute_cache=reroute_cache)),
        )
        with router.engine:
            assert router.engine.route_round(0, router.trees) is None
        for net, tree in zip(netlist.nets, router.trees):
            assert tree is not None and tree.graph is graph
            assert len(tree.sinks) == len(net.sinks)

    def test_route_single_net_uses_stable_rng(self):
        graph = build_grid_graph(*self.DIMS)
        router_a = GlobalRouter(graph, tiny_netlist(), CostDistanceSolver())
        router_b = GlobalRouter(graph, tiny_netlist(), CostDistanceSolver())
        tree_a = router_a.route_single_net(0)
        tree_b = router_b.route_single_net(0)
        assert tree_a.edges == tree_b.edges
