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
from repro.engine.engine import EngineConfig, RoutingEngine, net_instance
from repro.engine.rng import derive_net_rng_for_name
from repro.engine.scheduler import BoundingBox, NetScheduler
from repro.grid.congestion import CongestionMap
from repro.grid.geometry import GridPoint
from repro.grid.graph import build_grid_graph
from repro.router.netlist import Net, Netlist, Pin, Stage
from repro.router.oracles import ORACLES
from repro.router.resource_sharing import ResourceSharingPrices
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


def make_engine(graph, netlist, oracle, seed=0, net_indices=None):
    """A plain engine (one batch holds every net of ``tiny_netlist``) with
    its own congestion map and prices, and the batch's cost vector."""
    congestion = CongestionMap(graph)
    prices = ResourceSharingPrices(graph, [net.num_sinks for net in netlist.nets])
    engine = RoutingEngine(
        graph, netlist, oracle, BifurcationModel(), congestion, prices, seed,
        cost_refresh_interval=8, net_indices=net_indices,
    )
    return engine, congestion.edge_costs(prices.edge_prices)


class TestRouteRound:
    """The engine routes each batch itself, net by net."""

    def test_routes_every_net(self, small_graph):
        netlist = tiny_netlist()
        engine, _costs = make_engine(small_graph, netlist, CostDistanceSolver())
        trees = [None] * netlist.num_nets
        engine.route_round(0, trees)
        assert engine.round_reports[-1].nets_routed == netlist.num_nets
        for net_index, tree in enumerate(trees):
            root, sinks = netlist.net_terminals(small_graph, net_index)
            tree.validate(root, sinks)

    def test_empty_batch_routes_nothing(self, small_graph):
        class NoOracle(CostDistanceSolver):
            def build(self, instance, rng=None):
                raise AssertionError("no net to route")

        netlist = tiny_netlist()
        engine, _costs = make_engine(small_graph, netlist, NoOracle(), net_indices=[])
        trees = [None] * netlist.num_nets
        engine.route_round(0, trees)
        assert trees == [None] * netlist.num_nets
        assert not engine.congestion.usage.any()
        assert engine.round_reports[-1].nets_routed == 0

    def test_each_tree_is_the_oracle_call_on_its_own_stream(self, small_graph):
        """Each tree equals a direct oracle call on the net's instance and
        name-keyed RNG stream, whatever else the batch holds."""

        class Recording(CostDistanceSolver):
            streams = {}

            def build(self, instance, rng=None):
                self.streams[instance.name] = rng.getstate()
                return super().build(instance, rng)

        netlist = tiny_netlist()
        oracle = Recording()
        engine, costs = make_engine(small_graph, netlist, oracle, seed=7)
        together = [None] * netlist.num_nets
        engine.route_round(0, together)
        assert oracle.streams == {
            f"{netlist.name}/{net.name}": derive_net_rng_for_name(7, net.name).getstate()
            for net in netlist.nets
        }
        for net_index, net in enumerate(netlist.nets):
            instance = net_instance(
                small_graph, netlist, engine.prices, engine.bifurcation, net_index,
                costs, small_graph.delay_array(),
            )
            direct = oracle.build(instance, derive_net_rng_for_name(7, net.name))
            alone_engine, _costs = make_engine(
                small_graph, netlist, oracle, seed=7, net_indices=[net_index]
            )
            alone = [None] * netlist.num_nets
            alone_engine.route_round(0, alone)
            assert together[net_index].edges == direct.edges == alone[net_index].edges

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_every_oracle_installs_int_trees(self, name):
        """The engine installs each oracle's tree as it is: an ``int`` root
        and tuples of ``int`` sinks and edges, on the engine's graph (what a
        TreeRecord round trip would have produced)."""
        from repro.instances.chips import CHIP_SUITE, build_chip

        graph, netlist = build_chip(CHIP_SUITE[0])
        router = GlobalRouter(graph, netlist, ORACLES[name](), GlobalRouterConfig(num_rounds=1))
        router.run()
        assert all(tree is not None for tree in router.trees)
        for tree in router.trees:
            assert tree.graph is graph
            assert type(tree.root) is int
            assert type(tree.sinks) is tuple and type(tree.edges) is tuple
            assert all(type(node) is int for node in tree.sinks)
            assert all(type(edge) is int for edge in tree.edges)
            assert tree.method == name


class TestTrace:
    """Every solve stays visible in the trace."""

    def test_solves_are_visible_in_the_trace(self, tmp_path):
        from repro import obs
        from repro.instances.chips import CHIP_SUITE, build_chip
        from repro.obs.summary import load_trace

        graph, netlist = build_chip(CHIP_SUITE[0])
        registry = obs.MetricsRegistry()
        obs.configure_tracing(str(tmp_path / "trace.jsonl"))
        try:
            with obs.use_registry(registry):
                router = GlobalRouter(
                    graph, netlist, CostDistanceSolver(),
                    GlobalRouterConfig(num_rounds=2, dbif=None),
                )
                router.run()
        finally:
            obs.close_tracing()
        counters = registry.snapshot()["counters"]
        records = load_trace(str(tmp_path / "trace.jsonl"))
        spans = {r["span_id"]: r for r in records if r["type"] == "span"}
        nets = [r for r in records if r["type"] == "event" and r["name"] == "net"]
        # One event per oracle call, each under its batch span.
        assert len(nets) == counters["engine.oracle_calls"] == 2 * router.netlist.num_nets
        assert all(spans[event["parent_id"]]["name"] == "batch" for event in nets)
        assert all(event["attrs"]["seconds"] > 0 for event in nets)


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


class TestInstanceSignature:
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

    def test_signature_stable_across_equivalent_inputs(self, instance_factory):
        """Equal-value instance inputs digest identically however they
        travelled: list vs. tuple containers, a float32-rounded cost vector
        and a pickle round trip all produce the same signature."""
        import pickle

        instance = instance_factory(num_sinks=3, dbif=2.0)
        graph = instance.graph

        def signature(root, sinks, weights, cost, bifurcation):
            return SteinerInstance(
                graph, root, sinks, weights, cost, instance.delay, bifurcation
            ).signature()

        inputs = (
            instance.root,
            tuple(instance.sinks),
            tuple(instance.weights),
            instance.cost,
            instance.bifurcation,
        )
        base = signature(*inputs)
        assert base == instance.signature()

        root, sinks, weights, cost, bifurcation = inputs
        assert signature(root, list(sinks), list(weights), cost, bifurcation) == base

        rounded = cost.astype(np.float32)
        assert signature(root, sinks, weights, rounded, bifurcation) == base
        assert signature(root, sinks, weights, rounded.astype(np.float64), bifurcation) == base

        pickled = pickle.loads(pickle.dumps(inputs, pickle.HIGHEST_PROTOCOL))
        assert signature(*pickled) == base


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

    def test_backend_option_is_gone(self):
        """Where a batch runs is the engine's decision, not an option."""
        with pytest.raises(TypeError, match="backend"):
            EngineConfig(backend="process")  # type: ignore[call-arg]

    def test_num_workers_option_is_gone(self):
        """Batches run in-process; parallelism is the region pool's."""
        with pytest.raises(TypeError, match="num_workers"):
            EngineConfig(num_workers=2)  # type: ignore[call-arg]


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
