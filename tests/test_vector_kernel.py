"""Parity battery and transport tests for the vectorized routing-state kernel.

The vectorized fast paths (numpy congestion kernels, the batch-level
:class:`~repro.core.costctx.OracleCostContext`) promise **bit-exact** results --
any speedup that changes a single bit is a bug; cost digests are pure
functions of the vector they hash, and a region's round state travels as
two plain arrays.  These tests drive the
vectorized kernel head-to-head against the retained scalar reference in
:mod:`repro.grid.reference` with exact float equality, plus regression
tests for the bugfixes that rode along (atomic ``remove_usage``, ``ace``
percent validation before the empty-input return, copy-free ndarray input).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bifurcation import BifurcationModel
from repro.core.cost_distance import CostDistanceSolver
from repro.core.costctx import OracleCostContext
from repro.core.future_cost import FutureCostEstimator
from repro.engine.cache import RerouteCache
from repro.engine.engine import EngineConfig
from repro.engine.scheduler import BoundingBox
from repro.grid import reference
from repro.grid.congestion import CongestionMap, _as_float_array, ace, ace4
from repro.grid.geometry import GridPoint
from repro.grid.graph import build_grid_graph
from repro.router.netlist import Net, Netlist, Pin, Stage
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.shard.executor import RegionTask


# ---------------------------------------------------------------- parity
class TestKernelParity:
    """Random edge-delta sequences: vectorized kernel vs scalar reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_delta_sequences(self, small_graph, seed):
        rng = np.random.default_rng(seed)
        vec = CongestionMap(small_graph)
        ref = CongestionMap(small_graph)
        applied = []  # (edges, amount) deltas currently on both maps
        for _ in range(60):
            op = int(rng.integers(0, 4))
            if op < 2 or not applied:
                # add: base-cost amounts (op 0) or explicit dyadic (op 1)
                edges = rng.integers(0, small_graph.num_edges, size=int(rng.integers(1, 32)))
                amount = None if op == 0 else float(rng.integers(1, 8)) * 0.25
                vec.add_usage(edges, amount=amount)
                reference.scalar_add_usage(ref, edges, amount)
                applied.append((edges, amount))
            elif op == 2:
                # remove a previously applied delta from both maps
                edges, amount = applied.pop(int(rng.integers(0, len(applied))))
                vec.remove_usage(edges, amount=amount)
                reference.scalar_remove_usage(ref, edges, amount)
            else:
                # tree-delta roundtrip through the convenience wrapper
                i = int(rng.integers(0, len(applied)))
                edges, amount = applied[i]
                if amount is None:
                    new = rng.integers(0, small_graph.num_edges, size=edges.size)
                    vec.apply_tree_delta(edges, new)
                    reference.scalar_remove_usage(ref, edges)
                    reference.scalar_add_usage(ref, new)
                    applied[i] = (new, None)
            assert np.array_equal(vec.usage, ref.usage)
        # Every derived metric must agree bit-for-bit, not approximately.
        prices = np.exp(rng.uniform(0.0, 0.5, size=small_graph.num_edges))
        assert np.array_equal(vec.edge_costs(), ref.edge_costs())
        assert np.array_equal(vec.edge_costs(prices), ref.edge_costs(prices))
        assert vec.overflow() == ref.overflow()
        assert np.array_equal(vec.wire_congestion(), ref.wire_congestion())
        assert vec.ace4() == ref.ace4()
        assert vec.ace4() == reference.scalar_ace4(list(vec.wire_congestion()))

    @pytest.mark.parametrize("seed", range(4))
    def test_ace_parity_on_random_values(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 400)))
        for percent in (0.5, 1.0, 2.0, 5.0, 37.5, 100.0):
            assert ace(values, percent) == reference.scalar_ace(values, percent)
        assert ace4(values) == reference.scalar_ace4(values)

    def test_tree_metrics_parity(self, small_graph):
        solver = CostDistanceSolver()
        from conftest import make_instance

        for seed in range(4):
            inst = make_instance(small_graph, num_sinks=4, seed=seed)
            tree = solver.solve(inst)
            cost = small_graph.base_cost_array()
            assert tree.wire_length() == reference.scalar_wire_length(tree)
            assert tree.via_count() == reference.scalar_via_count(tree)
            assert tree.congestion_cost(cost) == reference.scalar_congestion_cost(tree, cost)


# ---------------------------------------------- atomic remove regression
class TestAtomicRemove:
    def test_rejected_delta_leaves_map_unchanged(self, small_graph):
        cmap = CongestionMap(small_graph)
        cmap.add_usage([0, 1, 2])
        before = cmap.usage.copy()
        # Edge 1 is over-removed; edge 0 alone would have been fine.  The
        # old per-edge loop subtracted edge 0 before raising on edge 1.
        with pytest.raises(ValueError, match="edge 1"):
            cmap.remove_usage([0, 1, 1, 1])
        assert np.array_equal(cmap.usage, before)

    def test_scalar_reference_matches_atomic_semantics(self, small_graph):
        cmap = CongestionMap(small_graph)
        reference.scalar_add_usage(cmap, [0, 1, 2])
        before = cmap.usage.copy()
        with pytest.raises(ValueError, match="edge 1"):
            reference.scalar_remove_usage(cmap, [0, 1, 1, 1])
        assert np.array_equal(cmap.usage, before)

    def test_valid_removals_still_clamp_to_zero(self, small_graph):
        cmap = CongestionMap(small_graph)
        cmap.add_usage([3], amount=1.0)
        cmap.remove_usage([3], amount=1.0)
        assert cmap.usage[3] == 0.0


# ------------------------------------------------- ace input validation
class TestAceInputHandling:
    def test_invalid_percent_rejected_even_on_empty_input(self):
        # Regression: validation must run before the empty-input early
        # return -- ace([], 500) used to silently succeed.
        with pytest.raises(ValueError):
            ace([], 500)
        with pytest.raises(ValueError):
            ace([], 0.0)
        assert ace([], 50.0) == 0.0

    def test_float64_ndarray_is_not_copied(self):
        values = np.linspace(0.0, 1.0, 64)
        assert np.shares_memory(_as_float_array(values), values)

    def test_other_dtypes_are_converted(self):
        values = np.arange(8, dtype=np.int32)
        out = _as_float_array(values)
        assert out.dtype == np.float64
        assert np.array_equal(out, values.astype(np.float64))

    def test_ndarray_and_list_agree(self):
        values = np.linspace(0.0, 2.0, 97)
        assert ace(values, 5.0) == ace(list(values), 5.0)
        assert ace4(values) == ace4(list(values))


# ------------------------------------------------------ oracle context
class TestOracleCostContext:
    def test_identity_guard(self, small_graph):
        cost = small_graph.base_cost_array()
        ctx = OracleCostContext(small_graph, cost)
        assert ctx.covers(ctx.cost)
        assert not ctx.covers(ctx.cost.copy())

    def test_contiguous_float64_is_not_copied(self, small_graph):
        cost = np.ascontiguousarray(small_graph.base_cost_array(), dtype=np.float64)
        ctx = OracleCostContext(small_graph, cost)
        assert ctx.cost is cost

    def test_cost_floor_matches_cache_and_estimator(self, small_graph):
        cost = small_graph.base_cost_array() * 1.25
        ctx = OracleCostContext(small_graph, cost)
        cache = RerouteCache(small_graph, [])
        assert ctx.cost_floor() == cache.global_cost_floor(cost)
        est = FutureCostEstimator(small_graph, cost_lower_bound=ctx.cost, num_landmarks=0)
        assert ctx.cost_floor() == est.min_cost_per_tile

    def test_validate_rejects_negative(self, small_graph):
        cost = small_graph.base_cost_array()
        cost = cost.copy()
        cost[0] = -1.0
        ctx = OracleCostContext(small_graph, cost)
        with pytest.raises(ValueError):
            ctx.validate()

    def test_cost_list_is_memoised(self, small_graph):
        ctx = OracleCostContext(small_graph, small_graph.base_cost_array())
        assert ctx.cost_list() is ctx.cost_list()


# ------------------------------------------------------------ digests
_PURITY_GRAPH = build_grid_graph(24, 24, 6)  # 7296 edges: two digest chunks
_PURITY_BOXES = [BoundingBox(0, 0, 4, 4), BoundingBox(2, 2, 9, 9), BoundingBox(10, 3, 20, 8)]
_edge = st.integers(0, _PURITY_GRAPH.num_edges - 1)


class TestIncrementalDigests:
    def test_global_digest_is_pure_function_of_vector(self, small_graph):
        v0 = small_graph.base_cost_array().copy()
        v1 = v0 * 1.5
        fresh = RerouteCache(small_graph, [])
        warmed = RerouteCache(small_graph, [])
        warmed.global_cost_digest(v0)  # different history
        assert warmed.global_cost_digest(v1) == fresh.global_cost_digest(v1)

    def test_global_digest_tracks_changes(self, small_graph):
        cache = RerouteCache(small_graph, [])
        v0 = small_graph.base_cost_array().copy()
        d0 = cache.global_cost_digest(v0)
        v1 = v0.copy()
        v1[7] *= 2.0
        assert cache.global_cost_digest(v1) != d0
        v2 = v0.copy()
        assert cache.global_cost_digest(v2) == d0

    def test_region_signature_ignores_far_edges(self, small_graph):
        cache = RerouteCache(small_graph, [BoundingBox(0, 0, 4, 4)])
        costs = small_graph.base_cost_array().copy()
        bif = BifurcationModel()

        def sig(c):
            return cache.signature(0, 0, [5], [0.2], c, bif)

        base = sig(costs)
        assert sig(costs) == base  # stable
        region = cache.region_edges(0)
        outside = np.setdiff1d(np.arange(small_graph.num_edges), region)
        assert outside.size and region.size
        far = costs.copy()
        far[outside[0]] *= 3.0
        assert sig(far) == base  # change outside the region: signature holds
        near = costs.copy()
        near[region[0]] *= 3.0
        assert sig(near) != base  # change inside the region: signature moves

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["bbox", "global"]),
        st.lists(
            st.tuples(
                st.integers(0, 2),  # which net signs
                st.lists(st.tuples(_edge, st.sampled_from([0.5, 2.0, 3.0])), max_size=6),
                st.lists(_edge, max_size=5),  # the tree the net carries
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_incremental_signatures_history_independent(self, scope, steps):
        """Whatever vectors, nets and trees a cache signed before, its
        signature equals a fresh cache's on the same inputs: a digest is a
        pure function of the current vector."""
        bif = BifurcationModel()
        used = RerouteCache(_PURITY_GRAPH, _PURITY_BOXES, scope=scope)
        costs = _PURITY_GRAPH.base_cost_array().copy()
        for net, bumps, tree in steps:
            costs = costs.copy()
            for edge, factor in bumps:
                costs[edge] *= factor
            last = used.signature(net, 0, [5], [0.2], costs, bif, tree_edges=tree)
        fresh = RerouteCache(_PURITY_GRAPH, _PURITY_BOXES, scope=scope)
        assert last == fresh.signature(net, 0, [5], [0.2], costs, bif, tree_edges=tree)


# ------------------------------------------------- end-to-end parity
def _tiny_netlist():
    nets = [
        Net("n0", Pin("n0:d", GridPoint(0, 0, 0)),
            [Pin("n0:s0", GridPoint(4, 1, 0)), Pin("n0:s1", GridPoint(2, 5, 0))]),
        Net("n1", Pin("n1:d", GridPoint(4, 1, 0)), [Pin("n1:s0", GridPoint(7, 7, 0))]),
        Net("n2", Pin("n2:d", GridPoint(1, 6, 0)), [Pin("n2:s0", GridPoint(6, 3, 0))]),
        Net("n3", Pin("n3:d", GridPoint(8, 8, 0)), [Pin("n3:s0", GridPoint(9, 9, 0))]),
    ]
    stages = [Stage(0, 0, 1, cell_delay=5.0)]
    return Netlist("tiny", nets, stages, clock_period=60.0)


def _route_once(engine_config):
    graph = build_grid_graph(10, 10, 4)
    router = GlobalRouter(
        graph,
        _tiny_netlist(),
        CostDistanceSolver(),
        GlobalRouterConfig(num_rounds=3, engine=engine_config),
    )
    result = router.run()
    return (
        result.worst_slack,
        result.total_negative_slack,
        result.ace4,
        result.wire_length,
        result.via_count,
        result.overflow,
        result.objective,
    )


class TestReferenceKernelParity:
    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(scheduling="bbox", reroute_cache=True),
            EngineConfig(reroute_cache=True, cache_scope="global"),
        ],
        ids=["bbox-cache", "global-cache"],
    )
    def test_vectorized_and_reference_routes_identical(self, config):
        fast = _route_once(config)
        with reference.install_reference_kernel():
            slow = _route_once(config)
        assert fast == slow

    def test_install_reference_kernel_restores_patches(self):
        from repro.engine.executor import BatchExecutor

        add = CongestionMap.add_usage
        remove = CongestionMap.remove_usage
        make_context = BatchExecutor.make_context
        with reference.install_reference_kernel():
            assert CongestionMap.add_usage is not add
        assert CongestionMap.add_usage is add
        assert CongestionMap.remove_usage is remove
        assert BatchExecutor.make_context is make_context


# ------------------------------------------------- region-state transport
class TestRegionTaskTransport:
    def test_pickle_roundtrip_carries_both_arrays(self):
        usage = np.linspace(0.0, 1.0, 8)
        prices = np.linspace(1.0, 2.0, 8)
        task = RegionTask(
            key="r1", round_index=2, usage=usage, edge_prices=prices,
            weights=((0.5,),), trees=(None,),
        )
        got = pickle.loads(pickle.dumps(task))
        assert np.array_equal(got.usage, usage) and got.usage.dtype == np.float64
        assert np.array_equal(got.edge_prices, prices)
        assert (got.key, got.round_index, got.weights, got.trees) == (
            "r1", 2, ((0.5,),), (None,)
        )
