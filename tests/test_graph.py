"""Tests for the 3D routing graph."""

import gc
import pickle
import tracemalloc
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost_distance import CostDistanceSolver
from repro.grid.geometry import BoundingBox, GridPoint
from repro.grid.graph import (
    EDGE_ARRAYS,
    VIA_BASE_COST,
    VIA_CAPACITY,
    _inside_box,
    build_grid_graph,
    extract_prism,
)
from repro.grid.layers import default_layer_stack
from repro.instances.chips import CHIP_SUITE, large_chip
from repro.router.router import GlobalRouter, GlobalRouterConfig


def reference_build(self):
    """The historical per-edge loop builder of ``RoutingGraph._build``, kept
    verbatim (``self`` is the built graph): its nine edge arrays by name and
    its adjacency, ``[[(edge, other), ...] per node]``."""
    edge_u: List[int] = []
    edge_v: List[int] = []
    edge_layer: List[int] = []
    edge_wire_type: List[int] = []
    edge_length: List[float] = []
    edge_delay: List[float] = []
    edge_base_cost: List[float] = []
    edge_capacity: List[float] = []
    edge_is_via: List[bool] = []

    def add_edge(u, v, layer, wire_type, length, delay, base_cost, capacity, is_via):
        edge_u.append(u)
        edge_v.append(v)
        edge_layer.append(layer)
        edge_wire_type.append(wire_type)
        edge_length.append(length)
        edge_delay.append(delay)
        edge_base_cost.append(base_cost)
        edge_capacity.append(capacity)
        edge_is_via.append(is_via)

    dm = self.delay_model
    # Routing edges along each layer's preferred direction.
    for layer in self.stack:
        z = layer.index
        for wt_index, wire_type in enumerate(layer.wire_types):
            delay = dm.wire_delay(z, wire_type.name, 1.0)
            base_cost = wire_type.track_usage
            capacity = float(layer.tracks_per_tile)
            if layer.direction == "H":
                for y in range(self.ny):
                    for x in range(self.nx - 1):
                        add_edge(
                            self.node_index(x, y, z),
                            self.node_index(x + 1, y, z),
                            z, wt_index, 1.0, delay, base_cost, capacity, False,
                        )
            else:
                for y in range(self.ny - 1):
                    for x in range(self.nx):
                        add_edge(
                            self.node_index(x, y, z),
                            self.node_index(x, y + 1, z),
                            z, wt_index, 1.0, delay, base_cost, capacity, False,
                        )
    # Via edges between adjacent layers.
    for z in range(self.num_layers - 1):
        via_delay = dm.via_delay(z)
        for y in range(self.ny):
            for x in range(self.nx):
                add_edge(
                    self.node_index(x, y, z),
                    self.node_index(x, y, z + 1),
                    z, -1, 0.0, via_delay, VIA_BASE_COST, VIA_CAPACITY, True,
                )

    arrays = {
        "edge_u": np.asarray(edge_u, dtype=np.int32),
        "edge_v": np.asarray(edge_v, dtype=np.int32),
        "edge_layer": np.asarray(edge_layer, dtype=np.int16),
        "edge_wire_type": np.asarray(edge_wire_type, dtype=np.int16),
        "edge_length": np.asarray(edge_length, dtype=np.float64),
        "edge_delay": np.asarray(edge_delay, dtype=np.float64),
        "edge_base_cost": np.asarray(edge_base_cost, dtype=np.float64),
        "edge_capacity": np.asarray(edge_capacity, dtype=np.float64),
        "edge_is_via": np.asarray(edge_is_via, dtype=bool),
    }

    adjacency = [[] for _ in range(self.num_nodes)]
    for e in range(len(edge_u)):
        u = edge_u[e]
        v = edge_v[e]
        adjacency[u].append((e, v))
        adjacency[v].append((e, u))
    return arrays, adjacency


def reference_prism(graph, xlo, ylo, xhi, yhi):
    """The historical per-edge loop of ``extract_prism``, kept verbatim: the
    sub-graph's edge arrays by name, its adjacency and ``edge_to_global``."""
    tiles = graph.nx * graph.ny
    u = np.asarray(graph.edge_u, dtype=np.int64)
    v = np.asarray(graph.edge_v, dtype=np.int64)
    lu, rest_u = np.divmod(u, tiles)
    yu, xu = np.divmod(rest_u, graph.nx)
    lv, rest_v = np.divmod(v, tiles)
    yv, xv = np.divmod(rest_v, graph.nx)
    inside = _inside_box(xu, yu, xv, yv, xlo, ylo, xhi, yhi)
    edge_to_global = np.flatnonzero(inside).astype(np.int64)

    snx = xhi - xlo + 1
    sny = yhi - ylo + 1
    sub_u = (lu[inside] * sny + (yu[inside] - ylo)) * snx + (xu[inside] - xlo)
    sub_v = (lv[inside] * sny + (yv[inside] - ylo)) * snx + (xv[inside] - xlo)
    arrays = {"edge_u": sub_u.astype(np.int32), "edge_v": sub_v.astype(np.int32)}
    for name in EDGE_ARRAYS[2:]:
        arrays[name] = getattr(graph, name)[inside].copy()
    adjacency = [[] for _ in range(snx * sny * graph.num_layers)]
    for e, (a, b) in enumerate(zip(sub_u.tolist(), sub_v.tolist())):
        adjacency[a].append((e, b))
        adjacency[b].append((e, a))
    return arrays, adjacency, edge_to_global


def assert_matches_reference(graph, arrays, adjacency):
    """Byte-equal edge arrays and order-equal ``incident``/``neighbours``."""
    for name in EDGE_ARRAYS:
        ours, theirs = getattr(graph, name), arrays[name]
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    assert graph.incident == tuple(tuple(e for e, _ in pairs) for pairs in adjacency)
    assert graph.neighbours == tuple(tuple(o for _, o in pairs) for pairs in adjacency)


class TestIndexing:
    def test_node_index_roundtrip(self, small_graph):
        g = small_graph
        for x, y, z in [(0, 0, 0), (9, 9, 3), (3, 7, 2)]:
            idx = g.node_index(x, y, z)
            assert g.node_point(idx) == GridPoint(x, y, z)

    def test_node_index_out_of_range(self, small_graph):
        with pytest.raises(IndexError):
            small_graph.node_index(10, 0, 0)
        with pytest.raises(IndexError):
            small_graph.node_index(0, 0, 4)
        with pytest.raises(IndexError):
            small_graph.node_point(small_graph.num_nodes)

    def test_point_index(self, small_graph):
        p = GridPoint(2, 3, 1)
        assert small_graph.node_point(small_graph.point_index(p)) == p

    def test_node_planar_matches_node_point(self, small_graph):
        for idx in range(0, small_graph.num_nodes, 37):
            point = small_graph.node_point(idx)
            assert small_graph.node_planar(idx) == (point.x, point.y)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_node_count(self, nx, ny, nz):
        g = build_grid_graph(nx, ny, nz)
        assert g.num_nodes == nx * ny * nz


class TestStructure:
    def test_edge_counts(self):
        g = build_grid_graph(4, 5, 3)
        expected_routing = 0
        for layer in g.stack:
            per_wire = (4 - 1) * 5 if layer.direction == "H" else 4 * (5 - 1)
            expected_routing += per_wire * len(layer.wire_types)
        expected_vias = 4 * 5 * (3 - 1)
        assert g.num_edges == expected_routing + expected_vias

    def test_routing_edges_follow_layer_direction(self, small_graph):
        g = small_graph
        for e in range(0, g.num_edges, 13):
            edge = g.edge(e)
            if edge.is_via:
                continue
            pu, pv = g.node_point(edge.u), g.node_point(edge.v)
            assert pu.layer == pv.layer == edge.layer
            direction = g.stack[edge.layer].direction
            if direction == "H":
                assert abs(pu.x - pv.x) == 1 and pu.y == pv.y
            else:
                assert abs(pu.y - pv.y) == 1 and pu.x == pv.x

    def test_via_edges_connect_adjacent_layers(self, small_graph):
        g = small_graph
        for e in range(g.num_edges):
            edge = g.edge(e)
            if not edge.is_via:
                continue
            pu, pv = g.node_point(edge.u), g.node_point(edge.v)
            assert (pu.x, pu.y) == (pv.x, pv.y)
            assert abs(pu.layer - pv.layer) == 1
            assert edge.length == 0.0

    def test_adjacency_is_symmetric(self, small_graph):
        g = small_graph
        for node in range(0, g.num_nodes, 17):
            for edge, other in g.neighbors(node):
                assert g.other_endpoint(edge, node) == other
                assert any(e == edge for e, _ in g.neighbors(other))

    def test_other_endpoint_rejects_non_incident(self, small_graph):
        g = small_graph
        edge = g.edge(0)
        stranger = g.num_nodes - 1
        assert stranger not in (edge.u, edge.v)
        with pytest.raises(ValueError):
            g.other_endpoint(0, stranger)

    def test_graph_is_connected(self):
        g = build_grid_graph(5, 4, 3)
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for _, other in g.neighbors(node):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        assert len(seen) == g.num_nodes

    def test_positive_delays_and_costs(self, small_graph):
        g = small_graph
        assert np.all(g.edge_delay > 0)
        assert np.all(g.edge_base_cost > 0)
        assert np.all(g.edge_capacity > 0)

    def test_arrays_are_copies(self, small_graph):
        g = small_graph
        costs = g.base_cost_array()
        costs[0] = 1e9
        assert g.edge_base_cost[0] != 1e9
        delays = g.delay_array()
        delays[0] = 1e9
        assert g.edge_delay[0] != 1e9

    def test_path_endpoints(self, small_graph):
        g = small_graph
        # Build a 3-edge path along layer 0 (horizontal).
        n0 = g.node_index(0, 0, 0)
        edges = []
        node = n0
        for _ in range(3):
            for e, other in g.neighbors(node):
                edge = g.edge(e)
                if not edge.is_via and g.node_point(other).x == g.node_point(node).x + 1 \
                        and edge.wire_type == 0 and g.node_point(other).layer == 0:
                    edges.append(e)
                    node = other
                    break
        ends = set(small_graph.path_endpoints(edges))
        assert ends == {n0, node}

    def test_path_endpoints_rejects_non_path(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.path_endpoints([])

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            build_grid_graph(0, 5, 3)

    def test_custom_stack(self):
        stack = default_layer_stack(5)
        g = build_grid_graph(3, 3, stack=stack)
        assert g.num_layers == 5

    def test_parallel_edges_per_wire_type(self):
        g = build_grid_graph(4, 4, 6)
        # Layer 4 (index 4) is an intermediate layer with two wire types.
        u = g.node_index(0, 0, 4)
        layer_dir = g.stack[4].direction
        v = g.node_index(1, 0, 4) if layer_dir == "H" else g.node_index(0, 1, 4)
        connecting = [e for e, other in g.neighbors(u) if other == v]
        assert len(connecting) == len(g.stack[4].wire_types)

    @pytest.mark.parametrize("dims", [(7, 5, 4), (4, 9, 6)])
    def test_full_die_prism_is_identity_numbered(self, dims):
        """Extracting the whole die renumbers nothing -- what lets a parity
        region be an ordinary shard scope over the full-die prism."""
        nx, ny, layers = dims
        graph = build_grid_graph(nx, ny, layers)
        prism, edge_to_global = extract_prism(graph, 0, 0, nx - 1, ny - 1)
        assert np.array_equal(edge_to_global, np.arange(graph.num_edges))
        assert (prism.nx, prism.ny, prism.num_layers) == (nx, ny, layers)
        for name in EDGE_ARRAYS:
            ours, theirs = getattr(prism, name), getattr(graph, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
        assert prism.incident == graph.incident
        assert prism.neighbours == graph.neighbours


class TestReferenceBuilder:
    """The vectorised builder reproduces the historical per-edge loops: the
    per-node ascending edge order is part of the pop-order contract."""

    @pytest.mark.parametrize("spec", CHIP_SUITE, ids=lambda spec: spec.name)
    def test_chip_suite_graphs(self, spec):
        graph = build_grid_graph(spec.grid_x, spec.grid_y, spec.num_layers)
        assert_matches_reference(graph, *reference_build(graph))

    def test_large_chip(self):
        graph, _ = large_chip(1.0)
        assert_matches_reference(graph, *reference_build(graph))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 5, 2), (5, 1, 3), (2, 2, 15)])
    def test_degenerate_dies(self, dims):
        graph = build_grid_graph(*dims)
        assert_matches_reference(graph, *reference_build(graph))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_prism_boxes(self, data):
        graph = PRISM_PARENT
        xlo = data.draw(st.integers(0, graph.nx - 1))
        xhi = data.draw(st.integers(xlo, graph.nx - 1))
        ylo = data.draw(st.integers(0, graph.ny - 1))
        yhi = data.draw(st.integers(ylo, graph.ny - 1))
        sub, edge_to_global = extract_prism(graph, xlo, ylo, xhi, yhi)
        arrays, adjacency, expected = reference_prism(graph, xlo, ylo, xhi, yhi)
        assert edge_to_global.tobytes() == expected.tobytes()
        assert_matches_reference(sub, arrays, adjacency)


#: The parent of the hypothesis-drawn prisms: two wire types on some layers.
PRISM_PARENT = build_grid_graph(9, 7, 6)


class TestImmutability:
    """Edge arrays are frozen once a graph is built; the per-box memos rest
    on that and never leave the process."""

    @pytest.mark.parametrize("name", EDGE_ARRAYS)
    def test_edge_arrays_reject_writes(self, name):
        graph = build_grid_graph(4, 4, 3)
        prism, _ = extract_prism(graph, 0, 0, 2, 2)
        for built in (graph, prism):
            array = getattr(built, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_box_edges_are_memoised_read_only_and_pruned(self):
        graph = build_grid_graph(6, 6, 3)
        box, other = BoundingBox(1, 1, 3, 4), BoundingBox(0, 0, 5, 0)
        edges = graph.box_edges(box)
        assert graph.box_edges(BoundingBox(1, 1, 3, 4)) is edges
        expected = [
            e.index
            for e in graph.edges()
            if all(1 <= x <= 3 and 1 <= y <= 4 for x, y in map(graph.node_planar, (e.u, e.v)))
        ]
        assert edges.tolist() == expected
        with pytest.raises(ValueError, match="read-only"):
            edges[0] = 0
        graph.box_edges(other)
        graph.retain_box_edges([other])
        assert list(graph._box_edges) == [other]

    def test_pickle_drops_the_memos_and_keeps_the_graph_frozen(self):
        graph = build_grid_graph(5, 5, 3)
        bare = len(pickle.dumps(graph))
        graph.prism(BoundingBox(0, 0, 2, 2))
        graph.box_edges(BoundingBox(1, 1, 3, 3))
        assert len(pickle.dumps(graph)) == bare
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._prisms == {} and clone._box_edges == {}
        assert np.array_equal(clone.edge_u, graph.edge_u)
        assert not clone.edge_delay.flags.writeable

    def test_pickle_rebuilds_the_adjacency_instead_of_shipping_it(self):
        graph = build_grid_graph(5, 5, 3)
        state = graph.__getstate__()
        assert "incident" not in state and "neighbours" not in state
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.incident == graph.incident
        assert clone.neighbours == graph.neighbours
        assert_adjacency_is_immutable(clone)

    def test_adjacency_rejects_writes(self):
        graph = build_grid_graph(4, 4, 3)
        prism, _ = extract_prism(graph, 1, 0, 3, 2)
        for built in (graph, prism):
            assert_adjacency_is_immutable(built)

    def test_neighbors_returns_a_copy(self):
        graph = build_grid_graph(4, 4, 3)
        pairs = graph.neighbors(5)
        assert pairs == list(zip(graph.incident[5], graph.neighbours[5]))
        pairs.append((0, 0))
        pairs[0] = (-1, -1)
        assert graph.neighbors(5) == list(zip(graph.incident[5], graph.neighbours[5]))
        assert (-1, -1) not in graph.neighbors(5)

    @pytest.mark.parametrize("name", ["edge_to_global", "edge_to_local"])
    def test_prism_edge_maps_reject_writes(self, name):
        graph = build_grid_graph(6, 6, 3)
        mapping = getattr(graph.prism(BoundingBox(1, 1, 3, 4)), name)
        assert mapping.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            mapping[0] = 7


def assert_adjacency_is_immutable(graph):
    for name in ("incident", "neighbours"):
        table = getattr(graph, name)
        assert type(table) is tuple and len(table) == graph.num_nodes, name
        assert all(type(row) is tuple for row in table), name
        with pytest.raises(TypeError):
            table[0] = ()
        with pytest.raises(TypeError):
            table[0][0] = 0


class TestMemoryCeiling:
    """Routing-graph storage is budgeted in tier-1: a return to per-edge
    Python objects (pair tuples, list edge maps) fails here."""

    def test_large_chip_and_a_four_shard_coordinator(self):
        gc.collect()
        tracemalloc.start()
        try:
            graph, netlist = large_chip(1.0)
            config = GlobalRouterConfig(num_rounds=1, dbif=0.0, shards=4)
            router = GlobalRouter(graph, netlist, CostDistanceSolver(), config)
            gc.collect()
            retained_mib = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        assert len(router.engine.regions) == 4
        # Retained: 143.9 MiB with per-node lists of (edge, other) tuples
        # and list edge maps, 69.0 MiB with aligned per-node tuples and
        # int64 edge maps (Python 3.11, numpy 2).  Pair tuples for the
        # graph alone add ~14 MiB, for the prisms ~41 MiB, list edge maps
        # ~20 MiB: each crosses the ceiling.
        assert retained_mib < 80.0, retained_mib
