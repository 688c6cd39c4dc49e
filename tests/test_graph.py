"""Tests for the 3D routing graph."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.geometry import BoundingBox, GridPoint
from repro.grid.graph import EDGE_ARRAYS, build_grid_graph, extract_prism
from repro.grid.layers import default_layer_stack


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
        assert prism.adjacency == graph.adjacency


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
