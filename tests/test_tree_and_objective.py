"""Tests for embedded trees, the objective evaluator and instances."""

import numpy as np
import pytest

from repro.core.bifurcation import BifurcationModel
from repro.core.instance import SteinerInstance
from repro.core.objective import evaluate_tree, prune_dangling_branches
from repro.core.shortest_path import dijkstra, shortest_path_edges
from repro.core.tree import EmbeddedTree


def path_between(graph, a, b, lengths=None):
    """Shortest-path edge list between two nodes (test helper)."""
    lengths = lengths if lengths is not None else graph.base_cost_array()
    dist, parent = dijkstra(graph, lengths, {a: 0.0}, targets=[b])
    return shortest_path_edges(graph, parent, {a}, b)


class TestSteinerInstance:
    def test_basic_properties(self, instance_factory):
        inst = instance_factory(5, seed=1)
        assert inst.num_sinks == 5
        assert inst.num_terminals == 6
        assert inst.total_weight == pytest.approx(sum(inst.weights))
        assert len(inst.sink_points()) == 5
        assert inst.terminal_nodes()[0] == inst.root

    def test_mismatched_weights_rejected(self, small_graph):
        with pytest.raises(ValueError):
            SteinerInstance(
                small_graph, 0, [1, 2], [1.0],
                small_graph.base_cost_array(), small_graph.delay_array(),
            )

    def test_wrong_cost_length_rejected(self, small_graph):
        with pytest.raises(ValueError):
            SteinerInstance(
                small_graph, 0, [1], [1.0],
                np.ones(3), small_graph.delay_array(),
            )

    def test_negative_weight_rejected(self, small_graph):
        with pytest.raises(ValueError):
            SteinerInstance(
                small_graph, 0, [1], [-1.0],
                small_graph.base_cost_array(), small_graph.delay_array(),
            )

    def test_out_of_range_terminal_rejected(self, small_graph):
        with pytest.raises(ValueError):
            SteinerInstance(
                small_graph, small_graph.num_nodes, [1], [1.0],
                small_graph.base_cost_array(), small_graph.delay_array(),
            )

    def test_with_bifurcation_and_costs(self, instance_factory):
        inst = instance_factory(3)
        other = inst.with_bifurcation(BifurcationModel(dbif=5.0))
        assert other.bifurcation.dbif == 5.0
        assert other.sinks == inst.sinks
        scaled = inst.with_costs(inst.cost * 2)
        assert np.allclose(scaled.cost, inst.cost * 2)


class TestEmbeddedTree:
    def test_two_terminal_tree(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(4, 0, 0)
        edges = path_between(g, root, sink)
        tree = EmbeddedTree(g, root, (sink,), tuple(edges), "test")
        tree.validate()
        assert tree.wire_length() >= 4
        assert len(tree) == len(edges)
        arb = tree.arborescence()
        assert arb.root == root
        assert set(arb.path_to_root(sink)) == set(edges)

    def test_missing_sink_detected(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(4, 0, 0)
        other = g.node_index(0, 4, 0)
        edges = path_between(g, root, sink)
        tree = EmbeddedTree(g, root, (other,), tuple(edges), "test")
        with pytest.raises(ValueError):
            tree.validate()

    def test_cycle_detected(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        a = g.node_index(2, 0, 0)
        b = g.node_index(2, 2, 0)
        # Two different routes between root and b form a cycle.
        route1 = path_between(g, root, a) + path_between(g, a, b)
        route2 = path_between(g, root, g.node_index(0, 2, 0)) + path_between(
            g, g.node_index(0, 2, 0), b
        )
        tree = EmbeddedTree(g, root, (b,), tuple(set(route1 + route2)), "test")
        with pytest.raises(ValueError):
            tree.validate()

    def test_duplicate_edges_detected(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(1, 0, 0)
        edges = path_between(g, root, sink)
        tree = EmbeddedTree(g, root, (sink,), tuple(edges + edges), "test")
        with pytest.raises(ValueError):
            tree.validate()

    def test_empty_tree_root_only(self, small_graph):
        g = small_graph
        root = g.node_index(3, 3, 0)
        tree = EmbeddedTree(g, root, (root,), (), "test")
        tree.validate()
        assert tree.wire_length() == 0
        assert tree.via_count() == 0

    def test_via_count(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        above = g.node_index(0, 0, 2)
        edges = path_between(g, root, above)
        tree = EmbeddedTree(g, root, (above,), tuple(edges), "test")
        assert tree.via_count() == 2
        assert tree.wire_length() == 0

    def test_with_method(self, small_graph):
        g = small_graph
        tree = EmbeddedTree(g, 0, (0,), (), "A").with_method("B")
        assert tree.method == "B"

    def test_num_branch_nodes(self, small_graph):
        g = small_graph
        root = g.node_index(2, 2, 0)
        s1 = g.node_index(5, 2, 0)
        s2 = g.node_index(0, 2, 0)
        s3 = g.node_index(2, 5, 0)
        edges = (
            set(path_between(g, root, s1))
            | set(path_between(g, root, s2))
            | set(path_between(g, root, s3))
        )
        tree = EmbeddedTree(g, root, (s1, s2, s3), tuple(edges), "test")
        assert tree.num_branch_nodes() >= 1


class TestPruneDangling:
    def test_prunes_stub(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(3, 0, 0)
        stub_end = g.node_index(3, 3, 0)
        edges = path_between(g, root, sink) + path_between(g, sink, stub_end)
        tree = EmbeddedTree(g, root, (sink,), tuple(edges), "test")
        pruned = prune_dangling_branches(tree)
        pruned.validate()
        assert len(pruned) < len(tree)
        assert stub_end not in pruned.node_set()

    def test_keeps_valid_tree_unchanged(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(3, 0, 0)
        edges = path_between(g, root, sink)
        tree = EmbeddedTree(g, root, (sink,), tuple(edges), "test")
        assert prune_dangling_branches(tree) is tree


class TestObjective:
    def _line_instance(self, graph, dbif=0.0):
        root = graph.node_index(0, 0, 0)
        sink = graph.node_index(5, 0, 0)
        return SteinerInstance(
            graph, root, [sink], [2.0],
            graph.base_cost_array(), graph.delay_array(),
            BifurcationModel(dbif=dbif, eta=0.25),
        )

    def test_single_sink_objective(self, small_graph):
        inst = self._line_instance(small_graph)
        edges = path_between(small_graph, inst.root, inst.sinks[0], inst.cost)
        tree = EmbeddedTree(small_graph, inst.root, tuple(inst.sinks), tuple(edges), "t")
        result = evaluate_tree(inst, tree)
        expected_conn = sum(inst.cost[e] for e in edges)
        expected_delay = sum(inst.delay[e] for e in edges)
        assert result.connection_cost == pytest.approx(expected_conn)
        assert result.sink_delays[0] == pytest.approx(expected_delay)
        assert result.weighted_delay_cost == pytest.approx(2.0 * expected_delay)
        assert result.total == pytest.approx(expected_conn + 2.0 * expected_delay)
        assert result.num_bifurcations == 0

    def test_no_penalty_on_single_path(self, small_graph):
        inst = self._line_instance(small_graph, dbif=10.0)
        edges = path_between(small_graph, inst.root, inst.sinks[0], inst.cost)
        tree = EmbeddedTree(small_graph, inst.root, tuple(inst.sinks), tuple(edges), "t")
        result = evaluate_tree(inst, tree)
        # A path has no bifurcation, so dbif must not appear.
        assert result.sink_delays[0] == pytest.approx(
            sum(inst.delay[e] for e in edges)
        )

    def test_bifurcation_penalty_applied(self, small_graph):
        g = small_graph
        root = g.node_index(2, 2, 0)
        heavy = g.node_index(6, 2, 0)
        light = g.node_index(2, 6, 0)
        inst = SteinerInstance(
            g, root, [heavy, light], [3.0, 1.0],
            g.base_cost_array(), g.delay_array(),
            BifurcationModel(dbif=4.0, eta=0.25),
        )
        edges = set(path_between(g, root, heavy)) | set(path_between(g, root, light))
        tree = EmbeddedTree(g, root, (heavy, light), tuple(edges), "t")
        with_pen = evaluate_tree(inst, tree)
        without = evaluate_tree(inst.with_bifurcation(BifurcationModel.disabled()), tree)
        assert with_pen.num_bifurcations == 1
        # The heavy sink receives the small share eta, the light one 1 - eta.
        assert with_pen.sink_delays[0] - without.sink_delays[0] == pytest.approx(0.25 * 4.0)
        assert with_pen.sink_delays[1] - without.sink_delays[1] == pytest.approx(0.75 * 4.0)
        expected_extra = 3.0 * 0.25 * 4.0 + 1.0 * 0.75 * 4.0
        assert with_pen.total - without.total == pytest.approx(expected_extra)

    def test_sink_at_root_has_zero_delay(self, small_graph):
        g = small_graph
        root = g.node_index(1, 1, 0)
        far = g.node_index(5, 1, 0)
        inst = SteinerInstance(
            g, root, [root, far], [1.0, 1.0],
            g.base_cost_array(), g.delay_array(),
        )
        edges = path_between(g, root, far)
        tree = EmbeddedTree(g, root, (root, far), tuple(edges), "t")
        result = evaluate_tree(inst, tree)
        assert result.sink_delays[0] == 0.0
        assert result.sink_delays[1] > 0.0

    def test_unreachable_sink_raises(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(5, 5, 0)
        inst = SteinerInstance(
            g, root, [sink], [1.0], g.base_cost_array(), g.delay_array()
        )
        tree = EmbeddedTree(g, root, (sink,), (), "t")
        with pytest.raises(ValueError):
            evaluate_tree(inst, tree)

    def test_duplicate_sinks_same_node(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(4, 0, 0)
        inst = SteinerInstance(
            g, root, [sink, sink], [1.0, 2.0], g.base_cost_array(), g.delay_array()
        )
        edges = path_between(g, root, sink)
        tree = EmbeddedTree(g, root, (sink, sink), tuple(edges), "t")
        result = evaluate_tree(inst, tree)
        assert result.sink_delays[0] == pytest.approx(result.sink_delays[1])
        assert result.weighted_delay_cost == pytest.approx(3.0 * result.sink_delays[0])

    def test_fifty_sink_breakdown_and_unreached_sink(self, small_graph, instance_factory):
        """Regression for the sink-reach check (it rebuilt the tree's node
        set once per sink): a 50-sink tree evaluates to exactly the
        breakdown assembled from its root paths, and a sink the tree does
        not reach is still named in a ``ValueError``."""
        from repro.core.cost_distance import CostDistanceSolver
        from repro.core.objective import ObjectiveBreakdown

        inst = instance_factory(50, seed=7)
        tree = CostDistanceSolver().build(inst, np.random.default_rng(0))
        arb = tree.arborescence()
        delays = []
        for sink in inst.sinks:
            path = []
            node = sink
            while node != arb.root:
                path.append(arb.parent_edge[node])
                node = arb.parent_node[node]
            delay = 0.0
            for edge in reversed(path):  # root first, as the evaluator sums
                delay = delay + float(inst.delay[edge]) + 0.0
            delays.append(delay)
        connection = tree.congestion_cost(inst.cost)
        weighted = float(sum(w * d for w, d in zip(inst.weights, delays)))
        bifurcations = sum(max(0, len(c) - 1) for c in arb.children.values())
        assert evaluate_tree(inst, tree) == ObjectiveBreakdown(
            total=connection + weighted,
            connection_cost=connection,
            weighted_delay_cost=weighted,
            sink_delays=tuple(delays),
            wire_length=tree.wire_length(),
            via_count=tree.via_count(),
            num_bifurcations=bifurcations,
            method=tree.method,
        )

        reached = set(arb.order)
        stray = next(n for n in range(small_graph.num_nodes) if n not in reached)
        widened = SteinerInstance(
            small_graph, inst.root, list(inst.sinks) + [stray],
            list(inst.weights) + [1.0], inst.cost, inst.delay,
        )
        with pytest.raises(ValueError, match=rf"does not reach instance sinks \[{stray}\]"):
            evaluate_tree(widened, tree)
