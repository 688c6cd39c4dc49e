"""Tests for embedded trees, the objective evaluator and instances."""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import _search
from repro.core.bifurcation import BifurcationModel
from repro.core.instance import SteinerInstance
from repro.core.objective import evaluate_tree, prune_dangling_branches, sink_delays
from repro.core.shortest_path import dijkstra, shortest_path_edges
from repro.core.tree import EmbeddedTree
from repro.grid.graph import RoutingGraph, build_grid_graph


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


# --------------------------------------------------------- the sink-delay walk

needs_compiled = pytest.mark.skipif(_search.LIB is None, reason="no compiled search loop")

def king_graph(nx, ny):
    """One layer of ``nx`` x ``ny`` tiles, each joined to its eight
    neighbours (up to eight-way branchings), with unequal edge delays."""
    base = build_grid_graph(nx, ny, 1)
    graph = RoutingGraph(nx, ny, base.stack, base.delay_model, build=False)
    pairs = [
        (y * nx + x, (y + dy) * nx + x + dx)
        for y in range(ny) for x in range(nx)
        for dx, dy in ((1, 0), (-1, 1), (0, 1), (1, 1))
        if 0 <= x + dx < nx and y + dy < ny
    ]
    count = len(pairs)
    graph.edge_u = np.array([u for u, _ in pairs], dtype=np.int32)
    graph.edge_v = np.array([v for _, v in pairs], dtype=np.int32)
    graph.edge_layer = np.zeros(count, dtype=np.int16)
    graph.edge_wire_type = np.zeros(count, dtype=np.int16)
    graph.edge_length = np.ones(count)
    graph.edge_delay = 0.3 + 0.7 * (np.arange(count) % 5)
    graph.edge_base_cost = np.ones(count)
    graph.edge_capacity = np.ones(count)
    graph.edge_is_via = np.zeros(count, dtype=bool)
    graph._seal()
    return graph


#: Small graphs: a king's-move grid and two routing grids.
WALK_GRIDS = [king_graph(5, 5), build_grid_graph(4, 4, 3), build_grid_graph(5, 3, 4)]
#: Ties (equal and zero weights) on purpose; and tenths only, whose sums
#: tie or not by summation order (0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1).
WALK_WEIGHTS = [
    st.sampled_from([0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 0.25, 1.3, 1e-300, 2.5, 7.0]),
    st.sampled_from([0.1, 0.2, 0.3]),
]


@contextlib.contextmanager
def python_walk():
    """``sink_delays`` runs ``_tree_sink_delays`` inside (no library)."""
    saved = _search.LIB
    _search.LIB = None
    try:
        yield
    finally:
        _search.LIB = saved


@st.composite
def walk_trees(draw, graph, weight_pool=WALK_WEIGHTS[0], min_sinks=1):
    """A tree grown on ``graph`` from a drawn root -- first up to eight of
    the root's neighbours (a hub), then edges out of drawn tree nodes -- with
    its edges shuffled (children order follows the edge order), and sinks
    drawn from its nodes: co-located, at the root and at interior nodes."""
    root = draw(st.integers(0, graph.num_nodes - 1))
    nodes, edges = [root], []

    def attach(node, pick):
        options = [(e, o) for e, o in graph.neighbors(node) if o not in nodes]
        if options:
            edge, other = options[pick % len(options)]
            nodes.append(other)
            edges.append(edge)

    for _ in range(draw(st.integers(0, 8))):
        attach(root, draw(st.integers(0, 7)))
    for _ in range(draw(st.integers(min_sinks - 1, 16))):
        # Low indices favour early nodes, so branchings pile up there.
        attach(nodes[draw(st.integers(0, len(nodes) - 1)) % max(1, len(nodes) // 2)],
               draw(st.integers(0, 7)))
    edges = draw(st.permutations(edges))
    sinks = draw(st.lists(st.sampled_from(nodes), min_size=min_sinks, max_size=8))
    weights = draw(st.lists(weight_pool, min_size=len(sinks), max_size=len(sinks)))
    return EmbeddedTree(graph, root, tuple(sinks), tuple(edges), "drawn"), weights


def walk_batch(graph, bifurcation, drawn):
    trees = [tree for tree, _ in drawn]
    return sink_delays(
        graph, graph.delay_array(), bifurcation, trees,
        [tree.sinks for tree in trees], [weights for _, weights in drawn],
    )


class TestSinkDelayWalk:
    """``cd_sink_delays`` against ``_tree_sink_delays``, its specification,
    bit for bit (``float.hex``), and with the same ``ValueError``."""

    @needs_compiled
    @pytest.mark.parametrize(
        "weight_pool, grids, dbifs, etas, min_sinks",
        [
            (WALK_WEIGHTS[0], [0, 1, 2], [0.0, 0.0, 1.0, 7.3], [0.0, 0.25, 0.5], 1),
            (WALK_WEIGHTS[1], [0], [1.0, 7.3], [0.0, 0.25], 4),
        ],
        ids=["ties", "tenths"],
    )
    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_compiled_walk_matches_the_spec(
        self, weight_pool, grids, dbifs, etas, min_sinks, data
    ):
        """With tenths, uneven penalty shares and at least four sinks on
        the king's-move grid, some drawn branchings tie or not by the order
        their subtree weights were summed in."""
        graph = WALK_GRIDS[data.draw(st.sampled_from(grids))]
        bifurcation = BifurcationModel(
            dbif=data.draw(st.sampled_from(dbifs)), eta=data.draw(st.sampled_from(etas))
        )
        trees = walk_trees(graph, weight_pool, min_sinks)
        drawn = data.draw(st.lists(trees, min_size=1, max_size=8))
        compiled = walk_batch(graph, bifurcation, drawn)
        with python_walk():
            spec = walk_batch(graph, bifurcation, drawn)
        assert [[d.hex() for d in net] for net in compiled] == [
            [d.hex() for d in net] for net in spec
        ]

    def test_drawn_trees_branch_up_to_six_ways(self):
        """The strategy reaches the branchings the walk must stack: every
        fan-out from 2 to 6 children shows up in a few hundred draws."""
        seen = set()

        @given(walk_trees(WALK_GRIDS[0]))
        @settings(max_examples=300, deadline=None)
        def collect(drawn):
            tree, _ = drawn
            seen.update(len(c) for c in tree.arborescence().children.values())

        collect()
        assert {2, 3, 4, 5, 6} <= seen

    @pytest.mark.parametrize("compiled", [True, False])
    @given(data=st.data(), grid=st.integers(0, len(WALK_GRIDS) - 1),
           defect=st.sampled_from(["cycle", "duplicate", "stray", "missing sink",
                                   "edge index", "root index", "sink index"]))
    @settings(max_examples=150, deadline=None)
    def test_invalid_trees_raise_what_the_spec_raises(self, compiled, data, grid, defect):
        """A cycle, a duplicate edge, a stray edge, a missing sink or an
        index outside the graph (beyond int32 too), at a drawn position of
        the batch: the call raises the spec's ``ValueError`` for that tree,
        which is also what ``EmbeddedTree.arborescence`` says of it."""
        if compiled and _search.LIB is None:
            pytest.skip("no compiled search loop")
        graph = WALK_GRIDS[grid]
        drawn = data.draw(st.lists(walk_trees(graph), min_size=1, max_size=3))
        at = data.draw(st.integers(0, len(drawn) - 1))
        tree, weights = drawn[at]
        nodes = tree.node_set()
        root, sinks, edges = tree.root, list(tree.sinks), list(tree.edges)
        if defect == "cycle":
            closing = [e for e in range(graph.num_edges) if e not in edges
                       and {int(graph.edge_u[e]), int(graph.edge_v[e])} <= nodes]
            assume(closing)
            edges.insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(closing)))
        elif defect == "duplicate":
            assume(edges)
            edges.append(data.draw(st.sampled_from(edges)))
        elif defect == "stray":
            away = [e for e in range(graph.num_edges)
                    if not {int(graph.edge_u[e]), int(graph.edge_v[e])} & nodes]
            assume(away)
            edges.insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(away)))
        elif defect == "missing sink":
            outside = [n for n in range(graph.num_nodes) if n not in nodes]
            sinks[data.draw(st.integers(0, len(sinks) - 1))] = data.draw(st.sampled_from(outside))
        else:
            bad = data.draw(st.sampled_from([-1, -2**31, 2**31 - 1, 2**40]))
            if defect == "edge index":
                assume(edges)
                edges[data.draw(st.integers(0, len(edges) - 1))] = (
                    bad if bad != 2**31 - 1 else graph.num_edges
                )
            elif defect == "root index":
                root = bad if bad != 2**31 - 1 else graph.num_nodes
            else:
                sinks[data.draw(st.integers(0, len(sinks) - 1))] = (
                    bad if bad != 2**31 - 1 else graph.num_nodes
                )
        broken = EmbeddedTree(graph, root, tuple(sinks), tuple(edges), "broken")
        drawn[at] = (broken, weights)
        bifurcation = BifurcationModel(dbif=data.draw(st.sampled_from([0.0, 2.0])))
        with python_walk():
            with pytest.raises(ValueError) as spec:
                walk_batch(graph, bifurcation, drawn[at:at + 1])
        context = contextlib.nullcontext() if compiled else python_walk()
        with context, pytest.raises(ValueError) as raised:
            walk_batch(graph, bifurcation, drawn)
        assert str(raised.value) == str(spec.value)
        if defect not in ("edge index", "root index", "sink index"):
            with pytest.raises(ValueError) as structural:
                broken.arborescence()
            assert str(structural.value) == str(spec.value)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0], "sinks and weights must have the same length"),
            ([1.0, -0.5], "sink delay weights must be finite and non-negative"),
            ([1.0, float("nan")], "sink delay weights must be finite and non-negative"),
            ([float("inf"), 1.0], "sink delay weights must be finite and non-negative"),
        ],
    )
    def test_weights_are_checked_as_instances_check_them(self, small_graph, weights, message):
        g = small_graph
        root, sink = g.node_index(0, 0, 0), g.node_index(3, 0, 0)
        tree = EmbeddedTree(g, root, (sink, sink), tuple(path_between(g, root, sink)), "t")
        with pytest.raises(ValueError, match=message):
            SteinerInstance(g, root, [sink, sink], weights, g.base_cost_array(), g.delay_array())
        with pytest.raises(ValueError, match=message):
            sink_delays(g, g.delay_array(), BifurcationModel(), [tree], [tree.sinks], [weights])

    def test_delay_vector_is_checked(self, small_graph):
        g = small_graph
        tree = EmbeddedTree(g, 0, (0,), (), "t")
        bad = g.delay_array()
        bad[3] = -1.0
        with pytest.raises(ValueError, match="edge delays must be finite and non-negative"):
            sink_delays(g, bad, BifurcationModel(), [tree], [tree.sinks], [[1.0]])
        with pytest.raises(ValueError, match="one entry per graph edge"):
            sink_delays(g, bad[:-1], BifurcationModel(), [tree], [tree.sinks], [[1.0]])
