"""Tests for the cost-distance Steiner tree algorithm (Algorithm 1)."""

import dataclasses
import hashlib
import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bifurcation import BifurcationModel
from repro.core.cost_distance import CostDistanceConfig, CostDistanceSolver
from repro.core.costctx import OracleCostContext
from repro.core.future_cost import FutureCostEstimator
from repro.core.instance import SteinerInstance
from repro.core.objective import evaluate_tree
from repro.core.shortest_path import dijkstra
from repro.grid.graph import build_grid_graph
from repro.instances.chips import CHIP_SUITE, build_chip

from tests.conftest import make_instance


ALL_CONFIGS = {
    "default": CostDistanceConfig(),
    "plain": CostDistanceConfig.plain(),
    "no-discount": CostDistanceConfig(discount_components=False),
    "no-future-cost": CostDistanceConfig(use_future_costs=False),
    "no-placement": CostDistanceConfig(improved_steiner_placement=False),
    "flat-heap": CostDistanceConfig(use_two_level_heap=False),
    "landmarks": CostDistanceConfig(num_landmarks=3),
}


class TestBasics:
    def test_no_sinks_returns_empty_tree(self, small_graph):
        g = small_graph
        inst = SteinerInstance(g, 0, [], [], g.base_cost_array(), g.delay_array())
        tree = CostDistanceSolver().build(inst)
        assert len(tree) == 0
        tree.validate()

    def test_sink_equals_root(self, small_graph):
        g = small_graph
        root = g.node_index(2, 2, 0)
        inst = SteinerInstance(
            g, root, [root], [1.0], g.base_cost_array(), g.delay_array()
        )
        tree = CostDistanceSolver().build(inst)
        tree.validate()
        assert len(tree) == 0

    def test_single_sink_is_shortest_path(self, small_graph):
        """With one sink the optimum is a shortest path w.r.t. c + w*d."""
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(7, 5, 0)
        weight = 1.3
        inst = SteinerInstance(
            g, root, [sink], [weight], g.base_cost_array(), g.delay_array()
        )
        tree = CostDistanceSolver(CostDistanceConfig.plain()).build(inst)
        tree.validate()
        result = evaluate_tree(inst, tree)
        lengths = (inst.cost + weight * inst.delay).tolist()
        dist, _ = dijkstra(g, lengths, {root: 0.0}, targets=[sink])
        assert result.total == pytest.approx(dist[sink], rel=1e-9)

    def test_single_sink_enhanced_matches_optimum(self, small_graph):
        g = small_graph
        root = g.node_index(1, 8, 0)
        sink = g.node_index(8, 0, 0)
        weight = 0.4
        inst = SteinerInstance(
            g, root, [sink], [weight], g.base_cost_array(), g.delay_array()
        )
        tree = CostDistanceSolver().build(inst)
        result = evaluate_tree(inst, tree)
        lengths = (inst.cost + weight * inst.delay).tolist()
        dist, _ = dijkstra(g, lengths, {root: 0.0}, targets=[sink])
        assert result.total == pytest.approx(dist[sink], rel=1e-6)

    def test_duplicate_sinks_handled(self, small_graph):
        g = small_graph
        root = g.node_index(0, 0, 0)
        sink = g.node_index(5, 5, 0)
        inst = SteinerInstance(
            g, root, [sink, sink, sink], [0.5, 0.5, 0.5],
            g.base_cost_array(), g.delay_array(),
        )
        tree = CostDistanceSolver().build(inst)
        tree.validate()
        result = evaluate_tree(inst, tree)
        assert result.sink_delays[0] == pytest.approx(result.sink_delays[2])

    def test_oracle_name(self):
        assert CostDistanceSolver().name == "CD"


class TestAllConfigurations:
    @pytest.mark.parametrize("config_name", sorted(ALL_CONFIGS))
    @pytest.mark.parametrize("num_sinks", [2, 6, 15])
    def test_produces_valid_tree(self, medium_graph, config_name, num_sinks):
        inst = make_instance(medium_graph, num_sinks, seed=num_sinks, dbif=2.0)
        solver = CostDistanceSolver(ALL_CONFIGS[config_name])
        tree = solver.build(inst, random.Random(0))
        tree.validate()
        # Every sink must be reachable from the root inside the tree.
        evaluate_tree(inst, tree)

    @pytest.mark.parametrize("config_name", sorted(ALL_CONFIGS))
    def test_deterministic_given_seed(self, medium_graph, config_name):
        inst = make_instance(medium_graph, 8, seed=3, dbif=1.0)
        solver = CostDistanceSolver(ALL_CONFIGS[config_name])
        tree_a = solver.build(inst, random.Random(42))
        tree_b = solver.build(inst, random.Random(42))
        assert tree_a.edges == tree_b.edges

    def test_solver_uses_config_seed_without_rng(self, medium_graph):
        inst = make_instance(medium_graph, 6, seed=5)
        solver = CostDistanceSolver(CostDistanceConfig(seed=7))
        assert solver.build(inst).edges == solver.build(inst).edges


class TestSolveDetails:
    def test_iteration_count_matches_terminal_count(self, medium_graph):
        """Every iteration removes one active terminal, so the number of
        merges equals the number of distinct sink tiles."""
        inst = make_instance(medium_graph, 10, seed=2)
        distinct = len({s for s in inst.sinks if s != inst.root})
        result = CostDistanceSolver().solve_with_details(inst, random.Random(0))
        assert result.num_iterations == distinct
        assert len(result.merges) == distinct
        assert result.num_labels > 0

    def test_exactly_one_root_merge_per_component_chain(self, medium_graph):
        inst = make_instance(medium_graph, 12, seed=9)
        result = CostDistanceSolver().solve_with_details(inst, random.Random(1))
        root_merges = [m for m in result.merges if m.is_root_merge]
        sink_merges = [m for m in result.merges if not m.is_root_merge]
        assert len(root_merges) >= 1
        assert len(root_merges) + len(sink_merges) == result.num_iterations
        # The final merge always involves the root component.
        assert result.merges[-1].is_root_merge

    def test_trace_records_active_terminals(self, medium_graph):
        inst = make_instance(medium_graph, 5, seed=4)
        solver = CostDistanceSolver(CostDistanceConfig(record_trace=True))
        result = solver.solve_with_details(inst, random.Random(0))
        assert all(m.active_terminals is not None for m in result.merges)
        # Active count is non-increasing over iterations.
        counts = [m.active_after for m in result.merges]
        assert all(b <= a for a, b in zip(counts, counts[1:])) or len(counts) <= 1

    def test_steiner_position_on_merge_path_or_terminals(self, medium_graph):
        inst = make_instance(medium_graph, 8, seed=6)
        result = CostDistanceSolver().solve_with_details(inst, random.Random(0))
        g = medium_graph
        for merge in result.merges:
            if merge.is_root_merge:
                assert merge.steiner_node is None
            else:
                path_nodes = set()
                for e in merge.path_edges:
                    path_nodes.add(int(g.edge_u[e]))
                    path_nodes.add(int(g.edge_v[e]))
                allowed = path_nodes | {merge.source_node, merge.target_node}
                assert merge.steiner_node in allowed


class TestQuality:
    def test_plain_respects_log_t_bound_on_stars(self, medium_graph):
        """The expected guarantee is O(log t) * OPT; check a generous bound
        against a star lower bound (sum of shortest path distances is an
        upper bound on OPT; each individual path is a lower bound)."""
        inst = make_instance(medium_graph, 10, seed=8)
        tree = CostDistanceSolver(CostDistanceConfig.plain()).build(inst, random.Random(0))
        result = evaluate_tree(inst, tree)
        # Star upper bound on OPT.
        star_total = 0.0
        for sink, weight in zip(inst.sinks, inst.weights):
            lengths = (inst.cost + weight * inst.delay).tolist()
            dist, _ = dijkstra(inst.graph, lengths, {inst.root: 0.0}, targets=[sink])
            star_total += dist[sink]
        assert result.total <= star_total * 4.0

    def test_enhanced_no_worse_than_twice_plain_on_average(self, medium_graph):
        plain_total = 0.0
        enhanced_total = 0.0
        for seed in range(5):
            inst = make_instance(medium_graph, 9, seed=seed, dbif=1.0)
            plain = CostDistanceSolver(CostDistanceConfig.plain()).build(
                inst, random.Random(seed)
            )
            enhanced = CostDistanceSolver().build(inst, random.Random(seed))
            plain_total += evaluate_tree(inst, plain).total
            enhanced_total += evaluate_tree(inst, enhanced).total
        assert enhanced_total <= plain_total * 1.25

    def test_heavier_sink_gets_shorter_delay(self, medium_graph):
        """A sink with a huge delay weight should not have a much longer
        delay than its direct shortest-delay path."""
        g = medium_graph
        root = g.node_index(1, 1, 0)
        critical = g.node_index(14, 1, 0)
        others = [g.node_index(3, 12, 0), g.node_index(8, 14, 0), g.node_index(12, 9, 0)]
        sinks = [critical] + others
        weights = [50.0, 0.01, 0.01, 0.01]
        inst = SteinerInstance(
            g, root, sinks, weights, g.base_cost_array(), g.delay_array()
        )
        tree = CostDistanceSolver().build(inst, random.Random(0))
        result = evaluate_tree(inst, tree)
        delays = g.delay_array().tolist()
        dist, _ = dijkstra(g, delays, {root: 0.0}, targets=[critical])
        assert result.sink_delays[0] <= dist[critical] * 1.6

    def test_congestion_avoidance(self, medium_graph):
        """With a very expensive column, the tree avoids it when possible."""
        g = medium_graph
        cost = g.base_cost_array()
        expensive = []
        for e in range(g.num_edges):
            if g.edge_is_via[e]:
                continue
            x, _ = g.node_planar(int(g.edge_u[e]))
            if x == 8:
                cost[e] *= 50.0
                expensive.append(e)
        root = g.node_index(2, 2, 0)
        sinks = [g.node_index(5, 12, 0), g.node_index(3, 8, 0)]
        inst = SteinerInstance(g, root, sinks, [0.2, 0.2], cost, g.delay_array())
        tree = CostDistanceSolver().build(inst, random.Random(0))
        used_expensive = [e for e in tree.edges if e in set(expensive)]
        assert not used_expensive


class TestBifurcationBehaviour:
    def test_penalties_reduce_bifurcations_on_critical_path(self, medium_graph):
        """Figure 1 behaviour: with dbif > 0 the objective with penalties
        should be lower than simply re-evaluating the dbif=0 tree."""
        inst_pen = make_instance(medium_graph, 14, seed=12, dbif=6.0)
        inst_nopen = inst_pen.with_bifurcation(BifurcationModel.disabled())
        tree_nopen = CostDistanceSolver().build(inst_nopen, random.Random(0))
        tree_pen = CostDistanceSolver().build(inst_pen, random.Random(0))
        # Evaluate both trees under the penalised objective: the tree built
        # with penalties in mind must not be worse.
        cost_aware = evaluate_tree(inst_pen, tree_pen).total
        cost_unaware = evaluate_tree(inst_pen, tree_nopen).total
        assert cost_aware <= cost_unaware * 1.1

    def test_eta_zero_and_half_both_work(self, medium_graph):
        for eta in (0.0, 0.5):
            inst = make_instance(medium_graph, 7, seed=13, dbif=3.0, eta=eta)
            tree = CostDistanceSolver().build(inst, random.Random(0))
            tree.validate()
            evaluate_tree(inst, tree)


class TestPropertyBased:
    @given(
        num_sinks=st.integers(1, 12),
        seed=st.integers(0, 1000),
        dbif=st.sampled_from([0.0, 1.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_always_returns_valid_spanning_tree(self, num_sinks, seed, dbif):
        graph = build_grid_graph(8, 8, 3)
        inst = make_instance(graph, num_sinks, seed=seed, dbif=dbif)
        tree = CostDistanceSolver().build(inst, random.Random(seed))
        tree.validate()
        result = evaluate_tree(inst, tree)
        assert result.total >= 0.0
        assert len(result.sink_delays) == num_sinks

    @given(num_sinks=st.integers(2, 10), seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_plain_and_enhanced_both_span(self, num_sinks, seed):
        graph = build_grid_graph(7, 7, 3)
        inst = make_instance(graph, num_sinks, seed=seed)
        for config in (CostDistanceConfig.plain(), CostDistanceConfig()):
            tree = CostDistanceSolver(config).build(inst, random.Random(seed))
            nodes = tree.node_set()
            assert inst.root in nodes
            for sink in inst.sinks:
                assert sink in nodes


class TestPotentialParity:
    """The kernel's per-tile potential array against the estimator it
    replaced a per-push call of (non-square grid, both forms).

    The kernel's private names are imported inside the tests: the golden
    recorder below has to import this module against the parent commit's
    ``src``, where they do not exist.
    """

    @pytest.mark.parametrize("num_targets", [(1, 8), (9, 60)])
    def test_tile_array_equals_nearest_target_l1(self, num_targets):
        from repro.core.cost_distance import _target_l1

        graph = build_grid_graph(13, 9, 3)
        estimator = FutureCostEstimator(graph, num_landmarks=0)
        rng = random.Random(num_targets[0])
        for _ in range(20):
            targets = [
                rng.randrange(graph.num_nodes) for _ in range(rng.randint(*num_targets))
            ]
            tiles = graph.nx * graph.ny
            l1 = _target_l1(graph.nx, graph.ny, [t % tiles for t in targets]).tolist()
            assert len(l1) == graph.nx * graph.ny
            for node in range(graph.num_nodes):
                value = l1[node % len(l1)]
                assert type(value) is float
                assert value == estimator.nearest_target_l1(node, targets)

    @pytest.mark.parametrize("num_sinks", [1, 5, 7, 8, 30, 59])
    def test_solve_state_potential_equals_multi_target_potential(self, num_sinks):
        from repro.core.cost_distance import _initial_terminals, _Solve

        graph = build_grid_graph(13, 9, 3)
        inst = make_instance(graph, num_sinks, seed=num_sinks, dbif=1.0)
        state = _Solve(inst, CostDistanceConfig(), random.Random(0), *_initial_terminals(inst))
        targets = [inst.root] + [search.node for search in state.active.values()]
        for search in state.active.values():
            for node in range(graph.num_nodes):
                assert state.l1[
                    node % state.planar_tiles
                ] * search.rate == state.estimator.multi_target_potential(
                    node, targets, search.weight
                )

    def test_identically_zero_without_future_costs(self):
        from repro.core.cost_distance import _initial_terminals, _Solve

        graph = build_grid_graph(13, 9, 3)
        inst = make_instance(graph, 12, seed=1)
        config = CostDistanceConfig(use_future_costs=False)
        state = _Solve(inst, config, random.Random(0), *_initial_terminals(inst))
        assert state.active and all(s.rate == 0.0 for s in state.active.values())
        state.run()  # merges refresh the targets; the array must not move
        assert state.merges and not state.active
        assert state.l1 == [0.0] * (13 * 9)


# ---------------------------------------------------------------- golden
_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "kernel_golden.json"

#: The last two rows route on the flat queue (``use_two_level_heap=False``).
#: They were recorded once ``_FlatQueue`` kept its members in insertion order
#: -- before that, ``remove_search`` iterated a set and the trees depended on
#: ``PYTHONHASHSEED`` (``TestFlatQueueIgnoresHashSeed``); every other row is
#: the recording of the commit before the kernel rebuild.
_GOLDEN_CONFIGS = {
    "default": CostDistanceConfig(),
    "plain-two-level": dataclasses.replace(
        CostDistanceConfig.plain(), use_two_level_heap=True
    ),
    "no-discount": CostDistanceConfig(discount_components=False),
    "no-future-cost": CostDistanceConfig(use_future_costs=False),
    "no-placement": CostDistanceConfig(improved_steiner_placement=False),
    "no-root-encouragement": CostDistanceConfig(encourage_root_connections=False),
    "plain": CostDistanceConfig.plain(),
    "flat-heap": CostDistanceConfig(use_two_level_heap=False),
}


def _golden_instances(chip_name, dbif):
    """Every net of one small stock chip as a standalone instance.

    ``c1`` keeps the uniform base prices (the tie-heavy regime of a first
    routing round) and no cost context; ``c2`` gets striped prices and an
    attached :class:`OracleCostContext`, so both set-up paths of the solver
    are pinned.  Weights follow a fixed arithmetic pattern: nothing here
    depends on a random stream or on the router.
    """
    spec = next(s for s in CHIP_SUITE if s.name == chip_name)
    graph, netlist = build_chip(spec)
    cost = graph.base_cost_array()
    delay = graph.delay_array()
    context = None
    if chip_name == "c2":
        cost = cost * (1.0 + 0.5 * ((np.arange(cost.size) * 7919) % 5))
        context = OracleCostContext(graph, cost, delay)
        cost, delay = context.cost, context.delay
    if dbif is None:
        dbif = graph.delay_model.bifurcation_penalty()
    bifurcation = BifurcationModel(dbif=dbif, eta=0.25)
    for index in range(len(netlist.nets)):
        root, sinks = netlist.net_terminals(graph, index)
        weights = [0.05 + 0.15 * ((index + k) % 7) for k in range(len(sinks))]
        yield SteinerInstance(
            graph, root, sinks, weights, cost, delay, bifurcation, context=context
        )


def kernel_digests(config_names=None):
    """``{"<config>/dbif=<d>/<chip>": ["<sha256[:16]>:<labels>:<iters>:<merges>", ...]}``

    One entry per net.  Recorded with the kernel of the commit before its
    rebuild (from the repository root, ``PYTHONPATH=<parent checkout>/src:.
    python -c "from tests.test_cost_distance import record_kernel_golden as
    r; r()"``) and not edited since: any drift in the pop order, the
    potentials or the component bookkeeping moves a tree or a label count
    here.
    """
    digests = {}
    for config_name in config_names or _GOLDEN_CONFIGS:
        solver = CostDistanceSolver(_GOLDEN_CONFIGS[config_name])
        for dbif in (None, 0.0):
            for chip_name in ("c1", "c2"):
                rows = []
                for index, inst in enumerate(_golden_instances(chip_name, dbif)):
                    result = solver.solve_with_details(inst, random.Random(index))
                    sha = hashlib.sha256(repr(tuple(result.tree.edges)).encode()).hexdigest()
                    rows.append(
                        f"{sha[:16]}:{result.num_labels}:{result.num_iterations}"
                        f":{len(result.merges)}"
                    )
                digests[f"{config_name}/dbif={dbif}/{chip_name}"] = rows
    return digests


def record_kernel_golden():
    _GOLDEN_PATH.parent.mkdir(exist_ok=True)
    _GOLDEN_PATH.write_text(json.dumps(kernel_digests(), indent=0) + "\n")


class TestKernelGolden:
    """Tie-order drift is caught here in seconds instead of by the 4-minute
    seed-0 ledger run (see DESIGN.md, "The pop-order contract")."""

    def test_trees_and_counts_match_parent_recording(self):
        golden = json.loads(_GOLDEN_PATH.read_text())
        current = kernel_digests()
        assert current.keys() == golden.keys()
        for key, rows in golden.items():
            assert current[key] == rows, key

    def test_two_level_rows_match_under_the_python_loop(self, monkeypatch):
        """The two-level rows run the compiled loop wherever it was built;
        its specification, the Python loop, must route them alike."""
        from repro.core import _search

        monkeypatch.setattr(_search, "LIB", None)
        golden = json.loads(_GOLDEN_PATH.read_text())
        names = [name for name, config in _GOLDEN_CONFIGS.items() if config.use_two_level_heap]
        current = kernel_digests(names)
        assert len(current) == 4 * len(names) == 24
        for key, rows in current.items():
            assert rows == golden[key], key


class TestFlatQueueIgnoresHashSeed:
    """``_FlatQueue.remove_search`` used to iterate a set of ints and
    ``("c", node)`` tuples, so flat-queue trees moved with the interpreter's
    string-hash seed; only a second interpreter can show that."""

    def test_two_hash_seeds_produce_the_same_trees(self):
        import os
        import subprocess
        import sys

        root = pathlib.Path(__file__).parent.parent
        script = (
            "import json; from tests.test_cost_distance import kernel_digests; "
            "print(json.dumps(kernel_digests(['plain', 'flat-heap'])))"
        )
        outputs = []
        for hash_seed in ("1", "3"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root, env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]
        golden = json.loads(_GOLDEN_PATH.read_text())
        assert outputs[0] == {key: golden[key] for key in outputs[0]}
