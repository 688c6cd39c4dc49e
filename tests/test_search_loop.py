"""The compiled search loop against its specification, ``PySearchLoop``.

Both loops have one interface, and the same calls must give the same
events and the same pops, labels, merges, scans and trees on every
instance, both compared event by event (``TestInterfaceDifferential``) and
through the one solve driver; the compiled loop must really be the one that
runs wherever a C compiler is on the ``PATH``, and its absence must cost
nothing but time.
"""

import contextlib
import dataclasses
import functools
import itertools
import logging
import math
import random
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import _search
from repro.core.bifurcation import BifurcationModel
from repro.core.cost_distance import (
    ROOT_ID,
    CostDistanceConfig,
    CostDistanceSolver,
    PySearchLoop,
    _best_steiner_position,
    _component_delays,
    _initial_terminals,
    _Solve,
    _target_l1,
)
from repro.core.future_cost import FutureCostEstimator
from repro.core.instance import SteinerInstance
from repro.grid.graph import RoutingGraph, build_grid_graph
from repro.instances.chips import CHIP_SUITE, build_chip
from repro.router.metrics import PARITY_FIELDS
from repro.router.router import GlobalRouter, GlobalRouterConfig

needs_compiled = pytest.mark.skipif(_search.LIB is None, reason="no compiled search loop")


@contextlib.contextmanager
def python_loop():
    """Solves started inside run the Python loop (:class:`PySearchLoop`)."""
    saved = _search.LIB
    _search.LIB = None
    try:
        yield
    finally:
        _search.LIB = saved


def solve(instance, config, seed=0):
    """Tree edges (before and after pruning), merge records, pops, labels
    and the settled-node scans of every merge (the pairs whose connection
    candidates it queued, in queue order) of one solve, and whether it ran
    compiled."""
    state = _Solve(instance, config, random.Random(seed), *_initial_terminals(instance))
    compiled = isinstance(state.loop, _search.SearchLoop)
    state.scans = []
    pops, labels = state.run()
    edges = tuple(state.loop.tree_edges())
    tree = state.tree(tuple(instance.sinks), "CD").edges
    return (edges, tree, state.merges, pops, labels, state.scans), compiled


def both_loops(instance, config, seed=0):
    compiled, ran_compiled = solve(instance, config, seed)
    with python_loop():
        spec, ran_compiled_again = solve(instance, config, seed)
    assert ran_compiled and not ran_compiled_again
    return compiled, spec


# ------------------------------------------------------------- loading
class TestLoading:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_compiled_loop_is_loaded_where_cc_exists(self, small_graph):
        assert _search.LIB is not None and _search.loop_name() == "compiled"
        inst = SteinerInstance(
            small_graph, 0, [45, 99], [0.5, 1.0],
            small_graph.base_cost_array(), small_graph.delay_array(),
        )
        state = _Solve(inst, CostDistanceConfig(), random.Random(0), *_initial_terminals(inst))
        assert isinstance(state.loop, _search.SearchLoop)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_source_compiles_without_warnings(self, tmp_path):
        done = subprocess.run(
            ["cc", *_search.FLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "search.so"), str(_search.SOURCE)],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_flat_queue_always_runs_in_python(self, small_graph):
        inst = SteinerInstance(
            small_graph, 0, [45, 99], [0.5, 1.0],
            small_graph.base_cost_array(), small_graph.delay_array(),
        )
        for config in (CostDistanceConfig.plain(), CostDistanceConfig(use_two_level_heap=False)):
            state = _Solve(inst, config, random.Random(0), *_initial_terminals(inst))
            assert isinstance(state.loop, PySearchLoop) and not state.loop.two_level

    def test_failed_load_falls_back_with_one_warning(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # nothing cached
        with caplog.at_level(logging.WARNING, logger="repro.core"):
            lib = _search.load(compiler="no-such-c-compiler")
        assert lib is None
        warnings = [r for r in caplog.records if r.name == "repro.core"]
        assert len(warnings) == 1 and "Python loop" in warnings[0].getMessage()

        graph = build_grid_graph(8, 8, 3)
        inst = _instance(graph, [3, 17, 17, 40, 0], [0.4, 0.9, 0.2, 1.3, 0.7], 0, dbif=1.0)
        solver = CostDistanceSolver()
        before = solver.solve_with_details(inst, random.Random(3))
        monkeypatch.setattr(_search, "LIB", lib)
        assert _search.loop_name() == "python"
        after = solver.solve_with_details(inst, random.Random(3))
        assert after.tree.edges == before.tree.edges
        assert after.merges == before.merges and after.num_labels == before.num_labels

    @needs_compiled
    def test_unusable_cache_builds_in_a_temporary_directory(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        lib = _search.load()
        assert lib is not None
        assert not (blocker.parent / "repro").exists()

    @needs_compiled
    def test_unloadable_cached_library_is_rebuilt(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cached = _search.cache_dir() / _search._library_name()
        cached.parent.mkdir(parents=True)
        cached.write_bytes(b"not a shared object")
        with caplog.at_level(logging.WARNING, logger="repro.core"):
            lib = _search.load()
        assert lib is not None and lib._name != str(cached)
        assert not [r for r in caplog.records if r.name == "repro.core"]
        assert cached.read_bytes() == b"not a shared object"

        state = _search.SearchLoop(lib)
        state.add_search(0)
        state.push(0, 7, 1.5)
        assert state.pop() == (1.5, 0, 7)

    def test_daemon_health_names_the_loop(self):
        from repro.serve.client import ServeClient
        from repro.serve.daemon import ServeDaemon

        with ServeDaemon(port=0, job_workers=1) as daemon:
            client = ServeClient(*daemon.start(), timeout=30.0)
            client.wait_until_up()
            assert client.health()["search_loop"] == _search.loop_name()


# --------------------------------------------------------- differential
def _instance(graph, sinks, weights, root, dbif=0.0, cost=None):
    return SteinerInstance(
        graph, root, sinks, weights,
        graph.base_cost_array() if cost is None else cost, graph.delay_array(),
        BifurcationModel(dbif=dbif, eta=0.25),
    )


@functools.lru_cache(maxsize=None)
def _grid(nx, ny, layers):
    return build_grid_graph(nx, ny, layers)


def _priced_grid(draw):
    """A small grid and a uniform (tie-heavy) or random price vector."""
    graph = _grid(draw(st.integers(2, 7)), draw(st.integers(2, 6)), draw(st.integers(2, 3)))
    rng = random.Random(draw(st.integers(0, 2**20)))
    cost = graph.base_cost_array()
    if draw(st.booleans()):
        cost = cost * np.array([rng.choice([0.5, 1.0, 1.0, 2.0, 3.25]) for _ in cost])
    return graph, rng, cost


def _net(draw, graph, rng, cost):
    """Sinks that repeat or sit on the root, penalties on or off."""
    root = rng.randrange(graph.num_nodes)
    pins = [root] + [rng.randrange(graph.num_nodes) for _ in range(draw(st.integers(1, 6)))]
    sinks = [rng.choice(pins) for _ in range(draw(st.integers(1, 9)))]
    if draw(st.booleans()):
        weights = [0.5] * len(sinks)
    else:
        weights = [rng.choice([0.05, 0.3, 0.3, 1.0, 2.5]) for _ in sinks]
    dbif = draw(st.sampled_from([0.0, 2.0]))
    return _instance(graph, sinks, weights, root, dbif, cost)


@st.composite
def instances(draw):
    """One drawn net on a drawn priced grid."""
    graph, rng, cost = _priced_grid(draw)
    return _net(draw, graph, rng, cost)


@st.composite
def batches(draw):
    """Several drawn nets on one drawn priced grid, as a batch routes them."""
    graph, rng, cost = _priced_grid(draw)
    return [_net(draw, graph, rng, cost) for _ in range(draw(st.integers(2, 6)))]


class TestDifferential:
    @needs_compiled
    @given(
        instance=instances(),
        discount=st.booleans(),
        future_costs=st.booleans(),
        placement=st.booleans(),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_loops_pop_label_and_merge_alike(
        self, instance, discount, future_costs, placement, seed
    ):
        config = CostDistanceConfig(
            discount_components=discount,
            use_future_costs=future_costs,
            improved_steiner_placement=placement,
            record_trace=True,
        )
        compiled, spec = both_loops(instance, config, seed)
        assert compiled == spec

    @needs_compiled
    def test_dense_nets_on_a_chip(self):
        """Every c3 net with 6 or more sinks, where searches run long and
        merges interleave with many live searches."""
        graph, netlist = build_chip(next(s for s in CHIP_SUITE if s.name == "c3"))
        cost = graph.base_cost_array() * (1.0 + 0.25 * (np.arange(graph.num_edges) % 3))
        checked = crowded = 0
        for index in range(len(netlist.nets)):
            root, sinks = netlist.net_terminals(graph, index)
            if len(sinks) < 6:
                continue
            weights = [0.05 + 0.2 * ((index + k) % 5) for k in range(len(sinks))]
            instance = _instance(graph, sinks, weights, root, 1.0, cost)
            compiled, spec = both_loops(instance, CostDistanceConfig(), index)
            assert compiled == spec, index
            checked += 1
            crowded += sum(len(scan) > 1 for scan in spec[5])
        assert checked >= 5 and crowded > 0


class TestInterfaceDifferential:
    """``SearchLoop`` and ``PySearchLoop`` driven through one ``reset`` →
    ``run``/``merge`` sequence with the same decisions, compared after
    every event: the view, the path, the last scan's pairs and the tree
    edges, and at the end the pruned tree.  The nets are crowded: many
    terminals on a small grid, and large merge penalties that let every
    search flood far before it connects.  So merges scan path nodes that
    several live searches have settled, and the order of the searches
    within one node of a scan is compared too."""

    @staticmethod
    def _event(loop, kind):
        view = loop.view
        path_nodes, path_edges = loop.path()
        state = [kind, view.pops, view.labels, loop.pairs(), loop.tree_edges(),
                 list(path_nodes), list(path_edges)]
        if kind == _search.MERGE:
            state += [
                view.search, view.owner, view.node, view.big, view.small,
                view.path_edges[: view.length], view.new_nodes[: view.num_new],
            ]
        return state

    def _drive(self, graph, cost, rng):
        """One drawn net through both loops; the number of scans that list
        a node for two or more searches."""
        num_terminals = rng.randint(5, 14)
        picked = rng.sample(range(graph.num_nodes), num_terminals + 1)
        root, nodes = picked[0], picked[1:]
        weights = [rng.choice([0.05, 0.3, 0.3, 1.0, 2.5]) for _ in nodes]
        rates = [rng.choice([0.0, 0.0, 0.5, 1.25]) for _ in nodes]
        future, placement = rng.random() < 0.5, rng.random() < 0.5
        total = sum(weights)
        args = (root, rng.random() < 0.7, future, rng.random() < 0.5,
                rng.choice([0.0, 8.0, 30.0]), 0.25, total, nodes, weights, rates)
        delay = graph.delay_array()
        loops = [_search.SearchLoop(_search.LIB, graph, cost, delay),
                 PySearchLoop(graph, cost, delay)]
        for loop in loops:
            loop.reset(*args)
        live = dict(enumerate(weights))
        kinds = [loop.run() for loop in loops]
        crowded = 0
        while True:
            events = [self._event(loop, kind) for loop, kind in zip(loops, kinds)]
            assert events[0] == events[1]
            scan = [node for node, *_ in loops[1].pairs()]
            crowded += len(scan) > len(set(scan))
            if kinds[0] == _search.DONE:
                break
            view = loops[1].view
            if view.owner == ROOT_ID:
                del live[view.search]
                total = sum(live.values())
                decision = (ROOT_ID, root, 0.0, 0.0, total)
            else:
                if placement:
                    roots = rng.sample(range(graph.num_nodes), rng.choice([0, 1, 5, 30]))
                    chosen = [loop.best_steiner(roots, live[view.search], live[view.owner],
                                                0.5, 0.25) for loop in loops]
                    assert chosen[0] == chosen[1]
                    node = chosen[0]
                else:
                    node = rng.choice(loops[1].path()[0])
                new_tid = max(live) + 1
                live[new_tid] = live.pop(view.search) + live.pop(view.owner)
                decision = (new_tid, node, live[new_tid], rng.choice([0.0, 0.5]), total)
            kinds = [loop.merge(*decision) for loop in loops]
        terminals = [root, *nodes]
        assert loops[0].pruned(terminals) == loops[1].pruned(terminals)
        loops[0].close()
        return crowded

    @needs_compiled
    @pytest.mark.parametrize("shape", [(4, 4, 2), (6, 5, 2), (5, 5, 3)])
    def test_both_loops_give_the_same_events(self, shape):
        graph = _grid(*shape)
        rng = random.Random(sum(shape))
        crowded = 0
        for _ in range(25):
            cost = graph.base_cost_array()
            if rng.random() < 0.5:
                cost = cost * np.array([rng.choice([0.5, 1.0, 1.0, 2.0, 3.25]) for _ in cost])
            crowded += self._drive(graph, cost, rng)
        assert crowded > 0


class TestSearchLoopCalls:
    @needs_compiled
    def test_settled_on_orders_nodes_outer_searches_inner(self):
        """Three searches flood a graph without components (the loop runs
        dry); the scan lists node by node, each by search id (activation
        order), and skips the excluded component."""
        from repro.core.shortest_path import dijkstra

        graph = build_grid_graph(3, 3, 2)
        cost, delay = graph.base_cost_array(), graph.delay_array()
        loop = _search.SearchLoop(_search.LIB, graph, cost, delay)
        for tid, node in ((0, 0), (1, 4), (2, 8)):
            loop.start_search(tid, node, tid, 0.5, 0.0, 0.0)
        with pytest.raises(RuntimeError, match="exhausted the queue"):
            loop.run()
        found = loop.settled_on([5, 1, 7], 1)
        assert [(node, tid) for node, tid, _, _ in found] == [
            (5, 0), (5, 2), (1, 0), (1, 2), (7, 0), (7, 2)
        ]
        assert all(node_delay == 0.0 for *_, node_delay in found)  # no components
        lengths = (cost + 0.5 * delay).tolist()
        for node, tid, dist, _ in found:
            seed = (0, 4, 8)[tid]
            expected, _ = dijkstra(graph, lengths, {seed: 0.0}, targets=[node])
            assert dist == pytest.approx(expected[node], rel=1e-12)
        loop.close()


class TestMergeStepsInC:
    """The merge steps ``_search.c`` runs against their Python
    specifications, value for value, on drawn cases."""

    @staticmethod
    def _members(loop, graph):
        """Every node's component and member delay."""
        return [loop.member(node) for node in range(graph.num_nodes)]

    @needs_compiled
    @given(
        shape=st.tuples(st.integers(2, 6), st.integers(2, 5), st.integers(2, 3)),
        seed=st.integers(0, 2**20),
        edge_share=st.sampled_from([0.3, 0.6, 1.0]),
        loose=st.integers(0, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_component_delays_match_the_spec(self, shape, seed, edge_share, loose):
        """Drawn edge sets (cycles wherever the share allows them), drawn
        delays with ties and zero-delay vias, a third component whose nodes
        lie on the walked edges, and ``loose`` nodes of the component no
        edge reaches.  A node keeps the delay of its own component: the
        third component's from its own walk, the stale delays of an
        earlier walk of the component are overwritten or zeroed."""
        graph = _grid(*shape)
        rng = random.Random(seed)
        delay = np.array([rng.choice([0.25, 1.0, 1.0, 1.5, 0.1 + rng.random()])
                          for _ in range(graph.num_edges)])
        delay[graph.edge_is_via] = np.array(
            [rng.choice([0.0, 0.0, 0.003]) for _ in range(int(graph.edge_is_via.sum()))]
        )
        loop = _search.SearchLoop(_search.LIB, graph, graph.base_cost_array(), delay)
        edges = {e for e in range(graph.num_edges) if rng.random() < edge_share}
        endpoints = sorted({int(n) for e in edges for n in (graph.edge_u[e], graph.edge_v[e])})
        if not endpoints:
            endpoints = [0]
        third = set(rng.sample(endpoints, len(endpoints) // 4))
        big = [n for n in endpoints if n not in third]
        if not big:
            big, third = endpoints, set()
        others = [n for n in range(graph.num_nodes) if n not in endpoints]
        big += rng.sample(others, min(loose, len(others)))
        loop.set_component(big, 0)
        loop.set_component(sorted(third), 1)
        # Earlier walks: the third component's own, and one of comp 0 over
        # every edge, whose delays the last walk must overwrite or zero.
        third_edges = [e for e in edges if graph.edge_u[e] in third or graph.edge_v[e] in third]
        if third:
            loop.component_delays(third_edges, min(third), 1)
        loop.component_delays(range(graph.num_edges), rng.choice(big), 0)
        representative = rng.choice(big)
        loop.component_delays(edges, representative, 0)

        members = self._members(loop, graph)
        spec = _component_delays(graph, edges, representative, delay)
        spec_third = _component_delays(graph, third_edges, min(third), delay) if third else {}
        for node, (comp, seen) in enumerate(members):
            if node in third:
                assert (comp, seen) == (1, spec_third.get(node, 0.0)), node
            elif node in big:
                assert (comp, seen) == (0, spec.get(node, 0.0)), node
            else:
                assert comp == -1 and seen == 0.0, node
        unreached = [n for n in big if n not in spec]
        assert all(members[n][1] == 0.0 for n in unreached)
        loop.close()

    @needs_compiled
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 6), st.integers(1, 3)),
        seed=st.integers(0, 2**20),
        steps=st.integers(0, 14),
        num_roots=st.sampled_from([0, 1, 3, 24, 25, 31]),
        weights=st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                          st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        rates=st.tuples(st.sampled_from([0.0, 0.5, 1.5]), st.sampled_from([0.0, 0.25, 1.1])),
        uniform=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_steiner_placement_matches_the_spec(
        self, shape, seed, steps, num_roots, weights, rates, uniform
    ):
        """Drawn self-avoiding walks (one node when ``steps`` is 0), empty,
        short and long root samples, and equal weights, rates and
        delays, so positions tie exactly and the first must win."""
        graph = _grid(*shape)
        rng = random.Random(seed)
        delay = np.full(graph.num_edges, 1.0) if uniform else np.array(
            [rng.choice([0.0, 0.5, 1.0, 1.25]) for _ in range(graph.num_edges)])
        nodes = [rng.randrange(graph.num_nodes)]
        edges = []
        for _ in range(steps):
            choices = [pair for pair in graph.neighbors(nodes[-1]) if pair[1] not in nodes]
            if not choices:
                break
            edge, other = rng.choice(choices)
            nodes.append(int(other))
            edges.append(int(edge))
        roots = [rng.randrange(graph.num_nodes) for _ in range(num_roots)]
        estimator = FutureCostEstimator(
            graph, cost_lower_bound=np.full(graph.num_edges, rates[0]),
            fastest_delay_per_tile=rates[1], num_landmarks=0,
        )
        expected = _best_steiner_position(
            estimator=estimator, path_nodes=nodes, path_edges=edges,
            delay=memoryview(delay), source_weight=weights[0], target_weight=weights[1],
            root_nodes=roots,
        )
        loop = _search.SearchLoop(_search.LIB, graph, graph.base_cost_array(), delay)
        path, root_array = np.array(nodes, np.int32), np.array(roots or [0], np.int32)
        index = _search.LIB.cd_best_steiner(
            loop._handle, path.ctypes.data, np.array(edges or [0], np.int32).ctypes.data,
            len(edges), root_array.ctypes.data, len(roots), weights[0], weights[1],
            estimator.min_cost_per_tile, estimator.fastest_delay_per_tile,
        )
        assert 0 <= index < len(nodes)
        assert nodes[index] == expected
        # The first minimum: no earlier position holds the spec's node.
        assert nodes.index(expected) == index
        loop.close()

    @needs_compiled
    @given(
        shape=st.tuples(st.integers(1, 14), st.integers(1, 11)),
        count=st.sampled_from([1, 2, 8, 9, 12]),
        seed=st.integers(0, 2**20),
        corners=st.booleans(),
        repeats=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_target_field_matches_the_spec(self, shape, count, seed, corners, repeats):
        """1, 8 (the last exact count), 9 (the first bounding box) and
        other target counts, drawn from the grid's corners or anywhere,
        with or without duplicates."""
        nx, ny = shape
        graph = _grid(nx, ny, 1)
        rng = random.Random(seed)
        pool = [0, nx - 1, (ny - 1) * nx, ny * nx - 1] if corners else range(nx * ny)
        tiles = [rng.choice(pool) for _ in range(count)]
        if repeats:
            tiles[-1] = tiles[0]
        loop = _search.SearchLoop(_search.LIB, graph, graph.base_cost_array(), graph.delay_array())
        field = loop.set_targets(tiles)
        expected = _target_l1(nx, ny, tiles)
        assert field is loop.l1 and field.dtype == expected.dtype
        assert field.tobytes() == expected.tobytes()
        loop.close()


class TestSettledOnMemory:
    @needs_compiled
    def test_buffers_grow_with_the_pairs_found_not_nodes_times_searches(self):
        """A 400-search net and a 3600-node path: one search has settled
        every node, the other 399 only queued their seeds, so 3600 pairs
        come back.  Buffers of ``len(nodes) * searches`` entries would take
        23 MB: C's grow to the pairs (its capacity), Python's list holds
        the pairs."""
        import tracemalloc

        graph = _grid(30, 30, 2)
        loop = _search.SearchLoop(
            _search.LIB, graph, graph.base_cost_array(), graph.delay_array()
        )
        loop.start_search(0, 0, 0, 0.5, 0.0, 0.0)
        with pytest.raises(RuntimeError, match="exhausted the queue"):
            loop.run()
        for tid in range(1, 400):
            loop.start_search(tid, tid, tid, 0.5, 0.0, 0.0)
        nodes = list(range(graph.num_nodes)) * 2
        loop.settled_on(nodes[:10], -1)  # warm
        tracemalloc.start()
        try:
            found = loop.settled_on(nodes, -1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == len(nodes) and {tid for _, tid, _, _ in found} == {0}
        assert peak < 2_000_000, peak
        assert len(nodes) <= loop.view.pair_capacity <= 2 * len(nodes)
        assert loop.settled_on(nodes, 0) == []  # the settling search's own component
        loop.close()


class TestOneSwitch:
    """``_search.LIB`` is the only switch: with it ``None`` (and so under
    ``install_reference_kernel()``) no compiled piece runs, merge steps
    included, so ``kernel_speedup`` times all the Python they replace."""

    @needs_compiled
    def test_no_compiled_entry_point_runs_without_the_library(self, monkeypatch):
        from repro.grid.reference import install_reference_kernel

        graph = _grid(7, 6, 3)
        inst = _instance(graph, [3, 17, 17, 40, 80, 111], [0.4, 0.9, 0.2, 1.3, 0.7, 0.5],
                         0, dbif=2.0)
        expected = CostDistanceSolver().solve_with_details(inst, random.Random(1))
        lib = _search.LIB
        entry_points = sorted(name for name in _search._SIGNATURES if name != "cd_free")
        assert {"cd_reset", "cd_run", "cd_merge", "cd_prune", "cd_best_steiner"} <= set(
            entry_points
        )

        def refuse(*args):
            raise AssertionError("a compiled entry point ran")

        for name in entry_points:
            monkeypatch.setattr(lib, name, refuse)
        with pytest.raises(AssertionError, match="compiled entry point"):
            CostDistanceSolver().build(inst, random.Random(1))
        for switch in (python_loop, install_reference_kernel):
            with switch():
                result = CostDistanceSolver().solve_with_details(inst, random.Random(1))
            assert result.tree.edges == expected.tree.edges
            assert result.merges == expected.merges


class TestConnectionKeys:
    """``cd_connection_key`` against ``PySearchLoop.connection_key``, bit for bit
    (``float.hex``, so a -0.0 or a one-ulp rounding shows)."""

    @needs_compiled
    @given(
        weights=st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.25, 0.05, 0.7, 1.3, 1e-300, 2.5]),
                         min_size=1, max_size=4),
        dbif=st.sampled_from([0.0, 0.0, 1e-3, 1.7, 7.3]),
        eta=st.sampled_from([0.0, 0.25, 0.5, 0.1, 0.35]),
        encourage=st.booleans(),
        total=st.sampled_from(["sum", "hair-below", "equal", "zero", "above"]),
        pick=st.integers(0, 3),
    )
    @settings(max_examples=400, deadline=None)
    def test_keys_match_the_spec_bit_for_bit(self, weights, dbif, eta, encourage, total, pick):
        """Penalties on and off, ``eta`` 0, 0.25 and 0.5 and two that are
        no power of two (so ``dbif * (eta * w)`` and ``eta * dbif * w`` may
        round apart and a root penalty dip below 0.0), III-E on and off,
        zero and equal weights, and a total active weight that is the
        weights' sum, one ulp below the searching terminal's weight
        (``total - w`` a hair below 0), equal to it, zero, or a little above
        it -- handed to C as a value.  Every search's key towards every
        other component, at zero and nonzero distances and delays."""
        graph = _grid(5, 4, 2)
        sinks = list(range(1, len(weights) + 1))
        inst = SteinerInstance(
            graph, 0, sinks, weights, graph.base_cost_array(), graph.delay_array(),
            BifurcationModel(dbif=dbif, eta=eta),
        )
        config = CostDistanceConfig(encourage_root_connections=encourage)
        nodes, init_weights = _initial_terminals(inst)
        tid = pick % len(nodes)
        w_u = init_weights[tid]
        total_weight = {
            "sum": sum(init_weights),
            "hair-below": math.nextafter(w_u, -math.inf),
            "equal": w_u,
            "zero": 0.0,
            "above": w_u * 1.1 + 1e-3,
        }[total]
        rates = [s.rate for s in _Solve(inst, config, random.Random(0), nodes,
                                        init_weights).active.values()]
        bif = inst.bifurcation
        args = (0, True, True, encourage and bif.enabled, bif.dbif, bif.eta, total_weight,
                nodes, init_weights, rates)
        spec = PySearchLoop(graph, inst.cost, inst.delay)
        spec.reset(*args)
        loop = _search.SearchLoop(_search.LIB, graph, inst.cost, inst.delay)
        loop.reset(*args)
        for tid in range(len(nodes)):
            for comp in range(len(nodes) + 1):
                if comp == tid + 1:  # the search's own component
                    continue
                for delay, dist in itertools.product([0.0, 0.5, 1e-9], [0.0, 0.1, 1e6]):
                    expected = spec.connection_key(tid, comp, delay, dist).hex()
                    got = loop.connection_key(tid, comp, delay, dist).hex()
                    assert got == expected, (tid, comp, delay, dist)
        loop.close()

    @needs_compiled
    def test_a_candidate_is_queued_again_only_above_its_key_plus_1e9(self):
        """A root candidate popped at ``k`` with fresh key ``K``: merged
        when ``K == k + 1e-9`` (the test is strict), queued again when
        ``K`` is one ulp above ``k + 1e-9`` (so more pops come first)."""
        graph = _grid(4, 4, 2)
        cost, delay = graph.base_cost_array(), graph.delay_array()

        def pops_to_merge(popped_key):
            loop = _search.SearchLoop(_search.LIB, graph, cost, delay)
            # Terminal 0 far from the root; search 5 (of terminal 0's
            # component) seeds on the root, so it settles the root first.
            loop.reset(0, True, False, True, 2.0, 0.25, 3.0, [15], [2.0], [0.0])
            loop.start_search(5, 0, 1, 1.0, 0.0, 0.0)
            loop.push(5, ("c", 0), popped_key)
            assert loop.run() == _search.MERGE
            view = loop.view
            assert (view.search, view.owner, view.node) == (5, ROOT_ID, 0)
            pops = view.pops
            loop.close()
            return pops

        loop = _search.SearchLoop(_search.LIB, graph, cost, delay)
        loop.reset(0, True, False, True, 2.0, 0.25, 3.0, [15], [2.0], [0.0])
        loop.start_search(5, 0, 1, 1.0, 0.0, 0.0)
        fresh = loop.connection_key(5, 0, 0.0, 0.0)  # 2.0: beta(1, 2) - 0.5
        loop.close()
        equal = fresh - 1e-9
        while equal + 1e-9 < fresh:
            equal = math.nextafter(equal, math.inf)
        while equal + 1e-9 > fresh:
            equal = math.nextafter(equal, -math.inf)
        assert equal + 1e-9 == fresh
        below = math.nextafter(equal, -math.inf)
        assert fresh > below + 1e-9
        assert pops_to_merge(below) > pops_to_merge(equal)


class TestPrune:
    @needs_compiled
    @given(
        shape=st.tuples(st.integers(2, 6), st.integers(2, 5), st.integers(1, 3)),
        seed=st.integers(0, 2**20),
        share=st.sampled_from([0.2, 0.5, 1.0]),
        num_terminals=st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_prune_matches_prune_dangling_branches(self, shape, seed, share, num_terminals):
        """Drawn edge streams through the tree's union-find (drawn forests,
        with components that hold no terminal), drawn terminals: C keeps
        what ``prune_dangling_branches`` keeps, in insertion order."""
        from repro.core.cost_distance import _UnionFind
        from repro.core.objective import prune_dangling_branches
        from repro.core.tree import EmbeddedTree

        graph = _grid(*shape)
        rng = random.Random(seed)
        edges = [e for e in range(graph.num_edges) if rng.random() < share]
        rng.shuffle(edges)
        loop = _search.SearchLoop(_search.LIB, graph, graph.base_cost_array(),
                                  graph.delay_array())
        loop.reset(0, True, False, False, 0.0, 0.25, 0.0, [], [], [])
        acyclic, accepted = _UnionFind(), []
        for edge in edges:
            u, v = int(graph.edge_u[edge]), int(graph.edge_v[edge])
            if rng.random() < 0.5:
                u, v = v, u
            added = loop.add_tree_edge(edge, u, v)
            assert added == acyclic.union(u, v)
            if added:
                accepted.append(edge)
        assert loop.tree_edges() == accepted
        root = rng.randrange(graph.num_nodes)
        sinks = tuple(rng.randrange(graph.num_nodes) for _ in range(num_terminals))
        spec = prune_dangling_branches(EmbeddedTree(graph, root, sinks, tuple(accepted)))
        assert loop.pruned([root, *sinks]) == spec.edges
        loop.close()


class TestThreads:
    @needs_compiled
    def test_concurrent_solves_match_serial_ones(self):
        """The daemon solves on several threads at once, and ``ctypes``
        releases the GIL inside each C call: solves share no C state."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        graph = _grid(9, 8, 3)
        rng = random.Random(5)
        instances = [
            _instance(
                graph,
                [rng.randrange(graph.num_nodes) for _ in range(7)],
                [rng.choice([0.1, 0.5, 1.5]) for _ in range(7)],
                rng.randrange(graph.num_nodes),
                dbif=2.0,
            )
            for _ in range(12)
        ]

        def details(index):
            result = CostDistanceSolver().solve_with_details(instances[index], random.Random(index))
            return result.tree.edges, result.merges, result.num_labels

        serial = [details(index) for index in range(len(instances))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(details, index % len(instances)) for index in range(48)]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [serial[index % len(instances)] for index in range(48)]


class TestLoopReuse:
    """One ``SearchLoop`` per context and thread serves every solve of a
    batch: ``cd_reset`` must leave nothing of the solve before."""

    @staticmethod
    def _on_context(instance, context):
        return dataclasses.replace(
            instance, cost=context.cost, delay=context.delay, context=context
        )

    @staticmethod
    def _solve_released(instance, config, seed):
        """:func:`solve` the way the solver runs it: the loop goes back to
        the context afterwards, also when the solve raises."""
        state = _Solve(instance, config, random.Random(seed), *_initial_terminals(instance))
        state.scans = []
        try:
            pops, labels = state.run()
            edges = tuple(state.loop.tree_edges())
            tree = state.tree(tuple(instance.sinks), "CD").edges
        finally:
            state.release()
        return (edges, tree, state.merges, pops, labels, state.scans), state.loop

    @needs_compiled
    @given(batch=batches(), seed=st.integers(0, 3), placement=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_a_sequence_of_solves_on_one_context_equals_fresh_loops(
        self, batch, seed, placement
    ):
        """Trees, merges, pops, labels and scans of a drawn batch solved
        on one context equal those of a fresh loop per solve, and every
        solve ran on the same loop."""
        from repro.core.costctx import OracleCostContext

        first = batch[0]
        context = OracleCostContext(first.graph, first.cost, first.delay)
        config = CostDistanceConfig(improved_steiner_placement=placement)
        loops = set()
        for index, instance in enumerate(batch):
            fresh, _ = solve(instance, config, seed + index)
            reused, loop = self._solve_released(
                self._on_context(instance, context), config, seed + index
            )
            assert reused == fresh, index
            loops.add(id(loop))
        assert len(loops) == 1

    @needs_compiled
    def test_a_solve_after_one_that_raised_is_unaffected(self):
        """The disconnected graph makes a solve raise mid-way; the loop it
        leaves behind serves the next solve as a fresh one would."""
        from repro.core.costctx import OracleCostContext

        graph = _two_islands()
        context = OracleCostContext(graph, np.ones(2), np.ones(2))
        config = CostDistanceConfig()
        broken = self._on_context(_instance(graph, [1, 3], [0.5, 0.5], 0), context)
        fine = _instance(graph, [1], [0.5], 0)
        expected, _ = solve(fine, config)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="exhausted the queue"):
                self._solve_released(broken, config, 0)
            result, loop = self._solve_released(self._on_context(fine, context), config, 0)
            assert result == expected
            assert context.search_loop(_search.LIB) is loop  # kept, and reused
            context.return_loop(loop)

    @needs_compiled
    def test_six_threads_sharing_one_context_equal_a_serial_run(self):
        """Per thread its own loop: solves of six threads on one context,
        switching every microsecond, equal the same solves run serially."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.costctx import OracleCostContext

        graph = _grid(9, 8, 3)
        context = OracleCostContext(graph, graph.base_cost_array(), graph.delay_array())
        rng = random.Random(7)
        batch = []
        for _ in range(12):
            sinks = [rng.randrange(graph.num_nodes) for _ in range(rng.randint(1, 8))]
            weights = [rng.choice([0.1, 0.5, 1.5]) for _ in sinks]
            net = _instance(graph, sinks, weights, rng.randrange(graph.num_nodes), dbif=2.0)
            batch.append(self._on_context(net, context))

        def details(index):
            result = CostDistanceSolver().solve_with_details(batch[index], random.Random(index))
            return result.tree.edges, result.merges, result.num_labels

        serial = [details(index) for index in range(len(batch))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(details, index % len(batch)) for index in range(72)]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [serial[index % len(batch)] for index in range(72)]


def _two_islands():
    """Nodes 0-1 and 2-3 of a 2x2x1 grid, with no edge between the pairs."""
    base = build_grid_graph(2, 2, 1)
    graph = RoutingGraph(2, 2, base.stack, base.delay_model, build=False)
    graph.edge_u = np.array([0, 2], dtype=np.int32)
    graph.edge_v = np.array([1, 3], dtype=np.int32)
    graph.edge_layer = np.zeros(2, dtype=np.int16)
    graph.edge_wire_type = np.zeros(2, dtype=np.int16)
    graph.edge_length = np.ones(2)
    graph.edge_delay = np.ones(2)
    graph.edge_base_cost = np.ones(2)
    graph.edge_capacity = np.ones(2)
    graph.edge_is_via = np.zeros(2, dtype=bool)
    graph._seal()
    return graph


class TestDisconnected:
    @pytest.mark.parametrize("loop", ["compiled", "python"])
    def test_both_loops_refuse_a_disconnected_graph(self, loop):
        if loop == "compiled" and _search.LIB is None:
            pytest.skip("no compiled search loop")
        graph = _two_islands()
        inst = _instance(graph, [1, 3], [0.5, 0.5], 0)
        with contextlib.ExitStack() as stack:
            if loop == "python":
                stack.enter_context(python_loop())
            with pytest.raises(RuntimeError, match="exhausted the queue.*disconnected"):
                CostDistanceSolver().build(inst, random.Random(0))


# ----------------------------------------------------------- end to end
def _route_c2(**config):
    """PARITY_FIELDS of a 2-round c2 route with one cost window per round
    (so parity mode reproduces it), and whether a region pool ran."""
    graph, netlist = build_chip(next(s for s in CHIP_SUITE if s.name == "c2"))
    config = GlobalRouterConfig(num_rounds=2, dbif=None, cost_refresh_interval=10**9, **config)
    router = GlobalRouter(graph, netlist, CostDistanceSolver(), config)
    result = router.run()
    pooled = config.shards > 1 and router.engine.region_executor.pool.used
    return [getattr(result, field) for field in PARITY_FIELDS], pooled


class TestRouteParity:
    @needs_compiled
    def test_c2_routes_alike_under_both_loops_inline_and_pooled(self):
        """Inline, and on a 2-worker region pool in parity mode (which
        reproduces the unsharded router under every layout)."""
        on_pool = dict(shards=2, shard_parity=True, shard_workers=2)
        reference, _ = _route_c2()
        pooled, used = _route_c2(**on_pool)
        assert pooled == reference
        with python_loop():
            assert _route_c2()[0] == reference
            assert _route_c2(**on_pool)[0] == reference
        if not used:
            pytest.skip("no process pool available in this environment")
