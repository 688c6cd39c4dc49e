"""The compiled search loop against its specification, the Python loop.

Both loops must produce the same pops, labels, merges and trees on every
instance; the compiled one must really be the one that runs wherever a C
compiler is on the ``PATH``, and its absence must cost nothing but time.
"""

import contextlib
import functools
import logging
import random
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import _search
from repro.core.bifurcation import BifurcationModel
from repro.core.cost_distance import (
    CostDistanceConfig,
    CostDistanceSolver,
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
    """Solves started inside run the Python loop (``_Solve.run``)."""
    saved = _search.LIB
    _search.LIB = None
    try:
        yield
    finally:
        _search.LIB = saved


@contextlib.contextmanager
def recording_scans(scans):
    """Record what every ``_Solve.settled_on`` call returns: the order of
    its pairs is the order in which merges push connection candidates."""
    original = _Solve.settled_on

    def record(self, nodes, comp):
        found = original(self, nodes, comp)
        scans.append(found)
        return found

    _Solve.settled_on = record
    try:
        yield
    finally:
        _Solve.settled_on = original


def solve(instance, config, seed=0):
    """Tree edges, merge records, pops, labels and settled-node scans of one
    solve, and whether it ran compiled."""
    state = _Solve(instance, config, random.Random(seed), *_initial_terminals(instance))
    compiled = state.loop is not None
    scans = []
    with recording_scans(scans):
        pops, labels = state.run()
    return (tuple(state.tree_edges), state.merges, pops, labels, scans), compiled


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
        assert state.loop is not None and state.queue is state.loop

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
            assert state.loop is None

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


@st.composite
def instances(draw):
    """Small grids, uniform (tie-heavy) or random prices, sinks that repeat
    or sit on the root, penalties on or off."""
    graph = _grid(draw(st.integers(2, 7)), draw(st.integers(2, 6)), draw(st.integers(2, 3)))
    rng = random.Random(draw(st.integers(0, 2**20)))
    cost = graph.base_cost_array()
    if draw(st.booleans()):
        cost = cost * np.array([rng.choice([0.5, 1.0, 1.0, 2.0, 3.25]) for _ in cost])
    root = rng.randrange(graph.num_nodes)
    pins = [root] + [rng.randrange(graph.num_nodes) for _ in range(draw(st.integers(1, 6)))]
    sinks = [rng.choice(pins) for _ in range(draw(st.integers(1, 9)))]
    if draw(st.booleans()):
        weights = [0.5] * len(sinks)
    else:
        weights = [rng.choice([0.05, 0.3, 0.3, 1.0, 2.5]) for _ in sinks]
    dbif = draw(st.sampled_from([0.0, 2.0]))
    return _instance(graph, sinks, weights, root, dbif, cost)


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
            crowded += sum(len(scan) > 1 for scan in spec[4])
        assert checked >= 5 and crowded > 0


class TestSearchLoopCalls:
    @needs_compiled
    def test_settled_on_orders_nodes_outer_searches_inner(self):
        """Three searches flood a graph without components (the loop runs
        dry); the scan lists node by node, each in the given search order,
        and skips the excluded component."""
        from repro.core.shortest_path import dijkstra

        graph = build_grid_graph(3, 3, 2)
        cost, delay = graph.base_cost_array(), graph.delay_array()
        loop = _search.SearchLoop(_search.LIB, graph, cost, delay)
        for tid, node in ((0, 0), (1, 4), (2, 8)):
            loop.start_search(tid, node, tid, 0.5, 0.0, 0.0, ())
        with pytest.raises(RuntimeError, match="exhausted the queue"):
            loop.next_event()
        found = loop.settled_on([5, 1, 7], [2, 0, 1], 1)
        assert [(node, tid) for node, tid, _, _ in found] == [
            (5, 2), (5, 0), (1, 2), (1, 0), (7, 2), (7, 0)
        ]
        assert all(node_delay == 0.0 for *_, node_delay in found)  # no components
        lengths = (cost + 0.5 * delay).tolist()
        for node, tid, dist, _ in found:
            seed = (0, 4, 8)[tid]
            expected, _ = dijkstra(graph, lengths, {seed: 0.0}, targets=[node])
            assert dist == pytest.approx(expected[node], rel=1e-12)
        assert loop.path(2, 8) == ([8], [])
        nodes, edges = loop.path(0, 7)
        assert nodes[0] == 0 and nodes[-1] == 7 and len(edges) == len(nodes) - 1
        loop.close()


class TestMergeStepsInC:
    """The merge steps ``_search.c`` runs against their Python
    specifications, value for value, on drawn cases."""

    @staticmethod
    def _delays_seen(loop, graph):
        """Every node's member delay, as a flood from a search of its own
        component reports it: in the SETTLED events of the other
        components' nodes and in ``settled_on`` (whose two must agree)."""
        probe = 10**6
        loop.start_search(probe, 0, probe, 0.0, 0.0, 0.0, ())
        events = {}
        with pytest.raises(RuntimeError, match="exhausted the queue"):
            while True:
                assert loop.next_event() == _search.SETTLED
                events[loop.event.node] = (loop.event.comp, loop.event.delay)
        scan = loop.settled_on(list(range(graph.num_nodes)), [probe], -2)
        assert len(scan) == graph.num_nodes
        for node, comp_delay in events.items():
            assert comp_delay[1] == scan[node][3]
        loop.remove_search(probe)
        return [delay for *_, delay in scan], events

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

        seen, events = self._delays_seen(loop, graph)
        spec = _component_delays(graph, edges, representative, delay)
        spec_third = _component_delays(graph, third_edges, min(third), delay) if third else {}
        for node in range(graph.num_nodes):
            if node in third:
                assert seen[node] == spec_third.get(node, 0.0), node
                assert events[node][0] == 1
            elif node in big:
                assert seen[node] == spec.get(node, 0.0), node
                assert events[node][0] == 0
            else:
                assert seen[node] == 0.0 and node not in events
        unreached = [n for n in big if n not in spec]
        assert all(seen[n] == 0.0 for n in unreached)
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
            graph=graph, estimator=estimator, path_nodes=nodes, path_edges=edges,
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
        come back.  Buffers of ``len(nodes) * len(tids)`` entries would
        take 23 MB."""
        import tracemalloc

        graph = _grid(30, 30, 2)
        loop = _search.SearchLoop(
            _search.LIB, graph, graph.base_cost_array(), graph.delay_array()
        )
        loop.start_search(0, 0, 0, 0.5, 0.0, 0.0, ())
        with pytest.raises(RuntimeError, match="exhausted the queue"):
            loop.next_event()
        for tid in range(1, 400):
            loop.start_search(tid, tid, tid, 0.5, 0.0, 0.0, ())
        nodes = list(range(graph.num_nodes)) * 2
        tids = list(range(400))
        loop.settled_on(nodes[:10], tids, -1)  # warm
        tracemalloc.start()
        try:
            found = loop.settled_on(nodes, tids, -1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == len(nodes) and {tid for _, tid, _, _ in found} == {0}
        assert peak < 2_000_000, peak
        assert loop.settled_on(nodes, tids, 0) == []  # the settling search's own component
        loop.close()


class TestOneSwitch:
    """``_search.LIB`` is the only switch: with it ``None`` (and so under
    ``install_reference_kernel()``) no compiled piece runs, merge steps
    included, so ``kernel_speedup`` times all the Python they replace."""

    MERGE_STEPS = ("cd_component_delays", "cd_best_steiner", "cd_set_targets")

    @needs_compiled
    def test_no_compiled_merge_step_runs_without_the_library(self, monkeypatch):
        from repro.grid.reference import install_reference_kernel

        graph = _grid(7, 6, 3)
        inst = _instance(graph, [3, 17, 17, 40, 80, 111], [0.4, 0.9, 0.2, 1.3, 0.7, 0.5],
                         0, dbif=2.0)
        expected = CostDistanceSolver().solve_with_details(inst, random.Random(1))
        lib = _search.LIB

        def refuse(*args):
            raise AssertionError("a compiled merge step ran")

        for name in self.MERGE_STEPS:
            monkeypatch.setattr(lib, name, refuse)
        with pytest.raises(AssertionError, match="compiled merge step"):
            CostDistanceSolver().build(inst, random.Random(1))
        for switch in (python_loop, install_reference_kernel):
            with switch():
                result = CostDistanceSolver().solve_with_details(inst, random.Random(1))
            assert result.tree.edges == expected.tree.edges
            assert result.merges == expected.merges


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
