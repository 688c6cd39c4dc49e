"""Tests for the netlist, resource sharing prices, and the global router."""

import numpy as np
import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.baselines.rsmt import RectilinearSteinerOracle
from repro.grid.congestion import CongestionMap
from repro.grid.geometry import GridPoint
from repro.grid.graph import build_grid_graph
from repro.router.metrics import RoutingResult, format_result_row
from repro.router.netlist import Net, Netlist, Pin, Stage
from repro.router.resource_sharing import ResourceSharingConfig, ResourceSharingPrices
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.timing.sta import StaticTimingAnalysis


def tiny_netlist():
    nets = [
        Net("n0", Pin("n0:d", GridPoint(0, 0, 0)), [Pin("n0:s0", GridPoint(4, 1, 0)),
                                                    Pin("n0:s1", GridPoint(2, 5, 0))]),
        Net("n1", Pin("n1:d", GridPoint(4, 1, 0)), [Pin("n1:s0", GridPoint(7, 7, 0))]),
        Net("n2", Pin("n2:d", GridPoint(1, 6, 0)), [Pin("n2:s0", GridPoint(6, 3, 0))]),
    ]
    stages = [Stage(0, 0, 1, cell_delay=5.0)]
    return Netlist("tiny", nets, stages, clock_period=60.0)


class TestNetlist:
    def test_net_validation(self):
        with pytest.raises(ValueError):
            Net("bad", Pin("d", GridPoint(0, 0, 0)), [])

    def test_half_perimeter(self):
        net = tiny_netlist().nets[0]
        assert net.half_perimeter() == 4 + 5

    def test_stage_validation(self):
        nets = tiny_netlist().nets
        with pytest.raises(ValueError):
            Netlist("bad", nets, [Stage(0, 9, 1, 1.0)])
        with pytest.raises(ValueError):
            Netlist("bad", nets, [Stage(0, 0, 99, 1.0)])

    def test_endpoint_sinks(self):
        netlist = tiny_netlist()
        endpoints = set(netlist.endpoint_sinks())
        assert (0, 0) not in endpoints  # drives n1
        assert (0, 1) in endpoints
        assert (1, 0) in endpoints
        assert (2, 0) in endpoints

    def test_timing_graph_build(self):
        netlist = tiny_netlist()
        sta = netlist.timing_graph()
        assert isinstance(sta, StaticTimingAnalysis)
        report = sta.analyze({0: [10.0, 10.0], 1: [10.0], 2: [10.0]})
        assert report.worst_slack == pytest.approx(60.0 - 25.0)

    def test_net_size_histogram(self):
        netlist = tiny_netlist()
        hist = netlist.net_size_histogram()
        assert hist["1-2"] == 3
        assert sum(hist.values()) == netlist.num_nets

    def test_validate_on_graph(self):
        netlist = tiny_netlist()
        graph = build_grid_graph(10, 10, 3)
        netlist.validate_on_graph(graph)
        small = build_grid_graph(3, 3, 3)
        with pytest.raises(ValueError):
            netlist.validate_on_graph(small)

    def test_net_terminals(self):
        netlist = tiny_netlist()
        graph = build_grid_graph(10, 10, 3)
        root, sinks = netlist.net_terminals(graph, 0)
        assert graph.node_point(root) == GridPoint(0, 0, 0)
        assert len(sinks) == 2


class TestResourceSharing:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResourceSharingConfig(edge_price_strength=-1)
        with pytest.raises(ValueError):
            ResourceSharingConfig(weight_smoothing=1.5)

    def test_initial_weights(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [2, 3])
        assert prices.weights_of(0) == [prices.config.base_delay_weight] * 2
        assert len(prices.weights_of(1)) == 3

    def test_edge_prices_grow_with_congestion(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [1])
        congestion = CongestionMap(small_graph)
        congestion.add_usage([0], amount=small_graph.edge_capacity[0] * 2)
        before = prices.edge_prices.copy()
        prices.update_edge_prices(congestion)
        assert prices.edge_prices[0] > before[0]
        assert prices.edge_prices[0] <= prices.config.max_edge_price
        # Uncongested edges keep price 1.
        assert prices.edge_prices[1] == pytest.approx(1.0)

    def test_delay_weights_increase_for_critical_sinks(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [2])
        report_like = type(
            "R", (), {"worst_slack": -10.0, "sink_slacks": {0: [-10.0, 50.0]}}
        )()
        before = prices.weights_of(0)
        prices.update_delay_weights(report_like)
        after = prices.weights_of(0)
        assert after[0] > before[0]
        assert after[0] > after[1]

    def test_edge_costs_include_prices(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [1])
        congestion = CongestionMap(small_graph)
        prices.edge_prices[:] = 2.0
        costs = prices.edge_costs(congestion)
        assert np.allclose(costs, 2.0 * small_graph.edge_base_cost)

    def test_total_edge_price_monotone(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [1])
        congestion = CongestionMap(small_graph)
        congestion.add_usage(range(50), amount=20.0)
        before = prices.total_edge_price()
        prices.update_edge_prices(congestion)
        assert prices.total_edge_price() >= before


class TestGlobalRouterConfig:
    @pytest.mark.parametrize("num_rounds", [0, -3])
    def test_num_rounds_must_be_positive(self, num_rounds):
        with pytest.raises(ValueError, match="num_rounds must be at least 1"):
            GlobalRouterConfig(num_rounds=num_rounds)
        assert GlobalRouterConfig(num_rounds=1).num_rounds == 1


class TestGlobalRouter:
    @pytest.fixture(scope="class")
    def routed(self):
        graph = build_grid_graph(10, 10, 4)
        netlist = tiny_netlist()
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(num_rounds=2)
        )
        result = router.run()
        return graph, netlist, router, result

    def test_all_nets_routed(self, routed):
        _, netlist, router, _ = routed
        assert all(tree is not None for tree in router.trees)
        for net_index, tree in enumerate(router.trees):
            tree.validate()

    def test_result_metrics_consistent(self, routed):
        graph, netlist, router, result = routed
        assert isinstance(result, RoutingResult)
        assert result.chip == "tiny"
        assert result.method == "CD"
        assert result.num_nets == netlist.num_nets
        assert result.wire_length == pytest.approx(
            sum(t.wire_length() for t in router.trees)
        )
        assert result.via_count == sum(t.via_count() for t in router.trees)
        assert result.walltime_seconds > 0
        assert 0 <= result.ace4 <= 200
        assert result.total_negative_slack <= 0

    def test_usage_matches_trees(self, routed):
        graph, _, router, _ = routed
        expected = np.zeros(graph.num_edges)
        for tree in router.trees:
            for e in tree.edges:
                expected[e] += graph.edge_base_cost[e]
        assert np.allclose(router.congestion.usage, expected)

    def test_format_result_row(self, routed):
        *_, result = routed
        row = format_result_row(result)
        assert "tiny" in row and "CD" in row and "ACE4" in row

    def test_route_single_net(self):
        graph = build_grid_graph(10, 10, 4)
        netlist = tiny_netlist()
        router = GlobalRouter(graph, netlist, RectilinearSteinerOracle())
        tree = router.route_single_net(0)
        tree.validate()
        assert tree.method == "L1"

    def test_dbif_none_uses_repeater_model(self):
        graph = build_grid_graph(8, 8, 4)
        netlist = tiny_netlist()
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(dbif=None)
        )
        assert router.bifurcation.dbif == pytest.approx(
            graph.delay_model.bifurcation_penalty()
        )
        assert router.bifurcation.enabled

    def test_deterministic_runs(self):
        graph = build_grid_graph(10, 10, 4)
        netlist = tiny_netlist()
        results = []
        for _ in range(2):
            router = GlobalRouter(
                graph, netlist, CostDistanceSolver(), GlobalRouterConfig(num_rounds=2)
            )
            results.append(router.run())
        assert results[0].wire_length == pytest.approx(results[1].wire_length)
        assert results[0].via_count == results[1].via_count
        assert results[0].worst_slack == pytest.approx(results[1].worst_slack)

    def test_pins_outside_graph_rejected(self):
        graph = build_grid_graph(3, 3, 3)
        with pytest.raises(ValueError):
            GlobalRouter(graph, tiny_netlist(), CostDistanceSolver())
