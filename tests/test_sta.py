"""Tests for the static timing analyser."""

import pytest

from repro.timing.sta import StaticTimingAnalysis


class TestStructure:
    def test_invalid_indices_rejected(self):
        sta = StaticTimingAnalysis([2, 1])
        with pytest.raises(IndexError):
            sta.add_stage(5, 0, 1, 1.0)
        with pytest.raises(IndexError):
            sta.add_stage(0, 5, 1, 1.0)
        with pytest.raises(IndexError):
            sta.set_endpoint(0, 9, 100.0)
        with pytest.raises(ValueError):
            sta.add_stage(0, 0, 1, -1.0)

    def test_cycle_detection(self):
        sta = StaticTimingAnalysis([1, 1])
        sta.add_stage(0, 0, 1, 1.0)
        sta.add_stage(1, 0, 0, 1.0)
        with pytest.raises(ValueError):
            sta.topological_order()

    def test_topological_order(self):
        sta = StaticTimingAnalysis([1, 1, 1])
        sta.add_stage(0, 0, 1, 1.0)
        sta.add_stage(1, 0, 2, 1.0)
        order = sta.topological_order()
        assert order.index(0) < order.index(1) < order.index(2)


class TestAnalysis:
    def test_single_net_slack(self):
        sta = StaticTimingAnalysis([1])
        sta.set_endpoint(0, 0, required=100.0)
        report = sta.analyze({0: [30.0]})
        assert report.sink_arrivals[0][0] == pytest.approx(30.0)
        assert report.slack(0, 0) == pytest.approx(70.0)
        assert report.worst_slack == pytest.approx(70.0)
        assert report.total_negative_slack == 0.0

    def test_negative_slack_and_tns(self):
        sta = StaticTimingAnalysis([1, 1])
        sta.set_endpoint(0, 0, required=10.0)
        sta.set_endpoint(1, 0, required=10.0)
        report = sta.analyze({0: [25.0], 1: [12.0]})
        assert report.worst_slack == pytest.approx(-15.0)
        assert report.total_negative_slack == pytest.approx(-17.0)

    def test_chain_propagation(self):
        """Two stages: arrival accumulates net delay + cell delay."""
        sta = StaticTimingAnalysis([1, 1])
        sta.add_stage(0, 0, 1, cell_delay=5.0)
        sta.set_endpoint(1, 0, required=100.0)
        report = sta.analyze({0: [20.0], 1: [30.0]})
        assert report.sink_arrivals[1][0] == pytest.approx(20.0 + 5.0 + 30.0)
        assert report.slack(1, 0) == pytest.approx(100.0 - 55.0)
        # The upstream sink inherits its required time from the endpoint.
        assert report.sink_required[0][0] == pytest.approx(100.0 - 30.0 - 5.0)
        assert report.slack(0, 0) == pytest.approx(report.slack(1, 0))

    def test_multi_fanin_takes_max_arrival(self):
        sta = StaticTimingAnalysis([1, 1, 1])
        sta.add_stage(0, 0, 2, cell_delay=1.0)
        sta.add_stage(1, 0, 2, cell_delay=1.0)
        sta.set_endpoint(2, 0, required=50.0)
        report = sta.analyze({0: [10.0], 1: [30.0], 2: [5.0]})
        assert report.sink_arrivals[2][0] == pytest.approx(30.0 + 1.0 + 5.0)

    def test_unconstrained_sinks_have_infinite_slack(self):
        sta = StaticTimingAnalysis([2])
        sta.set_endpoint(0, 0, required=10.0)
        report = sta.analyze({0: [1.0, 2.0]})
        assert report.slack(0, 1) == float("inf")
        assert report.worst_slack == pytest.approx(9.0)

    def test_driver_arrival_offset(self):
        sta = StaticTimingAnalysis([1])
        sta.set_driver_arrival(0, 15.0)
        sta.set_endpoint(0, 0, required=20.0)
        report = sta.analyze({0: [10.0]})
        assert report.slack(0, 0) == pytest.approx(-5.0)

    def test_missing_delays_default_to_zero(self):
        sta = StaticTimingAnalysis([1])
        sta.set_endpoint(0, 0, required=5.0)
        report = sta.analyze({})
        assert report.slack(0, 0) == pytest.approx(5.0)

    def test_wrong_delay_count_rejected(self):
        sta = StaticTimingAnalysis([2])
        sta.set_endpoint(0, 0, required=5.0)
        with pytest.raises(ValueError):
            sta.analyze({0: [1.0]})

    def test_no_endpoints_reports_zero_worst_slack(self):
        sta = StaticTimingAnalysis([1])
        report = sta.analyze({0: [3.0]})
        assert report.worst_slack == 0.0
        assert report.total_negative_slack == 0.0

    def test_diamond_required_time_is_minimum(self):
        """A sink feeding two endpoints gets the tighter required time."""
        sta = StaticTimingAnalysis([1, 1, 1])
        sta.add_stage(0, 0, 1, cell_delay=0.0)
        sta.add_stage(0, 0, 2, cell_delay=0.0)
        sta.set_endpoint(1, 0, required=40.0)
        sta.set_endpoint(2, 0, required=20.0)
        report = sta.analyze({0: [5.0], 1: [1.0], 2: [1.0]})
        assert report.sink_required[0][0] == pytest.approx(19.0)


class TestReuse:
    def test_analyze_after_add_stage_sees_the_new_stage(self):
        """``analyze`` keeps the topological order between calls; a stage
        added in between invalidates it (a cycle then raises)."""

        def chain(num_stages):
            sta = StaticTimingAnalysis([1, 1, 1])
            for from_net, to_net, cell_delay in [(0, 1, 5.0), (1, 2, 4.0)][:num_stages]:
                sta.add_stage(from_net, 0, to_net, cell_delay)
            sta.set_endpoint(2, 0, required=100.0)
            return sta

        delays = {0: [1.0], 1: [2.0], 2: [3.0]}
        sta = chain(1)
        assert sta.analyze(delays).sink_arrivals[2][0] == 3.0
        assert sta.analyze(delays) == chain(1).analyze(delays)
        sta.add_stage(1, 0, 2, 4.0)
        report = sta.analyze(delays)
        assert report.sink_arrivals[2][0] == 1.0 + 5.0 + 2.0 + 4.0 + 3.0
        assert report == chain(2).analyze(delays)
        sta.add_stage(2, 0, 0, 1.0)
        with pytest.raises(ValueError, match="combinational cycle"):
            sta.analyze(delays)
