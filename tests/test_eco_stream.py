"""Tests for the ECO stream generator and the soak endurance harness."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost_distance import CostDistanceSolver
from repro.grid.graph import build_grid_graph
from repro.grid.geometry import GridPoint
from repro.instances.eco import (
    AddNet,
    AddSink,
    EcoResult,
    MovePin,
    RemoveNet,
    RemoveSink,
    ReweightSink,
    apply_eco,
    parse_ops,
)
from repro.instances.eco_stream import EcoStreamConfig, generate_eco_stream
from repro.instances.generator import NetlistGeneratorConfig, generate_netlist
from repro.router.netlist import Net, Netlist, Pin, Stage
from repro.router.router import GlobalRouterConfig
from repro.serve.session import RoutingSession
from repro.serve.soak import build_parser, run_soak

SWEEP = os.environ.get("REPRO_TEST_SWEEP") == "1"
SEEDS = (0, 1, 7) if SWEEP else (0,)


def make_design(seed=5, num_nets=12):
    graph = build_grid_graph(12, 12, 3)
    netlist = generate_netlist(
        graph, NetlistGeneratorConfig(num_nets=num_nets), seed=seed, name=f"eco{seed}"
    )
    return graph, netlist


class TestConfig:
    def test_rejects_nonpositive_ops(self):
        with pytest.raises(ValueError, match="ops"):
            EcoStreamConfig(ops=0)

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            EcoStreamConfig(batch_size=0)

    def test_rejects_nonpositive_max_new_sinks(self):
        with pytest.raises(ValueError, match="max_new_sinks"):
            EcoStreamConfig(max_new_sinks=-1)


class TestGenerator:
    def test_batch_shape(self):
        graph, netlist = make_design()
        batches = generate_eco_stream(
            netlist, graph, EcoStreamConfig(ops=23, batch_size=5, seed=0)
        )
        assert sum(len(batch) for batch in batches) == 23
        assert [len(batch) for batch in batches] == [5, 5, 5, 5, 3]

    def test_deterministic(self):
        graph, netlist = make_design()
        config = EcoStreamConfig(ops=40, batch_size=4, seed=9)
        first = generate_eco_stream(netlist, graph, config)
        second = generate_eco_stream(netlist, graph, config)
        assert first == second

    def test_different_seeds_differ(self):
        graph, netlist = make_design()
        one = generate_eco_stream(netlist, graph, EcoStreamConfig(ops=40, seed=1))
        two = generate_eco_stream(netlist, graph, EcoStreamConfig(ops=40, seed=2))
        assert one != two

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_batch_applies_cleanly(self, seed):
        """The generator's contract: replaying the stream never raises,
        even though later batches reference nets/sinks added earlier."""
        graph, netlist = make_design(seed=seed)
        batches = generate_eco_stream(
            netlist, graph, EcoStreamConfig(ops=60, batch_size=5, seed=seed)
        )
        session = RoutingSession(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(num_rounds=1)
        )
        session.route()
        for batch in batches:
            parse_ops(batch)  # wire-format dicts are well-formed
            session.apply_eco(batch)

    def test_covers_all_op_kinds(self):
        graph, netlist = make_design()
        batches = generate_eco_stream(
            netlist, graph, EcoStreamConfig(ops=300, batch_size=5, seed=3)
        )
        kinds = {op["op"] for batch in batches for op in batch}
        assert kinds == {
            "move_pin",
            "add_sink",
            "remove_sink",
            "add_net",
            "remove_net",
            "reweight_sink",
        }

    def test_input_netlist_not_mutated(self):
        graph, netlist = make_design()
        names_before = [net.name for net in netlist.nets]
        sinks_before = {net.name: len(net.sinks) for net in netlist.nets}
        generate_eco_stream(netlist, graph, EcoStreamConfig(ops=80, seed=4))
        assert [net.name for net in netlist.nets] == names_before
        assert {net.name: len(net.sinks) for net in netlist.nets} == sinks_before


class TestSoakHarness:
    @pytest.mark.slow
    def test_soak_smoke_parity(self, tmp_path):
        """A tiny faulted soak run reaches parity with its clean twin."""
        args = build_parser().parse_args(
            [
                "--chip", "c1",
                "--net-scale", "0.08",
                "--rounds", "2",
                "--ops", "10",
                "--batch-size", "5",
                "--shards", "2",
                "--shard-workers", "2",
                "--inject", "kill-region-worker:round=2",
                "--inject", "slow-oracle:ms=1",
            ]
        )
        report = run_soak(args)
        assert report["parity"] is True, report["mismatches"]
        assert report["mismatches"] == []
        assert report["flows"] == 1 + report["batches"]
        assert report["fault_counters"].get("fault.injected", 0) >= 1
        # The report is the CLI's stdout document -- it must be JSON-clean.
        json.dumps(report)


# ------------------------------------------------------- apply_eco reference
def _plain_find_net(nets, name):
    for index, net in enumerate(nets):
        if net.name == name:
            return index
    raise ValueError(f"ECO references unknown net {name!r}")


def _plain_find_sink(net, pin_name):
    for index, pin in enumerate(net.sinks):
        if pin.name == pin_name:
            return index
    raise ValueError(f"ECO references unknown sink {pin_name!r} of net {net.name!r}")


def _plain_apply_eco(netlist, ops):
    """``apply_eco`` as a linear scan per op: the reference."""
    nets = [Net(net.name, net.driver, list(net.sinks)) for net in netlist.nets]
    stages = list(netlist.stages)
    original_names = [net.name for net in netlist.nets]
    touched = []
    reweights = []

    def touch(name):
        if name not in touched:
            touched.append(name)

    for op in ops:
        if isinstance(op, MovePin):
            index = _plain_find_net(nets, op.net)
            net = nets[index]
            position = GridPoint(op.x, op.y, op.layer)
            if net.driver.name == op.pin:
                nets[index] = Net(net.name, Pin(op.pin, position), list(net.sinks))
            else:
                sink_index = _plain_find_sink(net, op.pin)
                sinks = list(net.sinks)
                sinks[sink_index] = Pin(op.pin, position)
                nets[index] = Net(net.name, net.driver, sinks)
            touch(op.net)
        elif isinstance(op, AddSink):
            index = _plain_find_net(nets, op.net)
            net = nets[index]
            if any(pin.name == op.pin for pin in net.sinks):
                raise ValueError(f"net {op.net!r} already has a sink {op.pin!r}")
            sinks = list(net.sinks) + [Pin(op.pin, GridPoint(op.x, op.y, op.layer))]
            nets[index] = Net(net.name, net.driver, sinks)
            touch(op.net)
        elif isinstance(op, RemoveSink):
            index = _plain_find_net(nets, op.net)
            net = nets[index]
            sink_index = _plain_find_sink(net, op.pin)
            if net.num_sinks == 1:
                raise ValueError(
                    f"cannot remove the last sink of net {op.net!r}; remove the net"
                )
            for stage in stages:
                if stage.from_net == index and stage.from_sink == sink_index:
                    raise ValueError(
                        f"sink {op.pin!r} of net {op.net!r} drives a stage; "
                        "remove the stage first"
                    )
            stages = [
                Stage(
                    s.from_net,
                    s.from_sink - 1
                    if s.from_net == index and s.from_sink > sink_index
                    else s.from_sink,
                    s.to_net,
                    s.cell_delay,
                )
                for s in stages
            ]
            sinks = [pin for i, pin in enumerate(net.sinks) if i != sink_index]
            nets[index] = Net(net.name, net.driver, sinks)
            touch(op.net)
        elif isinstance(op, AddNet):
            if any(net.name == op.net for net in nets):
                raise ValueError(f"net {op.net!r} already exists")
            driver_name, dx, dy, dl = op.driver
            sinks = [
                Pin(str(name), GridPoint(int(x), int(y), int(layer)))
                for name, x, y, layer in op.sinks
            ]
            nets.append(
                Net(op.net, Pin(str(driver_name), GridPoint(int(dx), int(dy), int(dl))), sinks)
            )
            touch(op.net)
        elif isinstance(op, RemoveNet):
            index = _plain_find_net(nets, op.net)
            for stage in stages:
                if stage.from_net == index or stage.to_net == index:
                    raise ValueError(
                        f"net {op.net!r} participates in a stage; remove the stage first"
                    )
            stages = [
                Stage(
                    s.from_net - 1 if s.from_net > index else s.from_net,
                    s.from_sink,
                    s.to_net - 1 if s.to_net > index else s.to_net,
                    s.cell_delay,
                )
                for s in stages
            ]
            del nets[index]
        elif isinstance(op, ReweightSink):
            _plain_find_net(nets, op.net)  # existence check at op time
            if op.weight < 0:
                raise ValueError("sink delay weights must be non-negative")
            reweights.append(op)
            touch(op.net)
        else:
            raise ValueError(f"unknown ECO op type {type(op).__name__}")

    edited = Netlist(netlist.name, nets, stages, clock_period=netlist.clock_period)

    new_index_by_name = {net.name: i for i, net in enumerate(nets)}
    index_map = {
        old: new_index_by_name[name]
        for old, name in enumerate(original_names)
        if name in new_index_by_name
    }

    overrides = {}
    for op in reweights:
        net = nets[_plain_find_net(nets, op.net)]
        sink_index = _plain_find_sink(net, op.pin)
        overrides.setdefault(op.net, {})[sink_index] = float(op.weight)

    return EcoResult(
        netlist=edited,
        touched=touched,
        index_map=index_map,
        weight_overrides=overrides,
    )


def _outcome(apply, netlist, ops):
    """Every field of the result, or the error's text."""
    try:
        result = apply(netlist, ops)
    except ValueError as exc:
        return "ValueError", str(exc)
    edited = result.netlist
    nets = [(net.name, net.driver, tuple(net.sinks)) for net in edited.nets]
    return (
        (edited.name, nets, list(edited.stages), edited.clock_period),
        result.touched,
        result.index_map,
        result.weight_overrides,
    )


class TestApplyEcoAgainstReference:
    @given(
        seed=st.integers(0, 2**16),
        num_nets=st.integers(1, 14),
        ops=st.integers(1, 40),
        cut=st.integers(0, 40),
        unknown=st.sampled_from([None, "move_pin", "remove_net", "reweight_sink",
                                 "add_sink", "remove_sink", "add_existing_net"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_linear_scan_reference(self, seed, num_nets, ops, cut, unknown):
        """Drawn op streams (pin moves, added and removed sinks and nets,
        reweights), cut anywhere, with an op on an unknown net (or adding
        an existing one) spliced in at the cut: every field of the result,
        or the error text, is the reference's."""
        graph, netlist = make_design(seed=seed % 7, num_nets=num_nets)
        stream = generate_eco_stream(
            netlist, graph, EcoStreamConfig(ops=ops, batch_size=3, seed=seed)
        )
        records = [record for batch in stream for record in batch][:max(cut, 1)]
        if unknown is not None:
            existing = netlist.nets[seed % len(netlist.nets)].name
            bad = {
                "move_pin": {"op": "move_pin", "net": "nope", "pin": "p", "x": 0, "y": 0},
                "remove_net": {"op": "remove_net", "net": "nope"},
                "reweight_sink": {"op": "reweight_sink", "net": "nope", "pin": "p",
                                  "weight": 1.0},
                "add_sink": {"op": "add_sink", "net": "nope", "pin": "p", "x": 0, "y": 0},
                "remove_sink": {"op": "remove_sink", "net": "nope", "pin": "p"},
                "add_existing_net": {"op": "add_net", "net": existing,
                                     "driver": ["d", 0, 0, 0], "sinks": [["s", 1, 1, 0]]},
            }[unknown]
            records.insert(seed % (len(records) + 1), bad)
        parsed = parse_ops(records)
        assert _outcome(apply_eco, netlist, parsed) == _outcome(_plain_apply_eco, netlist, parsed)
