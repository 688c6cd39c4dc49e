"""ECO (engineering change order) deltas on a netlist.

Late design changes arrive as small edits -- a pin moves, a sink is added,
a net appears or disappears, a sink's timing weight changes -- and a serving
deployment must absorb them without restarting the whole routing flow.  This
module defines the delta vocabulary: small declarative :class:`EcoOp`
records (JSON-friendly, so the serve daemon can accept them over the wire)
and :func:`apply_eco`, which applies a list of them to a :class:`Netlist`
and reports what changed.

``apply_eco`` never mutates its input; it returns a fresh netlist plus an
:class:`EcoResult` describing the directly touched nets, the old-index to
new-index mapping (indices shift when nets are removed), and any sink
delay-weight overrides.  Deciding which *other* nets must be re-routed --
the dirty-net closure -- is the job of the replay machinery in
:mod:`repro.serve.session`, driven by instance signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.grid.geometry import GridPoint
from repro.router.netlist import Net, Netlist, Pin, Stage

__all__ = [
    "EcoOp",
    "MovePin",
    "AddSink",
    "RemoveSink",
    "AddNet",
    "RemoveNet",
    "ReweightSink",
    "EcoResult",
    "apply_eco",
    "parse_ops",
]


@dataclass(frozen=True)
class EcoOp:
    """Base class of all ECO operations."""

    #: Wire-format tag; set by each concrete op.
    op = "?"

    def as_dict(self) -> Dict[str, object]:
        raise NotImplementedError


@dataclass(frozen=True)
class MovePin(EcoOp):
    """Move one pin (driver or sink) of an existing net to a new position."""

    op = "move_pin"
    net: str
    pin: str
    x: int
    y: int
    layer: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "net": self.net,
            "pin": self.pin,
            "x": self.x,
            "y": self.y,
            "layer": self.layer,
        }


@dataclass(frozen=True)
class AddSink(EcoOp):
    """Append a new sink pin to an existing net."""

    op = "add_sink"
    net: str
    pin: str
    x: int
    y: int
    layer: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "net": self.net,
            "pin": self.pin,
            "x": self.x,
            "y": self.y,
            "layer": self.layer,
        }


@dataclass(frozen=True)
class RemoveSink(EcoOp):
    """Remove one sink pin from an existing net (at least one must remain)."""

    op = "remove_sink"
    net: str
    pin: str

    def as_dict(self) -> Dict[str, object]:
        return {"op": self.op, "net": self.net, "pin": self.pin}


@dataclass(frozen=True)
class AddNet(EcoOp):
    """Add a whole new net.  Pins are ``(name, x, y, layer)`` tuples."""

    op = "add_net"
    net: str
    driver: Tuple[str, int, int, int]
    sinks: Tuple[Tuple[str, int, int, int], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "net": self.net,
            "driver": list(self.driver),
            "sinks": [list(s) for s in self.sinks],
        }


@dataclass(frozen=True)
class RemoveNet(EcoOp):
    """Remove an existing net.

    The net must not participate in any combinational stage; its removal
    shifts the indices of all later nets, which drops their replay memos
    (an honest, if larger, re-route)."""

    op = "remove_net"
    net: str

    def as_dict(self) -> Dict[str, object]:
        return {"op": self.op, "net": self.net}


@dataclass(frozen=True)
class ReweightSink(EcoOp):
    """Override the initial delay weight of one sink pin."""

    op = "reweight_sink"
    net: str
    pin: str
    weight: float

    def as_dict(self) -> Dict[str, object]:
        return {"op": self.op, "net": self.net, "pin": self.pin, "weight": self.weight}


_OP_TYPES = {
    MovePin.op: MovePin,
    AddSink.op: AddSink,
    RemoveSink.op: RemoveSink,
    AddNet.op: AddNet,
    RemoveNet.op: RemoveNet,
    ReweightSink.op: ReweightSink,
}


def parse_ops(records: Sequence[Dict[str, object]]) -> List[EcoOp]:
    """Build :class:`EcoOp` objects from their wire-format dicts."""
    ops: List[EcoOp] = []
    for record in records:
        kind = record.get("op")
        if kind not in _OP_TYPES:
            raise ValueError(f"unknown ECO op {kind!r}; available: {sorted(_OP_TYPES)}")
        if kind == MovePin.op or kind == AddSink.op:
            ops.append(
                _OP_TYPES[kind](
                    net=str(record["net"]),
                    pin=str(record["pin"]),
                    x=int(record["x"]),  # type: ignore[arg-type]
                    y=int(record["y"]),  # type: ignore[arg-type]
                    layer=int(record.get("layer", 0)),  # type: ignore[arg-type]
                )
            )
        elif kind == RemoveSink.op:
            ops.append(RemoveSink(net=str(record["net"]), pin=str(record["pin"])))
        elif kind == AddNet.op:
            driver = record["driver"]
            sinks = record["sinks"]
            ops.append(
                AddNet(
                    net=str(record["net"]),
                    driver=tuple(driver),  # type: ignore[arg-type]
                    sinks=tuple(tuple(s) for s in sinks),  # type: ignore[union-attr]
                )
            )
        elif kind == RemoveNet.op:
            ops.append(RemoveNet(net=str(record["net"])))
        else:  # reweight_sink
            ops.append(
                ReweightSink(
                    net=str(record["net"]),
                    pin=str(record["pin"]),
                    weight=float(record["weight"]),  # type: ignore[arg-type]
                )
            )
    return ops


@dataclass
class EcoResult:
    """Outcome of applying an ECO delta.

    Attributes
    ----------
    netlist:
        The edited netlist (the input is never mutated).
    touched:
        Names of nets whose own definition changed (moved/added/removed
        pins, added nets, reweighted sinks).  Ripple effects through
        congestion are *not* included -- those are found by signature
        comparison during the replay.
    index_map:
        Mapping from old net index to new net index for every surviving
        net.  The identity map unless nets were removed.
    weight_overrides:
        ``{net_name: {sink_index: weight}}`` initial delay-weight overrides
        accumulated from :class:`ReweightSink` ops, with sink indices
        resolved against the edited netlist.
    """

    netlist: Netlist
    touched: List[str] = field(default_factory=list)
    index_map: Dict[int, int] = field(default_factory=dict)
    weight_overrides: Dict[str, Dict[int, float]] = field(default_factory=dict)


def _copy_net(net: Net) -> Net:
    return Net(net.name, net.driver, list(net.sinks))


def _find_net(index_of: Dict[str, int], name: str) -> int:
    index = index_of.get(name)
    if index is None:
        raise ValueError(f"ECO references unknown net {name!r}")
    return index


def _find_sink(net: Net, pin_name: str) -> int:
    for index, pin in enumerate(net.sinks):
        if pin.name == pin_name:
            return index
    raise ValueError(f"ECO references unknown sink {pin_name!r} of net {net.name!r}")


def apply_eco(netlist: Netlist, ops: Sequence[EcoOp]) -> EcoResult:
    """Apply a list of ECO ops and return the edited netlist plus impact.

    Costs O(k + n) for k ops on n nets (plus, per removal, the nets and
    stages behind it): nets are found through a name -> index map kept in
    step with the index shifts of added and removed nets."""
    nets = [_copy_net(net) for net in netlist.nets]
    stages = list(netlist.stages)
    original_names = [net.name for net in netlist.nets]
    index_of = {name: index for index, name in enumerate(original_names)}
    touched: Dict[str, None] = {}  # insertion-ordered set
    reweights: List[ReweightSink] = []

    def touch(name: str) -> None:
        touched.setdefault(name)

    for op in ops:
        if isinstance(op, MovePin):
            index = _find_net(index_of, op.net)
            net = nets[index]
            position = GridPoint(op.x, op.y, op.layer)
            if net.driver.name == op.pin:
                nets[index] = Net(net.name, Pin(op.pin, position), list(net.sinks))
            else:
                sink_index = _find_sink(net, op.pin)
                sinks = list(net.sinks)
                sinks[sink_index] = Pin(op.pin, position)
                nets[index] = Net(net.name, net.driver, sinks)
            touch(op.net)
        elif isinstance(op, AddSink):
            index = _find_net(index_of, op.net)
            net = nets[index]
            if any(pin.name == op.pin for pin in net.sinks):
                raise ValueError(f"net {op.net!r} already has a sink {op.pin!r}")
            sinks = list(net.sinks) + [Pin(op.pin, GridPoint(op.x, op.y, op.layer))]
            nets[index] = Net(net.name, net.driver, sinks)
            touch(op.net)
        elif isinstance(op, RemoveSink):
            index = _find_net(index_of, op.net)
            net = nets[index]
            sink_index = _find_sink(net, op.pin)
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
            if op.net in index_of:
                raise ValueError(f"net {op.net!r} already exists")
            driver_name, dx, dy, dl = op.driver
            sinks = [
                Pin(str(name), GridPoint(int(x), int(y), int(layer)))
                for name, x, y, layer in op.sinks
            ]
            nets.append(
                Net(op.net, Pin(str(driver_name), GridPoint(int(dx), int(dy), int(dl))), sinks)
            )
            index_of[op.net] = len(nets) - 1
            touch(op.net)
        elif isinstance(op, RemoveNet):
            index = _find_net(index_of, op.net)
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
            del index_of[op.net]
            for shifted in range(index, len(nets)):
                index_of[nets[shifted].name] = shifted
        elif isinstance(op, ReweightSink):
            _find_net(index_of, op.net)  # existence check at op time
            if op.weight < 0:
                raise ValueError("sink delay weights must be non-negative")
            reweights.append(op)
            touch(op.net)
        else:
            raise ValueError(f"unknown ECO op type {type(op).__name__}")

    edited = Netlist(netlist.name, nets, stages, clock_period=netlist.clock_period)

    index_map = {i: index_of[name] for i, name in enumerate(original_names) if name in index_of}

    overrides: Dict[str, Dict[int, float]] = {}
    for op in reweights:
        net = nets[_find_net(index_of, op.net)]
        sink_index = _find_sink(net, op.pin)
        overrides.setdefault(op.net, {})[sink_index] = float(op.weight)

    return EcoResult(
        netlist=edited,
        touched=list(touched),
        index_map=index_map,
        weight_overrides=overrides,
    )
