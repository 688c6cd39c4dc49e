"""Netlist model for timing-constrained global routing.

A :class:`Netlist` is a collection of :class:`Net` objects (one driver pin
and one or more sink pins, all placed on the global routing grid) plus the
combinational *stage* structure: a sink pin may drive the driver of another
net through a cell with a fixed delay.  Stages define the timing DAG used by
:class:`repro.timing.sta.StaticTimingAnalysis`; sink pins that do not drive
another net are timing endpoints constrained by the clock period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.grid.geometry import GridPoint
from repro.grid.graph import RoutingGraph
from repro.timing.sta import StaticTimingAnalysis

__all__ = ["Pin", "Net", "Stage", "Netlist"]


@dataclass(frozen=True)
class Pin:
    """A placed pin of a net."""

    name: str
    position: GridPoint


@dataclass
class Net:
    """A signal net: one driver (root) pin and one or more sink pins."""

    name: str
    driver: Pin
    sinks: List[Pin]

    def __post_init__(self) -> None:
        if not self.sinks:
            raise ValueError(f"net {self.name} has no sinks")

    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    def pins(self) -> List[Pin]:
        """Driver followed by all sinks."""
        return [self.driver] + list(self.sinks)

    def half_perimeter(self) -> int:
        """HPWL of the net's pins (a lower bound on its wire length)."""
        xs = [p.position.x for p in self.pins()]
        ys = [p.position.y for p in self.pins()]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))


@dataclass(frozen=True)
class Stage:
    """A combinational stage: ``(net, sink)`` drives the driver of ``to_net``."""

    from_net: int
    from_sink: int
    to_net: int
    cell_delay: float


@dataclass
class Netlist:
    """A routable, timeable netlist.

    Attributes
    ----------
    name:
        Instance name (e.g. ``"c3"``).
    nets:
        The nets, indexed by position in this list.
    stages:
        Combinational stage edges between nets.
    clock_period:
        Required arrival time (ps) at every timing endpoint.
    """

    name: str
    nets: List[Net]
    stages: List[Stage] = field(default_factory=list)
    clock_period: float = 500.0

    def __post_init__(self) -> None:
        seen = set()
        for net in self.nets:
            if net.name in seen:
                raise ValueError(
                    f"duplicate net name {net.name!r}; net names key RNG "
                    "streams and replay memos, so they must be unique"
                )
            seen.add(net.name)
        for stage in self.stages:
            self._check_stage(stage)

    def _check_stage(self, stage: Stage) -> None:
        if not 0 <= stage.from_net < len(self.nets):
            raise ValueError(f"stage references unknown net {stage.from_net}")
        if not 0 <= stage.to_net < len(self.nets):
            raise ValueError(f"stage references unknown net {stage.to_net}")
        if not 0 <= stage.from_sink < self.nets[stage.from_net].num_sinks:
            raise ValueError(
                f"stage references unknown sink {stage.from_sink} of net {stage.from_net}"
            )
        if stage.cell_delay < 0:
            raise ValueError("cell delay must be non-negative")

    # ------------------------------------------------------------- queries
    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def net_size_histogram(self) -> Dict[str, int]:
        """Histogram of net sizes using the paper's sink-count buckets."""
        buckets = {"1-2": 0, "3-5": 0, "6-14": 0, "15-29": 0, ">=30": 0}
        for net in self.nets:
            n = net.num_sinks
            if n <= 2:
                buckets["1-2"] += 1
            elif n <= 5:
                buckets["3-5"] += 1
            elif n <= 14:
                buckets["6-14"] += 1
            elif n <= 29:
                buckets["15-29"] += 1
            else:
                buckets[">=30"] += 1
        return buckets

    def endpoint_sinks(self) -> List[Tuple[int, int]]:
        """All ``(net, sink)`` pairs that are timing endpoints (drive no stage)."""
        driving = {(s.from_net, s.from_sink) for s in self.stages}
        endpoints = []
        for net_index, net in enumerate(self.nets):
            for sink_index in range(net.num_sinks):
                if (net_index, sink_index) not in driving:
                    endpoints.append((net_index, sink_index))
        return endpoints

    # -------------------------------------------------------------- timing
    def timing_graph(self) -> StaticTimingAnalysis:
        """Build the static timing analysis structure for this netlist."""
        sta = StaticTimingAnalysis([net.num_sinks for net in self.nets])
        for stage in self.stages:
            sta.add_stage(stage.from_net, stage.from_sink, stage.to_net, stage.cell_delay)
        for net_index, sink_index in self.endpoint_sinks():
            sta.set_endpoint(net_index, sink_index, self.clock_period)
        return sta

    # ------------------------------------------------------------- subsets
    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "Netlist":
        """A netlist containing only the nets at ``indices`` (order kept).

        Stages are retained when both endpoint nets survive and their net
        indices are remapped; stages crossing the subset boundary are
        dropped, which relaxes the timing constraints they carried.  Nets
        are shared, not copied -- callers must not mutate them.
        """
        index_map = {old: new for new, old in enumerate(indices)}
        if len(index_map) != len(indices):
            raise ValueError("subset indices must be unique")
        nets = [self.nets[i] for i in indices]
        stages = [
            Stage(
                index_map[s.from_net], s.from_sink, index_map[s.to_net], s.cell_delay
            )
            for s in self.stages
            if s.from_net in index_map and s.to_net in index_map
        ]
        return Netlist(
            name=name or self.name,
            nets=nets,
            stages=stages,
            clock_period=self.clock_period,
        )

    # ------------------------------------------------------------- mapping
    def net_terminals(self, graph: RoutingGraph, net_index: int) -> Tuple[int, List[int]]:
        """Graph node of the driver and of every sink of one net."""
        net = self.nets[net_index]
        root = graph.point_index(net.driver.position)
        sinks = [graph.point_index(p.position) for p in net.sinks]
        return root, sinks

    def validate_on_graph(self, graph: RoutingGraph) -> None:
        """Check that all pins lie inside the routing graph."""
        for net in self.nets:
            for pin in net.pins():
                p = pin.position
                if not (0 <= p.x < graph.nx and 0 <= p.y < graph.ny):
                    raise ValueError(
                        f"pin {pin.name} of net {net.name} at {p} lies outside the "
                        f"{graph.nx}x{graph.ny} grid"
                    )
                if not 0 <= p.layer < graph.num_layers:
                    raise ValueError(
                        f"pin {pin.name} of net {net.name} uses layer {p.layer} "
                        f"but the graph has {graph.num_layers} layers"
                    )
