"""A small static timing analyser for routed netlists.

Timing-constrained global routing is judged by worst slack (WS) and total
negative slack (TNS).  This module provides a light-weight net-level timing
graph: nets are timing nodes, a *stage edge* says that a sink pin of one net
drives (through a cell with a fixed delay) the driver pin of another net.
Given per-sink net delays (from the routed Steiner trees and the linear delay
model), arrival times are propagated forward and required times backward
through the DAG, yielding per-sink slacks, WS and TNS.

The structure intentionally contains only what the global router needs: it is
not a full STA (no rise/fall, no slew propagation), matching the abstraction
level of the linear delay model used before buffering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["StaticTimingAnalysis", "TimingReport", "StageEdge"]

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class StageEdge:
    """A combinational stage: sink pin of one net drives the driver of another."""

    from_net: int
    from_sink: int
    to_net: int
    cell_delay: float


@dataclass
class TimingReport:
    """Result of one timing analysis run.

    Attributes
    ----------
    worst_slack:
        The minimum slack over all constrained endpoints (ps).
    total_negative_slack:
        Sum of all negative endpoint slacks (ps, non-positive).
    sink_slacks:
        ``sink_slacks[net][sink]`` -- slack of each sink pin (ps); sinks of
        unconstrained cones report ``+inf``.
    sink_arrivals:
        Arrival time at each sink pin (ps).
    sink_required:
        Required arrival time at each sink pin (ps, ``+inf`` if unconstrained).
    """

    worst_slack: float
    total_negative_slack: float
    sink_slacks: Dict[int, List[float]]
    sink_arrivals: Dict[int, List[float]]
    sink_required: Dict[int, List[float]]

    def slack(self, net: int, sink: int) -> float:
        """Slack of one sink pin."""
        return self.sink_slacks[net][sink]


class StaticTimingAnalysis:
    """Net-level timing graph with forward/backward propagation.

    Nets are referenced by integer indices ``0 .. num_nets - 1``; each net
    ``i`` has ``num_sinks[i]`` sink pins referenced by ``0 .. num_sinks-1``.
    """

    def __init__(self, num_sinks_per_net: Sequence[int]) -> None:
        self.num_sinks: List[int] = [int(n) for n in num_sinks_per_net]
        if any(n < 0 for n in self.num_sinks):
            raise ValueError("sink counts must be non-negative")
        self.num_nets = len(self.num_sinks)
        self.stage_edges: List[StageEdge] = []
        self.driver_arrival_offset: List[float] = [0.0] * self.num_nets
        self.endpoint_required: Dict[Tuple[int, int], float] = {}
        self._out_edges: Dict[int, List[StageEdge]] = {}
        self._in_edges: Dict[int, List[StageEdge]] = {}
        #: ``topological_order()`` as ``analyze`` last computed it; ``None``
        #: until then and after every ``add_stage``.
        self._order: Optional[List[int]] = None

    # ----------------------------------------------------------- structure
    def add_stage(self, from_net: int, from_sink: int, to_net: int, cell_delay: float) -> None:
        """Declare that sink ``from_sink`` of ``from_net`` drives ``to_net``."""
        self._check_sink(from_net, from_sink)
        self._check_net(to_net)
        if cell_delay < 0:
            raise ValueError("cell delay must be non-negative")
        edge = StageEdge(from_net, from_sink, to_net, cell_delay)
        self.stage_edges.append(edge)
        self._out_edges.setdefault(from_net, []).append(edge)
        self._in_edges.setdefault(to_net, []).append(edge)
        self._order = None

    def set_driver_arrival(self, net: int, arrival: float) -> None:
        """Set the arrival-time offset at a net's driver (primary input delay)."""
        self._check_net(net)
        self.driver_arrival_offset[net] = float(arrival)

    def set_endpoint(self, net: int, sink: int, required: float) -> None:
        """Constrain a sink pin as a timing endpoint with a required time."""
        self._check_sink(net, sink)
        self.endpoint_required[(net, sink)] = float(required)

    def _check_net(self, net: int) -> None:
        if not 0 <= net < self.num_nets:
            raise IndexError(f"net index {net} out of range")

    def _check_sink(self, net: int, sink: int) -> None:
        self._check_net(net)
        if not 0 <= sink < self.num_sinks[net]:
            raise IndexError(f"sink {sink} out of range for net {net}")

    # ------------------------------------------------------------ analysis
    def topological_order(self) -> List[int]:
        """Nets in topological order of the stage DAG.

        Raises
        ------
        ValueError
            If the stage edges contain a combinational cycle.
        """
        indegree = [0] * self.num_nets
        for edge in self.stage_edges:
            indegree[edge.to_net] += 1
        queue = deque(i for i in range(self.num_nets) if indegree[i] == 0)
        order: List[int] = []
        while queue:
            net = queue.popleft()
            order.append(net)
            for edge in self._out_edges.get(net, []):
                indegree[edge.to_net] -= 1
                if indegree[edge.to_net] == 0:
                    queue.append(edge.to_net)
        if len(order) != self.num_nets:
            raise ValueError("stage edges contain a combinational cycle")
        return order

    def analyze(self, net_sink_delays: Dict[int, Sequence[float]]) -> TimingReport:
        """Run forward/backward propagation for the given net delays.

        Parameters
        ----------
        net_sink_delays:
            For every net index, the source-to-sink delay of each sink pin
            (ps).  Missing nets are treated as having zero delay.
        """
        if self._order is None:
            self._order = self.topological_order()
        order = self._order

        def delays_of(net: int) -> List[float]:
            values = net_sink_delays.get(net)
            if values is None:
                return [0.0] * self.num_sinks[net]
            values = list(values)
            if len(values) != self.num_sinks[net]:
                raise ValueError(
                    f"net {net} has {self.num_sinks[net]} sinks but "
                    f"{len(values)} delays were supplied"
                )
            return [float(v) for v in values]

        net_delays = [delays_of(net) for net in range(self.num_nets)]

        # Forward: arrival times.
        driver_arrival = [NEG_INF] * self.num_nets
        sink_arrivals: Dict[int, List[float]] = {}
        for net in order:
            incoming = self._in_edges.get(net, [])
            if incoming:
                arrival = NEG_INF
                for edge in incoming:
                    upstream = sink_arrivals[edge.from_net][edge.from_sink]
                    arrival = max(arrival, upstream + edge.cell_delay)
            else:
                arrival = 0.0
            arrival += self.driver_arrival_offset[net]
            driver_arrival[net] = arrival
            sink_arrivals[net] = [arrival + d for d in net_delays[net]]

        # Backward: required times.
        sink_required: Dict[int, List[float]] = {
            net: [POS_INF] * self.num_sinks[net] for net in range(self.num_nets)
        }
        for (net, sink), required in self.endpoint_required.items():
            sink_required[net][sink] = min(sink_required[net][sink], required)
        for net in reversed(order):
            delays = net_delays[net]
            # Required time at the driver of `net`.
            driver_required = POS_INF
            for sink in range(self.num_sinks[net]):
                req = sink_required[net][sink]
                if req < POS_INF:
                    driver_required = min(driver_required, req - delays[sink])
            if driver_required == POS_INF:
                continue
            for edge in self._in_edges.get(net, []):
                upstream = driver_required - edge.cell_delay - self.driver_arrival_offset[net]
                current = sink_required[edge.from_net][edge.from_sink]
                sink_required[edge.from_net][edge.from_sink] = min(current, upstream)

        # Slacks.
        sink_slacks: Dict[int, List[float]] = {}
        worst = POS_INF
        tns = 0.0
        for net in range(self.num_nets):
            slacks = []
            for sink in range(self.num_sinks[net]):
                required = sink_required[net][sink]
                if required == POS_INF:
                    slacks.append(POS_INF)
                    continue
                slack = required - sink_arrivals[net][sink]
                slacks.append(slack)
            sink_slacks[net] = slacks
        for (net, sink), _ in self.endpoint_required.items():
            slack = sink_slacks[net][sink]
            worst = min(worst, slack)
            if slack < 0:
                tns += slack
        if worst == POS_INF:
            worst = 0.0
        return TimingReport(
            worst_slack=worst,
            total_negative_slack=tns,
            sink_slacks=sink_slacks,
            sink_arrivals=sink_arrivals,
            sink_required=sink_required,
        )
