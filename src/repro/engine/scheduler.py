"""Net scheduling: partitioning a routing round into parallel batches.

The resource-sharing decomposition routes every net independently against a
*frozen* congestion cost vector; usage updates only feed back into costs at
refresh points.  The scheduler exploits that structure and turns one round
into an ordered list of :class:`NetBatch` objects.  All nets of a batch are
routed against one shared congestion snapshot (by any executor backend, in
any order), then their usage deltas are applied, then the next batch starts.

Two policies are provided:

``window``
    Batches are simply the cost-refresh windows of the legacy serial loop
    (``cost_refresh_interval`` consecutive nets).  This reproduces the
    historical :class:`repro.router.router.GlobalRouter` behaviour exactly:
    within a window the serial loop routed every net against the same cost
    vector anyway, so routing the window as one parallel batch is free of
    interleaving artifacts by construction.

``bbox``
    Batches are conflict-free sets built by greedy colouring of the net
    bounding-box overlap graph.  Two nets conflict when their (halo-expanded)
    planar bounding boxes intersect; nets of a batch therefore consume
    disjoint routing regions and can share a congestion snapshot even though
    a serial router would have refreshed costs between them.  Costs are
    refreshed before *every* batch, so congestion feedback is finer-grained
    than in the window policy while batches stay arbitrarily wide.

Both policies are fully deterministic: batch membership and order depend only
on the netlist, the graph, and the scheduler parameters.

The scheduler also predicts each net's oracle work, its sinks times the
tiles of its halo-expanded box (:meth:`NetScheduler.net_work`): a static
property of the input that tracks the solve time closely, from which the
engine decides whether a batch is worth a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.grid.geometry import BoundingBox, bounding_box
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # circular at runtime: repro.router imports repro.engine
    from repro.router.netlist import Netlist

# BoundingBox moved to repro.grid.geometry (the shard partitioner needs it
# below the engine layer); re-exported here for compatibility.
__all__ = ["BBOX_HALO", "BoundingBox", "NetBatch", "NetScheduler"]

#: Tiles added around each net's pin bounding box for the engine's conflict
#: tests and cache regions.
BBOX_HALO = 2


@dataclass(frozen=True)
class NetBatch:
    """One schedulable unit: nets routed against a shared congestion snapshot."""

    index: int
    nets: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nets)


class NetScheduler:
    """Partitions the nets of a routing round into :class:`NetBatch` lists.

    Parameters
    ----------
    graph:
        The routing graph (supplies grid dimensions for halo clipping).
    netlist:
        The netlist whose nets are scheduled.  Pin bounding boxes are
        precomputed once; they are static across rounds.
    halo:
        Number of tiles added around each net's pin bounding box before
        testing for conflicts.  Routes may detour slightly outside their pin
        box, so a non-zero halo makes the ``bbox`` policy's independence
        assumption hold in practice.
    """

    def __init__(self, graph: RoutingGraph, netlist: "Netlist", halo: int = BBOX_HALO) -> None:
        if halo < 0:
            raise ValueError("halo must be non-negative")
        self.graph = graph
        self.netlist = netlist
        self.halo = halo
        self._boxes: List[BoundingBox] = [
            self._pin_box(net_index).expanded(halo, graph.nx, graph.ny)
            for net_index in range(netlist.num_nets)
        ]
        self._work: List[int] = [
            net.num_sinks * box.area() for net, box in zip(netlist.nets, self._boxes)
        ]

    def _pin_box(self, net_index: int) -> BoundingBox:
        pins = self.netlist.nets[net_index].pins()
        return BoundingBox(*bounding_box(p.position for p in pins))

    # ------------------------------------------------------------- queries
    def net_box(self, net_index: int) -> BoundingBox:
        """The halo-expanded planar bounding box of one net."""
        return self._boxes[net_index]

    def net_work(self, net_index: int) -> int:
        """The predicted oracle work of one net: its sink count times the
        tiles of its halo-expanded box (one search per sink, each over
        roughly that region)."""
        return self._work[net_index]

    def conflict(self, a: int, b: int) -> bool:
        """Whether nets ``a`` and ``b`` may compete for routing resources."""
        return self._boxes[a].overlaps(self._boxes[b])

    # ----------------------------------------------------------- schedules
    def schedule(
        self,
        net_indices: Optional[Sequence[int]] = None,
        policy: str = "window",
        window_size: int = 8,
    ) -> List[NetBatch]:
        """Partition ``net_indices`` (default: all nets) into batches.

        Every net appears in exactly one batch; concatenating the batches
        yields a permutation of ``net_indices``.  The ``window`` policy
        additionally preserves the input order.
        """
        if net_indices is None:
            net_indices = range(self.netlist.num_nets)
        nets = list(net_indices)
        if policy == "window":
            batches = self._schedule_window(nets, window_size)
        elif policy == "bbox":
            batches = self._schedule_bbox(nets)
        else:
            raise ValueError(f"unknown scheduling policy {policy!r}")
        return batches

    def _schedule_window(self, nets: List[int], window_size: int) -> List[NetBatch]:
        if window_size < 1:
            raise ValueError("window_size must be positive")
        return [
            NetBatch(batch_index, tuple(nets[start : start + window_size]))
            for batch_index, start in enumerate(range(0, len(nets), window_size))
        ]

    def _schedule_bbox(self, nets: List[int]) -> List[NetBatch]:
        # Greedy colouring in net order: place each net into the first batch
        # that contains no conflicting net.  Deterministic, and keeps batch
        # contents close to the serial routing order so the price-update
        # dynamics stay comparable.
        members: List[List[int]] = []
        for net in nets:
            for batch in members:
                if not any(self.conflict(net, other) for other in batch):
                    batch.append(net)
                    break
            else:
                members.append([net])
        return [NetBatch(i, tuple(batch)) for i, batch in enumerate(members)]
