"""The 3D global routing graph.

Nodes are global routing tiles on metal layers; edges are either *routing
edges* between adjacent tiles on the same layer (only along the layer's
preferred direction, one parallel edge per wire type) or *via edges* between
the same tile on adjacent layers.

Every edge carries

* a static ``delay`` from the linear delay model (``d(e)`` in the paper),
* a ``base_cost`` proportional to the routing resources it consumes
  (tracks for wires, cut area for vias), and
* a ``capacity`` used by congestion tracking.

The congestion-dependent cost ``c(e)`` used by the Steiner algorithms is a
numpy array produced by :class:`repro.grid.congestion.CongestionMap` (or any
pricing scheme); the graph itself only stores the static attributes.

The graph is stored in flat parallel edge arrays plus two aligned tuples per
node -- incident edge indices and opposite endpoints, in ascending edge order
-- so Dijkstra-style searches stay reasonably fast in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.geometry import BoundingBox, GridPoint
from repro.grid.layers import LayerStack, default_layer_stack
from repro.timing.delay import LinearDelayModel

__all__ = ["Edge", "Prism", "RoutingGraph", "build_grid_graph", "extract_prism"]

# Cost charged for one via relative to one track-tile of wiring.  Vias are
# cheap compared to wires but not free, so gratuitous layer hopping is
# discouraged -- the via counts of Tables IV/V depend on this trade-off.
VIA_BASE_COST = 0.5
# Vias between two tiles are plentiful compared to routing tracks.
VIA_CAPACITY = 24.0


@dataclass(frozen=True)
class Edge:
    """A single routing-graph edge (convenience view onto the flat arrays)."""

    index: int
    u: int
    v: int
    layer: int
    wire_type: int
    length: float
    delay: float
    base_cost: float
    capacity: float
    is_via: bool


#: The per-edge attribute arrays of a :class:`RoutingGraph`.  They are frozen
#: (``writeable=False``) once a graph is built: everything memoised per graph
#: (:meth:`RoutingGraph.prism`, :meth:`RoutingGraph.box_edges`) is a function
#: of these arrays and a box alone.
EDGE_ARRAYS = (
    "edge_u",
    "edge_v",
    "edge_layer",
    "edge_wire_type",
    "edge_length",
    "edge_delay",
    "edge_base_cost",
    "edge_capacity",
    "edge_is_via",
)


def _inside_box(ux, uy, vx, vy, xlo: int, ylo: int, xhi: int, yhi: int) -> np.ndarray:
    """Mask of the edges whose endpoints ``(ux, uy)`` and ``(vx, vy)`` both
    lie in the closed planar box."""
    return (
        (ux >= xlo)
        & (ux <= xhi)
        & (uy >= ylo)
        & (uy <= yhi)
        & (vx >= xlo)
        & (vx <= xhi)
        & (vy >= ylo)
        & (vy <= yhi)
    )


def _adjacency(
    num_nodes: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """``(incident, neighbours)``: per node, the incident edge indices in
    ascending order and the opposite endpoints, aligned.

    A stable argsort of the interleaved half-edges ``u0, v0, u1, v1, ...``
    by endpoint keeps each node's edges in the order an append loop over
    the edges would produce (part of the pop-order contract).  All int
    objects are drawn from one ``range`` list, so each value exists once.
    """
    ends = np.empty(2 * len(edge_u), dtype=np.int64)
    ends[0::2] = edge_u
    ends[1::2] = edge_v
    order = np.argsort(ends, kind="stable")
    ints = list(range(max(num_nodes, len(edge_u))))
    edges = list(map(ints.__getitem__, (order >> 1).tolist()))
    others = list(map(ints.__getitem__, ends[order ^ 1].tolist()))
    bounds = np.cumsum(np.bincount(ends, minlength=num_nodes)).tolist()
    spans = list(zip([0] + bounds[:-1], bounds))
    return (
        tuple(tuple(edges[a:b]) for a, b in spans),
        tuple(tuple(others[a:b]) for a, b in spans),
    )


def _retained(memo: Dict, live: Collection[BoundingBox]) -> Dict:
    """``memo`` without the entries whose box is not in ``live``."""
    live = set(live)
    return {box: entry for box, entry in memo.items() if box in live}


@dataclass(frozen=True)
class Prism:
    """The scaffolding of one sub-prism of a graph (see
    :meth:`RoutingGraph.prism`): what :func:`extract_prism` builds plus the
    edge maps in both directions (int64, read-only)."""

    sub_graph: "RoutingGraph"
    #: Sub-edge index -> edge of the parent graph (sorted).
    edge_to_global: np.ndarray = field(repr=False)
    #: Parent edge -> sub-edge index, ``-1`` outside the prism.
    edge_to_local: np.ndarray = field(repr=False)


class RoutingGraph:
    """A 3D grid global routing graph.

    Use :func:`build_grid_graph` to construct one; the constructor is
    considered internal.

    A built graph is immutable: frozen edge arrays, and per node the
    aligned tuples ``incident[node]`` (edge indices, ascending) and
    ``neighbours[node]`` (opposite endpoints), derived from the arrays and
    rebuilt rather than pickled.  It owns two memos keyed by a planar
    box: :meth:`prism` (sub-graph + edge maps of the shard layer's scopes)
    and :meth:`box_edges` (the edge set of a net's signature region).  Both
    die with the graph and never travel: pickling a graph (region worker
    specs, checkpoints) drops them.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        stack: LayerStack,
        delay_model: LinearDelayModel,
        build: bool = True,
    ) -> None:
        """``build=False`` leaves the edge arrays empty for callers that
        fill them directly (see :func:`extract_prism`)."""
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be positive")
        self.nx = nx
        self.ny = ny
        self.stack = stack
        self.delay_model = delay_model
        self.num_layers = stack.num_layers
        self.num_nodes = nx * ny * self.num_layers

        # Edge attribute arrays, filled by _build().
        self.edge_u = np.empty(0, dtype=np.int32)
        self.edge_v = np.empty(0, dtype=np.int32)
        self.edge_layer = np.empty(0, dtype=np.int16)
        self.edge_wire_type = np.empty(0, dtype=np.int16)
        self.edge_length = np.empty(0, dtype=np.float64)
        self.edge_delay = np.empty(0, dtype=np.float64)
        self.edge_base_cost = np.empty(0, dtype=np.float64)
        self.edge_capacity = np.empty(0, dtype=np.float64)
        self.edge_is_via = np.empty(0, dtype=bool)
        # Per node: incident edge indices (ascending) and opposite
        # endpoints, aligned; set by _seal().
        self.incident: Tuple[Tuple[int, ...], ...] = ()
        self.neighbours: Tuple[Tuple[int, ...], ...] = ()
        self._reset_memos()
        if build:
            self._build()

    def _reset_memos(self) -> None:
        self._prisms: Dict[BoundingBox, Prism] = {}
        self._box_edges: Dict[BoundingBox, np.ndarray] = {}
        # Planar (x, y) of both endpoints of every edge, built on first use.
        self._edge_planar: Optional[Tuple[np.ndarray, ...]] = None

    def _seal(self) -> None:
        """Freeze the edge arrays and derive the adjacency from them."""
        for name in EDGE_ARRAYS:
            getattr(self, name).setflags(write=False)
        self.incident, self.neighbours = _adjacency(self.num_nodes, self.edge_u, self.edge_v)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for derived in ("_prisms", "_box_edges", "_edge_planar", "incident", "neighbours"):
            del state[derived]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._reset_memos()
        self._seal()  # numpy does not pickle the writeable flag

    # ------------------------------------------------------------ indexing
    def node_index(self, x: int, y: int, layer: int) -> int:
        """Flat node index of tile ``(x, y)`` on ``layer``."""
        if not (0 <= x < self.nx and 0 <= y < self.ny and 0 <= layer < self.num_layers):
            raise IndexError(f"node ({x},{y},{layer}) outside the grid")
        return (layer * self.ny + y) * self.nx + x

    def point_index(self, point: GridPoint) -> int:
        """Flat node index of a :class:`GridPoint`."""
        return self.node_index(point.x, point.y, point.layer)

    def node_point(self, index: int) -> GridPoint:
        """The :class:`GridPoint` of a flat node index."""
        if not 0 <= index < self.num_nodes:
            raise IndexError(f"node index {index} out of range")
        layer, rest = divmod(index, self.nx * self.ny)
        y, x = divmod(rest, self.nx)
        return GridPoint(x, y, layer)

    def node_planar(self, index: int) -> Tuple[int, int]:
        """Planar (x, y) coordinates of a flat node index (cheaper than node_point)."""
        rest = index % (self.nx * self.ny)
        y, x = divmod(rest, self.nx)
        return x, y

    # ------------------------------------------------------------- queries
    @property
    def num_edges(self) -> int:
        return len(self.edge_u)

    def edge(self, index: int) -> Edge:
        """Return an :class:`Edge` view of edge ``index``."""
        return Edge(
            index=index,
            u=int(self.edge_u[index]),
            v=int(self.edge_v[index]),
            layer=int(self.edge_layer[index]),
            wire_type=int(self.edge_wire_type[index]),
            length=float(self.edge_length[index]),
            delay=float(self.edge_delay[index]),
            base_cost=float(self.edge_base_cost[index]),
            capacity=float(self.edge_capacity[index]),
            is_via=bool(self.edge_is_via[index]),
        )

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as :class:`Edge` views."""
        for i in range(self.num_edges):
            yield self.edge(i)

    def neighbors(self, node: int) -> List[Tuple[int, int]]:
        """``[(edge_index, other_node), ...]`` incident to ``node`` (a fresh
        list; the search loops read :attr:`incident` and :attr:`neighbours`)."""
        return list(zip(self.incident[node], self.neighbours[node]))

    def other_endpoint(self, edge_index: int, node: int) -> int:
        """The endpoint of ``edge_index`` that is not ``node``."""
        u = int(self.edge_u[edge_index])
        v = int(self.edge_v[edge_index])
        if node == u:
            return v
        if node == v:
            return u
        raise ValueError(f"node {node} is not an endpoint of edge {edge_index}")

    def base_cost_array(self) -> np.ndarray:
        """A copy of the base (uncongested) cost vector ``c(e)``."""
        return self.edge_base_cost.copy()

    def delay_array(self) -> np.ndarray:
        """A copy of the static delay vector ``d(e)``."""
        return self.edge_delay.copy()

    def path_endpoints(self, edge_indices: Sequence[int]) -> Tuple[int, int]:
        """Endpoints of a simple path given as a sequence of edge indices."""
        if not edge_indices:
            raise ValueError("empty edge path")
        degree: Dict[int, int] = {}
        for e in edge_indices:
            for node in (int(self.edge_u[e]), int(self.edge_v[e])):
                degree[node] = degree.get(node, 0) + 1
        ends = [node for node, deg in degree.items() if deg == 1]
        if len(ends) != 2:
            raise ValueError("edge sequence is not a simple path")
        return ends[0], ends[1]

    # ------------------------------------------------------ per-box memos
    def box_edges(self, box: BoundingBox) -> np.ndarray:
        """Sorted indices of the edges with both endpoints inside ``box``
        (memoised; the array is shared and read-only)."""
        cached = self._box_edges.get(box)
        if cached is None:
            if self._edge_planar is None:
                tiles = self.nx * self.ny
                rest_u = np.asarray(self.edge_u, dtype=np.int64) % tiles
                rest_v = np.asarray(self.edge_v, dtype=np.int64) % tiles
                self._edge_planar = (
                    rest_u % self.nx, rest_u // self.nx, rest_v % self.nx, rest_v // self.nx
                )
            inside = _inside_box(*self._edge_planar, box.xlo, box.ylo, box.xhi, box.yhi)
            cached = np.flatnonzero(inside)
            cached.setflags(write=False)
            self._box_edges[box] = cached
        return cached

    def retain_box_edges(self, live: Collection[BoundingBox]) -> None:
        """Drop every :meth:`box_edges` entry whose box is not in ``live``.

        Called with the boxes of the nets about to be routed, so a stream
        of netlist edits holds at most one array per live net."""
        self._box_edges = _retained(self._box_edges, live)

    def retain_prisms(self, live: Collection[BoundingBox]) -> None:
        """Drop every :meth:`prism` entry whose box is not in ``live`` (the
        scope boxes of the coordinator about to route on this graph)."""
        self._prisms = _retained(self._prisms, live)

    def prism(self, box: BoundingBox) -> Prism:
        """The memoised :class:`Prism` of ``box``: :func:`extract_prism`
        plus the global<->local edge maps, built once per distinct box."""
        cached = self._prisms.get(box)
        if cached is None:
            sub_graph, edge_to_global = extract_prism(self, box.xlo, box.ylo, box.xhi, box.yhi)
            edge_to_local = np.full(self.num_edges, -1, dtype=np.int64)
            edge_to_local[edge_to_global] = np.arange(len(edge_to_global), dtype=np.int64)
            edge_to_global.setflags(write=False)
            edge_to_local.setflags(write=False)
            cached = Prism(sub_graph, edge_to_global, edge_to_local)
            self._prisms[box] = cached
        return cached

    # -------------------------------------------------------------- build
    def _build(self) -> None:
        nx, ny, tiles = self.nx, self.ny, self.nx * self.ny
        dm = self.delay_model
        # One run of edges per (layer, wire type) and per via level, each in
        # y-major, then x order: (tails, heads, *per-edge scalars) in
        # EDGE_ARRAYS order.
        runs = []
        for layer in self.stack:
            z = layer.index
            if layer.direction == "H":
                tails = (np.arange(ny)[:, None] * nx + np.arange(nx - 1)).ravel() + z * tiles
                heads = tails + 1
            else:
                tails = np.arange((ny - 1) * nx) + z * tiles
                heads = tails + nx
            capacity = float(layer.tracks_per_tile)
            for wt_index, wire_type in enumerate(layer.wire_types):
                delay = dm.wire_delay(z, wire_type.name, 1.0)
                runs.append(
                    (tails, heads, z, wt_index, 1.0, delay, wire_type.track_usage, capacity, False)
                )
        # Via edges between adjacent layers.
        for z in range(self.num_layers - 1):
            tails = np.arange(tiles) + z * tiles
            via_delay = dm.via_delay(z)
            runs.append(
                (tails, tails + tiles, z, -1, 0.0, via_delay, VIA_BASE_COST, VIA_CAPACITY, True)
            )

        columns = list(zip(*runs))
        self.edge_u = np.concatenate(columns[0]).astype(np.int32)
        self.edge_v = np.concatenate(columns[1]).astype(np.int32)
        counts = [len(tails) for tails in columns[0]]
        for name, values in zip(EDGE_ARRAYS[2:], columns[2:]):
            dtype = getattr(self, name).dtype
            setattr(self, name, np.repeat(np.asarray(values, dtype=dtype), counts))
        self._seal()

    # -------------------------------------------------------------- repr
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingGraph({self.nx}x{self.ny}x{self.num_layers}, "
            f"{self.num_nodes} nodes, {self.num_edges} edges)"
        )


def extract_prism(
    graph: RoutingGraph, xlo: int, ylo: int, xhi: int, yhi: int
) -> Tuple[RoutingGraph, np.ndarray]:
    """Extract the sub-prism ``[xlo, xhi] x [ylo, yhi]`` (all layers).

    Returns the sub-:class:`RoutingGraph` plus the int64 array mapping each
    sub-edge index to its edge in ``graph``.  Edge attributes are *sliced*
    from the parent's arrays (bit-identical, no delay-model recomputation),
    which is an order of magnitude faster than rebuilding the region with
    :func:`build_grid_graph` -- the shard coordinator constructs one prism
    per region and per seam scope.  Sub-edge order follows the parent's
    edge order (not :func:`build_grid_graph`'s enumeration); the sub-graph
    is internally consistent either way.
    """
    if not (0 <= xlo <= xhi < graph.nx and 0 <= ylo <= yhi < graph.ny):
        raise ValueError("prism bounds outside the grid")
    tiles = graph.nx * graph.ny
    u = np.asarray(graph.edge_u, dtype=np.int64)
    v = np.asarray(graph.edge_v, dtype=np.int64)
    lu, rest_u = np.divmod(u, tiles)
    yu, xu = np.divmod(rest_u, graph.nx)
    lv, rest_v = np.divmod(v, tiles)
    yv, xv = np.divmod(rest_v, graph.nx)
    inside = _inside_box(xu, yu, xv, yv, xlo, ylo, xhi, yhi)
    edge_to_global = np.flatnonzero(inside).astype(np.int64)

    snx = xhi - xlo + 1
    sny = yhi - ylo + 1
    sub = RoutingGraph(snx, sny, graph.stack, graph.delay_model, build=False)
    sub_u = (lu[inside] * sny + (yu[inside] - ylo)) * snx + (xu[inside] - xlo)
    sub_v = (lv[inside] * sny + (yv[inside] - ylo)) * snx + (xv[inside] - xlo)
    sub.edge_u = sub_u.astype(np.int32)
    sub.edge_v = sub_v.astype(np.int32)
    sub.edge_layer = graph.edge_layer[inside].copy()
    sub.edge_wire_type = graph.edge_wire_type[inside].copy()
    sub.edge_length = graph.edge_length[inside].copy()
    sub.edge_delay = graph.edge_delay[inside].copy()
    sub.edge_base_cost = graph.edge_base_cost[inside].copy()
    sub.edge_capacity = graph.edge_capacity[inside].copy()
    sub.edge_is_via = graph.edge_is_via[inside].copy()
    sub._seal()
    return sub, edge_to_global


def build_grid_graph(
    nx: int,
    ny: int,
    num_layers: int = 8,
    stack: Optional[LayerStack] = None,
    delay_model: Optional[LinearDelayModel] = None,
) -> RoutingGraph:
    """Build a 3D grid routing graph.

    Parameters
    ----------
    nx, ny:
        Number of global routing tiles in x and y.
    num_layers:
        Number of metal layers (ignored when ``stack`` is given).
    stack:
        Explicit layer stack; defaults to :func:`default_layer_stack`.
    delay_model:
        Explicit delay model; defaults to a :class:`LinearDelayModel` over
        the stack with default buffer parameters.
    """
    if stack is None:
        stack = default_layer_stack(num_layers)
    if delay_model is None:
        delay_model = LinearDelayModel(stack)
    return RoutingGraph(nx, ny, stack, delay_model)
