"""Generic Dijkstra searches over the routing graph.

These helpers are used by the topology embedding of the baselines, by the
landmark future costs, and by several tests that need ground-truth shortest
path distances to validate the cost-distance algorithm.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.core.heap import AddressableBinaryHeap
from repro.grid.graph import RoutingGraph

__all__ = ["dijkstra", "shortest_path_edges", "multi_source_distances"]


def dijkstra(
    graph: RoutingGraph,
    lengths: Sequence[float],
    sources: Dict[int, float],
    targets: Optional[Iterable[int]] = None,
    future_cost: Optional[Callable[[int], float]] = None,
    node_filter: Optional[Callable[[int], bool]] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Dijkstra (optionally A*) from a set of weighted sources.

    Parameters
    ----------
    graph:
        The routing graph.
    lengths:
        Per-edge non-negative lengths (indexable by edge id).
    sources:
        ``{node: initial_distance}``; multi-source searches simply provide
        several entries.
    targets:
        Optional set of target nodes.  The search stops once every target is
        permanently labeled.
    future_cost:
        Optional admissible heuristic ``h(node)`` added to the queue key
        (A* search).  Must be a lower bound on the remaining distance to the
        closest target for correctness of early termination.
    node_filter:
        Optional predicate restricting the search to nodes for which it
        returns ``True`` (source nodes are always allowed).  Used to confine
        searches to a routing window around a net's bounding box.

    Returns
    -------
    (dist, parent_edge):
        ``dist`` maps permanently labeled nodes to their distance, and
        ``parent_edge`` maps each labeled non-source node to the edge towards
        its predecessor on a shortest path.
    """
    dist: Dict[int, float] = {}
    tentative: Dict[int, float] = {}
    parent_edge: Dict[int, int] = {}
    heap: AddressableBinaryHeap[int] = AddressableBinaryHeap()
    remaining: Optional[Set[int]] = set(targets) if targets is not None else None

    for node, d0 in sources.items():
        if d0 < 0:
            raise ValueError("source distances must be non-negative")
        if d0 < tentative.get(node, float("inf")):
            tentative[node] = d0
            key = d0 + (future_cost(node) if future_cost else 0.0)
            heap.push(node, key)

    incident = graph.incident
    neighbours = graph.neighbours
    pops = 0
    while heap:
        _, node = heap.pop()
        pops += 1
        if node in dist:
            continue
        d_node = tentative[node]
        dist[node] = d_node
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for edge, other in zip(incident[node], neighbours[node]):
            if other in dist:
                continue
            if node_filter is not None and not node_filter(other):
                continue
            candidate = d_node + lengths[edge]
            if candidate < tentative.get(other, float("inf")):
                tentative[other] = candidate
                parent_edge[other] = edge
                key = candidate + (future_cost(other) if future_cost else 0.0)
                heap.push(other, key)
    # One aggregated increment per search keeps the inner loop counter-free.
    obs.inc("astar.pops", pops)
    return dist, parent_edge


def shortest_path_edges(
    graph: RoutingGraph,
    parent_edge: Dict[int, int],
    sources: Set[int],
    target: int,
) -> List[int]:
    """Backtrack the edge sequence from ``target`` to the nearest source.

    ``parent_edge`` must come from a :func:`dijkstra` call whose source set
    was ``sources``.  The returned edges are ordered from the source towards
    the target.
    """
    edges: List[int] = []
    node = target
    while node not in sources:
        edge = parent_edge.get(node)
        if edge is None:
            raise ValueError(f"node {node} was not reached from the sources")
        edges.append(edge)
        node = graph.other_endpoint(edge, node)
    edges.reverse()
    return edges


def multi_source_distances(
    graph: RoutingGraph,
    lengths: Sequence[float],
    sources: Iterable[int],
) -> np.ndarray:
    """Distances from the nearest source to every node, as a dense array.

    Unreached nodes get ``inf``.  Used to build landmark lower bounds.
    """
    dist, _ = dijkstra(graph, lengths, {int(s): 0.0 for s in sources})
    result = np.full(graph.num_nodes, np.inf, dtype=np.float64)
    for node, value in dist.items():
        result[node] = value
    return result
