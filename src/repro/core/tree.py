"""Embedded Steiner trees.

An :class:`EmbeddedTree` is the result of any Steiner tree oracle: a set of
routing-graph edges that connects the root to every sink of an instance.  The
class offers structural queries (wire length, via count, arborescence view
from the root) and a validator used extensively by the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grid.graph import RoutingGraph

__all__ = ["Arborescence", "EmbeddedTree", "TreeRecord", "encode_tree", "decode_tree"]


@dataclass
class Arborescence:
    """A rooted view of an embedded tree.

    Attributes
    ----------
    root:
        The root graph node.
    parent_node / parent_edge:
        For every non-root tree node, its parent node and the graph edge
        towards the parent.
    children:
        For every tree node, the list of child nodes.
    order:
        Tree nodes in BFS order from the root (root first).
    """

    root: int
    parent_node: Dict[int, int]
    parent_edge: Dict[int, int]
    children: Dict[int, List[int]]
    order: List[int]

    def path_to_root(self, node: int) -> List[int]:
        """Graph edges on the path from ``node`` up to the root."""
        edges: List[int] = []
        current = node
        while current != self.root:
            edges.append(self.parent_edge[current])
            current = self.parent_node[current]
        return edges

    def subtree_nodes(self, node: int) -> List[int]:
        """All nodes in the subtree rooted at ``node`` (including itself)."""
        result: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.children.get(current, []))
        return result


@dataclass(frozen=True)
class EmbeddedTree:
    """A Steiner tree embedded into the routing graph.

    Attributes
    ----------
    graph:
        The routing graph the tree lives in.
    root:
        Graph node of the root terminal.
    sinks:
        Graph nodes of the sinks, in instance order.
    edges:
        Graph edge indices forming the tree (each at most once).
    method:
        Name of the algorithm that produced the tree (``"CD"``, ``"L1"``,
        ``"SL"``, ``"PD"``, ...).
    """

    graph: RoutingGraph
    root: int
    sinks: Tuple[int, ...]
    edges: Tuple[int, ...]
    method: str = ""

    # ------------------------------------------------------------ structure
    def node_set(self) -> Set[int]:
        """All graph nodes touched by the tree (terminals included)."""
        nodes: Set[int] = {self.root}
        nodes.update(self.sinks)
        for e in self.edges:
            nodes.add(int(self.graph.edge_u[e]))
            nodes.add(int(self.graph.edge_v[e]))
        return nodes

    def incidence(self) -> Dict[int, List[Tuple[int, int]]]:
        """Incidence ``node -> [(edge, other_node), ...]`` restricted to the tree."""
        adj: Dict[int, List[Tuple[int, int]]] = {}
        for e in self.edges:
            u = int(self.graph.edge_u[e])
            v = int(self.graph.edge_v[e])
            adj.setdefault(u, []).append((e, v))
            adj.setdefault(v, []).append((e, u))
        adj.setdefault(self.root, [])
        for s in self.sinks:
            adj.setdefault(s, [])
        return adj

    def arborescence(self) -> Arborescence:
        """Root the tree at ``root`` and return the resulting arborescence.

        Raises
        ------
        ValueError
            If the edge set is not connected from the root or contains a
            cycle (i.e. it is not a tree containing all terminals).
        """
        adj = self.incidence()
        parent_node: Dict[int, int] = {}
        parent_edge: Dict[int, int] = {}
        children: Dict[int, List[int]] = {self.root: []}
        order: List[int] = [self.root]
        visited: Set[int] = {self.root}
        queue: deque[int] = deque([self.root])
        used_edges = 0
        while queue:
            node = queue.popleft()
            for edge, other in adj.get(node, []):
                if other in visited:
                    if parent_edge.get(node) != edge:
                        # A second way to reach an already visited node.
                        raise ValueError("embedded tree contains a cycle")
                    continue
                visited.add(other)
                parent_node[other] = node
                parent_edge[other] = edge
                children.setdefault(node, []).append(other)
                children.setdefault(other, [])
                order.append(other)
                used_edges += 1
                queue.append(other)
        if used_edges != len(self.edges):
            raise ValueError("embedded tree is disconnected or contains a cycle")
        missing = [s for s in self.sinks if s not in visited]
        if missing:
            raise ValueError(f"embedded tree does not reach sinks {missing}")
        return Arborescence(self.root, parent_node, parent_edge, children, order)

    # -------------------------------------------------------------- metrics
    def edges_array(self) -> "np.ndarray":
        """The tree's edge indices as a cached contiguous int64 array.

        The array backs every metric fancy-index below; it is created on
        first use and never mutated (the dataclass is frozen, so the cache
        is attached via ``object.__setattr__``).
        """
        try:
            return self._edges_array
        except AttributeError:
            arr = np.asarray(self.edges, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "_edges_array", arr)
            return arr

    def wire_length(self) -> float:
        """Total routed wire length (sum of edge lengths, vias contribute 0)."""
        if not self.edges:
            return 0.0
        return float(self.graph.edge_length[self.edges_array()].sum())

    def via_count(self) -> int:
        """Number of via edges used by the tree."""
        if not self.edges:
            return 0
        return int(np.count_nonzero(self.graph.edge_is_via[self.edges_array()]))

    def congestion_cost(self, cost: Sequence[float]) -> float:
        """Total connection cost of the tree under the cost vector ``cost``."""
        if not self.edges:
            return 0.0
        return float(np.asarray(cost, dtype=np.float64)[self.edges_array()].sum())

    def num_branch_nodes(self) -> int:
        """Number of tree nodes with degree at least 3 (branching points)."""
        adj = self.incidence()
        return sum(1 for node, incident in adj.items() if len(incident) >= 3)

    # ----------------------------------------------------------- validation
    def validate(self, root: Optional[int] = None, sinks: Optional[Sequence[int]] = None) -> None:
        """Check that the edge set forms a tree spanning root and sinks.

        Raises :class:`ValueError` when the tree is malformed.  ``root`` and
        ``sinks`` default to the tree's own terminals, but an instance's
        terminals can be passed to validate against the original problem.
        """
        root = self.root if root is None else root
        sinks = self.sinks if sinks is None else sinks
        if root != self.root:
            raise ValueError("tree root differs from instance root")
        if set(sinks) - set(self.sinks):
            raise ValueError("tree is missing instance sinks")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("tree contains duplicate edges")
        self.arborescence()

    def with_method(self, method: str) -> "EmbeddedTree":
        """A copy of the tree tagged with a different method name."""
        return EmbeddedTree(self.graph, self.root, self.sinks, self.edges, method)

    def __len__(self) -> int:
        return len(self.edges)


#: One embedded tree as plain picklable values: ``(root, sinks, edges,
#: method)`` or ``None`` for an unrouted net.  Graph objects never travel
#: with trees -- both sides of a process boundary reattach their own graph.
TreeRecord = Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...], str]]


def encode_tree(tree: Optional[EmbeddedTree]) -> TreeRecord:
    """``tree`` as a :data:`TreeRecord` (cheap to pickle, graph-free)."""
    if tree is None:
        return None
    return (int(tree.root), tuple(tree.sinks), tuple(tree.edges), tree.method)


def decode_tree(graph: RoutingGraph, record: TreeRecord) -> Optional[EmbeddedTree]:
    """The exact inverse of :func:`encode_tree`, reattached to ``graph``."""
    if record is None:
        return None
    root, sinks, edges, method = record
    return EmbeddedTree(graph, root, tuple(sinks), tuple(edges), method)
