"""Evaluation of the cost-distance objective.

The objective of the paper (Eq. (1) with the bifurcation-penalised delay
model of Eq. (3)) is

    cost(T) = sum_{e in T} c(e)
            + sum_{t in S} w(t) * sum_{e=(u,v) on the r-t path} (d(e) + lambda_v * dbif)

where ``lambda_v`` distributes the bifurcation penalty at each branching
according to the subtree delay weights (Eq. (2)).

Every Steiner tree algorithm in this library is evaluated through
:func:`evaluate_tree`, so the relative comparisons of paper Tables I/II use a
single consistent metric.  Its root-to-sink delays come from
:func:`sink_delays`, which the router also calls once per round for every
routed net: ``cd_sink_delays`` in ``_search.c`` when the compiled library
is loaded, else :func:`_tree_sink_delays`, the specification both follow.
"""

from __future__ import annotations

import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import _search
from repro.core.bifurcation import BifurcationModel
from repro.core.instance import SteinerInstance, require_finite_non_negative
from repro.core.tree import EmbeddedTree
from repro.grid.graph import RoutingGraph

__all__ = ["ObjectiveBreakdown", "evaluate_tree", "prune_dangling_branches", "sink_delays"]


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The components of the cost-distance objective for one tree.

    Attributes
    ----------
    total:
        The full objective ``connection_cost + weighted_delay_cost``.
    connection_cost:
        ``sum_{e in T} c(e)``.
    weighted_delay_cost:
        ``sum_t w(t) * delay(r, t)`` including bifurcation penalties.
    sink_delays:
        Root-to-sink delay per sink (instance order), including penalties.
    wire_length:
        Total routed wire length of the tree.
    via_count:
        Number of vias used.
    num_bifurcations:
        Number of binary branchings counted by the delay model (a ``k``-way
        branching counts as ``k - 1``).
    method:
        Name of the algorithm that produced the tree.
    """

    total: float
    connection_cost: float
    weighted_delay_cost: float
    sink_delays: Tuple[float, ...]
    wire_length: float
    via_count: int
    num_bifurcations: int
    method: str = ""


def prune_dangling_branches(tree: EmbeddedTree) -> EmbeddedTree:
    """Remove tree branches that do not lead to any terminal.

    Heuristic constructions occasionally leave dead-end paths behind (for
    example when a path search overshoots a connection point).  Such edges
    only add congestion cost, so pruning them never hurts the objective.
    """
    terminals: Set[int] = {tree.root, *tree.sinks}
    adj = tree.incidence()
    degree = {node: len(incident) for node, incident in adj.items()}
    removed: Set[int] = set()
    # Iteratively peel non-terminal leaves.
    leaves = [node for node, deg in degree.items() if deg == 1 and node not in terminals]
    while leaves:
        leaf = leaves.pop()
        for edge, other in adj[leaf]:
            if edge in removed:
                continue
            removed.add(edge)
            degree[leaf] -= 1
            degree[other] -= 1
            if degree[other] == 1 and other not in terminals:
                leaves.append(other)
    if not removed:
        return tree
    kept = tuple(e for e in tree.edges if e not in removed)
    return EmbeddedTree(tree.graph, tree.root, tree.sinks, kept, tree.method)


def _tree_sink_delays(
    graph: RoutingGraph,
    delay: np.ndarray,
    bifurcation: BifurcationModel,
    tree: EmbeddedTree,
    sinks: Sequence[int],
    weights: Sequence[float],
) -> List[float]:
    """Root-to-sink delays of ``sinks`` (weights ``weights``) in ``tree``:
    the specification of ``cd_sink_delays`` and its fallback.

    The tree is walked on ``graph`` in BFS order from its root, a node's
    children in the order of its :meth:`EmbeddedTree.incidence` entries.
    A branching's penalties are :meth:`BifurcationModel.branch_penalties`
    of its subtrees' delay weights (a node's sinks' weights, then its
    children's subtrees), and a node's delay is its parent's plus the edge
    delay plus its penalty.  Raises :class:`ValueError` for an index outside
    the graph, or through :meth:`EmbeddedTree.arborescence` for edges that
    are not a tree or miss a sink of ``sinks``.
    """
    for node in (tree.root, *sinks):
        if not 0 <= node < graph.num_nodes:
            raise ValueError(f"terminal node {node} outside the graph")
    for edge in tree.edges:
        if not 0 <= edge < graph.num_edges:
            raise ValueError(f"tree edge {edge} outside the graph")
    arb = EmbeddedTree(graph, tree.root, tuple(sinks), tuple(tree.edges)).arborescence()

    # Total sink delay weight located at each graph node.
    node_sink_weight: Dict[int, float] = {}
    for sink, weight in zip(sinks, weights):
        node_sink_weight[sink] = node_sink_weight.get(sink, 0.0) + weight

    # Subtree delay weights, children processed before parents.
    subtree_weight: Dict[int, float] = {}
    for node in reversed(arb.order):
        weight = node_sink_weight.get(node, 0.0)
        for child in arb.children.get(node, []):
            weight += subtree_weight[child]
        subtree_weight[node] = weight

    # Bifurcation penalties per child edge.
    extra_delay: Dict[int, float] = {}
    for node in arb.order:
        children = arb.children.get(node, [])
        if len(children) >= 2 and bifurcation.enabled:
            penalties = bifurcation.branch_penalties([subtree_weight[c] for c in children])
            for child, penalty in zip(children, penalties):
                extra_delay[child] = penalty
        else:
            for child in children:
                extra_delay[child] = 0.0

    # Root-to-node delays.
    node_delay: Dict[int, float] = {arb.root: 0.0}
    for node in arb.order:
        if node == arb.root:
            continue
        parent = arb.parent_node[node]
        edge = arb.parent_edge[node]
        node_delay[node] = node_delay[parent] + float(delay[edge]) + extra_delay.get(node, 0.0)
    return [node_delay[s] for s in sinks]


def sink_delays(
    graph: RoutingGraph,
    delay: np.ndarray,
    bifurcation: BifurcationModel,
    trees: Sequence[EmbeddedTree],
    sinks: Sequence[Sequence[int]],
    weights: Sequence[Sequence[float]],
) -> List[List[float]]:
    """Root-to-sink delays of every tree of ``trees``: for tree ``i``, the
    delay to each sink of ``sinks[i]`` (sink delay weights ``weights[i]``)
    under the edge delays ``delay`` and the penalty model ``bifurcation``.

    One ``cd_sink_delays`` call walks them all when the compiled library is
    loaded (``_search.LIB``); otherwise :func:`_tree_sink_delays` walks
    each.  The two give the same floats, and the same :class:`ValueError`:
    a tree C refuses is walked again in Python, which names the defect.
    The trees' edges index ``graph``'s.
    """
    delay = np.ascontiguousarray(delay, dtype=np.float64)
    if len(delay) != graph.num_edges:
        raise ValueError("cost/delay vectors must have one entry per graph edge")
    require_finite_non_negative("edge delays", delay)
    if not len(trees) == len(sinks) == len(weights):
        raise ValueError("trees, sinks and weights must have the same length")
    weights = [[float(w) for w in tree_weights] for tree_weights in weights]
    if any(len(s) != len(w) for s, w in zip(sinks, weights)):
        raise ValueError("sinks and weights must have the same length")
    flat_weights = array.array("d", chain.from_iterable(weights))
    require_finite_non_negative("sink delay weights", np.frombuffer(flat_weights))
    lib = _search.LIB
    flat = None if lib is None else _flat_indices(trees, sinks)
    if flat is None:
        return [
            _tree_sink_delays(graph, delay, bifurcation, tree, tree_sinks, tree_weights)
            for tree, tree_sinks, tree_weights in zip(trees, sinks, weights)
        ]
    edges, edge_start, roots, flat_sinks, sink_start = flat
    out = array.array("d", bytes(8 * len(flat_sinks)))
    edge_u = np.ascontiguousarray(graph.edge_u, dtype=np.int32)
    edge_v = np.ascontiguousarray(graph.edge_v, dtype=np.int32)
    first = lib.cd_sink_delays(
        edge_u.ctypes.data,
        edge_v.ctypes.data,
        delay.ctypes.data,
        graph.num_nodes,
        graph.num_edges,
        edges.buffer_info()[0],
        edge_start.buffer_info()[0],
        len(trees),
        roots.buffer_info()[0],
        flat_sinks.buffer_info()[0],
        sink_start.buffer_info()[0],
        flat_weights.buffer_info()[0],
        bifurcation.dbif,
        bifurcation.eta,
        bifurcation.enabled,
        out.buffer_info()[0],
    )
    if first == -1:
        values = out.tolist()
        return [values[a:b] for a, b in zip(sink_start, sink_start[1:])]
    if first == -2:
        raise MemoryError("out of memory in the sink-delay walk")
    _tree_sink_delays(graph, delay, bifurcation, trees[first], sinks[first], weights[first])
    raise AssertionError(f"the compiled walk refused tree {first}, which the specification accepts")


def _flat_indices(
    trees: Sequence[EmbeddedTree], sinks: Sequence[Sequence[int]]
) -> Optional[Tuple[array.array, ...]]:
    """The trees' edges, roots and sinks as C ``int32_t`` arrays, with the
    edges' and the sinks' offsets per tree; ``None`` if an index does not
    fit (the Python walk then names it)."""
    try:
        return (
            array.array("i", [edge for tree in trees for edge in tree.edges]),
            array.array("i", accumulate((len(tree.edges) for tree in trees), initial=0)),
            array.array("i", [tree.root for tree in trees]),
            array.array("i", [sink for tree_sinks in sinks for sink in tree_sinks]),
            array.array("i", accumulate(map(len, sinks), initial=0)),
        )
    except OverflowError:
        return None


def evaluate_tree(instance: SteinerInstance, tree: EmbeddedTree) -> ObjectiveBreakdown:
    """Evaluate the cost-distance objective of ``tree`` on ``instance``.

    The tree must span the instance's root and sinks; a :class:`ValueError`
    is raised otherwise (via :meth:`EmbeddedTree.arborescence`).
    """
    if tuple(tree.sinks) != tuple(instance.sinks):
        reached = set(tree.arborescence().order)
        missing = [s for s in instance.sinks if s not in reached]
        if missing:
            raise ValueError(f"tree does not reach instance sinks {missing}")
    (delays,) = sink_delays(
        tree.graph,
        instance.delay,
        instance.bifurcation,
        [tree],
        [instance.sinks],
        [instance.weights],
    )
    delays = tuple(delays)
    weighted_delay_cost = float(sum(w * d for w, d in zip(instance.weights, delays)))
    connection_cost = tree.congestion_cost(instance.cost)
    # A node with k >= 2 children (its degree, less one off the root) counts
    # as k - 1 binary branchings.
    ends = tree.edges_array()
    degree = Counter(tree.graph.edge_u[ends].tolist() + tree.graph.edge_v[ends].tolist())
    num_bifurcations = sum(
        max(0, count - (node != tree.root) - 1) for node, count in degree.items()
    )

    return ObjectiveBreakdown(
        total=connection_cost + weighted_delay_cost,
        connection_cost=connection_cost,
        weighted_delay_cost=weighted_delay_cost,
        sink_delays=delays,
        wire_length=tree.wire_length(),
        via_count=tree.via_count(),
        num_bifurcations=num_bifurcations,
        method=tree.method,
    )
