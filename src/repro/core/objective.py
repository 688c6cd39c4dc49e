"""Evaluation of the cost-distance objective.

The objective of the paper (Eq. (1) with the bifurcation-penalised delay
model of Eq. (3)) is

    cost(T) = sum_{e in T} c(e)
            + sum_{t in S} w(t) * sum_{e=(u,v) on the r-t path} (d(e) + lambda_v * dbif)

where ``lambda_v`` distributes the bifurcation penalty at each branching
according to the subtree delay weights (Eq. (2)).

Every Steiner tree algorithm in this library is evaluated through
:func:`evaluate_tree`, so the relative comparisons of paper Tables I/II use a
single consistent metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.core.instance import SteinerInstance
from repro.core.tree import EmbeddedTree

__all__ = ["ObjectiveBreakdown", "evaluate_tree", "prune_dangling_branches"]


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


def evaluate_tree(instance: SteinerInstance, tree: EmbeddedTree) -> ObjectiveBreakdown:
    """Evaluate the cost-distance objective of ``tree`` on ``instance``.

    The tree must span the instance's root and sinks; a :class:`ValueError`
    is raised otherwise (via :meth:`EmbeddedTree.arborescence`).
    """
    arb = tree.arborescence()
    reached = set(arb.order)
    missing = [s for s in instance.sinks if s not in reached]
    if missing:
        raise ValueError(f"tree does not reach instance sinks {missing}")

    # Total sink delay weight located at each graph node.
    node_sink_weight: Dict[int, float] = {}
    for sink, weight in zip(instance.sinks, instance.weights):
        node_sink_weight[sink] = node_sink_weight.get(sink, 0.0) + weight

    # Subtree delay weights, children processed before parents.
    subtree_weight: Dict[int, float] = {}
    for node in reversed(arb.order):
        weight = node_sink_weight.get(node, 0.0)
        for child in arb.children.get(node, []):
            weight += subtree_weight[child]
        subtree_weight[node] = weight

    # Bifurcation penalties per child edge.
    model = instance.bifurcation
    extra_delay: Dict[int, float] = {}
    num_bifurcations = 0
    for node in arb.order:
        children = arb.children.get(node, [])
        if len(children) >= 2:
            num_bifurcations += len(children) - 1
        if len(children) >= 2 and model.enabled:
            penalties = model.branch_penalties([subtree_weight[c] for c in children])
            for child, penalty in zip(children, penalties):
                extra_delay[child] = penalty
        else:
            for child in children:
                extra_delay[child] = 0.0

    # Root-to-node delays.
    delay = instance.delay
    node_delay: Dict[int, float] = {arb.root: 0.0}
    for node in arb.order:
        if node == arb.root:
            continue
        parent = arb.parent_node[node]
        edge = arb.parent_edge[node]
        node_delay[node] = node_delay[parent] + float(delay[edge]) + extra_delay.get(node, 0.0)

    sink_delays = tuple(node_delay[s] for s in instance.sinks)
    weighted_delay_cost = float(
        sum(w * d for w, d in zip(instance.weights, sink_delays))
    )
    connection_cost = tree.congestion_cost(instance.cost)

    return ObjectiveBreakdown(
        total=connection_cost + weighted_delay_cost,
        connection_cost=connection_cost,
        weighted_delay_cost=weighted_delay_cost,
        sink_delays=sink_delays,
        wire_length=tree.wire_length(),
        via_count=tree.via_count(),
        num_bifurcations=num_bifurcations,
        method=tree.method,
    )
