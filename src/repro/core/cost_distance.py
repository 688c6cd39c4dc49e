"""The cost-distance Steiner tree algorithm (paper Algorithm 1).

The algorithm works like Kruskal's algorithm: it keeps a set of *active*
terminals (initially the sinks), runs a Dijkstra search from every active
terminal simultaneously -- each search ``u`` uses its own edge length
``l_u(e) = c(e) + w(u) * d(e)`` -- and merges the first pair of components
whose searches meet.  Merging two sinks creates a new active Steiner terminal
whose weight is the sum of the merged weights and whose position is chosen
randomly proportional to the weights (or by the improved placement of
Section III-D).  Merging with the root simply deactivates the sink.  The
bifurcation penalty ``b(u, v)`` of Eq. (5) is added when a search reaches
another component, so the pair minimising ``L(u, v)`` is extracted first.

Enhancements of Section III (all individually switchable via
:class:`CostDistanceConfig`):

* **A. Component discounting** -- edges already in the tree component a search
  starts from cost ``0`` (their delay still counts), and a search connects as
  soon as it reaches *any* vertex of another component, which implicitly
  places Steiner vertices at the points where paths enter existing trees.
* **B. Two-level heap** -- one binary heap per active search plus a top-level
  heap over the sub-heap minima.
* **C. Goal-oriented search** -- an A* potential ``l1 * (min cost + w(u) *
  fastest delay)`` per tile of L1 distance to the nearest target (the root
  and every active terminal).  Landmarks (``num_landmarks``) feed only the
  placement of D, never the search.
* **D. Better Steiner vertex embedding** -- instead of the random endpoint,
  the new Steiner vertex is placed on the freshly added path at the position
  minimising an estimate of the cost of extending the path to the root.
* **E. Encouraged root connections** -- the expected penalty of a root
  connection is reduced by the future savings ``eta * dbif * w(u)``.

The plain configuration (:meth:`CostDistanceConfig.plain`) disables all
enhancements and matches the analysed algorithm, which carries the
``O(log t)`` approximation guarantee.

One driver, :class:`_Solve`, runs every solve against a search loop that
does all but a merge's decisions: pops, relaxations, the queue, the
connection candidates, the tree edges, the component union, the component
delays, the III-D placement without landmarks, the A* target field and the
final pruning.  The loop is C (``_search.c`` behind
:class:`_search.SearchLoop`) whenever it could be built and the heap is
two-level, else :class:`PySearchLoop`, which has the same interface and is
C's specification -- with :func:`_component_delays`,
:func:`_best_steiner_position`, :func:`_target_l1` and
:func:`~repro.core.objective.prune_dangling_branches` -- and the loop of
the flat queue (``use_two_level_heap=False``).  Both loops produce the
same pops, labels and trees.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.core import _search
from repro.core.bifurcation import BifurcationModel
from repro.core.future_cost import FutureCostEstimator
from repro.core.heap import AddressableBinaryHeap, TwoLevelHeap
from repro.core.instance import SteinerInstance
from repro.core.objective import prune_dangling_branches
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree

__all__ = [
    "CostDistanceConfig",
    "MergeRecord",
    "CostDistanceResult",
    "CostDistanceSolver",
]

#: Identifier of the root component in merge records.
ROOT_ID = -1


@dataclass(frozen=True)
class CostDistanceConfig:
    """Configuration of the cost-distance solver.

    The default configuration enables all practical enhancements of
    Section III; :meth:`plain` returns the analysed variant of Section II.
    """

    discount_components: bool = True
    use_two_level_heap: bool = True
    use_future_costs: bool = True
    improved_steiner_placement: bool = True
    encourage_root_connections: bool = True
    num_landmarks: int = 0
    record_trace: bool = False
    seed: int = 0

    @classmethod
    def plain(cls, record_trace: bool = False, seed: int = 0) -> "CostDistanceConfig":
        """The unenhanced algorithm of Section II (keeps the O(log t) guarantee)."""
        return cls(
            discount_components=False,
            use_two_level_heap=False,
            use_future_costs=False,
            improved_steiner_placement=False,
            encourage_root_connections=False,
            num_landmarks=0,
            record_trace=record_trace,
            seed=seed,
        )


@dataclass(frozen=True)
class MergeRecord:
    """One iteration of the algorithm, for tracing / Figure 3."""

    iteration: int
    source_node: int
    source_weight: float
    target_node: int
    target_weight: float
    meeting_node: int
    steiner_node: Optional[int]
    path_edges: Tuple[int, ...]
    is_root_merge: bool
    active_after: int
    active_terminals: Tuple[Tuple[int, float], ...] = ()


@dataclass
class CostDistanceResult:
    """Tree plus bookkeeping returned by :meth:`CostDistanceSolver.solve_with_details`."""

    tree: EmbeddedTree
    merges: List[MergeRecord]
    num_iterations: int
    num_labels: int


class _Search:
    """An active terminal (sink or Steiner vertex); its search runs in the
    loop under the terminal's id."""

    __slots__ = ("node", "weight", "rate")

    def __init__(self, node: int, weight: float, rate: float) -> None:
        self.node = node
        self.weight = weight
        #: Potential per tile of L1 distance to the nearest target:
        #: cheapest cost per tile plus ``weight`` times fastest delay per tile.
        self.rate = rate


class _FlatQueue:
    """Single addressable heap with the queue calls of :class:`TwoLevelHeap`.

    A search's members are kept in an insertion-ordered dict, so
    :meth:`remove_search` -- whose removal order shapes the heap, and with it
    the order ties leave -- does not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._heap: AddressableBinaryHeap = AddressableBinaryHeap()
        self._by_search: Dict[int, Dict[object, None]] = {}

    def add_search(self, search_id: int) -> None:
        self._by_search.setdefault(search_id, {})

    def remove_search(self, search_id: int) -> None:
        for item in self._by_search.pop(search_id, ()):
            self._heap.remove((search_id, item))

    def push(self, search_id: int, item, key: float) -> bool:
        self._by_search.setdefault(search_id, {})[item] = None
        return self._heap.push((search_id, item), key)

    def pop(self):
        key, (search_id, item) = self._heap.pop()
        members = self._by_search.get(search_id)
        if members is not None:
            members.pop(item, None)
        return key, search_id, item


class _UnionFind:
    """Union-find over graph nodes, used to keep the output edge set acyclic."""

    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _initial_terminals(instance: SteinerInstance) -> Tuple[List[int], List[float]]:
    """Nodes and weights of the initial active terminals: the sinks off the
    root tile, duplicate sink tiles collapsed into one (weights summed)."""
    position_of: Dict[int, int] = {}
    nodes: List[int] = []
    weights: List[float] = []
    for node, weight in zip(instance.sinks, instance.weights):
        if node == instance.root:
            continue
        if node in position_of:
            weights[position_of[node]] += weight
        else:
            position_of[node] = len(nodes)
            nodes.append(node)
            weights.append(weight)
    return nodes, weights


@lru_cache(maxsize=16)
def _axis_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates ``0..n-1`` and the gap table ``|i - j|`` of one grid axis
    (float64, read-only; memoised per axis length on first use, O(n^2) small)."""
    axis = np.arange(n, dtype=np.float64)
    gaps = np.abs(axis[:, None] - axis[None, :])
    axis.flags.writeable = gaps.flags.writeable = False
    return axis, gaps


def _target_l1(nx: int, ny: int, targets: Sequence[int]) -> np.ndarray:
    """Per planar tile (index ``y * nx + x``) the L1 distance to the set of
    target tiles, as a contiguous float64 array: the exact nearest-target
    distance for up to 8 targets, the distance to their bounding box beyond.

    Value for value what ``FutureCostEstimator.nearest_target_l1`` returns
    (pinned by ``tests/test_cost_distance.py::TestPotentialParity``).
    """
    xs = [t % nx for t in targets]
    ys = [t // nx for t in targets]
    x_axis, x_gaps = _axis_tables(nx)
    y_axis, y_gaps = _axis_tables(ny)
    if len(xs) <= 8:
        l1 = (y_gaps[ys][:, :, None] + x_gaps[xs][:, None, :]).min(axis=0)
    else:
        x_min, x_max, y_min, y_max = min(xs), max(xs), min(ys), max(ys)
        dx = np.maximum(np.maximum(x_min - x_axis, x_axis - x_max), 0.0)
        dy = np.maximum(np.maximum(y_min - y_axis, y_axis - y_max), 0.0)
        l1 = dy[:, None] + dx[None, :]
    return np.ascontiguousarray(l1.ravel())


class _LabelledSearch(_Search):
    """A live search of :class:`PySearchLoop`: the terminal, its component
    and its Dijkstra labels."""

    __slots__ = ("comp", "tentative", "parent", "permanent")

    def __init__(self, node: int, weight: float, comp: int, rate: float) -> None:
        super().__init__(node, weight, rate)
        self.comp = comp
        self.tentative: Dict[int, float] = {node: 0.0}
        self.parent: Dict[int, int] = {}
        self.permanent: Set[int] = set()


class _PlanarBounds:
    """:class:`FutureCostEstimator`'s bounds without landmarks at given
    per-tile rates (what :meth:`PySearchLoop.best_steiner` places by)."""

    _landmark_dists = ()
    delay_lower_bound = FutureCostEstimator.delay_lower_bound
    cost_lower_bound_between = FutureCostEstimator.cost_lower_bound_between

    def __init__(self, graph, min_cost_per_tile: float, fastest_delay_per_tile: float) -> None:
        self.graph = graph
        self.min_cost_per_tile = min_cost_per_tile
        self.fastest_delay_per_tile = fastest_delay_per_tile


class PySearchLoop:
    """The search loop in Python behind the kernel interface of
    :class:`_search.SearchLoop`, with the same events and state for the
    same calls: the specification of ``_search.c``, and the loop of every
    solve without the compiled library or with the flat queue
    (``two_level=False``, III-B off).  :attr:`view` describes the last
    event with the fields of ``_search.View`` that ``_Solve`` reads.
    """

    def __init__(self, graph, cost: np.ndarray, delay: np.ndarray, two_level: bool = True) -> None:
        self.graph = graph
        self.cost = memoryview(cost)
        self.delay = memoryview(delay)
        self.two_level = two_level
        #: The A* target field, per planar tile, rewritten in place.
        self.l1: List[float] = [0.0] * (graph.nx * graph.ny)
        self.view = SimpleNamespace()

    # -------------------------------------------------- kernel interface
    def reset(
        self,
        root: int,
        discount: bool,
        future_costs: bool,
        encourage: bool,
        dbif: float,
        eta: float,
        total_weight: float,
        nodes: List[int],
        weights: List[float],
        rates: List[float],
    ) -> None:
        """Start a solve, as :meth:`_search.SearchLoop.reset`."""
        self.root = root
        self.discount = discount
        self.future_costs = future_costs
        self.encourage = encourage
        self.bif = BifurcationModel(dbif=dbif, eta=eta)
        self.total = total_weight
        self.queue = TwoLevelHeap() if self.two_level else _FlatQueue()
        self.searches: Dict[int, _LabelledSearch] = {}
        self.root_comp = 0
        # Per component its owner, nodes, edges and the delay from its
        # nodes to its terminal along its edges: a search entering it
        # anywhere (III-A) still pays the delay to the terminal.
        self.comp_owner: Dict[int, int] = {}
        self.comp_members: Dict[int, List[int]] = {}
        self.comp_edges: Dict[int, Set[int]] = {}
        self.comp_delay: Dict[int, Dict[int, float]] = {}
        self.node_comp: Dict[int, int] = {}
        for comp, (owner, node) in enumerate([(ROOT_ID, root), *enumerate(nodes)]):
            self.comp_owner[comp], self.comp_members[comp] = owner, [node]
            self.comp_edges[comp], self.comp_delay[comp] = set(), {node: 0.0}
            self.node_comp[node] = comp
        if future_costs:
            self._set_targets([root, *nodes])
        else:
            self.l1[:] = [0.0] * len(self.l1)
        for tid, (node, weight, rate) in enumerate(zip(nodes, weights, rates)):
            self._start(tid, node, tid + 1, weight, rate)
        self.tree: List[int] = []
        self.acyclic = _UnionFind()
        self.found: List[Tuple[int, int, float, float]] = []
        view = self.view
        view.pops = view.labels = view.length = view.num_new = 0
        view.search = view.owner = view.node = view.big = view.small = -1
        view.path_nodes = view.path_edges = view.new_nodes = []

    def run(self) -> int:
        """Run to the next merge (``MERGE``: its path, tree edges and
        component union done, described by :attr:`view`) or the end
        (``DONE``)."""
        view = self.view
        searches = self.searches
        node_comp = self.node_comp
        comp_owner = self.comp_owner
        comp_edges = self.comp_edges
        comp_delay = self.comp_delay
        discount = self.discount
        root = self.root
        key_of = self.connection_key
        incident = self.graph.incident
        neighbours = self.graph.neighbours
        cost = self.cost
        delay = self.delay
        pop = self.queue.pop
        push = self.queue.push
        l1 = self.l1
        planar_tiles = len(l1)
        infinity = float("inf")
        num_pops = view.pops
        num_labels = view.labels

        while searches:
            try:
                key, tid, item = pop()
            except IndexError:
                raise RuntimeError(
                    "cost-distance search exhausted the queue before connecting "
                    "all terminals; the routing graph is disconnected"
                ) from None
            num_pops += 1
            search = searches[tid]

            if isinstance(item, tuple):
                # A connection candidate ("c", node): drop it, re-queue it
                # under a larger fresh key, or merge.
                node = item[1]
                comp = node_comp.get(node)
                if comp is None or comp == search.comp or node not in search.permanent:
                    continue
                owner = comp_owner.get(comp)
                if owner != ROOT_ID and owner not in searches:
                    continue
                fresh = key_of(tid, comp, comp_delay[comp].get(node, 0.0), search.tentative[node])
                if fresh > key + 1e-9:
                    push(tid, item, fresh)
                    continue
                view.pops, view.labels = num_pops, num_labels
                self._absorb(tid, owner, node)
                return _search.MERGE

            # A node label.
            node = item
            permanent = search.permanent
            if node in permanent:
                continue
            tentative = search.tentative
            dist = tentative[node]
            permanent.add(node)
            num_labels += 1

            comp = node_comp.get(node)
            if comp is not None and comp != search.comp:
                owner = comp_owner.get(comp)
                if owner == ROOT_ID or owner in searches:
                    # III-A: reaching any node of another component counts
                    # as a connection to it; else only its terminal does.
                    if discount or node == (root if owner == ROOT_ID else searches[owner].node):
                        candidate = key_of(tid, comp, comp_delay[comp].get(node, 0.0), dist)
                        push(tid, ("c", node), candidate)

            own_edges = comp_edges.get(search.comp) if discount else None
            weight = search.weight
            rate = search.rate
            parent = search.parent
            for edge, other in zip(incident[node], neighbours[node]):
                if other in permanent:
                    continue
                if own_edges and edge in own_edges:
                    edge_cost = 0.0
                else:
                    edge_cost = cost[edge]
                candidate = dist + edge_cost + weight * delay[edge]
                if candidate < tentative.get(other, infinity):
                    tentative[other] = candidate
                    parent[other] = edge
                    push(tid, other, candidate + l1[other % planar_tiles] * rate)

        view.pops, view.labels = num_pops, num_labels
        return _search.DONE

    def merge(self, new_tid: int, node: int, weight: float, rate: float, total: float) -> int:
        """Finish the merge :meth:`run` stopped at with the caller's
        decisions and run on, as :meth:`_search.SearchLoop.merge`."""
        view = self.view
        big = view.big
        searches = self.searches
        queue = self.queue
        del searches[view.search]
        queue.remove_search(view.search)
        if view.owner == ROOT_ID:
            self.comp_owner[big] = ROOT_ID
            self.root_comp = big
            representative = self.root
        else:
            del searches[view.owner]
            queue.remove_search(view.owner)
            self.comp_owner[big] = new_tid
            # Started before the targets are refreshed below: the new
            # search's first key is taken against the previous target set.
            self._start(new_tid, node, big, weight, rate)
            representative = node
        self.comp_delay[big] = _component_delays(
            self.graph, self.comp_edges[big], representative, self.delay
        )
        # Let other searches that already settled the freshly added path
        # nodes compete for a connection to the new component: path node
        # outer, live searches inner by id (activation order).
        found = self.found = []
        for p in view.new_nodes:
            delay = self.comp_delay[big].get(p, 0.0)
            for tid, search in searches.items():
                if search.comp != big and p in search.permanent:
                    dist = search.tentative[p]
                    found.append((p, tid, dist, delay))
                    queue.push(tid, ("c", p), self.connection_key(tid, big, delay, dist))
        # The keys above took the previous total (it drops at a root merge).
        self.total = total
        if searches and self.future_costs:
            self._set_targets([self.root, *(search.node for search in searches.values())])
        return self.run()

    def path(self) -> Tuple[List[int], List[int]]:
        """Nodes (seed first) and edges of the last merge's path (none
        before the solve's first merge)."""
        return self.view.path_nodes, self.view.path_edges

    def best_steiner(
        self,
        roots: Sequence[int],
        source_weight: float,
        target_weight: float,
        min_cost_per_tile: float,
        fastest_delay_per_tile: float,
    ) -> int:
        """``_best_steiner_position`` without landmarks on the last merge's
        path, towards the sample ``roots``: the node."""
        bound = _PlanarBounds(self.graph, min_cost_per_tile, fastest_delay_per_tile)
        path = self.path()
        return _best_steiner_position(bound, *path, self.delay, source_weight, target_weight, roots)

    def tree_edges(self) -> List[int]:
        """The tree edges so far, in insertion order (before pruning)."""
        return list(self.tree)

    def pruned(self, terminals: Sequence[int]) -> Tuple[int, ...]:
        """The tree edges without dangling branches (``terminals``: root
        and sinks), in insertion order."""
        tree = EmbeddedTree(self.graph, terminals[0], tuple(terminals[1:]), tuple(self.tree))
        return prune_dangling_branches(tree).edges

    def pairs(self) -> List[Tuple[int, int, float, float]]:
        """``(node, tid, dist, delay)`` of the last merge's settled-node
        scan, whose connection candidates it queued."""
        return self.found

    # ------------------------------------------------------------ pieces
    def connection_key(self, tid: int, comp: int, delay: float, dist: float) -> float:
        """Full key of search ``tid``'s connection candidate towards
        component ``comp``: path distance ``dist``, ``delay`` from the entry
        point to the component's terminal, and the bifurcation merge
        penalty (NaN if ``comp`` has no live owner)."""
        searches = self.searches
        bif = self.bif
        w_u = searches[tid].weight
        owner = self.comp_owner.get(comp)
        if owner == ROOT_ID:
            penalty = bif.beta(w_u, max(self.total - w_u, 0.0))
            if self.encourage:
                penalty -= bif.eta * bif.dbif * w_u
            penalty = max(penalty, 0.0)
        elif owner in searches:
            penalty = bif.beta(w_u, searches[owner].weight)
        else:
            return math.nan
        return dist + w_u * delay + penalty

    def _start(self, tid: int, node: int, comp: int, weight: float, rate: float) -> None:
        """Start search ``tid`` of component ``comp`` at ``node``: its seed
        labelled 0.0 and queued under its potential."""
        self.searches[tid] = _LabelledSearch(node, weight, comp, rate)
        self.queue.add_search(tid)
        self.queue.push(tid, node, self.l1[node % len(self.l1)] * rate)

    def _set_targets(self, nodes: Sequence[int]) -> None:
        """Rewrite :attr:`l1` for the target set ``nodes``."""
        tiles = len(self.l1)
        self.l1[:] = _target_l1(self.graph.nx, self.graph.ny, [n % tiles for n in nodes]).tolist()

    def _absorb(self, tid: int, owner: int, meeting_node: int) -> None:
        """The edge work of the merge of search ``tid`` with the component
        of ``owner`` at ``meeting_node``, described in :attr:`view`."""
        search = self.searches[tid]
        other_endpoint = self.graph.other_endpoint
        parent = search.parent
        node = meeting_node
        path_nodes = [node]
        path_edges: List[int] = []
        while node in parent:
            edge = parent[node]
            path_edges.append(edge)
            node = other_endpoint(edge, node)
            path_nodes.append(node)
        path_nodes.reverse()
        path_edges.reverse()

        # Add the path's edges to the tree, skipping any that would close a
        # cycle (paths may touch nodes that already belong to the tree).
        union = self.acyclic.union
        for edge, u, v in zip(path_edges, path_nodes, path_nodes[1:]):
            if union(u, v):
                self.tree.append(edge)

        # Merge the two components (union by size) and absorb the path's
        # nodes of no component.  Nodes already owned by a *different*
        # component (the path may brush past the root tile or a third
        # component) keep their owner -- stealing them could orphan that
        # component's terminal.
        src = search.comp
        dst = self.root_comp if owner == ROOT_ID else self.searches[owner].comp
        members = self.comp_members
        big, small = (src, dst) if len(members[src]) >= len(members[dst]) else (dst, src)
        node_comp = self.node_comp
        new_nodes = [n for n in path_nodes if n not in node_comp]
        joined = members.pop(small) + new_nodes
        members[big].extend(joined)
        for n in joined:
            node_comp[n] = big
        comp_edges = self.comp_edges
        comp_edges[big].update(comp_edges.pop(small), path_edges)
        del self.comp_owner[small], self.comp_delay[small]

        view = self.view
        view.search, view.owner, view.node = tid, owner, meeting_node
        view.big, view.small = big, small
        view.length, view.path_nodes, view.path_edges = len(path_edges), path_nodes, path_edges
        view.num_new, view.new_nodes = len(new_nodes), new_nodes


class _Solve:
    """The state of one run of Algorithm 1 on one instance.

    The loop -- a :class:`_search.SearchLoop` when the compiled library is
    loaded and the heap is two-level, else a :class:`PySearchLoop` -- holds
    the labels, the queue, the connection candidates, the component edges
    and owners, the node components and the tree, and returns once per
    merge; :meth:`merge` takes the decisions that stay here (the
    ``comp_nodes`` sets, the placement, the new search) and hands them
    back.  ``record=False`` keeps no :class:`MergeRecord` (``merges`` is
    ``None``; ``num_merges`` counts them either way).
    """

    __slots__ = (
        "config",
        "rng",
        "graph",
        "delay",
        "bif",
        "root_node",
        "estimator",
        "planar_tiles",
        "pot_cost_rate",
        "pot_delay_rate",
        "l1",
        "comp_nodes",
        "root_comp",
        "active",
        "loop",
        "context",
        "total_active_weight",
        "merges",
        "num_merges",
        "scans",
    )

    def __init__(
        self,
        instance: SteinerInstance,
        config: CostDistanceConfig,
        rng: random.Random,
        init_nodes: List[int],
        init_weights: List[float],
        record: bool = True,
    ) -> None:
        self.config = config
        self.rng = rng
        graph = self.graph = instance.graph
        # A context covering these exact arrays shares the future-cost
        # estimator and this thread's compiled state across the batch.
        ctx = instance.context
        if ctx is not None and not ctx.covers(instance.cost, instance.delay):
            ctx = None
        self.delay = memoryview(instance.delay)
        bif = self.bif = instance.bifurcation
        self.root_node = instance.root

        estimator: Optional[FutureCostEstimator] = None
        if config.use_future_costs or config.improved_steiner_placement:
            if ctx is not None:
                estimator = ctx.estimator(config.num_landmarks)
            else:
                estimator = FutureCostEstimator(
                    graph,
                    cost_lower_bound=instance.cost,
                    num_landmarks=config.num_landmarks,
                )
        self.estimator = estimator
        # The admissible A* potential of a search towards the current target
        # set (root plus every active terminal) is ``l1[tile] * search.rate``:
        # ``l1`` holds, per planar tile, the L1 distance to the nearest
        # target (see _target_l1) and is rebuilt whenever the target set
        # changes, i.e. per merge; the rate combines the per-tile lower
        # bounds of FutureCostEstimator.multi_target_potential.  Without
        # future costs both rates are 0.0 and ``l1`` stays all-zero.
        self.planar_tiles = graph.nx * graph.ny
        if config.use_future_costs:
            self.pot_cost_rate = estimator.min_cost_per_tile
            self.pot_delay_rate = estimator.fastest_delay_per_tile
        else:
            self.pot_cost_rate = self.pot_delay_rate = 0.0
        self.merges: Optional[List[MergeRecord]] = [] if record else None
        self.num_merges = 0
        #: Set to a list, collects per merge the ``(node, tid, dist, delay)``
        #: pairs whose connection candidates the merge queued.
        self.scans: Optional[List[List[Tuple[int, int, float, float]]]] = None
        lib = _search.LIB if config.use_two_level_heap else None
        self.context = None
        if lib is None:
            self.loop = PySearchLoop(
                graph, instance.cost, instance.delay, config.use_two_level_heap
            )
        elif ctx is not None and ctx.graph is graph and ctx.delay is not None:
            self.context = ctx
            self.loop = ctx.search_loop(lib)
        else:
            self.loop = _search.SearchLoop(lib, graph, instance.cost, instance.delay)

        # ``comp_nodes`` values stay Python sets filled in this exact order:
        # _root_target_sample strides over the root component's iteration
        # order, which makes set insertion history the kernel's second
        # implicit order dependency besides the heap's tie order (both
        # pinned by tests/test_cost_distance.py::TestKernelGolden).  The
        # numbering is the loop's: 0 the root's, ``i + 1`` terminal ``i``'s.
        self.comp_nodes: Dict[int, Set[int]] = {0: {self.root_node}}
        self.root_comp = 0
        self.active: Dict[int, _Search] = {}
        self.total_active_weight = 0.0
        for tid, (node, weight) in enumerate(zip(init_nodes, init_weights)):
            self.comp_nodes[tid + 1] = {node}
            self.activate(tid, node, weight)
            self.total_active_weight += weight
        self.loop.reset(
            self.root_node,
            config.discount_components,
            config.use_future_costs,
            config.encourage_root_connections and bif.enabled,
            bif.dbif,
            bif.eta,
            self.total_active_weight,
            init_nodes,
            init_weights,
            [search.rate for search in self.active.values()],
        )
        self.l1 = self.loop.l1 if config.use_future_costs else [0.0] * self.planar_tiles

    def release(self) -> None:
        """Hand the compiled state back to the context it came from."""
        if self.context is not None:
            self.context.return_loop(self.loop)
            self.context = None

    def activate(self, tid: int, node: int, weight: float) -> None:
        rate = self.pot_cost_rate + weight * self.pot_delay_rate
        self.active[tid] = _Search(node, weight, rate)

    def run(self) -> Tuple[int, int]:
        """Run the searches until every terminal is connected; returns the
        numbers of queue pops and of node labels.  The loop returns once
        per merge."""
        loop = self.loop
        kind = loop.run()
        while kind == _search.MERGE:
            kind = self.merge()
        view = loop.view
        return view.pops, view.labels

    def tree(self, sinks: Tuple[int, ...], name: str) -> EmbeddedTree:
        """The finished tree without its dangling branches."""
        edges = self.loop.pruned([self.root_node, *sinks])
        return EmbeddedTree(self.graph, self.root_node, sinks, edges, name)

    # ---------------------------------------------------------------- merge
    def steiner_position(self, source: _Search, target: _Search) -> int:
        """Where the merge of ``source`` and ``target`` places its Steiner
        vertex: III-D on the loop's last path, or a random endpoint
        weighted by the two weights."""
        estimator = self.estimator
        if self.config.improved_steiner_placement and estimator is not None:
            root_nodes = _root_target_sample(self.comp_nodes[self.root_comp], self.root_node)
            if estimator.num_landmarks == 0:
                return self.loop.best_steiner(
                    root_nodes,
                    source.weight,
                    target.weight,
                    estimator.min_cost_per_tile,
                    estimator.fastest_delay_per_tile,
                )
            nodes, edges = self.loop.path()
            return _best_steiner_position(
                estimator, nodes, edges, self.delay, source.weight, target.weight, root_nodes
            )
        choices = [source.node, target.node]
        weights = [source.weight, target.weight]
        if weights[0] + weights[1] <= 0:
            weights = [1.0, 1.0]
        return self.rng.choices(choices, weights=weights, k=1)[0]

    def record(
        self,
        source: _Search,
        target_node: int,
        target_weight: float,
        meeting_node: int,
        steiner_node: Optional[int],
        path_edges: Sequence[int],
    ) -> None:
        """Count the merge, and keep its :class:`MergeRecord` if recording."""
        self.num_merges += 1
        if self.merges is None:
            return
        active = self.active
        self.merges.append(
            MergeRecord(
                iteration=self.num_merges,
                source_node=source.node,
                source_weight=source.weight,
                target_node=target_node,
                target_weight=target_weight,
                meeting_node=meeting_node,
                steiner_node=steiner_node,
                path_edges=tuple(path_edges),
                is_root_merge=steiner_node is None,
                active_after=len(active),
                active_terminals=tuple((t.node, t.weight) for t in active.values())
                if self.config.record_trace
                else (),
            )
        )

    def merge(self) -> int:
        """One iteration of Algorithm 1: the merge the loop stopped at,
        whose path, tree edges and component union the loop has done.  Take
        the decisions, then let the loop finish the merge and run on to the
        next (returns the loop's :meth:`~_search.SearchLoop.merge` result)."""
        loop = self.loop
        view = loop.view
        active = self.active
        source_tid = view.search
        owner = view.owner
        big = view.big
        comp_nodes = self.comp_nodes
        members = comp_nodes[big]
        members.update(comp_nodes.pop(view.small))
        members.update(view.new_nodes[: view.num_new])
        source = active[source_tid]
        path_edges = view.path_edges[: view.length] if self.merges is not None else ()
        if owner == ROOT_ID:
            self.root_comp = big
            del active[source_tid]
            self.record(source, self.root_node, 0.0, view.node, None, path_edges)
            # Root merges reduce the total active weight; the loop keys the
            # merge's own candidates against the previous total.
            self.total_active_weight = sum(t.weight for t in active.values())
            kind = loop.merge(ROOT_ID, self.root_node, 0.0, 0.0, self.total_active_weight)
        else:
            target = active[owner]
            steiner_node = self.steiner_position(source, target)
            new_tid = max(active) + 1
            del active[source_tid], active[owner]
            self.activate(new_tid, steiner_node, source.weight + target.weight)
            self.record(source, target.node, target.weight, view.node, steiner_node, path_edges)
            new = active[new_tid]
            kind = loop.merge(new_tid, steiner_node, new.weight, new.rate, self.total_active_weight)
        if self.scans is not None:
            self.scans.append(loop.pairs())
        return kind


def _component_delays(
    graph, edges: Set[int], representative: int, delay: Sequence[float]
) -> Dict[int, float]:
    """Delay from every node of a component to its representative terminal.

    Computed by a breadth/best-first walk over the component's own edges;
    components are (nearly) trees, so a simple Dijkstra over the edge set
    is cheap and exact.
    """
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for edge in edges:
        u, v = int(graph.edge_u[edge]), int(graph.edge_v[edge])
        adjacency.setdefault(u, []).append((edge, v))
        adjacency.setdefault(v, []).append((edge, u))
    result: Dict[int, float] = {representative: 0.0}
    heap = [(0.0, representative)]
    settled: Set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for edge, other in adjacency.get(node, ()):
            candidate = d + delay[edge]
            if other not in settled and candidate < result.get(other, math.inf):
                result[other] = candidate
                heapq.heappush(heap, (candidate, other))
    return result


def _root_target_sample(root_nodes: Set[int], root_node: int) -> List[int]:
    """Nodes of the root component at a stride of ``len(root_nodes) // 24``
    over the set's iteration order (an order dependency, see
    ``_Solve.comp_nodes``), plus ``root_node`` if the stride skips it:
    every node of a set of up to 47 (the stride is 1), 24 to 36 nodes of
    a larger one, so at most 48 nodes."""
    if len(root_nodes) <= 24:
        return list(root_nodes)
    sample = list(root_nodes)[:: max(1, len(root_nodes) // 24)]
    if root_node not in sample:
        sample.append(root_node)
    return sample


def _best_steiner_position(
    estimator: FutureCostEstimator,
    path_nodes: List[int],
    path_edges: List[int],
    delay: Sequence[float],
    source_weight: float,
    target_weight: float,
    root_nodes: List[int],
) -> int:
    """Pick the Steiner vertex position on the new path (Section III-D).

    Minimises ``w(u) d(P[u,s]) + w(v) d(P[v,s])`` plus a future-cost
    estimate of the cheapest ``s``-root extension weighted by
    ``w(u) + w(v)``.
    """
    if len(path_nodes) == 1:
        return path_nodes[0]
    prefix = [0.0]
    for edge in path_edges:
        prefix.append(prefix[-1] + delay[edge])
    total = prefix[-1]
    combined = source_weight + target_weight
    best_node = path_nodes[0]
    best_value = None
    for idx, node in enumerate(path_nodes):
        value = source_weight * prefix[idx] + target_weight * (total - prefix[idx])
        remaining = None
        for target in root_nodes:
            bound = estimator.cost_lower_bound_between(node, target)
            bound += combined * estimator.delay_lower_bound(node, target)
            if remaining is None or bound < remaining:
                remaining = bound
        value += remaining or 0.0
        if best_value is None or value < best_value:
            best_value = value
            best_node = node
    return best_node


class CostDistanceSolver(SteinerOracle):
    """The cost-distance Steiner tree oracle (paper Algorithm 1)."""

    name = "CD"

    #: The searches grow outward from the net's terminals, so the tree
    #: depends on costs near the net plus the global cost floor (A*
    #: potentials).  With landmarks (``num_landmarks > 0``) this no longer
    #: holds -- the engine checks for that separately.
    region_cache_safe = True

    def __init__(self, config: Optional[CostDistanceConfig] = None) -> None:
        self.config = config or CostDistanceConfig()

    # ------------------------------------------------------------------ API
    def build(
        self, instance: SteinerInstance, rng: Optional[random.Random] = None
    ) -> EmbeddedTree:
        """Build an embedded cost-distance Steiner tree for ``instance``."""
        return self._solve(instance, rng, record=False).tree

    def solve(
        self, instance: SteinerInstance, rng: Optional[random.Random] = None
    ) -> EmbeddedTree:
        """Alias of :meth:`build`."""
        return self.build(instance, rng)

    def solve_with_details(
        self, instance: SteinerInstance, rng: Optional[random.Random] = None
    ) -> CostDistanceResult:
        """Run the algorithm and return the tree together with its trace."""
        return self._solve(instance, rng, record=True)

    def _solve(
        self, instance: SteinerInstance, rng: Optional[random.Random], record: bool
    ) -> CostDistanceResult:
        """One run; ``record=False`` keeps no :class:`MergeRecord` (the
        result's ``merges`` is then empty, ``num_iterations`` still counts)."""
        config = self.config
        rng = rng if rng is not None else random.Random(config.seed)
        sinks = tuple(instance.sinks)
        init_nodes, init_weights = _initial_terminals(instance)
        if not init_nodes:
            tree = EmbeddedTree(instance.graph, instance.root, sinks, (), self.name)
            return CostDistanceResult(tree, [], 0, 0)

        state = _Solve(instance, config, rng, init_nodes, init_weights, record)
        try:
            num_pops, num_labels = state.run()
            tree = state.tree(sinks, self.name)
        finally:
            state.release()
        # Aggregated per-solve increments (not per pop) keep the hot loop
        # observable without taxing it.
        obs.inc("astar.pops", num_pops)
        obs.inc("cd.labels", num_labels)
        obs.inc("cd.merges", state.num_merges)
        obs.inc("cd.solves")
        return CostDistanceResult(tree, state.merges or [], state.num_merges, num_labels)
