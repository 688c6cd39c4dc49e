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

The search loop -- pops, relaxations, the two-level heap and the connection
candidates -- runs as C (``_search.c``, see :mod:`repro.core._search`)
whenever it could be built, and so does every step of a merge but its
decisions: the tree edges, the component union, the component delays, the
III-D placement without landmarks, the A* target field and the final
pruning.  :meth:`_Solve.run`, :meth:`_Solve.merge`, :func:`_component_delays`,
:func:`_best_steiner_position`, :func:`_target_l1` and
:func:`~repro.core.objective.prune_dangling_branches` are their
specification and the fallback; the flat queue of
``use_two_level_heap=False`` always runs in Python.  Both paths produce
the same pops, labels and trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.core import _search
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
    """An active terminal (sink or Steiner vertex) and its persistent
    Dijkstra search (its labels live in C on the compiled path)."""

    __slots__ = ("node", "weight", "comp", "rate", "tentative", "parent", "permanent")

    def __init__(self, node: int, weight: float, comp: int, rate: float, labels: bool) -> None:
        self.node = node
        self.weight = weight
        self.comp = comp
        #: Potential per tile of L1 distance to the nearest target:
        #: cheapest cost per tile plus ``weight`` times fastest delay per tile.
        self.rate = rate
        if labels:
            self.tentative: Dict[int, float] = {node: 0.0}
            self.parent: Dict[int, int] = {}
            self.permanent: Set[int] = set()


class _FlatQueue:
    """Single addressable heap with the same API as :class:`TwoLevelHeap`.

    A search's members are kept in an insertion-ordered dict, so
    :meth:`remove_search` -- whose removal order shapes the heap, and with it
    the order ties leave -- does not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._heap: AddressableBinaryHeap = AddressableBinaryHeap()
        self._by_search: Dict[int, Dict[object, None]] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

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


class _Solve:
    """The state of one run of Algorithm 1 on one instance.

    One object instead of a nest of closures: the bookkeeping methods read
    and write its slots, and :meth:`run` -- the hot loop -- binds what it
    touches per pop to locals.

    With the compiled loop (``loop`` set) the labels, the queue, the
    connection candidates, the component edges and owners, the node
    components and the tree live in C: the loop returns to Python once per
    merge, :meth:`merge_compiled` takes the decisions that stay in Python
    (the ``comp_nodes`` sets, the placement, the new search) and hands them
    back.  :meth:`run` and :meth:`merge` are its specification.
    ``record=False`` keeps no :class:`MergeRecord` (``merges`` is ``None``;
    ``num_merges`` counts them either way).
    """

    __slots__ = (
        "config",
        "rng",
        "graph",
        "cost",
        "delay",
        "bif",
        "root_node",
        "estimator",
        "planar_tiles",
        "pot_cost_rate",
        "pot_delay_rate",
        "l1",
        "comp_nodes",
        "comp_edges",
        "comp_owner",
        "comp_delay",
        "node_comp",
        "root_comp",
        "active",
        "queue",
        "loop",
        "context",
        "total_active_weight",
        "tree_edges",
        "tree_edge_set",
        "acyclic",
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
        self.cost = memoryview(instance.cost)
        self.delay = memoryview(instance.delay)
        self.bif = instance.bifurcation
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
        self.loop: Optional[_search.SearchLoop] = None
        self.context = None
        if lib is not None:
            if ctx is not None and ctx.graph is graph and ctx.delay is not None:
                self.context = ctx
                self.loop = ctx.search_loop(lib)
            else:
                self.loop = _search.SearchLoop(lib, graph, instance.cost, instance.delay)

        # ---- component bookkeeping ----
        # ``comp_nodes`` values stay Python sets filled in this exact order:
        # _root_target_sample strides over the root component's iteration
        # order, which makes set insertion history the kernel's second
        # implicit order dependency besides the heap's tie order (both
        # pinned by tests/test_cost_distance.py::TestKernelGolden).
        self.comp_nodes: Dict[int, Set[int]] = {}
        self.active: Dict[int, _Search] = {}
        self.total_active_weight = 0.0
        if self.loop is not None:
            self.start_compiled(init_nodes, init_weights)
            return
        self.comp_edges: Dict[int, Set[int]] = {}
        self.comp_owner: Dict[int, int] = {}
        self.node_comp: Dict[int, int] = {}
        # Delay from every component node to the component's representative
        # terminal, along the component's own edges.  Used so that a search
        # entering a component "anywhere" (enhancement III-A) still pays the
        # delay towards the component's terminal, as in the paper's
        # per-end-component labels.
        self.comp_delay: Dict[int, Dict[int, float]] = {}
        self.root_comp = self.new_component(ROOT_ID, self.root_node)
        self.l1: Sequence[float] = [0.0] * self.planar_tiles
        self.queue = TwoLevelHeap() if config.use_two_level_heap else _FlatQueue()
        self.tree_edges: List[int] = []
        self.tree_edge_set: Set[int] = set()
        self.acyclic = _UnionFind()

        for tid, (node, weight) in enumerate(zip(init_nodes, init_weights)):
            self.activate(tid, node, weight, self.new_component(tid, node))
            self.total_active_weight += weight
        self.refresh_targets()
        for tid in self.active:
            self.start_search(tid)

    def start_compiled(self, init_nodes: List[int], init_weights: List[float]) -> None:
        """:meth:`__init__`'s set-up with the compiled loop: the same
        components, searches and total weight, handed to C in one call."""
        config = self.config
        bif = self.bif
        comp_nodes = self.comp_nodes
        comp_nodes[0] = {self.root_node}
        self.root_comp = 0
        rates = []
        for tid, (node, weight) in enumerate(zip(init_nodes, init_weights)):
            comp_nodes[tid + 1] = {node}
            self.activate(tid, node, weight, tid + 1)
            self.total_active_weight += weight
            rates.append(self.active[tid].rate)
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
            rates,
        )
        self.l1 = self.loop.l1 if config.use_future_costs else [0.0] * self.planar_tiles

    def release(self) -> None:
        """Hand the compiled state back to the context it came from."""
        if self.context is not None:
            self.context.return_loop(self.loop)
            self.context = None

    # ---------------------------------------------------------- bookkeeping
    def new_component(self, owner: int, node: int) -> int:
        comp_id = len(self.comp_nodes)
        self.comp_nodes[comp_id] = {node}
        self.comp_edges[comp_id] = set()
        self.comp_owner[comp_id] = owner
        self.node_comp[node] = comp_id
        self.comp_delay[comp_id] = {node: 0.0}
        return comp_id

    def refresh_targets(self) -> None:
        """Rebuild ``l1`` for the target set: the root and every active terminal."""
        if not self.config.use_future_costs:
            return
        tiles = self.planar_tiles
        targets = [self.root_node % tiles]
        targets.extend(search.node % tiles for search in self.active.values())
        self.l1 = _target_l1(self.graph.nx, self.graph.ny, targets).tolist()

    def node_delay(self, comp: int, node: int) -> float:
        """Delay from ``node`` to the terminal of its component ``comp``."""
        return self.comp_delay[comp].get(node, 0.0)

    def connection_key(self, search: _Search, comp: int, delay: float, dist: float) -> float:
        """Full key of a connection candidate: path distance, ``delay`` from
        the entry point to the target component's terminal, and the
        bifurcation merge penalty."""
        bif = self.bif
        w_u = search.weight
        owner = self.comp_owner[comp]
        if owner == ROOT_ID:
            penalty = bif.beta(w_u, max(self.total_active_weight - w_u, 0.0))
            if self.config.encourage_root_connections and bif.enabled:
                penalty -= bif.eta * bif.dbif * w_u
            penalty = max(penalty, 0.0)
        else:
            penalty = bif.beta(w_u, self.active[owner].weight)
        return dist + w_u * delay + penalty

    def activate(self, tid: int, node: int, weight: float, comp: int) -> None:
        rate = self.pot_cost_rate + weight * self.pot_delay_rate
        self.active[tid] = _Search(node, weight, comp, rate, self.loop is None)

    def start_search(self, tid: int) -> None:
        search = self.active[tid]
        key = self.l1[search.node % self.planar_tiles] * search.rate
        self.queue.add_search(tid)
        self.queue.push(tid, search.node, key)

    def deactivate(self, tid: int) -> None:
        self.active.pop(tid, None)
        self.queue.remove_search(tid)

    def offer_connection(
        self, tid: int, search: _Search, comp: int, node: int, dist: float
    ) -> None:
        """Search ``tid`` settled ``node`` of another component ``comp`` at
        ``dist``: queue the connection candidate ``("c", node)`` if it is
        one."""
        owner = self.comp_owner.get(comp)
        if owner == ROOT_ID or owner in self.active:
            if self.config.discount_components:
                # Enhancement III-A: reaching any vertex of another
                # component counts as a connection to it.
                connect = True
            elif owner == ROOT_ID:
                connect = node == self.root_node
            else:
                connect = node == self.active[owner].node
            if connect:
                key = self.connection_key(search, comp, self.node_delay(comp, node), dist)
                self.queue.push(tid, ("c", node), key)

    def try_connection(
        self, tid: int, search: _Search, key: float, node: int, dist: Optional[float]
    ) -> None:
        """The connection candidate ``("c", node)`` of search ``tid`` left
        the queue at ``key`` (``dist``: the node's label if settled): merge,
        re-queue it under a larger fresh key, or drop it as stale."""
        comp = self.node_comp.get(node)
        if comp is None or comp == search.comp:
            return
        owner = self.comp_owner.get(comp)
        if owner is None or (owner != ROOT_ID and owner not in self.active):
            return
        if dist is None:
            return
        fresh_key = self.connection_key(search, comp, self.node_delay(comp, node), dist)
        if fresh_key > key + 1e-9:
            self.queue.push(tid, ("c", node), fresh_key)
            return
        self.merge(tid, owner, node)

    # ------------------------------------------------------------ main loop
    def run(self) -> Tuple[int, int]:
        """Run the searches until every terminal is connected; returns the
        numbers of queue pops and of node labels.

        The specification of the compiled loop (:meth:`run_compiled`)."""
        if self.loop is not None:
            return self.run_compiled()
        discount = self.config.discount_components
        incident = self.graph.incident
        neighbours = self.graph.neighbours
        cost = self.cost
        delay = self.delay
        planar_tiles = self.planar_tiles
        active = self.active
        node_comp = self.node_comp
        comp_edges = self.comp_edges
        pop = self.queue.pop
        push = self.queue.push
        l1 = self.l1
        infinity = float("inf")
        num_labels = 0
        num_pops = 0

        while active:
            try:
                key, tid, item = pop()
            except IndexError:
                raise RuntimeError(
                    "cost-distance search exhausted the queue before connecting "
                    "all terminals; the routing graph is disconnected"
                ) from None
            num_pops += 1
            search = active.get(tid)
            if search is None:
                continue

            if isinstance(item, tuple):
                # Connection candidate ('c', node).
                node = item[1]
                dist = search.tentative.get(node) if node in search.permanent else None
                self.try_connection(tid, search, key, node, dist)
                l1 = self.l1
                continue

            # Regular node label.
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
                self.offer_connection(tid, search, comp, node, dist)

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

        return num_pops, num_labels

    def run_compiled(self) -> Tuple[int, int]:
        """:meth:`run` with everything but the merge decisions in C: the
        loop returns once per merge."""
        loop = self.loop
        kind = loop.run()
        while kind == _search.MERGE:
            kind = self.merge_compiled()
        view = loop.view
        return view.pops, view.labels

    def tree(self, sinks: Tuple[int, ...], name: str) -> EmbeddedTree:
        """The finished tree without its dangling branches."""
        if self.loop is None:
            edges = tuple(self.tree_edges)
            tree = EmbeddedTree(self.graph, self.root_node, sinks, edges, name)
            return prune_dangling_branches(tree)
        edges = self.loop.pruned([self.root_node, *sinks])
        return EmbeddedTree(self.graph, self.root_node, sinks, edges, name)

    def path_to(self, tid: int, node: int) -> Tuple[List[int], List[int]]:
        """Nodes (seed first) and edges of search ``tid``'s path to ``node``."""
        parent = self.active[tid].parent
        rev_edges: List[int] = []
        rev_nodes: List[int] = [node]
        while node in parent:
            edge = parent[node]
            rev_edges.append(edge)
            node = self.graph.other_endpoint(edge, node)
            rev_nodes.append(node)
        return rev_nodes[::-1], rev_edges[::-1]

    def settled_on(self, nodes: List[int], comp: int) -> List[Tuple[int, int, float, float]]:
        """``(node, tid, dist, delay)`` per node of ``nodes`` (outer, all of
        component ``comp``) and live search outside ``comp`` (inner, in
        activation order) that has settled the node at ``dist``; ``delay``
        is the node's to the terminal of ``comp``."""
        return [
            (p, tid, search.tentative[p], self.node_delay(comp, p))
            for p in nodes
            for tid, search in self.active.items()
            if search.comp != comp and p in search.permanent
        ]

    # ---------------------------------------------------------------- merge
    def steiner_position(
        self,
        source: _Search,
        target: _Search,
        path_nodes: Optional[List[int]],
        path_edges: Optional[List[int]],
    ) -> int:
        """Where the merge of ``source`` and ``target`` places its Steiner
        vertex: III-D on the path (``None``: the compiled loop's last), or
        a random endpoint weighted by the two weights."""
        estimator = self.estimator
        if self.config.improved_steiner_placement and estimator is not None:
            root_nodes = _root_target_sample(self.comp_nodes[self.root_comp], self.root_node)
            if self.loop is not None:
                if estimator.num_landmarks == 0:
                    return self.loop.best_steiner(
                        root_nodes,
                        source.weight,
                        target.weight,
                        estimator.min_cost_per_tile,
                        estimator.fastest_delay_per_tile,
                    )
                path_nodes, path_edges = self.loop.path()
            return _best_steiner_position(
                graph=self.graph,
                estimator=estimator,
                path_nodes=path_nodes,
                path_edges=path_edges,
                delay=self.delay,
                source_weight=source.weight,
                target_weight=target.weight,
                root_nodes=root_nodes,
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

    def merge(self, source_tid: int, owner: int, meeting_node: int) -> None:
        """Perform one merge (one iteration of Algorithm 1).

        The specification of :meth:`merge_compiled`."""
        graph = self.graph
        active = self.active
        comp_nodes = self.comp_nodes
        comp_edges = self.comp_edges
        node_comp = self.node_comp
        source = active[source_tid]

        path_nodes, path_edges = self.path_to(source_tid, meeting_node)

        # Add new edges to the global tree, skipping anything that would
        # close a cycle (paths may touch nodes that already belong to the
        # growing tree).
        for edge in path_edges:
            if edge in self.tree_edge_set:
                continue
            u = int(graph.edge_u[edge])
            v = int(graph.edge_v[edge])
            if self.acyclic.union(u, v):
                self.tree_edge_set.add(edge)
                self.tree_edges.append(edge)

        # Merge the two components (union by size) and absorb the path.
        is_root_merge = owner == ROOT_ID
        src_comp = source.comp
        dst_comp = self.root_comp if is_root_merge else active[owner].comp
        if len(comp_nodes[src_comp]) >= len(comp_nodes[dst_comp]):
            big, small = src_comp, dst_comp
        else:
            big, small = dst_comp, src_comp
        moved = comp_nodes.pop(small)
        for n in moved:
            node_comp[n] = big
        comp_nodes[big].update(moved)
        comp_edges[big].update(comp_edges.pop(small))
        self.comp_owner.pop(small, None)
        self.comp_delay.pop(small, None)
        # Path nodes that are not yet owned by any component join the merged
        # component.  Nodes already owned by a *different* component (the
        # path may brush past the root tile or a third component) keep their
        # owner -- stealing them could orphan that component's terminal and
        # make it unreachable for future connections.
        new_path_nodes = [n for n in path_nodes if n not in node_comp]
        comp_nodes[big].update(new_path_nodes)
        comp_edges[big].update(path_edges)
        for n in new_path_nodes:
            node_comp[n] = big

        steiner_node: Optional[int] = None
        if is_root_merge:
            target_weight = 0.0
            target_node = representative = self.root_node
            self.comp_owner[big] = ROOT_ID
            self.root_comp = big
            self.deactivate(source_tid)
        else:
            target = active[owner]
            target_weight = target.weight
            target_node = target.node
            steiner_node = self.steiner_position(source, target, path_nodes, path_edges)
            representative = steiner_node
            new_tid = max(active) + 1
            self.deactivate(source_tid)
            self.deactivate(owner)
            self.activate(new_tid, steiner_node, source.weight + target.weight, big)
            self.comp_owner[big] = new_tid
            # Started before the targets are refreshed below: the new
            # search's first key is taken against the previous target set.
            self.start_search(new_tid)

        # Recompute the delay from every component node to the (new)
        # representative terminal along the component's own edges.
        self.comp_delay[big] = _component_delays(graph, comp_edges[big], representative, self.delay)

        # Let other searches that already labeled the freshly added path
        # nodes compete for a connection to the new component.
        found = self.settled_on(new_path_nodes, big)
        if self.scans is not None:
            self.scans.append(found)
        for p, other_tid, dist, delay in found:
            key = self.connection_key(active[other_tid], big, delay, dist)
            self.queue.push(other_tid, ("c", p), key)

        self.record(source, target_node, target_weight, meeting_node, steiner_node, path_edges)
        if is_root_merge:
            # Root merges reduce the total active weight (only now: the
            # connection keys above were taken against the previous total).
            self.total_active_weight = sum(t.weight for t in active.values())
        if active:
            self.refresh_targets()

    def merge_compiled(self) -> int:
        """:meth:`merge` of the merge the compiled loop stopped at, whose
        path, tree edges and component union C has done: take Python's
        decisions, then let C finish the merge and run on to the next
        (returns :meth:`_search.SearchLoop.merge`'s result)."""
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
            self.total_active_weight = sum(t.weight for t in active.values())
            kind = loop.merge(ROOT_ID, self.root_node, 0.0, 0.0, self.total_active_weight)
        else:
            target = active[owner]
            steiner_node = self.steiner_position(source, target, None, None)
            new_tid = max(active) + 1
            del active[source_tid], active[owner]
            self.activate(new_tid, steiner_node, source.weight + target.weight, big)
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
        u = int(graph.edge_u[edge])
        v = int(graph.edge_v[edge])
        adjacency.setdefault(u, []).append((edge, v))
        adjacency.setdefault(v, []).append((edge, u))
    result: Dict[int, float] = {representative: 0.0}
    heap = AddressableBinaryHeap()
    heap.push(representative, 0.0)
    settled: Set[int] = set()
    while heap:
        d, node = heap.pop()
        if node in settled:
            continue
        settled.add(node)
        result[node] = d
        for edge, other in adjacency.get(node, []):
            if other in settled:
                continue
            candidate = d + delay[edge]
            if candidate < result.get(other, float("inf")):
                result[other] = candidate
                heap.push(other, candidate)
    return result


def _root_target_sample(root_nodes: Set[int], root_node: int) -> List[int]:
    """Up to ~24 nodes of the root component, striding over the set's
    iteration order (an order dependency, see ``_Solve.comp_nodes``)."""
    if len(root_nodes) <= 24:
        return list(root_nodes)
    sample = list(root_nodes)[:: max(1, len(root_nodes) // 24)]
    if root_node not in sample:
        sample.append(root_node)
    return sample


def _best_steiner_position(
    *,
    graph,
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
