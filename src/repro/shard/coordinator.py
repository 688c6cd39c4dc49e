"""The shard coordinator: multi-region routing with seam stitching.

:class:`ShardCoordinator` is a drop-in replacement for the single-region
:class:`repro.engine.engine.RoutingEngine` (selected by
``GlobalRouterConfig.shards > 1``).  Each rip-up-and-re-route round becomes

1. **Interior pass** -- every region routes its interior nets through an
   independent :class:`~repro.engine.engine.RoutingEngine` against a private
   :class:`~repro.grid.congestion.CongestionMap` initialised from the
   round-start snapshot of the shared map.  Regions never see each other's
   in-round deltas, which is what makes the decomposition independent (and
   deterministic in region order).  The pass runs through a pluggable
   :class:`~repro.shard.executor.RegionExecutor`: in-process and serial by
   default, or fanned out over a process pool with
   ``GlobalRouterConfig.shard_workers > 1`` -- both backends are
   bit-identical because every region is a pure function of the round-start
   state and the deltas are stitched in fixed region order either way.
2. **Stitching** -- each region's usage delta (``delta_since`` the
   round-start snapshot) is added back onto the shared map, exactly like a
   batch of tree deltas.
3. **Seam pass** -- nets whose bounding box spans two or more regions are
   routed by a global engine against the stitched congestion, with the
   normal windowed cost refreshes.

Two interior execution modes:

* **fast** (default) -- interior nets are routed on *extracted region
  subgraphs*: a region's prism is itself a grid graph, so per-net work that
  scales with the edge count (instance construction, cost vector
  materialisation, A* bookkeeping) shrinks by roughly the region count.
  Routes are confined to their region's prism; quality drift shows up as a
  seam-overflow delta and is tracked by ``benchmarks/test_shard_scaling.py``.
* **parity** -- interior nets are routed on the full graph and *all* nets of
  a round (seam included) see the round-start snapshot.  Because per-net RNG
  streams are name-keyed and usage quanta are exact binary fractions, this
  mode reproduces the unsharded router at ``cost_refresh_interval >=
  num_nets`` bit for bit -- the verification harness for the shard
  machinery.

The coordinator is stateless between rounds beyond the shared map and the
global trees list, so checkpoint/resume through :class:`GlobalRouter` works
unchanged.  Replay memo logs (ECO sessions, see
:class:`repro.engine.cache.RoundMemo`) are carried through every pass:
``route_round`` receives the round's global memo, each scope (region
interiors, seam super-region scopes, the global seam engine) localises its
slice -- signatures are only comparable between identical scopes, and a
memo tree that no longer fits a scope's prism is dropped rather than
mis-installed -- and the freshly computed lookup signatures are merged back
into the round's log in fixed region order.  On the region pool the memos
travel inside :class:`~repro.shard.executor.RegionTask` /
:class:`~repro.shard.executor.RegionOutcome`; worker engines build their
signature caches lazily and invalidate them per task, so memo flows stay
round-stateless on every backend.  This is what lets
:class:`repro.serve.session.RoutingSession` drive a sharded engine: clean
regions replay their memos without an oracle call while only the dirty-net
closure re-routes, bit-identical to a cold sharded re-route of the edited
netlist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.bifurcation import BifurcationModel
from repro.core.instance import SteinerInstance
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree
from repro.engine.cache import RoundMemo
from repro.engine.engine import EngineConfig, RoundReport, RoutingEngine
from repro.engine.executor import BatchExecutor, make_executor
from repro.grid.congestion import CongestionMap, CongestionSnapshot
from repro.grid.graph import RoutingGraph
from repro.grid.partition import NetClassification, RegionPartition, partition_grid
from repro.grid.geometry import BoundingBox, GridPoint, bounding_box
from repro.shard.executor import (
    RegionExecutor,
    RegionOutcome,
    RegionTask,
    decode_tree,
    encode_tree,
    make_region_executor,
)

if TYPE_CHECKING:  # circular at runtime: repro.router imports the engine API
    from repro.router.resource_sharing import ResourceSharingPrices

from repro.router.netlist import Net, Netlist, Pin

__all__ = ["ShardStats", "ShardCoordinator"]


def _prepare_memo_round(engine: RoutingEngine, memo_active: bool, stateless: bool) -> None:
    """Make a scope engine memo-capable for this round.

    Pooled scopes are configured cache-free (their worker twins must be
    round-stateless); when a memo round needs the signature machinery
    in-process -- the degraded serial fallback -- the cache is built lazily
    and, for stateless (pooled) scopes, invalidated per round: exactly the
    worker behavior, so degradation stays bit-identical to the live pool.
    Shared by the fast-path and parity scope twins so the cache contract
    cannot drift between them.
    """
    if not memo_active:
        return
    cache = engine.ensure_cache()
    if stateless:
        cache.invalidate()


@dataclass(frozen=True)
class ShardStats:
    """Static shape of a sharded flow (for reporting and tests).

    ``scoped_seam_nets`` counts seam-crossing nets confined to a
    super-region prism (fast path); ``global_seam_nets`` the nets routed by
    the full-graph engine.  They sum to ``seam_nets``.
    """

    num_regions: int
    interior_nets: Tuple[int, ...]
    seam_nets: int
    parity: bool
    scoped_seam_nets: int = 0
    global_seam_nets: int = 0

    @property
    def total_interior(self) -> int:
        return sum(self.interior_nets)


class _RegionPrices:
    """Per-region view of the shared resource-sharing prices.

    Exposes the two attributes the engine reads -- ``edge_prices`` (gathered
    onto the region's subgraph edges) and ``weights_of`` (local net index
    mapped back to the global netlist) -- and is refreshed at every round
    start, after the router's inter-round price updates.
    """

    def __init__(self, prices: "ResourceSharingPrices", edge_to_global: np.ndarray,
                 interior: Sequence[int]) -> None:
        self._prices = prices
        self._edge_to_global = edge_to_global
        self._interior = list(interior)
        self.edge_prices = prices.edge_prices[edge_to_global]

    def refresh(self) -> None:
        self.edge_prices = self._prices.edge_prices[self._edge_to_global]

    def weights_of(self, local_index: int) -> List[float]:
        return self._prices.weights_of(self._interior[local_index])


class _SubgraphScope:
    """A clipped routing scope of the fast path: an engine over the subgraph
    extracted for one prism of the die.

    Level 0 scopes are the partition's regions (interior nets); level 1
    scopes are "super-regions" -- the smallest union of whole regions
    covering a group of seam-crossing nets -- so even most seam nets route
    on a fraction of the full graph.  Nets spanning every cut stay with the
    coordinator's global engine.
    """

    def __init__(
        self,
        coordinator: "ShardCoordinator",
        box,
        nets: List[int],
        label: str,
        pooled: bool = False,
    ) -> None:
        """``pooled`` marks level-0 region scopes whose rounds may execute
        on the region pool; their local engines are then built cache-free
        (worker twins must be round-stateless).  Seam scopes always route
        in the parent process and keep the configured cache."""
        self.label = label
        self.box = box
        self.interior = nets
        #: Pooled scopes keep their caches round-stateless (see
        #: :meth:`route_round`): the degraded serial fallback must behave
        #: exactly like the worker twins, which invalidate per task.
        self.pooled = pooled
        self.xlo, self.ylo = box.xlo, box.ylo
        # Sub-graph and edge maps depend on the graph and the box alone, so
        # they come from the graph's memo: the coordinator of the next flow
        # on this graph (every ECO batch builds one) shares them.
        prism = coordinator.graph.prism(box)
        self.sub_graph = prism.sub_graph
        self.edge_to_global = prism.edge_to_global
        self._edge_to_global_list = prism.edge_to_global_list
        self._edge_to_local_list = prism.edge_to_local_list
        # The sub-netlist keeps the parent's design name and the nets their
        # own names, so instance labels and name-keyed RNG streams line up
        # with the unsharded flow.
        self.sub_netlist = Netlist(
            name=coordinator.netlist.name,
            nets=[self._translate_net(coordinator.netlist.nets[i]) for i in nets],
            stages=[],
            clock_period=coordinator.netlist.clock_period,
        )
        self.prices = _RegionPrices(coordinator.prices, self.edge_to_global, nets)
        self.congestion = CongestionMap(
            self.sub_graph,
            overflow_penalty=coordinator.congestion.overflow_penalty,
            threshold=coordinator.congestion.threshold,
        )
        # Region subproblems are small and already run inside one round-start
        # snapshot; process pools per region would cost more in priming than
        # they return, so sub-engines always execute serially (the seam pass
        # still uses the configured backend through the shared executor).
        # Under region-parallel execution the region scopes are additionally
        # cache-free: a re-route cache would carry state across rounds
        # inside whichever worker process routed the region last, making
        # the region a function of pool scheduling history.
        sub_config = replace(
            coordinator.config,
            backend="serial",
            num_workers=None,
            scheduling="window",
            reroute_cache=coordinator.config.reroute_cache and not pooled,
        )
        self.engine = RoutingEngine(
            graph=self.sub_graph,
            netlist=self.sub_netlist,
            oracle=coordinator.oracle,
            bifurcation=coordinator.bifurcation,
            congestion=self.congestion,
            prices=self.prices,
            seed=coordinator.seed,
            cost_refresh_interval=max(1, len(nets)),
            config=sub_config,
        )

    # ----------------------------------------------------------- geometry
    def _translate_net(self, net: Net) -> Net:
        def shift(pin: Pin) -> Pin:
            p = pin.position
            return Pin(pin.name, GridPoint(p.x - self.xlo, p.y - self.ylo, p.layer))

        return Net(net.name, shift(net.driver), [shift(s) for s in net.sinks])

    def _node_to_global(self, graph: RoutingGraph, node: int) -> int:
        layer, rest = divmod(node, self.sub_graph.nx * self.sub_graph.ny)
        y, x = divmod(rest, self.sub_graph.nx)
        return (layer * graph.ny + (y + self.ylo)) * graph.nx + (x + self.xlo)

    def _node_to_local(self, graph: RoutingGraph, node: int) -> int:
        layer, rest = divmod(node, graph.nx * graph.ny)
        y, x = divmod(rest, graph.nx)
        return (layer * self.sub_graph.ny + (y - self.ylo)) * self.sub_graph.nx + (
            x - self.xlo
        )

    def tree_to_global(self, graph: RoutingGraph, tree: EmbeddedTree) -> EmbeddedTree:
        mapping = self._edge_to_global_list
        return EmbeddedTree(
            graph,
            self._node_to_global(graph, tree.root),
            tuple(self._node_to_global(graph, s) for s in tree.sinks),
            tuple(mapping[e] for e in tree.edges),
            tree.method,
        )

    def try_tree_to_local(
        self, graph: RoutingGraph, tree: EmbeddedTree
    ) -> Optional[EmbeddedTree]:
        """``tree`` translated onto this scope's subgraph, or ``None`` when
        it uses edges outside the prism (e.g. a replay memo recorded while
        the net belonged to a different scope)."""
        mapping = self._edge_to_local_list
        edges = tuple(mapping[int(e)] for e in tree.edges)
        if any(e < 0 for e in edges):
            return None
        return EmbeddedTree(
            self.sub_graph,
            self._node_to_local(graph, tree.root),
            tuple(self._node_to_local(graph, s) for s in tree.sinks),
            edges,
            tree.method,
        )

    def tree_to_local(self, graph: RoutingGraph, tree: EmbeddedTree) -> EmbeddedTree:
        local = self.try_tree_to_local(graph, tree)
        if local is None:
            # Only reachable with trees from outside this scope's flow, e.g.
            # a checkpoint taken under a different shard configuration whose
            # routes detour outside this prism; -1 would otherwise be
            # silently interpreted as the subgraph's last edge.
            raise ValueError(
                f"tree of a net in scope {self.label!r} uses edges outside "
                "the region prism; resume checkpoints with the shard "
                "configuration they were written under"
            )
        return local

    # ------------------------------------------------------------- memos
    def localize_replay(
        self, coordinator: "ShardCoordinator", replay_round: Optional[RoundMemo]
    ) -> Optional[RoundMemo]:
        """The slice of the global replay memo this scope can use, keyed by
        local net index with trees on the scope's subgraph.

        Nets without a memo entry, and nets whose memoised tree strays
        outside this prism (their scope changed across the ECO, so the
        signature could not have been computed here), are dropped -- they
        simply re-route, which is always sound.
        """
        if replay_round is None:
            return None
        graph = coordinator.graph
        memo = RoundMemo()
        for local_index, global_index in enumerate(self.interior):
            signature = replay_round.signatures.get(global_index)
            tree = replay_round.trees.get(global_index)
            if signature is None or tree is None:
                continue
            local_tree = self.try_tree_to_local(graph, tree)
            if local_tree is None:
                continue
            memo.signatures[local_index] = signature
            memo.trees[local_index] = local_tree
        return memo

    def merge_log(self, log_round: Optional[RoundMemo], local_log: Optional[RoundMemo]) -> None:
        """Fold a scope-local log into the round's global memo.

        Signatures move from local to global net indices; *only* signatures
        -- memo trees are recorded globally by the router after the round,
        so mid-round the global log never holds subgraph-indexed trees
        (matching the pool path, whose outcomes ship signatures alone).
        """
        if log_round is None or local_log is None:
            return
        log_round.signatures.update(
            {
                self.interior[local_index]: signature
                for local_index, signature in local_log.signatures.items()
            }
        )

    # -------------------------------------------------------------- round
    def route_round(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        usage: np.ndarray,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> np.ndarray:
        """Route the scope's nets against the given global usage state;
        returns the scope-local usage delta (global scatter is the
        coordinator's job)."""
        graph = coordinator.graph
        start_usage = usage[self.edge_to_global]
        self.congestion.usage = start_usage.copy()
        self.prices.refresh()
        # Local trees are derived from the global list every round (not kept
        # across rounds), so checkpoint restores stay consistent for free.
        local_trees: List[Optional[EmbeddedTree]] = [
            None if trees[g] is None else self.tree_to_local(graph, trees[g])
            for g in self.interior
        ]
        local_replay = self.localize_replay(coordinator, replay_round)
        local_log = RoundMemo() if log_round is not None else None
        _prepare_memo_round(
            self.engine, local_replay is not None or local_log is not None, self.pooled
        )
        self.engine.route_round(
            round_index, local_trees,
            replay_round=local_replay, log_round=local_log,
        )
        self.merge_log(log_round, local_log)
        for local_index, global_index in enumerate(self.interior):
            local_tree = local_trees[local_index]
            trees[global_index] = (
                None if local_tree is None else self.tree_to_global(graph, local_tree)
            )
        return self.congestion.usage - start_usage

    # --------------------------------------------- region-pool integration
    @property
    def key(self) -> str:
        """The scope's identity inside region-executor payloads and tasks."""
        return self.label

    def worker_spec(self) -> Dict[str, object]:
        """The static, picklable half of this scope for pool workers.
        Worker engines are always cache-free (round-stateless), whatever
        the local engine's config says."""
        return {
            "kind": "subgraph",
            "graph": self.sub_graph,
            "netlist": self.sub_netlist,
            "cost_refresh_interval": self.engine.cost_refresh_interval,
            "config": replace(self.engine.config, reroute_cache=False),
        }

    def make_task(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        snapshot: CongestionSnapshot,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> RegionTask:
        """The scope's dynamic round inputs, gathered onto its subgraph."""
        graph = coordinator.graph
        replay = None
        if replay_round is not None:
            local = self.localize_replay(coordinator, replay_round)
            replay = tuple(
                (local.signatures[i], encode_tree(local.trees[i]))
                if i in local.signatures
                else None
                for i in range(len(self.interior))
            )
        return RegionTask(
            key=self.key,
            round_index=round_index,
            usage=snapshot.usage[self.edge_to_global],
            edge_prices=coordinator.prices.edge_prices[self.edge_to_global],
            weights=tuple(
                tuple(coordinator.prices.weights_of(g)) for g in self.interior
            ),
            trees=tuple(
                None
                if trees[g] is None
                else encode_tree(self.tree_to_local(graph, trees[g]))
                for g in self.interior
            ),
            replay=replay,
            capture_log=log_round is not None,
        )

    def apply_outcome(
        self,
        coordinator: "ShardCoordinator",
        trees: List[Optional[EmbeddedTree]],
        outcome: RegionOutcome,
        log_round: Optional[RoundMemo] = None,
    ) -> np.ndarray:
        """Install a worker's routed trees; returns the scope-local delta."""
        graph = coordinator.graph
        for local_index, global_index in enumerate(self.interior):
            record = outcome.trees[local_index]
            trees[global_index] = (
                None
                if record is None
                else self.tree_to_global(graph, decode_tree(self.sub_graph, record))
            )
        if log_round is not None and outcome.log_signatures is not None:
            for local_index, global_index in enumerate(self.interior):
                signature = outcome.log_signatures[local_index]
                if signature is not None:
                    log_round.signatures[global_index] = signature
        return np.asarray(outcome.delta, dtype=np.float64)

    # ------------------------------------------------------- checkpointing
    def cache_signatures_by_name(self) -> Optional[Dict[str, bytes]]:
        """The local engine's stored re-route signatures keyed by net name
        (``None`` when the scope routes cache-free)."""
        if self.engine.cache is None:
            return None
        return {
            self.sub_netlist.nets[local_index].name: signature
            for local_index, signature in self.engine.cache.export_signatures().items()
        }

    def load_cache_signatures_by_name(self, by_name: Dict[str, bytes]) -> None:
        """Restore checkpointed signatures into the local engine's cache
        (no-op for cache-free scopes; unknown names are ignored)."""
        if self.engine.cache is None:
            return
        self.engine.cache.load_signatures(
            {
                local_index: by_name[net.name]
                for local_index, net in enumerate(self.sub_netlist.nets)
                if net.name in by_name
            }
        )


class _ParityRegion:
    """One region of the parity path: an engine over the full graph."""

    def __init__(self, coordinator: "ShardCoordinator", region_index: int,
                 interior: List[int]) -> None:
        self.index = region_index
        self.label = f"parity{region_index}"
        self.interior = interior
        self.pooled = coordinator.parallel_regions
        self.graph = coordinator.graph
        self.netlist = coordinator.netlist
        self.congestion = CongestionMap(
            coordinator.graph,
            overflow_penalty=coordinator.congestion.overflow_penalty,
            threshold=coordinator.congestion.threshold,
        )
        # Cache-free under region-parallel execution, like the subgraph
        # scopes: pool-side region engines must be round-stateless.
        config = replace(
            coordinator.config,
            scheduling="window",
            reroute_cache=(
                coordinator.config.reroute_cache and not coordinator.parallel_regions
            ),
        )
        self.engine = RoutingEngine(
            graph=coordinator.graph,
            netlist=coordinator.netlist,
            oracle=coordinator.oracle,
            bifurcation=coordinator.bifurcation,
            congestion=self.congestion,
            prices=coordinator.prices,
            seed=coordinator.seed,
            cost_refresh_interval=max(1, len(interior)),
            config=config,
            net_indices=interior,
            executor=coordinator.executor,
        )

    # ------------------------------------------------------------- memos
    def localize_replay(
        self, coordinator: "ShardCoordinator", replay_round: Optional[RoundMemo]
    ) -> Optional[RoundMemo]:
        """The replay slice of this region's nets (keys and trees are
        already global on the parity path)."""
        if replay_round is None:
            return None
        return replay_round.restrict_to(self.interior)

    def merge_log(self, log_round: Optional[RoundMemo], local_log: Optional[RoundMemo]) -> None:
        """Fold this region's log into the round memo (keys already global;
        signatures only, like the fast-path twin)."""
        if log_round is None or local_log is None:
            return
        log_round.signatures.update(local_log.signatures)

    def route_round(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        snapshot: CongestionSnapshot,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> np.ndarray:
        """Route on the full graph against the round-start snapshot; returns
        the full-graph usage delta."""
        self.congestion.restore(snapshot)
        local_replay = self.localize_replay(coordinator, replay_round)
        local_log = RoundMemo() if log_round is not None else None
        _prepare_memo_round(
            self.engine, local_replay is not None or local_log is not None, self.pooled
        )
        self.engine.route_round(
            round_index, trees, replay_round=local_replay, log_round=local_log
        )
        self.merge_log(log_round, local_log)
        return self.congestion.delta_since(snapshot)

    # --------------------------------------------- region-pool integration
    @property
    def key(self) -> str:
        return self.label

    def worker_spec(self) -> Dict[str, object]:
        """The static, picklable half of this region for pool workers.

        The engine backend is forced serial inside workers -- a nested
        process pool per region would oversubscribe the machine; the
        backends are bit-identical, so only the shape of the parallelism
        changes, never the trees.
        """
        return {
            "kind": "parity",
            "graph": self.graph,
            "netlist": self.netlist,
            "interior": list(self.interior),
            "cost_refresh_interval": self.engine.cost_refresh_interval,
            "config": replace(
                self.engine.config,
                backend="serial",
                num_workers=None,
                reroute_cache=False,
            ),
        }

    def make_task(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        snapshot: CongestionSnapshot,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> RegionTask:
        replay = None
        if replay_round is not None:
            local = self.localize_replay(coordinator, replay_round)
            replay = tuple(
                (local.signatures[g], encode_tree(local.trees[g]))
                if g in local.signatures and g in local.trees
                else None
                for g in self.interior
            )
        return RegionTask(
            key=self.key,
            round_index=round_index,
            usage=snapshot.usage,
            edge_prices=coordinator.prices.edge_prices,
            weights=tuple(
                tuple(coordinator.prices.weights_of(g)) for g in self.interior
            ),
            trees=tuple(encode_tree(trees[g]) for g in self.interior),
            replay=replay,
            capture_log=log_round is not None,
        )

    def apply_outcome(
        self,
        coordinator: "ShardCoordinator",
        trees: List[Optional[EmbeddedTree]],
        outcome: RegionOutcome,
        log_round: Optional[RoundMemo] = None,
    ) -> np.ndarray:
        for net_index, record in zip(self.interior, outcome.trees):
            trees[net_index] = decode_tree(self.graph, record)
        if log_round is not None and outcome.log_signatures is not None:
            for net_index, signature in zip(self.interior, outcome.log_signatures):
                if signature is not None:
                    log_round.signatures[net_index] = signature
        return np.asarray(outcome.delta, dtype=np.float64)

    # ------------------------------------------------------- checkpointing
    def cache_signatures_by_name(self) -> Optional[Dict[str, bytes]]:
        """Stored re-route signatures keyed by net name (``None`` when this
        region routes cache-free)."""
        if self.engine.cache is None:
            return None
        return {
            self.netlist.nets[net_index].name: signature
            for net_index, signature in self.engine.cache.export_signatures().items()
        }

    def load_cache_signatures_by_name(self, by_name: Dict[str, bytes]) -> None:
        if self.engine.cache is None:
            return
        self.engine.cache.load_signatures(
            {
                net_index: by_name[self.netlist.nets[net_index].name]
                for net_index in self.interior
                if self.netlist.nets[net_index].name in by_name
            }
        )


class ShardCoordinator:
    """Routes rounds as K independent region passes plus a seam stitch pass.

    Implements the engine interface :class:`GlobalRouter` consumes
    (``route_round`` / ``close`` / ``cache`` / ``round_reports``), so the
    router, checkpointing, the CLI, and the serve daemon all work unchanged
    with ``GlobalRouterConfig.shards > 1``.
    """

    def __init__(
        self,
        graph: RoutingGraph,
        netlist: Netlist,
        oracle: SteinerOracle,
        bifurcation: BifurcationModel,
        congestion: CongestionMap,
        prices: "ResourceSharingPrices",
        seed: int,
        cost_refresh_interval: int,
        config: Optional[EngineConfig] = None,
        shards: int = 2,
        parity: bool = False,
        halo: int = 0,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        """``workers`` selects the region execution backend: ``None``/``1``
        routes the K interior passes serially in-process, ``> 1`` fans them
        out over a process pool of that size (see
        :mod:`repro.shard.executor`); ``start_method`` pins the pool's
        ``multiprocessing`` start method.  Both backends are bit-identical.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.graph = graph
        self.netlist = netlist
        self.oracle = oracle
        self.bifurcation = bifurcation
        self.congestion = congestion
        self.prices = prices
        self.seed = seed
        self.cost_refresh_interval = cost_refresh_interval
        self.config = config or EngineConfig()
        self.parity = parity
        self.partition: RegionPartition = partition_grid(graph.nx, graph.ny, shards)
        self.classification: NetClassification = self.partition.classify_nets(
            netlist, halo=halo
        )
        #: The engine-interface cache slot.  Scope engines keep private
        #: caches (serial region backend only); there is no global
        #: signature store to checkpoint, so this stays ``None``.
        self.cache = None
        self.round_reports: List[RoundReport] = []
        #: Walltime split of the most recent round (see :meth:`route_round`):
        #: ``{"regions": {key: seconds}, "interior_seconds", "seam_seconds",
        #: "overhead_seconds"}``.  Read by ``obs.round_sample`` for the
        #: router's per-round time-series; empty before the first round.
        self.last_round_timings: Dict[str, object] = {}
        self._closed = False
        #: Whether the interior pass runs on a process pool; scope engines
        #: are built cache-free in that case (round-stateless workers).
        self.parallel_regions = workers is not None and workers > 1

        #: Backend of the interior pass: the in-process serial loop, or a
        #: process pool fanning the K regions out (``workers > 1``).  Owned
        #: and closed by the coordinator.  Not part of the checkpoint
        #: fingerprint -- all backends are bit-identical, so a run
        #: checkpointed under one ``shard_workers`` value may resume under
        #: any other.
        self.region_executor: RegionExecutor = make_region_executor(
            workers, start_method
        )

        #: Executor shared by the full-graph engines (seam pass and parity
        #: interior passes); owned and closed by the coordinator.
        self.executor: BatchExecutor = make_executor(
            self.config.backend,
            graph,
            oracle,
            bifurcation,
            seed,
            num_workers=self.config.num_workers,
        )
        self.regions: List[object] = []
        for region_index, interior in enumerate(self.classification.interior):
            if not interior:
                continue  # empty regions need no engine (K may exceed the net count)
            box = self.partition.regions[region_index].box
            if parity:
                self.regions.append(_ParityRegion(self, region_index, interior))
            else:
                self.regions.append(
                    _SubgraphScope(
                        self, box, interior, f"region{region_index}",
                        pooled=self.parallel_regions,
                    )
                )

        seam = self.classification.seam
        #: Fast path: seam nets whose covering super-region is smaller than
        #: the whole die route on that prism's subgraph (level-1 scopes);
        #: only nets spanning every cut stay with the global engine.  Parity
        #: mode routes all seam nets globally against the round-start
        #: snapshot.
        self.seam_scopes: List[_SubgraphScope] = []
        global_seam = seam
        if not parity:
            full_box = BoundingBox(0, 0, graph.nx - 1, graph.ny - 1)
            groups: Dict[BoundingBox, List[int]] = {}
            for net_index in seam:
                box = BoundingBox(
                    *_net_bounding_box(netlist.nets[net_index])
                ).expanded(halo, graph.nx, graph.ny)
                cover = self.partition.covering_box(box)
                groups.setdefault(cover, []).append(net_index)
            global_seam = []
            for cover in sorted(
                groups, key=lambda b: (b.xlo, b.ylo, b.xhi, b.yhi)
            ):
                nets = groups[cover]
                if cover == full_box:
                    global_seam.extend(nets)
                else:
                    self.seam_scopes.append(
                        _SubgraphScope(self, cover, nets, f"seam{len(self.seam_scopes)}")
                    )
            global_seam.sort()
        # The graph memoises the prisms of the coordinator that routes on it
        # now; a scope this flow no longer has takes its sub-graph along.
        graph.retain_prisms(
            [] if parity else [scope.box for scope in self.regions + self.seam_scopes]
        )

        self._global_seam = global_seam
        self._seam_congestion = (
            CongestionMap(
                graph,
                overflow_penalty=congestion.overflow_penalty,
                threshold=congestion.threshold,
            )
            if parity
            else congestion
        )
        seam_config = replace(self.config, scheduling="window") if parity else self.config
        self.seam_engine = RoutingEngine(
            graph=graph,
            netlist=netlist,
            oracle=oracle,
            bifurcation=bifurcation,
            congestion=self._seam_congestion,
            prices=prices,
            seed=seed,
            cost_refresh_interval=(
                max(1, len(global_seam)) if parity else cost_refresh_interval
            ),
            config=seam_config,
            net_indices=global_seam,
            executor=self.executor,
        )

    # ------------------------------------------------------------- queries
    @property
    def stats(self) -> ShardStats:
        return ShardStats(
            num_regions=self.partition.num_regions,
            interior_nets=tuple(len(r) for r in self.classification.interior),
            seam_nets=len(self.classification.seam),
            parity=self.parity,
            scoped_seam_nets=sum(len(s.interior) for s in self.seam_scopes),
            global_seam_nets=len(self._global_seam),
        )

    # ------------------------------------------------------------------ API
    def route_round(
        self,
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        record: bool = False,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> List[SteinerInstance]:
        """Route every net once: interior passes, stitch, seam pass.

        ``replay_round`` / ``log_round`` are the round's *global* replay and
        log memos (see :class:`~repro.engine.cache.RoundMemo`); every scope
        localises its slice and contributes its lookup signatures back in
        fixed region order, so session flows work through shards on every
        region backend.
        """
        if (replay_round is not None or log_round is not None) and not (
            self.config.reroute_cache
        ):
            raise ValueError("replay/memo rounds require reroute_cache=True")
        started = time.monotonic()
        snapshot = self.congestion.snapshot()
        round_costs = snapshot.edge_costs(self.prices.edge_prices) if record else None
        collected: List[SteinerInstance] = []
        # Interior pass: all regions route against the round-start snapshot,
        # serially or on the region executor's process pool -- either way the
        # deltas come back aligned with ``self.regions``.
        deltas, region_reports = self.region_executor.route_round(
            self, round_index, trees, snapshot,
            replay_round=replay_round, log_round=log_round,
        )
        interior_elapsed = time.monotonic() - started
        if record:
            for region in self.regions:
                collected.extend(
                    self._record_scope(region, round_costs)  # type: ignore[arg-type]
                )
        # Stitch: merge every region's usage delta onto the shared map, in
        # fixed region order so the floating-point sums are identical across
        # region backends.  The parity path produced full-graph deltas, the
        # fast path region-local ones scattered through the region's edge
        # map.
        for region, delta in zip(self.regions, deltas):
            if isinstance(region, _SubgraphScope):
                self.congestion.usage[region.edge_to_global] += delta
            else:
                self.congestion.usage += delta
        # Seam super-region scopes (fast path only) run against the live,
        # already-stitched map, one scope after the other.
        for scope in self.seam_scopes:
            with obs.span("seam_scope", key=scope.key, round=round_index):
                delta = scope.route_round(
                    self, round_index, trees, self.congestion.usage,
                    replay_round=replay_round, log_round=log_round,
                )
                self.congestion.usage[scope.edge_to_global] += delta
            if record:
                collected.extend(
                    self._record_scope(scope, round_costs)  # type: ignore[arg-type]
                )
        if self.parity:
            self._seam_congestion.restore(snapshot)
        seam_started = time.monotonic()
        with obs.span("seam", round=round_index, nets=len(self._global_seam)):
            collected.extend(
                self.seam_engine.route_round(
                    round_index, trees, record=record,
                    replay_round=replay_round, log_round=log_round,
                )
            )
        seam_elapsed = time.monotonic() - seam_started
        if self.parity:
            self.congestion.usage += self._seam_congestion.delta_since(snapshot)
        # Per-round walltime split for the telemetry sample: where the
        # interior pass's time went per region, the seam pass, and -- for
        # pooled interior passes -- the pool/IPC overhead (elapsed beyond
        # the slowest region; for serial passes, beyond the regions' sum).
        region_seconds = {
            region.key: float(report[4])
            for region, report in zip(self.regions, region_reports)
        }
        pool = self.region_executor.pool
        if not region_seconds:
            busy = 0.0
        elif pool is not None and pool.active:
            busy = max(region_seconds.values())
        else:
            busy = sum(region_seconds.values())
        self.last_round_timings = {
            "regions": region_seconds,
            "interior_seconds": interior_elapsed,
            "seam_seconds": seam_elapsed,
            "overhead_seconds": max(0.0, interior_elapsed - busy),
        }
        obs.publish(
            "seam_done",
            round=round_index + 1,
            nets=len(self._global_seam),
            seconds=round(seam_elapsed, 6),
        )
        self.round_reports.append(
            self._aggregate_report(round_index, started, region_reports)
        )
        return collected

    def close(self) -> None:
        """Release every sub-engine, the region pool, and the shared
        executor (idempotent).

        Runs every release even when one raises -- a round that failed
        mid-flight must not leak the remaining engines or either worker
        pool -- and re-raises the first error afterwards.
        """
        if self._closed:
            return
        self._closed = True
        closers = [
            region.engine.close for region in self.regions  # type: ignore[attr-defined]
        ]
        closers.extend(scope.engine.close for scope in self.seam_scopes)
        closers.extend(
            [self.seam_engine.close, self.region_executor.close, self.executor.close]
        )
        errors: List[BaseException] = []
        for closer in closers:
            try:
                closer()
            except BaseException as exc:  # release everything before raising
                errors.append(exc)
        if errors:
            raise errors[0]

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _record_scope(
        self, region: object, costs: np.ndarray
    ) -> List[SteinerInstance]:
        """Global-graph instances of a scope's nets, in scheduled order.

        Recording is done here rather than inside the scope engines because
        the fast path's sub-engines would record subgraph-indexed instances;
        building them once at the coordinator keeps both modes uniform.
        All recorded instances carry the round-start cost vector.
        """
        if isinstance(region, _ParityRegion):
            order = region.engine.scheduled_nets()
        else:
            order = [region.interior[i] for i in region.engine.scheduled_nets()]
        delay = self.graph.delay_array()
        instances = []
        for net_index in order:
            root, sinks = self.netlist.net_terminals(self.graph, net_index)
            instances.append(
                SteinerInstance(
                    graph=self.graph,
                    root=root,
                    sinks=sinks,
                    weights=self.prices.weights_of(net_index),
                    cost=costs,
                    delay=delay,
                    bifurcation=self.bifurcation,
                    name=f"{self.netlist.name}/{self.netlist.nets[net_index].name}",
                )
            )
        return instances

    def _aggregate_report(
        self,
        round_index: int,
        started: float,
        region_reports: Sequence[Tuple[int, int, int, int, float]],
    ) -> RoundReport:
        """Fold per-region executor counts and the in-process seam engines'
        last rounds into one coordinator-level report."""
        report = RoundReport(round_index=round_index)
        for num_batches, nets_routed, nets_cached, nets_replayed, _seconds in region_reports:
            report.num_batches += num_batches
            report.nets_routed += nets_routed
            report.nets_cached += nets_cached
            report.nets_replayed += nets_replayed
        for engine in [scope.engine for scope in self.seam_scopes] + [self.seam_engine]:
            last = engine.round_reports[-1]
            report.num_batches += last.num_batches
            report.nets_routed += last.nets_routed
            report.nets_cached += last.nets_cached
            report.nets_replayed += last.nets_replayed
        report.walltime_seconds = time.monotonic() - started
        return report

    # ------------------------------------------------------- checkpointing
    def export_cache_signatures(self) -> Optional[Dict[str, object]]:
        """The per-scope re-route signature sections of a checkpoint.

        Returns ``None`` when no scope holds a cache (``reroute_cache`` off,
        or every scope routes cache-free); otherwise a document of the shape
        ``{"layout": {"shards": K, "parity": bool}, "scopes": {scope_key:
        {net_name: signature_bytes}}}``.  Signatures are keyed by net *name*
        -- the same convention as RNG streams and replay memos -- so a
        restore can redistribute them across a different decomposition.
        """
        scopes: Dict[str, Dict[str, bytes]] = {}
        for region in self.regions:
            section = region.cache_signatures_by_name()  # type: ignore[attr-defined]
            if section is not None:
                scopes[region.key] = section  # type: ignore[attr-defined]
        for scope in self.seam_scopes:
            section = scope.cache_signatures_by_name()
            if section is not None:
                scopes[scope.key] = section
        if self.seam_engine.cache is not None:
            scopes["seam"] = {
                self.netlist.nets[net_index].name: signature
                for net_index, signature in (
                    self.seam_engine.cache.export_signatures().items()
                )
            }
        if not scopes:
            return None
        return {
            "layout": {"shards": self.partition.num_regions, "parity": self.parity},
            "scopes": scopes,
        }

    def load_cache_signatures(self, sections: Dict[str, object]) -> None:
        """Restore checkpointed signature sections into the scope caches.

        When the checkpoint's shard layout matches this coordinator's, each
        scope restores exactly its own section.  Under a different layout
        the sections are flattened by net name and every scope picks out its
        nets -- exact in the parity regime (parity signatures are
        scope-independent), and merely conservative on the fast path, where
        a foreign-prism signature can only produce a cache miss, never a
        wrong tree.
        """
        layout = sections.get("layout") or {}
        scopes: Dict[str, Dict[str, bytes]] = (  # type: ignore[assignment]
            sections.get("scopes") or {}
        )
        exact = (
            layout.get("shards") == self.partition.num_regions
            and layout.get("parity") == self.parity
        )
        flat: Dict[str, bytes] = {}
        for section in scopes.values():
            flat.update(section)
        for region in list(self.regions) + list(self.seam_scopes):
            source = scopes.get(region.key) if exact else None  # type: ignore[attr-defined]
            region.load_cache_signatures_by_name(  # type: ignore[attr-defined]
                source if source is not None else flat
            )
        if self.seam_engine.cache is not None:
            source = scopes.get("seam") if exact else None
            by_name = source if source is not None else flat
            self.seam_engine.cache.load_signatures(
                {
                    net_index: by_name[self.netlist.nets[net_index].name]
                    for net_index in self._global_seam
                    if self.netlist.nets[net_index].name in by_name
                }
            )

    def region_worker_payload(self) -> Dict[str, object]:
        """The read-only payload priming region-pool workers: the oracle,
        the bifurcation model, congestion parameters, and each region's
        static spec (subgraph or full-graph slice).  Shared objects -- the
        full graph and netlist referenced by every parity region -- are
        pickled once thanks to pickle's memo table."""
        return {
            "oracle": self.oracle,
            "bifurcation": self.bifurcation,
            "seed": self.seed,
            "overflow_penalty": self.congestion.overflow_penalty,
            "threshold": self.congestion.threshold,
            "regions": {  # type: ignore[attr-defined]
                region.key: region.worker_spec() for region in self.regions
            },
        }


def _net_bounding_box(net: Net) -> Tuple[int, int, int, int]:
    """Planar pin bounding box of one net (xmin, ymin, xmax, ymax)."""
    return bounding_box(p.position for p in net.pins())
