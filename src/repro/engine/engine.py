"""The batch-routing engine façade.

:class:`RoutingEngine` is the execution layer between the router's
price/timing logic (:mod:`repro.router`) and the Steiner oracles
(:mod:`repro.core`, :mod:`repro.baselines`).  One engine owns

* a :class:`~repro.engine.scheduler.NetScheduler` that partitions each
  rip-up-and-re-route round into batches sharing a congestion snapshot,
  and
* optionally a :class:`~repro.engine.cache.RerouteCache` that skips nets
  whose instance signature is unchanged since their last routing.

It routes each batch itself, in-process and net by net (the per-net oracle
of the paper's Algorithm 1): one :class:`OracleCostContext` per batch, the
instance of each net that reaches the oracle built once by
:func:`net_instance`, one oracle call on the net's own RNG stream, and the
returned tree installed as it is.

Determinism contract: for a fixed :class:`EngineConfig` scheduling policy,
every placement -- and every cache setting under the
``global`` cache scope -- produces bit-identical trees, because each net's
tree is a pure function of its (snapshot-derived) Steiner instance and its
private RNG stream.  The default configuration (``window`` scheduling, cache
off) keeps the historical serial loop's batching and cost-refresh structure;
routed trees differ from pre-engine releases only through the per-net RNG
streams that replaced the old shared-per-round RNG (:mod:`repro.engine.rng`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.core.bifurcation import BifurcationModel
from repro.core.costctx import OracleCostContext
from repro.core.instance import SteinerInstance
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree
from repro.engine.cache import RerouteCache, RoundMemo
from repro.engine.rng import derive_net_rng_for_name
from repro.engine.scheduler import NetBatch, NetScheduler
from repro.grid.congestion import CongestionMap
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # circular at runtime: repro.router imports repro.engine
    from repro.router.netlist import Netlist
    from repro.router.resource_sharing import ResourceSharingPrices

__all__ = [
    "CACHE_SCOPES",
    "SCHEDULING_POLICIES",
    "EngineConfig",
    "RoundReport",
    "RoutingEngine",
    "net_instance",
]

#: The values of :attr:`EngineConfig.scheduling` / :attr:`EngineConfig.cache_scope`
#: (the flow-parameter table reads its choice sets from here).
SCHEDULING_POLICIES = ("window", "bbox")
CACHE_SCOPES = ("bbox", "global")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the batch-routing engine.

    Attributes
    ----------
    scheduling:
        Batch formation policy: ``"window"`` (cost-refresh windows,
        reproduces the legacy serial loop) or ``"bbox"`` (conflict-free
        bounding-box batches with per-batch cost refresh).
    reroute_cache:
        Enables the incremental re-route cache.
    cache_scope:
        ``"bbox"`` (digest costs over the net's bounding region, fast) or
        ``"global"`` (digest the full cost vector, exact).
    """

    scheduling: str = "window"
    reroute_cache: bool = False
    cache_scope: str = "bbox"

    def __post_init__(self) -> None:
        if self.scheduling not in SCHEDULING_POLICIES:
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")
        if self.cache_scope not in CACHE_SCOPES:
            raise ValueError(f"unknown cache scope {self.cache_scope!r}")


@dataclass
class RoundReport:
    """Bookkeeping of one engine round (for benchmarks and diagnostics)."""

    round_index: int
    num_batches: int = 0
    nets_routed: int = 0
    nets_cached: int = 0
    nets_replayed: int = 0
    walltime_seconds: float = 0.0


class RoutingEngine:
    """Routes rip-up-and-re-route rounds for a :class:`GlobalRouter`.

    The engine mutates the shared ``trees`` list and ``congestion`` map that
    the router owns; prices are only read.  The router remains responsible
    for timing analysis and price updates between rounds.
    """

    def __init__(
        self,
        graph: RoutingGraph,
        netlist: "Netlist",
        oracle: SteinerOracle,
        bifurcation: BifurcationModel,
        congestion: CongestionMap,
        prices: "ResourceSharingPrices",
        seed: int,
        cost_refresh_interval: int,
        config: Optional[EngineConfig] = None,
        net_indices: Optional[Sequence[int]] = None,
    ) -> None:
        """``net_indices`` restricts the engine to a subset of the netlist
        (the shard coordinator's global seam engine)."""
        if cost_refresh_interval < 1:
            raise ValueError("cost_refresh_interval must be positive")
        self.graph = graph
        self.netlist = netlist
        self.oracle = oracle
        self.bifurcation = bifurcation
        self.congestion = congestion
        self.prices = prices
        self.seed = seed
        self.cost_refresh_interval = cost_refresh_interval
        self.config = config or EngineConfig()
        self.net_indices = None if net_indices is None else list(net_indices)
        self.scheduler = NetScheduler(graph, netlist)
        self._delay = graph.delay_array()
        self.cache: Optional[RerouteCache] = None
        if self.config.reroute_cache:
            self.cache = self._make_cache()
        # The batch structure depends only on static inputs (netlist, boxes,
        # policy), so it is computed once and reused every round -- the bbox
        # policy's greedy colouring is quadratic in the net count.
        self._batches: List[NetBatch] = self.scheduler.schedule(
            net_indices=self.net_indices,
            policy=self.config.scheduling,
            window_size=self.cost_refresh_interval,
        )
        self.round_reports: List[RoundReport] = []
        #: The sharded engine's per-round walltime split; always empty here.
        self.last_round_timings: Dict[str, object] = {}

    # ------------------------------------------------------------------ API
    def route_round(
        self,
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> None:
        """Route every net once, updating ``trees`` and the congestion map.

        ``replay_round`` / ``log_round`` drive memoised replays (see
        :class:`~repro.engine.cache.RoundMemo`): when ``replay_round`` is
        given, a net whose lookup signature matches the memo reuses the
        memoised tree instead of calling the oracle, and the ordinary
        inter-round cache bookkeeping is bypassed; when ``log_round`` is
        given, every net's lookup signature is recorded into it.  Both
        require the re-route cache to be configured.
        """
        if (replay_round is not None or log_round is not None) and self.cache is None:
            raise ValueError("replay/memo rounds require reroute_cache=True")
        report = RoundReport(round_index=round_index)
        started = time.monotonic()
        for batch in self._batches:
            with obs.span(
                "batch",
                round=round_index,
                batch=report.num_batches,
                nets=len(batch.nets),
            ) as batch_span:
                report.num_batches += 1
                snapshot = self.congestion.snapshot()
                costs = snapshot.edge_costs(self.prices.edge_prices)
                # One shared cost context per batch: the future-cost
                # estimator and validation amortise over every net routed
                # against this vector (None in reference mode).
                context = self.make_context(costs)
                if context is not None:
                    costs = context.cost
                # Signature ingredients that are constant across the batch: the
                # bbox scope folds in the global cost floor, the global scope
                # the full-vector digest.  Compute each once, not per net.
                cost_floor = 0.0
                cost_digest: Optional[bytes] = None
                if self.cache is not None:
                    if self.cache.scope == "global":
                        cost_digest = self.cache.global_cost_digest(costs)
                    else:
                        cost_floor = self.cache.global_cost_floor(costs)
                # The nets that reach the oracle, with their instances (a
                # cached or replayed net needs none).
                pending: Dict[int, SteinerInstance] = {}
                signatures: Dict[int, bytes] = {}
                for net_index in batch.nets:
                    if self.cache is not None:
                        old_tree = trees[net_index]
                        root, sinks = self.netlist.net_terminals(self.graph, net_index)
                        sig = self.cache.signature(
                            net_index,
                            root,
                            sinks,
                            self.prices.weights_of(net_index),
                            costs,
                            self.bifurcation,
                            tree_edges=old_tree.edges if old_tree is not None else (),
                            cost_floor=cost_floor,
                            cost_digest=cost_digest,
                        )
                        signatures[net_index] = sig
                        if log_round is not None:
                            log_round.signatures[net_index] = sig
                        if replay_round is not None:
                            # Replay mode: identical lookup signature means the
                            # deterministic oracle would reproduce the memoised
                            # tree, so install it without an oracle call.  The
                            # memo run's usage is not booked here, so the delta
                            # is applied like a fresh routing.
                            memo_tree = replay_round.trees.get(net_index)
                            if (
                                memo_tree is not None
                                and replay_round.signatures.get(net_index) == sig
                            ):
                                self.congestion.apply_tree_delta(
                                    old_tree.edges if old_tree is not None else None,
                                    memo_tree.edges,
                                )
                                trees[net_index] = memo_tree
                                report.nets_replayed += 1
                                continue
                        elif old_tree is not None and self.cache.is_fresh(net_index, sig):
                            # Unchanged instance: the oracle would rebuild the
                            # exact same tree, so keep it (usage already booked).
                            report.nets_cached += 1
                            continue
                    pending[net_index] = net_instance(
                        self.graph,
                        self.netlist,
                        self.prices,
                        self.bifurcation,
                        net_index,
                        costs,
                        self._delay,
                        context,
                    )
                routed = {
                    net_index: self._route_net(net_index, instance)
                    for net_index, instance in pending.items()
                }
                if obs.get_tracer() is not None:
                    for net_index, (tree, seconds) in routed.items():
                        instance = pending[net_index]
                        obs.event(
                            "net",
                            net=instance.name,
                            sinks=instance.num_sinks,
                            method=tree.method,
                            seconds=seconds,
                        )
                for net_index in batch.nets:
                    new_tree, _seconds = routed.get(net_index, (None, 0.0))
                    if new_tree is not None:
                        old_tree = trees[net_index]
                        self.congestion.apply_tree_delta(
                            old_tree.edges if old_tree is not None else None,
                            new_tree.edges,
                        )
                        trees[net_index] = new_tree
                        report.nets_routed += 1
                    if self.cache is not None and replay_round is None:
                        sig = signatures[net_index]
                        if new_tree is not None and self.cache.scope != "global":
                            # Re-digest under the *new* tree's bounding region so
                            # the entry can match next round's lookup (which will
                            # use this tree's edges) without an extra warm-up
                            # round after every re-route.
                            instance = pending[net_index]
                            sig = self.cache.signature(
                                net_index,
                                instance.root,
                                instance.sinks,
                                instance.weights,
                                costs,
                                self.bifurcation,
                                tree_edges=new_tree.edges,
                                cost_floor=cost_floor,
                                cost_digest=cost_digest,
                            )
                        self.cache.store(net_index, sig)
                batch_span.set(routed=len(routed))
        report.walltime_seconds = time.monotonic() - started
        self.round_reports.append(report)
        # Engine counters book into whatever registry is active here: the
        # process default in serial/seam runs, a worker-local one inside
        # pooled region workers (shipped back and merged in region order).
        obs.inc("engine.rounds")
        obs.inc("engine.batches", report.num_batches)
        obs.inc("engine.oracle_calls", report.nets_routed)
        obs.inc("engine.nets_cached", report.nets_cached)
        obs.inc("engine.nets_replayed", report.nets_replayed)
        obs.observe("engine.round_seconds", report.walltime_seconds)

    def export_signatures(self) -> Optional[Dict[str, bytes]]:
        """The stored re-route signatures keyed by net name, like RNG
        streams and replay memos (``None`` when the engine is cache-free)."""
        if self.cache is None:
            return None
        nets = self.netlist.nets
        return {nets[i].name: s for i, s in self.cache.export_signatures().items()}

    def load_signatures(self, by_name: Dict[str, bytes]) -> None:
        """Restore :meth:`export_signatures` (no-op when cache-free; names
        this engine does not route are ignored)."""
        if self.cache is not None:
            nets = self.netlist.nets
            names = ((i, nets[i].name) for batch in self._batches for i in batch.nets)
            self.cache.load_signatures(
                {i: by_name[name] for i, name in names if name in by_name}
            )

    def make_context(self, costs: np.ndarray) -> Optional[OracleCostContext]:
        """One :class:`OracleCostContext` for a batch routed against
        ``costs``.  The reference-kernel benchmark harness patches this to
        return ``None``, which reverts every consumer to the per-net slow
        paths."""
        return OracleCostContext(self.graph, costs, delay=self._delay)

    def close(self) -> None:
        """Nothing to release: batches run in this process.  (The shard
        coordinator, the other engine behind a router, closes its region
        pool here.)"""

    def __enter__(self) -> "RoutingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _make_cache(self) -> RerouteCache:
        scope = self.config.cache_scope
        landmarks = getattr(getattr(self.oracle, "config", None), "num_landmarks", 0)
        if scope == "bbox" and (not self.oracle.region_cache_safe or landmarks):
            # The region digest only sees costs near the net; oracles
            # that consult the full cost vector (global shortest-path
            # embeddings, landmark/ALT lower bounds) can change their
            # tree on a remote cost change the digest misses, so fall
            # back to exact full-vector signatures.
            scope = "global"
        return RerouteCache(
            self.graph,
            [self.scheduler.net_box(i) for i in range(self.netlist.num_nets)],
            scope=scope,
        )

    def _route_net(self, net_index: int, instance: SteinerInstance) -> Tuple[EmbeddedTree, float]:
        """The oracle's tree of one net on the net's own RNG stream, and its
        solve seconds."""
        rng = derive_net_rng_for_name(self.seed, self.netlist.nets[net_index].name)
        plan = faults.get_plan()
        if plan is not None:
            plan.sleep("slow-oracle")
        started = time.monotonic()
        tree = self.oracle.build(instance, rng)
        return tree, time.monotonic() - started


def net_instance(
    graph: RoutingGraph,
    netlist: "Netlist",
    prices: "ResourceSharingPrices",
    bifurcation: BifurcationModel,
    net_index: int,
    costs: np.ndarray,
    delay: np.ndarray,
    context: Optional[OracleCostContext] = None,
) -> SteinerInstance:
    """The cost-distance Steiner instance of one net under ``costs`` and the
    current sink delay weights: the one builder of the engine's batches and
    of :meth:`~repro.router.router.GlobalRouter.build_instance`."""
    root, sinks = netlist.net_terminals(graph, net_index)
    return SteinerInstance(
        graph=graph,
        root=root,
        sinks=sinks,
        weights=prices.weights_of(net_index),
        cost=costs,
        delay=delay,
        bifurcation=bifurcation,
        name=f"{netlist.name}/{netlist.nets[net_index].name}",
        context=context,
    )
