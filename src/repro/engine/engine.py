"""The batch-routing engine façade.

:class:`RoutingEngine` is the execution layer between the router's
price/timing logic (:mod:`repro.router`) and the Steiner oracles
(:mod:`repro.core`, :mod:`repro.baselines`).  One engine owns

* a :class:`~repro.engine.scheduler.NetScheduler` that partitions each
  rip-up-and-re-route round into batches sharing a congestion snapshot,
* a :class:`~repro.engine.executor.BatchExecutor` that routes each batch
  inline or on its worker pool, as the batch's predicted work decides, and
* optionally a :class:`~repro.engine.cache.RerouteCache` that skips nets
  whose instance signature is unchanged since their last routing.

Determinism contract: for a fixed :class:`EngineConfig` scheduling policy,
every placement and worker count -- and every cache setting under the
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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import obs
from repro.core.bifurcation import BifurcationModel
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree
from repro.engine.cache import RerouteCache, RoundMemo
from repro.engine.executor import BatchExecutor, NetTask
from repro.engine.scheduler import NetBatch, NetScheduler
from repro.grid.congestion import CongestionMap
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # circular at runtime: repro.router imports repro.engine
    from repro.router.netlist import Netlist
    from repro.router.resource_sharing import ResourceSharingPrices

__all__ = ["CACHE_SCOPES", "SCHEDULING_POLICIES", "EngineConfig", "RoundReport", "RoutingEngine"]

#: The values of :attr:`EngineConfig.scheduling` / :attr:`EngineConfig.cache_scope`
#: (the flow-parameter table reads its choice sets from here).
SCHEDULING_POLICIES = ("window", "bbox")
CACHE_SCOPES = ("bbox", "global")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the batch-routing engine.

    Attributes
    ----------
    num_workers:
        Size of the batch pool.  ``None`` (default): the usable CPUs;
        ``1``: no pool, every batch inline.  A pool of two or more workers
        takes only the batches whose predicted work reaches
        :data:`~repro.engine.executor.POOL_BREAK_EVEN`.
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

    num_workers: Optional[int] = None
    scheduling: str = "window"
    reroute_cache: bool = False
    cache_scope: str = "bbox"

    def __post_init__(self) -> None:
        if self.scheduling not in SCHEDULING_POLICIES:
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")
        if self.cache_scope not in CACHE_SCOPES:
            raise ValueError(f"unknown cache scope {self.cache_scope!r}")
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be positive")


@dataclass
class RoundReport:
    """Bookkeeping of one engine round (for benchmarks and diagnostics)."""

    round_index: int
    num_batches: int = 0
    nets_routed: int = 0
    nets_cached: int = 0
    nets_replayed: int = 0
    batches_pooled: int = 0
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
        start_method: Optional[str] = None,
    ) -> None:
        """``net_indices`` restricts the engine to a subset of the netlist
        (the shard coordinator's global seam engine); ``start_method`` pins
        the ``multiprocessing`` start method of the batch pool."""
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
        self.executor = BatchExecutor(
            graph,
            oracle,
            bifurcation,
            seed,
            workers=self.config.num_workers,
            start_method=start_method,
        )
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
                context = self.executor.make_context(costs)
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
                tasks: List[NetTask] = []
                signatures: Dict[int, bytes] = {}
                for net_index in batch.nets:
                    task = self._make_task(net_index)
                    if self.cache is not None:
                        old_tree = trees[net_index]
                        sig = self.cache.signature(
                            net_index,
                            task.root,
                            task.sinks,
                            task.weights,
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
                    tasks.append(task)
                # Placement by the predicted work of the nets that reach the
                # oracle (cache hits and replays above cost nothing).
                work = sum(self.scheduler.net_work(task.net_index) for task in tasks)
                pooled = self.executor.pools(len(tasks), work)
                report.batches_pooled += pooled
                routed = self.executor.route_batch(costs, tasks, context, pooled)
                tasks_by_index = {task.net_index: task for task in tasks}
                for net_index in batch.nets:
                    new_tree = routed.get(net_index)
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
                            task = tasks_by_index[net_index]
                            sig = self.cache.signature(
                                net_index,
                                task.root,
                                task.sinks,
                                task.weights,
                                costs,
                                self.bifurcation,
                                tree_edges=new_tree.edges,
                                cost_floor=cost_floor,
                                cost_digest=cost_digest,
                            )
                        self.cache.store(net_index, sig)
                batch_span.set(routed=len(routed), work=work, pooled=pooled)
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
        obs.inc("engine.batches_pooled", report.batches_pooled)
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

    @property
    def backend(self) -> str:
        """Where batches ran: ``"process"`` once one was pooled."""
        return self.executor.backend

    def close(self) -> None:
        """Release executor resources (idempotent)."""
        self.executor.close()

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

    def _make_task(self, net_index: int) -> NetTask:
        root, sinks = self.netlist.net_terminals(self.graph, net_index)
        net_name = self.netlist.nets[net_index].name
        return NetTask(
            net_index=net_index,
            root=root,
            sinks=tuple(sinks),
            weights=tuple(self.prices.weights_of(net_index)),
            name=f"{self.netlist.name}/{net_name}",
            net_name=net_name,
        )
