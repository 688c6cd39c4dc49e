"""The shard coordinator: multi-region routing with seam stitching.

:class:`ShardCoordinator` is a drop-in replacement for the single-region
:class:`repro.engine.engine.RoutingEngine` (selected by
``GlobalRouterConfig.shards > 1``).  Each rip-up-and-re-route round becomes

1. **Interior pass** -- every region routes its interior nets against the
   round-start snapshot of the shared map.  Regions never see each other's
   in-round deltas, which is what makes the decomposition independent (and
   deterministic in region order).  The pass runs through the
   :class:`~repro.shard.executor.RegionExecutor`: in-process and serial by
   default, or mapped over a process pool with
   ``GlobalRouterConfig.shard_workers > 1`` -- bit-identical either way,
   because every region is a pure function of the round-start state and
   the deltas are stitched in fixed region order.
2. **Stitching** -- each region's usage delta is scattered back onto the
   shared map through the region's edge map, exactly like a batch of tree
   deltas.
3. **Seam pass** -- nets whose bounding box spans two or more regions are
   routed against the stitched congestion: on the smallest union of whole
   regions covering them (seam scopes), or by a global engine with the
   normal windowed cost refreshes when only the whole die does.

**One region round.**  A scope (:class:`_SubgraphScope`) is a prism of the
die, the nets confined to it, and a static *spec* (extracted subgraph,
translated sub-netlist, engine config).  A round of a scope is always

    ``apply_outcome(runner.route(make_task(...)))``

-- ``make_task`` gathers the dynamic state (usage, prices, sink weights,
trees, replay memo, re-route signatures) onto the subgraph, a
:class:`~repro.shard.executor._RegionRunner` built from the spec routes it,
``apply_outcome`` installs trees and log signatures on the global graph and
keeps the outcome's re-route signatures for the next round's task.
The scope owns one runner in the parent process (inline map, seam scopes,
retry of a lost pool task); the pool ships the same task
to a worker runner built from the same spec.  A round is a function of its
task alone -- the scope, not an engine, holds the re-route cache's state
between rounds -- so a region is never a function of which process routed
it last, and ``reroute_cache`` works identically on every region backend.

Because a region's prism is itself a grid graph, per-net work that scales
with the edge count (instance construction, cost vector materialisation,
search bookkeeping) shrinks by roughly the region count; routes are
confined to their scope's prism, and the quality drift shows up as a
seam-overflow delta tracked by ``benchmarks/test_shard_scaling.py``.

**Parity mode** is the same scope over the full-die prism
(``extract_prism`` over the whole die returns an identically numbered
graph), with the three things that *are* the mode: the global seam engine
routes on a private map restored from the round-start snapshot, so *all*
nets of a round see that snapshot; there are no seam scopes; and every
engine's cost window spans its whole round.  Because per-net RNG streams
are name-keyed and usage quanta are exact binary fractions, this
reproduces the unsharded router at ``cost_refresh_interval >= num_nets``
bit for bit -- the verification harness for the shard machinery.

Between rounds the coordinator keeps the shared map, the global trees list
and the re-route signatures (:meth:`ShardCoordinator.export_signatures`),
which is what :class:`GlobalRouter` checkpoints.  Replay memo logs (ECO
sessions, see :class:`repro.engine.cache.RoundMemo`) are carried through
every pass:
``route_round`` receives the round's global memo, each scope (region
interiors, seam super-region scopes, the global seam engine) localises its
slice -- signatures are only comparable between identical scopes, and a
memo tree that no longer fits a scope's prism is dropped rather than
mis-installed -- and the freshly computed lookup signatures are merged back
into the round's log in fixed region order.  The memos travel inside
:class:`~repro.shard.executor.RegionTask` /
:class:`~repro.shard.executor.RegionOutcome` on every backend.  This is what lets
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
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree, TreeRecord
from repro.engine.cache import RoundMemo
from repro.engine.engine import EngineConfig, RoundReport, RoutingEngine
from repro.grid.congestion import CongestionMap
from repro.grid.graph import RoutingGraph
from repro.grid.partition import NetClassification, RegionPartition, partition_grid
from repro.grid.geometry import BoundingBox, GridPoint, bounding_box
from repro.shard.executor import (
    RegionExecutor,
    RegionOutcome,
    RegionTask,
    _RegionRunner,
)

if TYPE_CHECKING:  # circular at runtime: repro.router imports the engine API
    from repro.router.resource_sharing import ResourceSharingPrices

from repro.router.netlist import Net, Netlist, Pin

__all__ = ["ShardStats", "ShardCoordinator"]


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


class _SubgraphScope:
    """A routing scope: one prism of the die, its nets, and the runner that
    routes them on the prism's extracted subgraph.

    Region scopes hold a partition region's interior nets (the whole die in
    parity mode: ``extract_prism`` over the full box returns an identically
    numbered graph, so a parity region is the same scope over the full-die
    prism); seam scopes are "super-regions" -- the smallest union of whole
    regions covering a group of seam-crossing nets -- so even most seam
    nets route on a fraction of the full graph.  Nets spanning every cut
    stay with the coordinator's global engine.

    A round is ``apply_outcome(runner.route(make_task(...)))`` wherever it
    runs: the pool ships the same task to a worker runner built from the
    same :meth:`worker_spec`.
    """

    def __init__(
        self,
        coordinator: "ShardCoordinator",
        box: BoundingBox,
        nets: List[int],
        label: str,
    ) -> None:
        #: The scope's identity in tasks, outcomes, spans and checkpoints.
        self.key = label
        self.box = box
        self.interior = nets
        self.xlo, self.ylo = box.xlo, box.ylo
        # Sub-graph and edge maps depend on the graph and the box alone, so
        # they come from the graph's memo: the coordinator of the next flow
        # on this graph (every ECO batch builds one) shares them.
        prism = coordinator.graph.prism(box)
        self.sub_graph = prism.sub_graph
        self.edge_to_global = prism.edge_to_global
        self._edge_to_local = prism.edge_to_local
        # The sub-netlist keeps the parent's design name and the nets their
        # own names, so instance labels and name-keyed RNG streams line up
        # with the unsharded flow.
        self.sub_netlist = Netlist(
            name=coordinator.netlist.name,
            nets=[self._translate_net(coordinator.netlist.nets[i]) for i in nets],
            stages=[],
            clock_period=coordinator.netlist.clock_period,
        )
        self._spec: Dict[str, object] = {
            "graph": self.sub_graph,
            "netlist": self.sub_netlist,
            "cost_refresh_interval": max(1, len(nets)),
            "config": replace(coordinator.config, scheduling="window"),
        }
        self.runner = _RegionRunner(self._spec, coordinator.runner_shared)
        #: The re-route cache's state between rounds -- the signature each
        #: net was last routed under, aligned with ``interior`` -- carried
        #: from one round's outcome into the next round's task (``None``
        #: when the flow runs cache-free).
        self.signatures: Optional[Tuple[Optional[bytes], ...]] = (
            (None,) * len(nets) if coordinator.config.reroute_cache else None
        )

    @property
    def engine(self) -> RoutingEngine:
        return self.runner.engine

    def worker_spec(self) -> Dict[str, object]:
        """The static, picklable half of this scope: what its runner -- here
        and in every pool worker -- is built from."""
        return self._spec

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

    def _record_to_local(self, graph: RoutingGraph, tree: EmbeddedTree) -> TreeRecord:
        """``tree`` as a record on this scope's subgraph, or ``None`` when
        it uses edges outside the prism (e.g. a replay memo recorded while
        the net belonged to a different scope)."""
        edges = self._edge_to_local[tree.edges_array()]
        if (edges < 0).any():
            return None
        return (
            self._node_to_local(graph, tree.root),
            tuple(self._node_to_local(graph, s) for s in tree.sinks),
            tuple(edges.tolist()),
            tree.method,
        )

    def _current_record(
        self, graph: RoutingGraph, tree: Optional[EmbeddedTree]
    ) -> TreeRecord:
        """The record of a tree a net of this scope carries into a round."""
        if tree is None:
            return None
        record = self._record_to_local(graph, tree)
        if record is None:
            # Only reachable with trees from outside this scope's flow, e.g.
            # a checkpoint taken under a different shard configuration whose
            # routes detour outside this prism.
            raise ValueError(
                f"tree of a net in scope {self.key!r} uses edges outside "
                "the region prism; resume checkpoints with the shard "
                "configuration they were written under"
            )
        return record

    def _replay_entry(
        self, graph: RoutingGraph, replay_round: RoundMemo, global_index: int
    ) -> Optional[Tuple[bytes, TreeRecord]]:
        """One net's slice of the global replay memo, localised.

        Nets without a memo entry, and nets whose memoised tree strays
        outside this prism (their scope changed across the ECO, so the
        signature could not have been computed here), carry none -- they
        simply re-route, which is always sound.
        """
        signature = replay_round.signatures.get(global_index)
        tree = replay_round.trees.get(global_index)
        if signature is None or tree is None:
            return None
        record = self._record_to_local(graph, tree)
        return None if record is None else (signature, record)

    def _tree_to_global(
        self, graph: RoutingGraph, record: TreeRecord
    ) -> Optional[EmbeddedTree]:
        if record is None:
            return None
        root, sinks, edges, method = record
        return EmbeddedTree(
            graph,
            self._node_to_global(graph, root),
            tuple(self._node_to_global(graph, s) for s in sinks),
            tuple(self.edge_to_global[np.asarray(edges, dtype=np.int64)].tolist()),
            method,
        )

    # -------------------------------------------------------------- round
    def make_task(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        usage: np.ndarray,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> RegionTask:
        """The scope's dynamic round inputs, gathered onto its subgraph from
        the global ``usage`` vector, prices, trees and replay memo."""
        graph = coordinator.graph
        prices = coordinator.prices
        replay = None
        if replay_round is not None:
            replay = tuple(
                self._replay_entry(graph, replay_round, g) for g in self.interior
            )
        return RegionTask(
            key=self.key,
            round_index=round_index,
            usage=usage[self.edge_to_global],
            edge_prices=prices.edge_prices[self.edge_to_global],
            weights=tuple(tuple(prices.weights_of(g)) for g in self.interior),
            # Local trees are derived from the global list every round (not
            # kept across rounds), so checkpoint restores stay consistent.
            trees=tuple(self._current_record(graph, trees[g]) for g in self.interior),
            replay=replay,
            capture_log=log_round is not None,
            signatures=self.signatures,
        )

    def apply_outcome(
        self,
        coordinator: "ShardCoordinator",
        trees: List[Optional[EmbeddedTree]],
        outcome: RegionOutcome,
        log_round: Optional[RoundMemo] = None,
    ) -> None:
        """Install a routed round: trees back onto the global graph, lookup
        signatures into the round's global log, re-route signatures for the
        next task.  *Only* signatures -- memo trees are recorded globally by
        the router after the round.  The scope-local usage delta
        (``outcome.delta``) is the coordinator's to scatter."""
        graph = coordinator.graph
        self.signatures = outcome.signatures
        for global_index, record in zip(self.interior, outcome.trees):
            trees[global_index] = self._tree_to_global(graph, record)
        if log_round is not None and outcome.log_signatures is not None:
            for global_index, signature in zip(self.interior, outcome.log_signatures):
                if signature is not None:
                    log_round.signatures[global_index] = signature

    def route_round(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        usage: np.ndarray,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> RegionOutcome:
        """Route the scope's nets in this process against the given global
        usage state."""
        outcome = self.runner.route(
            self.make_task(
                coordinator, round_index, trees, usage,
                replay_round=replay_round, log_round=log_round,
            )
        )
        self.apply_outcome(coordinator, trees, outcome, log_round=log_round)
        return outcome


class ShardCoordinator:
    """Routes rounds as K independent region passes plus a seam stitch pass.

    Implements the engine interface :class:`GlobalRouter` consumes
    (``route_round`` / ``close`` / ``round_reports`` /
    ``last_round_timings`` / ``export_signatures`` / ``load_signatures``),
    so the router, checkpointing, the CLI, and the serve daemon all work
    unchanged with ``GlobalRouterConfig.shards > 1``.
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
        """``workers`` places the interior pass: ``None``/``1`` routes the K
        regions serially in-process, ``> 1`` maps them over a process pool
        of that size (see :mod:`repro.shard.executor`); ``start_method``
        pins the ``multiprocessing`` start method of that pool.  Every
        placement is bit-identical.
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
        self.round_reports: List[RoundReport] = []
        #: Walltime split of the most recent round (see :meth:`route_round`):
        #: ``{"regions": {key: seconds}, "interior_seconds", "seam_seconds",
        #: "overhead_seconds"}``.  Read by ``obs.round_sample`` for the
        #: router's per-round time-series; empty before the first round.
        self.last_round_timings: Dict[str, object] = {}
        self._closed = False
        #: What every scope runner of this flow shares; with the per-region
        #: specs it is the payload priming region-pool workers.
        self.runner_shared: Dict[str, object] = {
            "oracle": oracle,
            "bifurcation": bifurcation,
            "seed": seed,
            "overflow_penalty": congestion.overflow_penalty,
            "threshold": congestion.threshold,
        }

        #: Runs the interior pass: in-process, or mapped over a process
        #: pool (``workers > 1``).  Owned and closed by the coordinator.
        #: Not part of the checkpoint fingerprint -- every placement is
        #: bit-identical, so a run checkpointed under one ``shard_workers``
        #: value may resume under any other.
        self.region_executor = RegionExecutor(workers, start_method)
        full_box = BoundingBox(0, 0, graph.nx - 1, graph.ny - 1)
        self.regions: List[_SubgraphScope] = []
        for region_index, interior in enumerate(self.classification.interior):
            if not interior:
                continue  # empty regions need no engine (K may exceed the net count)
            # A parity region is the same scope over the full-die prism.
            self.regions.append(
                _SubgraphScope(
                    self,
                    full_box if parity else self.partition.regions[region_index].box,
                    interior,
                    f"parity{region_index}" if parity else f"region{region_index}",
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
        graph.retain_prisms([scope.box for scope in self.regions + self.seam_scopes])

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
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> None:
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
        # Interior pass: all regions route against the round-start snapshot,
        # serially or on the region executor's process pool -- either way the
        # outcomes come back aligned with ``self.regions``.
        outcomes = self.region_executor.route_round(
            self, round_index, trees, snapshot,
            replay_round=replay_round, log_round=log_round,
        )
        interior_elapsed = time.monotonic() - started
        # Stitch: scatter every region's usage delta onto the shared map
        # through the region's edge map, in fixed region order so the
        # floating-point sums are identical across region backends.
        for region, outcome in zip(self.regions, outcomes):
            self.congestion.usage[region.edge_to_global] += outcome.delta
        # Seam super-region scopes (fast path only) run against the live,
        # already-stitched map, one scope after the other.
        for scope in self.seam_scopes:
            with obs.span("seam_scope", key=scope.key, round=round_index):
                outcome = scope.route_round(
                    self, round_index, trees, self.congestion.usage,
                    replay_round=replay_round, log_round=log_round,
                )
                self.congestion.usage[scope.edge_to_global] += outcome.delta
        if self.parity:
            self._seam_congestion.restore(snapshot)
        seam_started = time.monotonic()
        with obs.span("seam", round=round_index, nets=len(self._global_seam)):
            self.seam_engine.route_round(
                round_index, trees, replay_round=replay_round, log_round=log_round
            )
        seam_elapsed = time.monotonic() - seam_started
        if self.parity:
            self.congestion.usage += self._seam_congestion.delta_since(snapshot)
        # Per-round walltime split for the telemetry sample: where the
        # interior pass's time went per region, the seam pass, and -- for
        # pooled interior passes -- the pool/IPC overhead (elapsed beyond
        # the slowest region; for serial passes, beyond the regions' sum).
        region_seconds = {outcome.key: float(outcome.report[4]) for outcome in outcomes}
        if not region_seconds:
            busy = 0.0
        elif self.region_executor.pool.active:
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
            self._aggregate_report(
                round_index, started, [outcome.report for outcome in outcomes]
            )
        )

    def close(self) -> None:
        """Release the region pool (idempotent; also after a round that
        failed mid-flight).  The scope and seam engines route in this
        process and hold nothing to release."""
        if self._closed:
            return
        self._closed = True
        self.region_executor.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ internals
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
    def export_signatures(self) -> Optional[Dict[str, bytes]]:
        """The flow's stored re-route signatures keyed by net name (``None``
        when it runs cache-free).  One flat map is lossless: a net belongs
        to exactly one scope, fast-path layouts are part of the checkpoint
        fingerprint, and parity signatures are scope-independent."""
        by_name = self.seam_engine.export_signatures()
        if by_name is not None:
            for scope in self.regions + self.seam_scopes:
                for net, signature in zip(scope.sub_netlist.nets, scope.signatures):
                    if signature is not None:
                        by_name[net.name] = signature
        return by_name

    def load_signatures(self, by_name: Dict[str, bytes]) -> None:
        """Restore :meth:`export_signatures` (no-op when cache-free; names
        this flow does not have are ignored)."""
        if not self.config.reroute_cache:
            return
        self.seam_engine.load_signatures(by_name)
        for scope in self.regions + self.seam_scopes:
            scope.signatures = tuple(
                by_name.get(net.name) for net in scope.sub_netlist.nets
            )

    def region_worker_payload(self) -> Dict[str, object]:
        """The read-only payload priming region-pool workers: what every
        runner shares plus each region's static spec.  Shared objects (the
        full-die prism of every parity region) are pickled once thanks to
        pickle's memo table."""
        return dict(
            self.runner_shared,
            regions={region.key: region.worker_spec() for region in self.regions},
        )


def _net_bounding_box(net: Net) -> Tuple[int, int, int, int]:
    """Planar pin bounding box of one net (xmin, ymin, xmax, ymax)."""
    return bounding_box(p.position for p in net.pins())
