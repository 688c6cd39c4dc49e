"""The timing-constrained global router.

The :class:`GlobalRouter` reproduces the routing flow the paper evaluates its
Steiner oracle in (Held et al., TCAD 2018, simplified):

1. every net is routed by the configured Steiner oracle under the current
   congestion costs and sink delay weights (rip-up and re-route in later
   rounds),
2. a static timing analysis over the routed trees yields slacks,
3. the resource-sharing prices are updated: edge prices grow with congestion
   and sink delay weights grow with criticality,
4. repeat for a configured number of rounds.

The Steiner oracle is pluggable (``L1``, ``SL``, ``PD`` or ``CD``), which is
exactly the comparison of paper Tables IV and V.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import faults, obs
from repro.core.bifurcation import BifurcationModel
from repro.core.costctx import OracleCostContext
from repro.core.instance import SteinerInstance
from repro.core.objective import evaluate_tree
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree, TreeRecord, decode_tree, encode_tree
from repro.engine.cache import RoundMemo
from repro.engine.engine import EngineConfig, RoutingEngine
from repro.engine.rng import derive_net_rng_for_name
from repro.grid.congestion import CongestionMap
from repro.grid.graph import RoutingGraph
from repro.router.metrics import RoutingResult
from repro.router.netlist import Netlist
from repro.router.resource_sharing import ResourceSharingPrices
from repro.timing.sta import TimingReport

__all__ = ["GlobalRouterConfig", "GlobalRouter"]


@dataclass(frozen=True)
class GlobalRouterConfig:
    """Configuration of the global routing flow.

    Attributes
    ----------
    num_rounds:
        Number of resource-sharing rounds (route + price update; the price
        rules are the default
        :class:`~repro.router.resource_sharing.ResourceSharingConfig`).
    dbif:
        Bifurcation penalty.  ``None`` derives it from the repeater-chain
        model of the graph's layer stack; ``0.0`` disables penalties (the
        setting of Tables I and IV).  The split parameter ``eta`` is the
        :class:`~repro.core.bifurcation.BifurcationModel` default.
    cost_refresh_interval:
        Number of nets routed between refreshes of the congestion cost
        vector within one round.
    seed:
        Seed for the oracle's randomised choices.  Every net gets a private
        RNG stream derived from ``(seed, net name)`` (see
        :mod:`repro.engine.rng`), so trees are independent of routing order
        and of net indices, and identical wherever a batch runs.
    engine:
        Configuration of the batch-routing engine: batch pool size,
        scheduling policy, and re-route cache.
    shards:
        Number of rectangular regions for multi-region (divide-and-conquer)
        routing.  ``1`` (default) keeps the classic single-region flow;
        ``K > 1`` routes region-interior nets through K independent
        per-region engines and seam-crossing nets in a global stitch pass
        (see :mod:`repro.shard.coordinator`).  Replay memo logs (ECO
        sessions) are carried through the coordinator, so
        :class:`repro.serve.session.RoutingSession` works at any ``K``.
    shard_parity:
        Verification mode of the shard layer: interior nets are routed on
        the full-die prism (the full graph, identically numbered) and all
        nets of a round see the round-start congestion snapshot, which
        reproduces the unsharded router (at ``cost_refresh_interval >=
        num_nets``) bit for bit.  The default (``False``) routes interior
        nets on extracted region subgraphs -- the fast path.
    shard_halo:
        Tiles added around each net's pin bounding box before deciding
        whether it is interior to a region; larger halos classify more nets
        as seam-crossing.
    shard_workers:
        Worker processes for the region-parallel interior pass of the shard
        layer.  ``None`` or ``1`` (default) routes the K regions serially
        in-process; ``> 1`` fans them out over a process pool (see
        :mod:`repro.shard.executor`).  All values produce bit-identical
        results -- regions are independent by construction and their deltas
        are stitched in fixed region order -- so this knob, like the engine
        pool size, is excluded from checkpoint fingerprints.
    shard_start_method:
        ``multiprocessing`` start method of the flow's worker pools -- the
        shard layer's region pool and the engine's batch pool
        (``"fork"`` / ``"spawn"`` / ``"forkserver"``); ``None`` prefers
        ``fork`` where available.
    """

    num_rounds: int = 2
    dbif: Optional[float] = 0.0
    cost_refresh_interval: int = 8
    seed: int = 0
    engine: EngineConfig = field(default_factory=EngineConfig)
    shards: int = 1
    shard_parity: bool = False
    shard_halo: int = 0
    shard_workers: Optional[int] = None
    shard_start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be at least 1")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.shard_halo < 0:
            raise ValueError("shard_halo must be non-negative")
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ValueError("shard_workers must be positive")


class GlobalRouter:
    """Routes a netlist with a pluggable Steiner tree oracle."""

    def __init__(
        self,
        graph: RoutingGraph,
        netlist: Netlist,
        oracle: SteinerOracle,
        config: Optional[GlobalRouterConfig] = None,
    ) -> None:
        netlist.validate_on_graph(graph)
        self.graph = graph
        self.netlist = netlist
        self.oracle = oracle
        self.config = config or GlobalRouterConfig()
        self.congestion = CongestionMap(graph)
        self.prices = ResourceSharingPrices(graph, [net.num_sinks for net in netlist.nets])
        self.bifurcation = self._make_bifurcation()
        if self.config.shards > 1:
            # Imported lazily: the shard layer sits above the engine and
            # constructs netlists, so a module-level import would cycle.
            from repro.shard.coordinator import ShardCoordinator

            self.engine = ShardCoordinator(
                graph=graph,
                netlist=netlist,
                oracle=oracle,
                bifurcation=self.bifurcation,
                congestion=self.congestion,
                prices=self.prices,
                seed=self.config.seed,
                cost_refresh_interval=self.config.cost_refresh_interval,
                config=self.config.engine,
                shards=self.config.shards,
                parity=self.config.shard_parity,
                halo=self.config.shard_halo,
                workers=self.config.shard_workers,
                start_method=self.config.shard_start_method,
            )
        else:
            self.engine = RoutingEngine(
                graph=graph,
                netlist=netlist,
                oracle=oracle,
                bifurcation=self.bifurcation,
                congestion=self.congestion,
                prices=self.prices,
                seed=self.config.seed,
                cost_refresh_interval=self.config.cost_refresh_interval,
                config=self.config.engine,
                start_method=self.config.shard_start_method,
            )
        self.trees: List[Optional[EmbeddedTree]] = [None] * netlist.num_nets
        self.timing_report: Optional[TimingReport] = None
        #: Per-round telemetry samples (always on; observe-only, so recorded
        #: and unrecorded runs stay bit-identical).  The serve layer reads
        #: ``series.latest()`` from its round hook for history/watch.
        self.series = obs.RoundSeries()
        #: Rounds already routed (and priced).  ``run()`` continues from
        #: here, which is what makes checkpoint/resume work: restoring a
        #: checkpoint sets this counter and ``run()`` picks up mid-flow.
        self.rounds_completed: int = 0
        #: Per-round memo log of the last ``run(record_log=True)`` (see
        #: :class:`repro.engine.cache.RoundMemo`); consumed by ECO replays.
        self.replay_log: Optional[List[RoundMemo]] = None

    # ------------------------------------------------------------------ API
    def run(
        self,
        on_round_end: Optional[Callable[["GlobalRouter", int], None]] = None,
        replay: Optional[Sequence[RoundMemo]] = None,
        record_log: bool = False,
    ) -> RoutingResult:
        """Run the flow from ``rounds_completed`` and return the metrics.

        Parameters
        ----------
        on_round_end:
            Called as ``on_round_end(router, round_index)`` after every
            completed round (prices already updated).  Checkpoint writers
            and job-cancellation hooks plug in here; an exception raised by
            the callback aborts the run after a consistent round boundary.
        replay:
            Per-round memos of a previous run over a (slightly) different
            netlist; nets whose lookup signature is unchanged reuse the
            memoised tree without an oracle call (requires the engine's
            re-route cache).
        record_log:
            Record this run's per-round memos into :attr:`replay_log`
            (requires the engine's re-route cache).
        """
        start = time.monotonic()
        if record_log:
            self.replay_log = []
        try:
            while self.rounds_completed < self.config.num_rounds:
                round_index = self.rounds_completed
                # Round context for fault choke points that sit below the
                # round loop (the engine's batch path); no-op bookkeeping.
                faults.set_round(round_index)
                final_round = round_index == self.config.num_rounds - 1
                replay_round = None
                if replay is not None and round_index < len(replay):
                    replay_round = replay[round_index]
                log_round = RoundMemo() if record_log else None
                with obs.span(
                    "round", round=round_index, final=final_round
                ) as round_span:
                    self.engine.route_round(
                        round_index,
                        self.trees,
                        replay_round=replay_round,
                        log_round=log_round,
                    )
                    if log_round is not None:
                        log_round.trees = {
                            i: tree
                            for i, tree in enumerate(self.trees)
                            if tree is not None
                        }
                        self.replay_log.append(log_round)
                    with obs.span("sta", round=round_index):
                        self.timing_report = self._run_sta()
                    if not final_round:
                        with obs.span("price_update", round=round_index):
                            self.prices.update_edge_prices(self.congestion)
                            self.prices.update_delay_weights(self.timing_report)
                    round_span.set(
                        worst_slack=self.timing_report.worst_slack,
                        overflow=self.congestion.overflow(),
                    )
                obs.inc("router.rounds")
                self.rounds_completed = round_index + 1
                self.series.record(obs.round_sample(self, round_index))
                if on_round_end is not None:
                    on_round_end(self, round_index)
                plan = faults.get_plan()
                if plan is not None and plan.should("crash-run", round_index):
                    # Deliberately *after* on_round_end: the checkpoint of
                    # this round is durably renamed into place, which is
                    # exactly the state a resume must recover from.
                    faults.hard_crash(round_index)
        finally:
            faults.set_round(None)
            self.engine.close()
        if self.timing_report is None:
            # Resumed from a checkpoint taken after the final round: the
            # timing report is a pure function of the restored trees.
            self.timing_report = self._run_sta()
        walltime = time.monotonic() - start
        return self._collect_metrics(walltime)

    def route_single_net(self, net_index: int) -> EmbeddedTree:
        """Route one net in isolation under the current prices (helper for tests)."""
        instance = self.build_instance(net_index, self._current_costs())
        rng = derive_net_rng_for_name(
            self.config.seed, self.netlist.nets[net_index].name
        )
        tree = self.oracle.build(instance, rng)
        tree.validate()
        return tree

    def build_instance(self, net_index: int, costs: np.ndarray) -> SteinerInstance:
        """Build the cost-distance Steiner instance of one net."""
        root, sinks = self.netlist.net_terminals(self.graph, net_index)
        return SteinerInstance(
            graph=self.graph,
            root=root,
            sinks=sinks,
            weights=self.prices.weights_of(net_index),
            cost=costs,
            delay=self.graph.delay_array(),
            bifurcation=self.bifurcation,
            name=f"{self.netlist.name}/{self.netlist.nets[net_index].name}",
        )

    # --------------------------------------------------------- checkpointing
    def export_state(self) -> Dict[str, object]:
        """Everything that determines the remainder of the flow, in memory.

        The returned dict (numpy arrays included) restores a freshly
        constructed router to this router's exact mid-flow state via
        :meth:`import_state`; :mod:`repro.serve.checkpoint` handles the
        on-disk encoding.  Trees are :data:`~repro.core.tree.TreeRecord` s,
        ``cache_signatures`` the engine's name-keyed re-route signatures
        (``None`` when it runs cache-free).  The replay log is intentionally
        excluded -- it is a derived artifact.
        """
        return {
            "rounds_completed": self.rounds_completed,
            "trees": [encode_tree(tree) for tree in self.trees],
            "congestion": self.congestion.state_dict(),
            "edge_prices": self.prices.edge_prices.copy(),
            "delay_weights": [list(w) for w in self.prices.delay_weights],
            "cache_signatures": self.engine.export_signatures(),
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore a state exported by :meth:`export_state` (exact inverse).

        This is the disk boundary: the whole state is checked against this
        router's graph and netlist *before* the first mutation, so a state
        that does not fit raises :class:`ValueError` naming the defect and
        leaves the router untouched.
        """
        records = list(state["trees"])  # type: ignore[call-overload]
        if len(records) != self.netlist.num_nets:
            raise ValueError(
                "checkpoint state has a different net count than this netlist"
            )
        for net_index, record in enumerate(records):
            if record is not None:
                records[net_index] = self._checked_record(net_index, record)
        edge_prices = np.asarray(state["edge_prices"], dtype=np.float64)
        if edge_prices.shape != self.prices.edge_prices.shape:
            raise ValueError("checkpoint edge prices do not match this graph")
        delay_weights = [
            [float(w) for w in weights]
            for weights in state["delay_weights"]  # type: ignore[union-attr]
        ]
        if [len(w) for w in delay_weights] != [
            net.num_sinks for net in self.netlist.nets
        ]:
            raise ValueError("checkpoint delay weights do not match this netlist")
        rounds_completed = int(state["rounds_completed"])  # type: ignore[call-overload]
        if not 0 <= rounds_completed <= self.config.num_rounds:
            raise ValueError(f"checkpoint round counter {rounds_completed} out of range")
        signatures = dict(state.get("cache_signatures") or {})  # type: ignore[call-overload]
        # The first mutation; it checks its own shape before it assigns.
        self.congestion.load_state(state["congestion"])  # type: ignore[arg-type]
        self.trees = [decode_tree(self.graph, record) for record in records]
        self.prices.edge_prices = edge_prices.copy()
        self.prices.delay_weights = delay_weights
        self.rounds_completed = rounds_completed
        self.engine.load_signatures(signatures)
        self.timing_report = None

    def _checked_record(self, net_index: int, record: Sequence[object]) -> TreeRecord:
        """``record`` as a well-typed :data:`TreeRecord` whose node and edge
        indices exist on this graph; :class:`ValueError` otherwise."""
        try:
            root, sinks, edges, method = record
            checked = (int(root), tuple(map(int, sinks)), tuple(map(int, edges)), str(method))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"tree record of net {net_index} is malformed ({exc})") from exc
        root, sinks, edges, _ = checked
        if not all(0 <= node < self.graph.num_nodes for node in (root, *sinks)):
            raise ValueError(f"tree record of net {net_index} has a node out of range")
        if not all(0 <= edge < self.graph.num_edges for edge in edges):
            raise ValueError(f"tree record of net {net_index} has an edge out of range")
        return checked

    # ------------------------------------------------------------ internals
    def _make_bifurcation(self) -> BifurcationModel:
        dbif = self.config.dbif
        if dbif is None:
            dbif = self.graph.delay_model.bifurcation_penalty()
        return BifurcationModel(dbif=dbif)

    def _current_costs(self) -> np.ndarray:
        return self.prices.edge_costs(self.congestion)

    def _net_delays(self) -> Dict[int, List[float]]:
        """Per-sink delays of every routed net (for the STA)."""
        delays: Dict[int, List[float]] = {}
        costs = self.graph.base_cost_array()
        delay = self.graph.delay_array()
        # One context for the whole sweep: every per-net instance shares the
        # same static cost/delay vectors, so the O(edges) validation scans
        # run once instead of once per net.
        context = OracleCostContext(self.graph, costs, delay=delay)
        costs = context.cost
        for net_index, tree in enumerate(self.trees):
            if tree is None:
                delays[net_index] = [0.0] * self.netlist.nets[net_index].num_sinks
                continue
            instance = SteinerInstance(
                graph=self.graph,
                root=tree.root,
                sinks=list(tree.sinks),
                weights=self.prices.weights_of(net_index),
                cost=costs,
                delay=delay,
                bifurcation=self.bifurcation,
                context=context,
            )
            breakdown = evaluate_tree(instance, tree)
            delays[net_index] = list(breakdown.sink_delays)
        return delays

    def _run_sta(self) -> TimingReport:
        sta = self.netlist.timing_graph()
        return sta.analyze(self._net_delays())

    def _collect_metrics(self, walltime: float) -> RoutingResult:
        report = self.timing_report
        assert report is not None
        wire_length = 0.0
        via_count = 0
        objective = 0.0
        costs = self._current_costs()
        for net_index, tree in enumerate(self.trees):
            if tree is None:
                continue
            wire_length += tree.wire_length()
            via_count += tree.via_count()
            objective += tree.congestion_cost(costs)
        return RoutingResult(
            chip=self.netlist.name,
            method=self.oracle.name,
            worst_slack=report.worst_slack,
            total_negative_slack=report.total_negative_slack,
            ace4=self.congestion.ace4(),
            wire_length=wire_length,
            via_count=via_count,
            walltime_seconds=walltime,
            overflow=self.congestion.overflow(),
            objective=objective,
            num_nets=self.netlist.num_nets,
        )
