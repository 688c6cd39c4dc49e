"""Long-lived routing sessions with incremental ECO re-routing.

A :class:`RoutingSession` keeps a design routed across many requests.  The
first :meth:`~RoutingSession.route` pays the full resource-sharing flow and
records a per-round memo log (lookup signatures + trees, see
:class:`repro.engine.cache.RoundMemo`).  Every subsequent
:meth:`~RoutingSession.apply_eco` applies a netlist delta and *replays* the
flow against that log: round by round, a net whose lookup signature is
unchanged reuses the memoised tree without an oracle call, while nets whose
instances changed -- the ECO'd nets themselves plus everything their
congestion ripples reach, i.e. the dirty-net closure -- are re-routed.

Because a replay executes the exact same deterministic flow as a cold run of
the edited netlist (the memo only short-circuits oracle calls whose outcome
the signature proves, to the accuracy of the cache scope), the session's
post-ECO metrics are identical to a from-scratch re-route; only the oracle
work shrinks to the dirty closure.  The signature scope carries the same
caveat as the engine's re-route cache: the default ``bbox`` scope is a
(well-tested) heuristic, ``global`` scope is exact but dirties every net on
any cost change.

Sessions always start each flow from fresh prices, so results never depend
on how many ECOs preceded them -- state amortised across requests is the
memo log, not the Lagrangean trajectory.

Sessions drive sharded engines too (``GlobalRouterConfig.shards > 1``,
optionally with a region worker pool): the shard coordinator carries the
memo log through every pass -- clean regions replay their memos without an
oracle call, and only the regions and seam scopes owning dirty nets
re-route -- so a sharded ECO replay is bit-identical to a cold sharded
re-route of the edited netlist on every region backend.
:meth:`RoutingSession.configure_sharding` re-points an existing session at
a different decomposition or worker count between flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.oracle import SteinerOracle
from repro.engine.cache import RoundMemo
from repro.grid.graph import RoutingGraph
from repro.instances.eco import EcoOp, RemoveNet, RemoveSink, apply_eco, parse_ops
from repro.router.metrics import RoutingResult
from repro.router.netlist import Netlist
from repro.router.router import GlobalRouter, GlobalRouterConfig

__all__ = ["EcoReport", "RoutingSession"]


@dataclass
class EcoReport:
    """What one ECO request did to the session.

    ``nets_rerouted`` counts oracle calls across all replay rounds and
    ``nets_reused`` the memoised trees installed without an oracle call;
    their per-round breakdown is in ``rounds`` as ``(rerouted, reused)``
    tuples.  ``touched`` lists the nets the delta edited directly -- the
    dirty closure is typically larger.
    """

    result: RoutingResult
    touched: List[str] = field(default_factory=list)
    nets_rerouted: int = 0
    nets_reused: int = 0
    rounds: List[Tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "result": self.result.as_dict(),
            "touched": list(self.touched),
            "nets_rerouted": self.nets_rerouted,
            "nets_reused": self.nets_reused,
            "rounds": [list(r) for r in self.rounds],
        }


class RoutingSession:
    """A persistent routing context for one design on one graph.

    Parameters
    ----------
    graph:
        The routing graph; fixed for the session's lifetime.
    netlist:
        The initial netlist.  ECO deltas evolve the session's own copy.
    oracle:
        The Steiner oracle shared by all runs of the session.
    config:
        Flow configuration.  The engine's re-route cache is forced on --
        the replay machinery needs its signatures.
    name:
        Session identifier used by the daemon (defaults to the netlist name).
    """

    def __init__(
        self,
        graph: RoutingGraph,
        netlist: Netlist,
        oracle: SteinerOracle,
        config: Optional[GlobalRouterConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        base = config or GlobalRouterConfig()
        if not base.engine.reroute_cache:
            base = replace(base, engine=replace(base.engine, reroute_cache=True))
        self.graph = graph
        self.netlist = netlist
        self.oracle = oracle
        self.config = base
        self.name = name or netlist.name
        #: ``{net_name: {sink_index: weight}}`` initial delay-weight
        #: overrides accumulated from ``reweight_sink`` ECOs.
        self.weight_overrides: Dict[str, Dict[int, float]] = {}
        self.router: Optional[GlobalRouter] = None
        self.last_result: Optional[RoutingResult] = None
        #: Completed flows (initial route + ECOs) of this session.
        self.generation: int = 0
        self._log: Optional[List[RoundMemo]] = None

    # ------------------------------------------------------------------ API
    @property
    def num_nets(self) -> int:
        return self.netlist.num_nets

    @property
    def series(self):
        """The last flow's per-round time-series (``None`` before the
        initial route); see :class:`repro.obs.timeseries.RoundSeries`."""
        return self.router.series if self.router is not None else None

    def configure_sharding(self, **overrides: object) -> None:
        """Re-point the session's later flows at a different decomposition.

        ``overrides`` are :class:`GlobalRouterConfig` fields (``shards``,
        ``shard_workers``, ``shard_halo``, ``shard_start_method``); fields
        not named keep their current value.  Changing ``shard_workers`` (or
        the start method) never changes results -- region backends are
        bit-identical.  Changing ``shards`` or the halo
        changes the flow itself: the next ECO is still bit-identical to a
        cold re-route of the edited netlist *under the new configuration*,
        but memos recorded under the old decomposition mostly miss (scope
        signatures are only comparable between identical scopes), so that
        first re-route amortises little.
        """
        self.config = replace(self.config, **overrides)  # validated by __post_init__

    def route(self, on_round_end=None, resume_from: Optional[str] = None) -> RoutingResult:
        """Route the session's current netlist from scratch (records the
        replay memo log that later ECOs amortise against).

        ``resume_from`` names a checkpoint file: when it exists and is
        usable, the flow continues from its round counter instead of round
        0 (see :func:`repro.serve.checkpoint.try_resume_router`); a
        missing or unusable checkpoint falls back to the full flow.
        """
        return self._run_flow(
            self.netlist,
            self.weight_overrides,
            replay=None,
            on_round_end=on_round_end,
            resume_from=resume_from,
        )

    def apply_eco(
        self,
        ops: Sequence[EcoOp] | Sequence[Dict[str, object]],
        on_round_end=None,
    ) -> EcoReport:
        """Apply an ECO delta and incrementally re-route the dirty closure.

        ``ops`` may be :class:`~repro.instances.eco.EcoOp` objects or their
        wire-format dicts.  Requires a prior :meth:`route`.  The delta is
        committed only when the re-route completes: a cancelled or failed
        flow leaves the session exactly as it was.
        """
        if self._log is None:
            raise RuntimeError("session has no routed state yet; call route() first")
        if ops and isinstance(ops[0], dict):
            ops = parse_ops(ops)  # type: ignore[arg-type]
        eco = apply_eco(self.netlist, ops)  # type: ignore[arg-type]
        eco.netlist.validate_on_graph(self.graph)

        # Removed sinks/nets invalidate previously accumulated per-sink
        # weight overrides of that net (sink indices may have shifted).
        overrides = {name: dict(per_sink) for name, per_sink in self.weight_overrides.items()}
        for op in ops:
            if isinstance(op, (RemoveSink, RemoveNet)):
                overrides.pop(op.net, None)
        for net_name, per_sink in eco.weight_overrides.items():
            overrides.setdefault(net_name, {}).update(per_sink)

        # RNG streams and lookup signatures are keyed by net *name*, so a
        # net keeps its memo wherever its index lands: removed nets simply
        # drop out of the index map and every survivor's memo is carried to
        # its new index.  (Index-keyed streams used to drop the memo of
        # every net behind a removal.)
        replay = [memo.remapped(eco.index_map) for memo in self._log]

        result = self._run_flow(
            eco.netlist, overrides, replay=replay, on_round_end=on_round_end
        )
        assert self.router is not None
        reports = self.router.engine.round_reports
        return EcoReport(
            result=result,
            touched=eco.touched,
            nets_rerouted=sum(r.nets_routed for r in reports),
            nets_reused=sum(r.nets_replayed for r in reports),
            rounds=[(r.nets_routed, r.nets_replayed) for r in reports],
        )

    # ------------------------------------------------------------ internals
    def _build_router(
        self, netlist: Netlist, overrides: Dict[str, Dict[int, float]]
    ) -> GlobalRouter:
        router = GlobalRouter(self.graph, netlist, self.oracle, self.config)
        index_by_name = {net.name: i for i, net in enumerate(netlist.nets)}
        for net_name, per_sink in overrides.items():
            net_index = index_by_name.get(net_name)
            if net_index is None:
                continue
            weights = router.prices.delay_weights[net_index]
            for sink_index, weight in per_sink.items():
                if not 0 <= sink_index < len(weights):
                    raise ValueError(
                        f"weight override for sink {sink_index} of net "
                        f"{net_name!r} is out of range"
                    )
                weights[sink_index] = float(weight)
        return router

    def _run_flow(
        self,
        netlist: Netlist,
        overrides: Dict[str, Dict[int, float]],
        replay: Optional[List[RoundMemo]],
        on_round_end=None,
        resume_from: Optional[str] = None,
    ) -> RoutingResult:
        """Run one flow over ``netlist`` and, only on success, commit it
        (netlist, overrides, router, memo log) as the session's state."""
        router = self._build_router(netlist, overrides)
        if resume_from is not None:
            # Imported here: checkpoint sits above the router like this
            # module, but is only needed on the recovery path.
            from repro.serve.checkpoint import try_resume_router

            try_resume_router(router, resume_from)
        result = router.run(on_round_end=on_round_end, replay=replay, record_log=True)
        self.netlist = netlist
        self.weight_overrides = overrides
        self.router = router
        self._log = router.replay_log
        self.last_result = result
        self.generation += 1
        return result
