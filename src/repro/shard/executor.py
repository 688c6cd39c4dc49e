"""Region executors: run the interior passes of one shard round.

The :class:`~repro.shard.coordinator.ShardCoordinator` decomposes each
rip-up-and-re-route round into K independent region subproblems that all
read the *round-start* congestion snapshot and never see each other's
in-round deltas.  That independence is what makes them trivially
parallelisable: this module provides the pluggable execution backends that
route all regions of one round and hand their usage deltas back to the
coordinator, which stitches them onto the shared map **in fixed region
order** -- so the floating-point sums, and therefore every downstream
metric, are bit-identical across backends.

Both backends route a region the same way -- a :class:`RegionTask` goes to a
:class:`_RegionRunner` built from the region's static spec and a
:class:`RegionOutcome` comes back; they differ only in *where* the runner
lives:

* :class:`SerialRegionExecutor` routes the regions in-process, one after the
  other, on each scope's own runner.
* :class:`ProcessRegionExecutor` fans the regions out over a
  ``multiprocessing`` pool: each worker is primed once with a pickled
  read-only payload (the specs -- subgraphs, sub-netlists, engine configs --
  plus the oracle and bifurcation model) and builds its runners from it;
  per round only the task travels (start usage and gathered prices as
  arrays, trees and replay memos as plain tuples -- the one transport).
  Pooled specs are ``stateless`` (no re-route cache, memo cache invalidated
  per task), so it does not matter which process routes which region in
  which round: a task lost with its worker is routed by the scope's own
  runner in the parent, and when no pool can be started -- sandboxes
  routinely forbid ``fork`` or semaphores -- the executor degrades to the
  serial loop with a warning.  Degradation costs parallelism, never
  correctness.

Use :func:`make_region_executor` to construct a backend from a worker count.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.core.tree import EmbeddedTree
from repro.engine.cache import RoundMemo
from repro.engine.engine import RoutingEngine
from repro.engine.executor import WorkerPool
from repro.grid.congestion import CongestionMap, CongestionSnapshot
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # circular at runtime: the coordinator imports this module
    from repro.shard.coordinator import ShardCoordinator

__all__ = [
    "TreeRecord",
    "RegionTask",
    "RegionOutcome",
    "RegionExecutor",
    "SerialRegionExecutor",
    "ProcessRegionExecutor",
    "make_region_executor",
    "encode_tree",
    "decode_tree",
]

#: One embedded tree as plain picklable values: ``(root, sinks, edges,
#: method)`` or ``None`` for an unrouted net.  Graph objects never travel
#: with trees -- both sides reattach their own graph.
TreeRecord = Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...], str]]


def encode_tree(tree: Optional[EmbeddedTree]) -> TreeRecord:
    """``tree`` as a :data:`TreeRecord` (cheap to pickle, graph-free)."""
    if tree is None:
        return None
    return (int(tree.root), tuple(tree.sinks), tuple(tree.edges), tree.method)


def decode_tree(graph: RoutingGraph, record: TreeRecord) -> Optional[EmbeddedTree]:
    """The exact inverse of :func:`encode_tree`, reattached to ``graph``."""
    if record is None:
        return None
    root, sinks, edges, method = record
    return EmbeddedTree(graph, root, tuple(sinks), tuple(edges), method)


@dataclass(frozen=True)
class RegionTask:
    """The dynamic inputs of one scope's round (cheap to pickle).

    ``usage`` and ``edge_prices`` are gathered onto the scope's subgraph
    edges; ``weights`` and ``trees`` are aligned with the scope's sub-netlist
    (local net indices).

    ``replay`` carries the scope-localised replay memo of a session flow:
    one ``(lookup_signature, memoised_tree)`` entry per net (``None`` for
    nets without a usable memo), aligned like ``trees``; ``capture_log``
    asks the runner to record this round's lookup signatures into the
    outcome.  Both default to the memo-free ordinary round.
    """

    key: str
    round_index: int
    usage: np.ndarray
    edge_prices: np.ndarray
    weights: Tuple[Tuple[float, ...], ...]
    trees: Tuple[TreeRecord, ...]
    replay: Optional[Tuple[Optional[Tuple[bytes, TreeRecord]], ...]] = None
    capture_log: bool = False


@dataclass(frozen=True)
class RegionOutcome:
    """One scope's round result: routed trees, usage delta, report counts.

    ``trees`` uses the same alignment as the task's; ``delta`` the same
    edge indexing as the task's ``usage``.  ``report`` is
    ``(num_batches, nets_routed, nets_cached, nets_replayed,
    walltime_seconds)`` -- the walltime is the runner engine's own
    (monotonic) round time, which is what the coordinator's per-region
    telemetry reports.
    ``log_signatures`` holds the round's lookup signatures (aligned like
    ``trees``) when the task asked for them with ``capture_log``.
    ``metrics`` is a pool worker's local :class:`repro.obs.MetricsRegistry`
    snapshot for this region round; the parent merges it in fixed region
    order so pooled runs report the same counters as serial ones (``None``
    for rounds routed in the parent, whose counters land directly).
    """

    key: str
    trees: Tuple[TreeRecord, ...]
    delta: np.ndarray
    report: Tuple[int, int, int, int, float]
    log_signatures: Optional[Tuple[Optional[bytes], ...]] = None
    metrics: Optional[Dict[str, object]] = None


class _TaskPrices:
    """The price view a runner's engine reads: a gathered ``edge_prices``
    vector plus per-net sink weights, both replaced by every task."""

    edge_prices: Optional[np.ndarray] = None
    weights: Sequence[Tuple[float, ...]] = ()

    def weights_of(self, net_index: int) -> List[float]:
        return list(self.weights[net_index])


class _RegionRunner:
    """The one local solve of the shard layer: an engine over a scope's
    subgraph, built from the scope's spec, that turns a :class:`RegionTask`
    into a :class:`RegionOutcome`.

    The same class routes a scope wherever the executor puts the round: in
    the parent (the scope's own runner -- serial loop, seam scopes,
    degraded pool, recovery of a lost pool task) or in a pool worker (a
    runner rebuilt from the same spec).  ``spec["stateless"]`` is the one
    distinction: a scope whose rounds may run on the pool routes cache-free
    and invalidates the lazily built memo cache per task, so it does not
    matter which process routes which round.
    """

    def __init__(self, spec: Dict[str, object], shared: Dict[str, object]) -> None:
        """``shared`` holds what every scope of a coordinator has in common:
        ``oracle``, ``bifurcation``, ``seed``, ``overflow_penalty`` and
        ``threshold``."""
        self.graph: RoutingGraph = spec["graph"]  # type: ignore[assignment]
        self.stateless = bool(spec["stateless"])
        self.congestion = CongestionMap(
            self.graph,
            overflow_penalty=shared["overflow_penalty"],  # type: ignore[arg-type]
            threshold=shared["threshold"],  # type: ignore[arg-type]
        )
        self.prices = _TaskPrices()
        self.engine = RoutingEngine(
            graph=self.graph,
            netlist=spec["netlist"],  # type: ignore[arg-type]
            oracle=shared["oracle"],  # type: ignore[arg-type]
            bifurcation=shared["bifurcation"],  # type: ignore[arg-type]
            congestion=self.congestion,
            prices=self.prices,  # type: ignore[arg-type]
            seed=shared["seed"],  # type: ignore[arg-type]
            cost_refresh_interval=spec["cost_refresh_interval"],  # type: ignore[arg-type]
            config=spec["config"],  # type: ignore[arg-type]
        )

    def route(self, task: RegionTask) -> RegionOutcome:
        self.congestion.usage = task.usage.copy()
        self.prices.edge_prices = task.edge_prices
        self.prices.weights = task.weights
        replay_memo = self._replay_memo(task)
        log_memo = RoundMemo() if task.capture_log else None
        if replay_memo is not None or log_memo is not None:
            # Memo rounds need the signature machinery, which a stateless
            # engine (configured cache-free) builds lazily; invalidating per
            # task keeps the runner a pure function of the task -- no
            # signature survives into the next round.
            cache = self.engine.ensure_cache()
            if self.stateless:
                cache.invalidate()
        trees = [decode_tree(self.graph, record) for record in task.trees]
        self.engine.route_round(
            task.round_index, trees, replay_round=replay_memo, log_round=log_memo
        )
        last = self.engine.round_reports[-1]
        log_signatures = None
        if log_memo is not None:
            log_signatures = tuple(
                log_memo.signatures.get(index) for index in range(len(trees))
            )
        return RegionOutcome(
            key=task.key,
            trees=tuple(encode_tree(tree) for tree in trees),
            delta=self.congestion.usage - task.usage,
            report=(last.num_batches, last.nets_routed, last.nets_cached,
                    last.nets_replayed, last.walltime_seconds),
            log_signatures=log_signatures,
        )

    def _replay_memo(self, task: RegionTask) -> Optional[RoundMemo]:
        """The task's replay entries as a :class:`RoundMemo` keyed by local
        net index."""
        if task.replay is None:
            return None
        memo = RoundMemo()
        for index, entry in enumerate(task.replay):
            if entry is not None:
                memo.signatures[index] = entry[0]
                memo.trees[index] = decode_tree(self.graph, entry[1])
        return memo


# --------------------------------------------------------------------------
# Worker plumbing.  Module-level so children can locate the functions under
# every multiprocessing start method (fork and spawn alike).
# --------------------------------------------------------------------------

_REGION_STATE: dict = {}
_REGION_RUNNERS: Dict[str, _RegionRunner] = {}


def _region_worker_init(payload_bytes: bytes) -> None:
    """Pool initializer: unpack the shared read-only region payload."""
    state = pickle.loads(payload_bytes)
    _REGION_STATE.clear()
    _REGION_STATE.update(state)
    _REGION_RUNNERS.clear()


def _route_region(task: RegionTask) -> RegionOutcome:
    """Route one region's round inside a worker process.

    The worker accumulates metrics (engine counters, A* pops) into a
    fresh local registry and ships its snapshot back on the outcome; the
    parent merges the snapshots in fixed region order.
    """
    runner = _REGION_RUNNERS.get(task.key)
    if runner is None:
        runner = _RegionRunner(_REGION_STATE["regions"][task.key], _REGION_STATE)
        _REGION_RUNNERS[task.key] = runner
    local = obs.MetricsRegistry()
    previous = obs.swap_registry(local)
    try:
        outcome = runner.route(task)
    finally:
        obs.swap_registry(previous)
    return replace(outcome, metrics=local.snapshot())


class RegionExecutor:
    """Common interface of the region execution backends."""

    #: Backend name used in configuration and result reporting.
    backend = "?"
    #: The worker pool of a process backend (``None``: regions route in-process).
    pool: Optional[WorkerPool] = None

    def __init__(self) -> None:
        self.closed = False

    def route_round(
        self,
        coordinator: "ShardCoordinator",
        round_index: int,
        trees: List[Optional[EmbeddedTree]],
        snapshot: CongestionSnapshot,
        replay_round: Optional[RoundMemo] = None,
        log_round: Optional[RoundMemo] = None,
    ) -> List[RegionOutcome]:
        """Route every interior region of one round against ``snapshot``.

        Mutates ``trees`` in place and returns the regions' outcomes aligned
        with ``coordinator.regions`` -- the coordinator stitches their
        deltas in that fixed order, which is what keeps all backends
        bit-identical.

        ``replay_round`` / ``log_round`` are the round's *global* replay and
        log memos (session flows); each region localises its slice of the
        replay memo and its freshly computed lookup signatures are merged
        back into ``log_round``, again in fixed region order.
        """
        raise NotImplementedError

    def _publish_done(self, round_index: int, outcome: RegionOutcome) -> None:
        obs.publish(
            "region_done",
            region=outcome.key,
            round=round_index + 1,
            backend=self.backend,
            nets_routed=outcome.report[1],
            seconds=round(float(outcome.report[4]), 6),
        )

    def close(self) -> None:
        """Release backend resources (worker pools).  Idempotent."""
        self.closed = True

    def __enter__(self) -> "RegionExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialRegionExecutor(RegionExecutor):
    """Routes the regions in-process, one after the other (the classic loop)."""

    backend = "serial"

    def route_round(self, coordinator, round_index, trees, snapshot,
                    replay_round=None, log_round=None):
        outcomes: List[RegionOutcome] = []
        for region in coordinator.regions:
            with obs.span(
                "region", key=region.key, round=round_index, backend=self.backend
            ) as region_span:
                outcome = region.route_round(
                    coordinator, round_index, trees, snapshot.usage,
                    replay_round=replay_round, log_round=log_round,
                )
                region_span.set(
                    batches=outcome.report[0], nets_routed=outcome.report[1]
                )
            self._publish_done(round_index, outcome)
            outcomes.append(outcome)
        return outcomes


class ProcessRegionExecutor(RegionExecutor):
    """Routes the regions of each round on a ``multiprocessing`` pool.

    Parameters
    ----------
    num_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8.  The pool is
        additionally capped at the region count -- extra workers could never
        receive work.
    start_method:
        ``multiprocessing`` start method (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``).  ``None`` prefers ``fork`` (workers inherit
        ``sys.path``) and falls back to the platform default.
    """

    backend = "process"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__()
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers or min(os.cpu_count() or 2, 8)
        # The start method is validated here, eagerly: a pinned-but-mistyped
        # one must raise at construction, not silently degrade the run to
        # the serial loop.
        self.pool = WorkerPool(
            _region_worker_init,
            backend="region-process",
            degrade_message=(
                "region-parallel shard execution degrades to the serial region loop"
            ),
            start_method=start_method,
        )
        self._serial = SerialRegionExecutor()

    def close(self) -> None:
        self.pool.close()
        super().close()

    # ------------------------------------------------------------------ API
    def route_round(self, coordinator, round_index, trees, snapshot,
                    replay_round=None, log_round=None):
        # One region cannot be overlapped with anything (skip the IPC), and
        # the pool is capped at the region count -- extra workers could
        # never receive work.  Without a pool (the degraded mode) the
        # regions route on the serial loop.
        regions = coordinator.regions
        pooled = len(regions) > 1 and self.pool.start(
            coordinator.region_worker_payload, min(self.num_workers, len(regions))
        )
        if not pooled:
            return self._serial.route_round(
                coordinator, round_index, trees, snapshot,
                replay_round=replay_round, log_round=log_round,
            )
        runners = {region.key: region.runner for region in regions}

        def route_in_parent(task: RegionTask) -> RegionOutcome:
            # The recovery path: a task lost with its worker (or dropped by
            # a chaos fault) is routed by the scope's own runner, built from
            # the spec the workers were primed with -- the outcome a worker
            # would have shipped, bit for bit.
            return runners[task.key].route(task)

        tasks = [
            region.make_task(
                coordinator, round_index, trees, snapshot.usage,
                replay_round=replay_round, log_round=log_round,
            )
            for region in regions
        ]
        outcomes = self.pool.run(
            _route_region,
            tasks,
            retry=route_in_parent,
            sabotage=faults.pool_sabotage("kill-region-worker", round_index),
        )
        plan = faults.get_plan()
        if plan is not None and plan.should("drop-outcome", round_index):
            # Discard one cleanly collected outcome: exercises the
            # in-process re-execution path without involving the pool.
            outcomes[0] = None
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = route_in_parent(tasks[index])
                obs.inc("recovery.outcome_recomputed")
        # Apply in fixed region order regardless of worker completion order.
        # The worker-shipped metric snapshots merge in the same order, so
        # pooled counters land identically to a serial run's.
        for region, outcome in zip(regions, outcomes):
            with obs.span(
                "region", key=region.key, round=round_index, backend=self.backend,
                batches=outcome.report[0], nets_routed=outcome.report[1],
            ):
                region.apply_outcome(coordinator, trees, outcome, log_round=log_round)
            obs.merge_snapshot(outcome.metrics)
            self._publish_done(round_index, outcome)
        return outcomes


def make_region_executor(
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
) -> RegionExecutor:
    """Construct the region backend for a worker count: ``None``/``1`` is
    the in-process serial loop, anything larger a process pool."""
    if workers is not None and workers < 1:
        raise ValueError("shard workers must be positive")
    if workers is None or workers == 1:
        return SerialRegionExecutor()
    return ProcessRegionExecutor(num_workers=workers, start_method=start_method)
