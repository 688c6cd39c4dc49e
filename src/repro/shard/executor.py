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

* :class:`SerialRegionExecutor` routes the regions in-process, one after the
  other -- the historical shard loop.
* :class:`ProcessRegionExecutor` fans the regions out over a
  ``multiprocessing`` pool, mirroring the worker-payload machinery of
  :class:`repro.engine.executor.ProcessExecutor`: each worker is primed once
  with a pickled read-only payload (per-region subgraphs, sub-netlists,
  engine configs, the oracle and bifurcation model), and per round only the
  small dynamic state travels, pickled in a :class:`RegionTask` -- start
  usage and gathered prices as arrays, the region's trees as plain tuples
  (the one transport: it is all that crosses the coordinator/region
  boundary).  Worker-side engines are
  round-stateless (their re-route caches are disabled, see the coordinator),
  so it does not matter which worker routes which region in which round.
  When no pool can be started -- sandboxes routinely forbid ``fork`` or
  semaphores -- the executor degrades to the serial path with a warning,
  the same contract :class:`~repro.engine.executor.ProcessExecutor` honors:
  degradation costs parallelism, never correctness.

Replay memo logs (ECO sessions, see :class:`repro.engine.cache.RoundMemo`)
travel through both backends: a task carries the scope-localised
``(signature, tree)`` memo of each of its nets plus a ``capture_log`` flag,
and the outcome ships the scope's freshly computed lookup signatures back,
which the coordinator folds into the round's global memo **in fixed region
order**.  Worker-side engines build their signature cache lazily for such
tasks and invalidate it per task, so memo flows stay round-stateless on the
pool exactly like ordinary rounds.

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
    """The dynamic inputs of one region's round (cheap to pickle).

    ``usage`` and ``edge_prices`` are region-local (gathered onto the
    region's subgraph edges) for fast-path regions and full-graph vectors
    for parity regions; ``weights`` and ``trees`` are aligned with the
    region engine's net order (local indices for subgraph scopes, the
    interior index list for parity regions).

    ``replay`` carries the scope-localised replay memo of a session flow:
    one ``(lookup_signature, memoised_tree)`` entry per net (``None`` for
    nets without a usable memo), aligned like ``trees``; ``capture_log``
    asks the worker to record this round's lookup signatures into the
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
    """One region's round result: routed trees, usage delta, report counts.

    ``trees`` uses the same alignment as the task's; ``delta`` the same
    edge indexing as the task's ``usage``.  ``report`` is
    ``(num_batches, nets_routed, nets_cached, nets_replayed,
    walltime_seconds)`` -- the walltime is the worker-side engine's own
    (monotonic) round time, which is what the coordinator's per-region
    telemetry reports for pooled rounds.
    ``log_signatures`` holds the round's lookup signatures (aligned like
    ``trees``) when the task asked for them with ``capture_log``.
    ``metrics`` is the worker's local :class:`repro.obs.MetricsRegistry`
    snapshot for this region round; the parent merges it in fixed region
    order so pooled runs report the same counters as serial ones.
    """

    key: str
    trees: Tuple[TreeRecord, ...]
    delta: np.ndarray
    report: Tuple[int, int, int, int, float]
    log_signatures: Optional[Tuple[Optional[bytes], ...]] = None
    metrics: Optional[Dict[str, object]] = None


class _TaskPrices:
    """The price view a worker-side engine reads: a gathered ``edge_prices``
    vector plus per-net sink weights, both refreshed from each task."""

    def __init__(self) -> None:
        self.edge_prices: Optional[np.ndarray] = None
        self._weights: Dict[int, Tuple[float, ...]] = {}

    def load(self, edge_prices: np.ndarray, nets: Sequence[int],
             weights: Sequence[Tuple[float, ...]]) -> None:
        self.edge_prices = np.asarray(edge_prices, dtype=np.float64)
        self._weights = dict(zip(nets, weights))

    def weights_of(self, net_index: int) -> List[float]:
        return list(self._weights[net_index])


class _RegionRunner:
    """Worker-side twin of one region: an engine rebuilt from its spec.

    Runners are cached per worker process, but their engines are
    round-stateless (no re-route cache, usage reset from every task), so a
    region may be routed by different workers in different rounds without
    changing a single bit of the result.
    """

    def __init__(self, spec: Dict[str, object], oracle, bifurcation, seed: int,
                 overflow_penalty: float, threshold: float) -> None:
        self.graph: RoutingGraph = spec["graph"]  # type: ignore[assignment]
        self.netlist = spec["netlist"]
        #: ``None`` for subgraph scopes (the engine routes the whole
        #: sub-netlist); the global interior index list for parity regions.
        self.interior: Optional[List[int]] = spec.get("interior")  # type: ignore[assignment]
        self.congestion = CongestionMap(
            self.graph, overflow_penalty=overflow_penalty, threshold=threshold
        )
        self.prices = _TaskPrices()
        self.engine = RoutingEngine(
            graph=self.graph,
            netlist=self.netlist,  # type: ignore[arg-type]
            oracle=oracle,
            bifurcation=bifurcation,
            congestion=self.congestion,
            prices=self.prices,  # type: ignore[arg-type]
            seed=seed,
            cost_refresh_interval=int(spec["cost_refresh_interval"]),  # type: ignore[arg-type]
            config=spec["config"],  # type: ignore[arg-type]
            net_indices=self.interior,
        )

    def route(self, task: RegionTask) -> RegionOutcome:
        self.congestion.usage = task.usage.copy()
        engine_nets: Sequence[int] = (
            self.interior if self.interior is not None else range(len(task.trees))
        )
        self.prices.load(task.edge_prices, engine_nets, task.weights)
        replay_memo = self._replay_memo(task, engine_nets)
        log_memo = RoundMemo() if task.capture_log else None
        if replay_memo is not None or log_memo is not None:
            # Memo rounds need the signature machinery, which this engine
            # (configured cache-free for round-statelessness) builds lazily;
            # invalidating per task keeps the worker a pure function of the
            # task -- no signature survives into the next round.
            self.engine.ensure_cache().invalidate()
        if self.interior is None:
            trees = [decode_tree(self.graph, record) for record in task.trees]
            self.engine.route_round(
                task.round_index, trees,
                replay_round=replay_memo, log_round=log_memo,
            )
            routed = trees
        else:
            # Parity regions index the full netlist; nets outside the
            # region's interior are never touched by its engine.
            trees = [None] * self.netlist.num_nets  # type: ignore[union-attr]
            for net_index, record in zip(self.interior, task.trees):
                trees[net_index] = decode_tree(self.graph, record)
            self.engine.route_round(
                task.round_index, trees,
                replay_round=replay_memo, log_round=log_memo,
            )
            routed = [trees[net_index] for net_index in self.interior]
        last = self.engine.round_reports[-1]
        log_signatures = None
        if log_memo is not None:
            log_signatures = tuple(
                log_memo.signatures.get(key) for key in engine_nets
            )
        return RegionOutcome(
            key=task.key,
            trees=tuple(encode_tree(tree) for tree in routed),
            delta=self.congestion.usage - task.usage,
            report=(last.num_batches, last.nets_routed, last.nets_cached,
                    last.nets_replayed, last.walltime_seconds),
            log_signatures=log_signatures,
        )

    def _replay_memo(
        self, task: RegionTask, engine_nets: Sequence[int]
    ) -> Optional[RoundMemo]:
        """The task's replay entries as a :class:`RoundMemo` keyed the way
        this runner's engine keys nets (local indices for subgraph scopes,
        global indices for parity regions)."""
        if task.replay is None:
            return None
        memo = RoundMemo()
        for key, entry in zip(engine_nets, task.replay):
            if entry is None:
                continue
            signature, record = entry
            tree = decode_tree(self.graph, record)
            if tree is None:
                continue
            memo.signatures[key] = signature
            memo.trees[key] = tree
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
        runner = _RegionRunner(
            _REGION_STATE["regions"][task.key],
            _REGION_STATE["oracle"],
            _REGION_STATE["bifurcation"],
            _REGION_STATE["seed"],
            _REGION_STATE["overflow_penalty"],
            _REGION_STATE["threshold"],
        )
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
    ) -> Tuple[List[np.ndarray], List[Tuple[int, int, int, int, float]]]:
        """Route every interior region of one round against ``snapshot``.

        Mutates ``trees`` in place and returns ``(deltas, reports)`` aligned
        with ``coordinator.regions`` -- the coordinator stitches the deltas
        in that fixed order, which is what keeps all backends bit-identical.

        ``replay_round`` / ``log_round`` are the round's *global* replay and
        log memos (session flows); each region localises its slice of the
        replay memo and its freshly computed lookup signatures are merged
        back into ``log_round``, again in fixed region order.
        """
        raise NotImplementedError

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
        deltas: List[np.ndarray] = []
        reports: List[Tuple[int, int, int, int, float]] = []
        for region in coordinator.regions:
            with obs.span(
                "region", key=region.key, round=round_index, backend=self.backend
            ) as region_span:
                if coordinator.parity:
                    deltas.append(
                        region.route_round(
                            coordinator, round_index, trees, snapshot,
                            replay_round=replay_round, log_round=log_round,
                        )
                    )
                else:
                    deltas.append(
                        region.route_round(
                            coordinator, round_index, trees, snapshot.usage,
                            replay_round=replay_round, log_round=log_round,
                        )
                    )
                last = region.engine.round_reports[-1]
                reports.append(
                    (last.num_batches, last.nets_routed, last.nets_cached,
                     last.nets_replayed, last.walltime_seconds)
                )
                region_span.set(
                    batches=last.num_batches, nets_routed=last.nets_routed
                )
            obs.publish(
                "region_done",
                region=region.key,
                round=round_index + 1,
                backend=self.backend,
                nets_routed=last.nets_routed,
                seconds=round(float(last.walltime_seconds), 6),
            )
        return deltas, reports


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
        #: The un-pickled worker payload plus parent-side runner twins,
        #: kept for the recovery path: when a pool worker dies (or a chaos
        #: fault drops an outcome), the lost region round is routed right
        #: here in the parent from the same read-only payload the workers
        #: were primed with.
        self._worker_payload: Optional[Dict[str, object]] = None
        self._recovery_runners: Dict[str, _RegionRunner] = {}

    def close(self) -> None:
        self.pool.close()
        super().close()

    # ------------------------------------------------------------------ API
    def route_round(self, coordinator, round_index, trees, snapshot,
                    replay_round=None, log_round=None):
        def payload() -> Dict[str, object]:
            self._worker_payload = coordinator.region_worker_payload()
            return self._worker_payload

        # One region cannot be overlapped with anything (skip the IPC), and
        # the pool is capped at the region count -- extra workers could
        # never receive work.  Without a pool (the degraded mode) the
        # regions route on the serial loop.
        regions = len(coordinator.regions)
        pooled = regions > 1 and self.pool.start(payload, min(self.num_workers, regions))
        if not pooled:
            return self._serial.route_round(
                coordinator, round_index, trees, snapshot,
                replay_round=replay_round, log_round=log_round,
            )
        tasks = [
            region.make_task(
                coordinator, round_index, trees, snapshot,
                replay_round=replay_round, log_round=log_round,
            )
            for region in coordinator.regions
        ]
        outcomes = self.pool.run(
            _route_region,
            tasks,
            retry=self._route_region_inline,
            sabotage=faults.pool_sabotage("kill-region-worker", round_index),
        )
        plan = faults.get_plan()
        if plan is not None and plan.should("drop-outcome", round_index):
            # Discard one cleanly collected outcome: exercises the
            # in-process re-execution path without involving the pool.
            outcomes[0] = None
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = self._route_region_inline(tasks[index])
                obs.inc("recovery.outcome_recomputed")
        deltas: List[np.ndarray] = []
        reports: List[Tuple[int, int, int, int, float]] = []
        # Apply in fixed region order regardless of worker completion order.
        # The worker-shipped metric snapshots merge in the same order, so
        # pooled counters land identically to a serial run's.
        for region, outcome in zip(coordinator.regions, outcomes):
            with obs.span(
                "region", key=region.key, round=round_index, backend=self.backend,
                batches=outcome.report[0], nets_routed=outcome.report[1],
            ):
                deltas.append(
                    region.apply_outcome(coordinator, trees, outcome, log_round=log_round)
                )
                reports.append(outcome.report)
            obs.merge_snapshot(outcome.metrics)
            obs.publish(
                "region_done",
                region=region.key,
                round=round_index + 1,
                backend=self.backend,
                nets_routed=outcome.report[1],
                seconds=round(float(outcome.report[4]), 6),
            )
        return deltas, reports

    def _route_region_inline(self, task: RegionTask) -> RegionOutcome:
        """Route one region's round in the parent process.

        The recovery path of this executor: runner twins are rebuilt from
        the same read-only payload the pool workers were primed with, and
        a :class:`RegionTask` is a pure function of that payload -- so the
        outcome is bit-identical to what the lost worker would have
        shipped.  The runner cache mirrors the per-worker cache (runners
        are round-stateless, see :class:`_RegionRunner`).  Oracle counters
        land in the parent registry directly; ``metrics`` stays ``None``.
        """
        payload = self._worker_payload
        assert payload is not None, "recovery before any pool round"
        runner = self._recovery_runners.get(task.key)
        if runner is None:
            runner = _RegionRunner(
                payload["regions"][task.key],  # type: ignore[index]
                payload["oracle"],
                payload["bifurcation"],
                payload["seed"],  # type: ignore[arg-type]
                payload["overflow_penalty"],  # type: ignore[arg-type]
                payload["threshold"],  # type: ignore[arg-type]
            )
            self._recovery_runners[task.key] = runner
        return runner.route(task)


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
