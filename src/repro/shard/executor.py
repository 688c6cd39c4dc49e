"""The region executor: run the interior passes of one shard round.

The :class:`~repro.shard.coordinator.ShardCoordinator` decomposes each
rip-up-and-re-route round into K independent region subproblems that all
read the *round-start* congestion snapshot and never see each other's
in-round deltas.  That independence is what makes them trivially
parallelisable: a region round is a pure task, so :class:`RegionExecutor` is
three steps -- make one :class:`RegionTask` per region, map them over the
:class:`_RegionRunner` s (``engine.executor.WorkerPool.map``: here, or on
pool workers with ``shard_workers > 1``), install the
:class:`RegionOutcome` s.  The coordinator stitches the usage deltas onto
the shared map **in fixed region order**, so the floating-point sums, and
therefore every downstream metric, are bit-identical wherever the regions
ran.

In the parent a region routes on its scope's own runner; a pool worker
builds its runners from the pickled read-only payload (the specs --
subgraphs, sub-netlists, engine configs -- plus the oracle and bifurcation
model, see :func:`region_worker`), and per round only the task travels
(start usage and gathered prices as arrays, trees, replay memos and the
re-route cache's signatures as plain tuples -- the one transport).  A round
is a pure function of its task, signatures included, so it does not matter
which process routes which region in which round: a task lost with its
worker is routed by the scope's own runner in the parent, and when no pool
can be started the regions simply route in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.core.tree import EmbeddedTree, TreeRecord, decode_tree, encode_tree
from repro.engine.cache import RoundMemo
from repro.engine.engine import RoutingEngine
from repro.engine.executor import WorkerPool
from repro.grid.congestion import CongestionMap, CongestionSnapshot
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # circular at runtime: the coordinator imports this module
    from repro.shard.coordinator import ShardCoordinator

__all__ = ["RegionTask", "RegionOutcome", "RegionExecutor", "region_worker"]


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

    ``signatures`` is the re-route cache's inter-round state: the signature
    each net was last routed under (``None`` for a net never routed),
    aligned like ``trees``; ``None`` when the flow runs cache-free.
    """

    key: str
    round_index: int
    usage: np.ndarray
    edge_prices: np.ndarray
    weights: Tuple[Tuple[float, ...], ...]
    trees: Tuple[TreeRecord, ...]
    replay: Optional[Tuple[Optional[Tuple[bytes, TreeRecord]], ...]] = None
    capture_log: bool = False
    signatures: Optional[Tuple[Optional[bytes], ...]] = None


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
    ``trees``) when the task asked for them with ``capture_log``;
    ``signatures`` the re-route cache's state after the round, the next
    task's ``signatures`` (``None`` when the flow runs cache-free).
    """

    key: str
    trees: Tuple[TreeRecord, ...]
    delta: np.ndarray
    report: Tuple[int, int, int, int, float]
    log_signatures: Optional[Tuple[Optional[bytes], ...]] = None
    signatures: Optional[Tuple[Optional[bytes], ...]] = None


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
    the parent (the scope's own runner -- inline map, seam scopes, retry
    of a lost pool task) or in a pool worker (a runner rebuilt from the
    same spec).  Everything a round depends on arrives in the task -- the
    re-route cache is loaded from ``task.signatures`` and shipped back in
    the outcome -- so every runner of a scope returns the same outcome.
    """

    def __init__(self, spec: Dict[str, object], shared: Dict[str, object]) -> None:
        """``shared`` holds what every scope of a coordinator has in common:
        ``oracle``, ``bifurcation``, ``seed``, ``overflow_penalty`` and
        ``threshold``."""
        self.graph: RoutingGraph = spec["graph"]  # type: ignore[assignment]
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
        cache = self.engine.cache
        if cache is not None:
            cache.load_signatures(
                {i: s for i, s in enumerate(task.signatures or ()) if s is not None}
            )
        trees = [decode_tree(self.graph, record) for record in task.trees]
        self.engine.route_round(
            task.round_index, trees, replay_round=replay_memo, log_round=log_memo
        )
        last = self.engine.round_reports[-1]
        indices = range(len(trees))
        log_signatures = signatures = None
        if log_memo is not None:
            log_signatures = tuple(log_memo.signatures.get(i) for i in indices)
        if cache is not None:
            stored = cache.export_signatures()
            signatures = tuple(stored.get(i) for i in indices)
        return RegionOutcome(
            key=task.key,
            trees=tuple(encode_tree(tree) for tree in trees),
            delta=self.congestion.usage - task.usage,
            report=(last.num_batches, last.nets_routed, last.nets_cached,
                    last.nets_replayed, last.walltime_seconds),
            log_signatures=log_signatures,
            signatures=signatures,
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


def region_worker(payload: Dict[str, object]) -> Callable[[RegionTask], RegionOutcome]:
    """The pool's worker factory (module level: children locate it under
    every start method): routes a task on the runner of its region, built
    from the payload's spec on the region's first task in this worker."""
    runners: Dict[str, _RegionRunner] = {}

    def route(task: RegionTask) -> RegionOutcome:
        if task.key not in runners:
            runners[task.key] = _RegionRunner(payload["regions"][task.key], payload)
        return runners[task.key].route(task)

    return route


class RegionExecutor:
    """Routes the K interior regions of each round: in-process, one after
    the other (``workers`` ``None``/``1``), or mapped over a process pool.

    Parameters
    ----------
    workers:
        Pool size; the pool is additionally capped at the region count --
        extra workers could never receive work.
    start_method:
        ``multiprocessing`` start method (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``), validated here, eagerly: a pinned-but-mistyped
        one raises at construction instead of silently degrading the run.
        ``None`` prefers ``fork`` (workers inherit ``sys.path``) and falls
        back to the platform default.
    """

    def __init__(self, workers: Optional[int] = None, start_method: Optional[str] = None) -> None:
        self.pool = WorkerPool(
            backend="region-process",
            degrade_message=(
                "region-parallel shard execution degrades to the serial region loop"
            ),
            workers=1 if workers is None else workers,
            start_method=start_method,
        )
        self.closed = False

    @property
    def backend(self) -> str:
        """Backend name for result reporting: where regions may run."""
        return "process" if self.pool.workers > 1 else "serial"

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
        deltas in that fixed order, which is what keeps every placement
        bit-identical.

        ``replay_round`` / ``log_round`` are the round's *global* replay and
        log memos (session flows); each region localises its slice of the
        replay memo and its freshly computed lookup signatures are merged
        back into ``log_round``.

        Every region writes one ``region`` span per round: around its
        routing when that happens in this process (``backend="serial"``;
        the inline map, and the retry of a task lost with its worker),
        around the install of a worker's outcome otherwise.
        """
        scopes = {region.key: region for region in coordinator.regions}
        tasks = [
            region.make_task(
                coordinator, round_index, trees, snapshot.usage,
                replay_round=replay_round, log_round=log_round,
            )
            for region in coordinator.regions
        ]
        installed = set()

        def install(outcome: RegionOutcome, span, backend: str) -> None:
            scopes[outcome.key].apply_outcome(coordinator, trees, outcome, log_round=log_round)
            span.set(batches=outcome.report[0], nets_routed=outcome.report[1])
            installed.add(outcome.key)
            obs.publish(
                "region_done",
                region=outcome.key,
                round=round_index + 1,
                backend=backend,
                nets_routed=outcome.report[1],
                seconds=round(float(outcome.report[4]), 6),
            )

        def route_here(task: RegionTask) -> RegionOutcome:
            # The scope's own runner, built from the spec the workers are
            # primed with -- the outcome a worker would ship, bit for bit.
            with obs.span("region", key=task.key, round=round_index, backend="serial") as span:
                outcome = scopes[task.key].runner.route(task)
                install(outcome, span, "serial")
            return outcome

        outcomes = self.pool.map(
            tasks,
            coordinator.region_worker_payload,
            region_worker,
            route_here,
            fault=("kill-region-worker", round_index),
        )
        plan = faults.get_plan()
        if (
            plan is not None
            and tasks
            and tasks[0].key not in installed
            and plan.should("drop-outcome", round_index)
        ):
            # Discard one cleanly collected worker outcome: exercises the
            # in-process re-execution path without involving the pool.
            outcomes[0] = route_here(tasks[0])
            obs.inc("recovery.outcome_recomputed")
        for outcome in outcomes:
            if outcome.key not in installed:
                with obs.span(
                    "region", key=outcome.key, round=round_index, backend="process"
                ) as span:
                    install(outcome, span, "process")
        return outcomes

    def close(self) -> None:
        """Release the worker pool.  Idempotent."""
        self.pool.close()
        self.closed = True

    def __enter__(self) -> "RegionExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
