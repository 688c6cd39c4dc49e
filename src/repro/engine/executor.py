"""Batch executors: pluggable backends that route one batch of nets.

A batch (see :mod:`repro.engine.scheduler`) is a set of nets that share one
frozen congestion cost vector.  Given that vector and one lightweight
:class:`NetTask` per net, an executor returns the embedded tree of every net.
Because each net carries its own deterministically derived RNG stream
(:mod:`repro.engine.rng`), every backend produces bit-identical trees; the
backends differ only in *where* the Steiner oracle runs:

* :class:`SerialExecutor` routes the batch in-process, net by net -- the
  default, equivalent to the historical router loop.
* :class:`ProcessExecutor` fans the batch out over a ``multiprocessing``
  pool.  Each worker is primed once with a pickled read-only payload (the
  routing graph, the oracle, and the bifurcation model); per batch, the cost
  vector is pickled once per worker shard rather than once per net, and the
  workers return plain ``(net_index, sinks, edges, method)`` tuples so the
  (large) graph object never travels back over the pipe.

:class:`WorkerPool` is the pool lifecycle (start, degradation, dead-worker
recovery, teardown) that :class:`ProcessExecutor` and the shard layer's
region executor share.  Use :func:`make_executor` to construct a backend by
name.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.core.bifurcation import BifurcationModel
from repro.core.costctx import OracleCostContext
from repro.core.instance import SteinerInstance
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree
from repro.engine.rng import derive_net_rng_for_name
from repro.grid.graph import RoutingGraph

__all__ = [
    "NetTask",
    "BatchExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "WorkerPool",
    "EXECUTOR_BACKENDS",
]


class WorkerPool:
    """The one ``multiprocessing`` pool lifecycle of the repo.

    Both process backends (the engine's :class:`ProcessExecutor`, the shard
    layer's region executor) route their tasks through this object and own
    only what differs between them: the task function, the initializer
    payload and the inline-retry function.  The contract, stated once:

    * **Validation.**  ``start_method``, when given, is checked at
      construction -- pinning an unknown method raises :class:`ValueError`
      instead of silently falling back.  Unpinned pools prefer ``fork``
      (workers inherit ``sys.path``), then the platform default.
    * **Lazy start.**  :meth:`start` creates the pool on first use; every
      worker is primed by ``initializer(pickle.dumps(payload()))``.
    * **Degradation.**  When no pool can be started -- sandboxes routinely
      forbid ``fork``/semaphores -- one structured WARNING log record (and
      trace event) carries ``backend``, ``start_method``, the failure and
      ``degrade_message``; the failure is remembered, :meth:`start` keeps
      answering ``False`` and the caller routes in-process.  Degradation
      costs parallelism, never correctness.
    * **Recovery and discard.**  :meth:`run` survives dead workers by
      re-executing lost tasks through ``retry``; a pool that saw a death
      (or was sabotaged) is torn down off-thread and the next
      :meth:`start` builds a fresh one from the same payload factory.
    * **Teardown.**  :meth:`close` terminates *and joins* the workers and
      is idempotent.

    ``used`` records whether a pool was ever started (it stays ``True``
    after :meth:`close`; benchmarks read it to tell real pool runs from
    degraded ones), ``active`` whether one is live right now.
    """

    def __init__(
        self,
        initializer,
        backend: str,
        degrade_message: str,
        start_method: Optional[str] = None,
    ) -> None:
        self.initializer = initializer
        self.backend = backend
        self.degrade_message = degrade_message
        if start_method is not None:
            # Pinning a start method is an explicit request; a typo (or
            # ``"fork"`` on a platform without it) must fail loudly rather
            # than silently degrade the run to a slower path.
            import multiprocessing

            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ValueError(
                    f"unknown or unavailable start method {start_method!r}; "
                    f"available: {sorted(available)}"
                )
        self.start_method = start_method
        self.used = False
        self._pool = None
        self._unavailable = False

    @property
    def active(self) -> bool:
        """Whether a pool is live right now."""
        return self._pool is not None

    def start(self, payload, processes: int) -> bool:
        """Ensure a live pool (of ``processes`` workers when one has to be
        started); ``False`` when this environment cannot provide one.
        ``payload`` is a zero-argument factory, called only when a pool is
        actually (re)started."""
        if self._pool is not None:
            return True
        if self._unavailable:
            return False
        import multiprocessing

        initargs = (pickle.dumps(payload(), protocol=pickle.HIGHEST_PROTOCOL),)
        try:
            if self.start_method is not None:
                context = multiprocessing.get_context(self.start_method)
            else:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    context = multiprocessing.get_context()
            self._pool = context.Pool(
                processes=processes,
                initializer=self.initializer,
                initargs=initargs,
            )
        except (ImportError, OSError, PermissionError, RuntimeError, AssertionError) as exc:
            # AssertionError is what the stdlib raises for daemonic nesting
            # ("daemonic processes are not allowed to have children") -- e.g.
            # a region worker whose engine asks for its own process pool.
            # Degrading is exactly right there.
            obs.log_pool_degradation(
                self.backend, self.start_method, exc, self.degrade_message
            )
            obs.inc(f"pool.degraded.{self.backend}")
            self._unavailable = True
            return False
        self.used = True
        return True

    def run(self, fn, tasks, retry, sabotage=None, stall_timeout: float = 5.0) -> list:
        """Run ``fn`` over ``tasks`` on the (started) pool, surviving dead
        workers; returns the results aligned with ``tasks``.

        ``multiprocessing.Pool`` replaces a worker that dies (OOM-killed,
        segfaulted, chaos-injected SIGKILL) but silently *loses the task the
        worker was executing* -- a plain ``pool.map`` then blocks forever on
        a result that will never arrive.  This collector submits each task
        as its own ``apply_async``, watches the pool's worker processes for
        deaths, and -- once every still-pending task can only be explained
        by a lost worker -- re-executes the pending tasks in the parent via
        ``retry``.  Tasks are pure functions of their inputs (the engine's
        determinism contract), so a re-execution, wherever it runs, is
        bit-identical to the result the dead worker would have produced.

        A death can also wedge the pool outright: a worker SIGKILLed while
        holding the shared task-queue lock starves every other worker.  When
        deaths were observed but completions stop for ``stall_timeout``
        seconds, the collector gives up on the pool and recovers *all*
        pending tasks in-process.  And because a wedge can surface only on
        the *next* dispatch (the victim died after this call's results were
        in), **any** observed death discards the pool; the next
        :meth:`start` rebuilds it from the payload factory -- cheap, and it
        closes the hang window for good.

        ``sabotage``, when given, is called with the raw pool right after
        the tasks are dispatched -- the hook chaos faults use to kill a
        worker at the moment it is most likely mid-task.  A sabotaged pool
        is discarded even when no death was observed during the call: a
        worker killed *after* its last task leaves no pending work to
        recover, but it may die holding the task-queue lock and wedge the
        next dispatch with no observable deaths (the pool respawns its
        ``_pool`` entry).

        Worker exceptions (as opposed to worker *deaths*) propagate
        unchanged.
        """
        pool = self._pool
        pending = {index: pool.apply_async(fn, (task,)) for index, task in enumerate(tasks)}
        if sabotage is not None:
            # Give the workers a moment to pick the tasks up: killing a busy
            # worker loses its task (the case under test); killing an idle one
            # can only wedge the queue (the stall path below).
            time.sleep(0.05)
            sabotage(pool)
        results: list = [None] * len(tasks)
        seen_workers: set = set()
        last_progress = time.monotonic()

        def recover(reason: str) -> None:
            lost = sorted(pending)
            pending.clear()
            obs.get_logger("engine").warning(
                "%s; re-executing %d in-flight task(s) in-process",
                reason,
                len(lost),
                extra={"backend": self.backend, "lost": len(lost)},
            )
            for index in lost:
                results[index] = retry(tasks[index])
                obs.inc("recovery.tasks_retried")
                obs.inc(f"recovery.tasks_retried.{self.backend}")
            obs.publish("recovery", backend=self.backend, retried=len(lost), reason=reason)

        def count_deaths() -> int:
            # Track every worker process the pool has had during this call;
            # the pool prunes dead ones from ``_pool`` when it replaces them,
            # but a reaped Process object keeps its exitcode.
            seen_workers.update(getattr(pool, "_pool", None) or [])
            return sum(1 for worker in seen_workers if worker.exitcode is not None)

        while pending:
            deaths = count_deaths()
            ready = [index for index, result in pending.items() if result.ready()]
            if ready:
                last_progress = time.monotonic()
            for index in ready:
                results[index] = pending.pop(index).get()
            if not pending:
                break
            if deaths:
                if len(pending) <= deaths:
                    # A death loses at most the one task its worker was
                    # running, so every remaining result is unreachable.
                    recover(f"{deaths} pool worker death(s) lost the remaining tasks")
                    break
                if time.monotonic() - last_progress > stall_timeout:
                    recover(
                        f"pool stalled {stall_timeout:.1f}s after {deaths} worker "
                        "death(s) (task queue presumed wedged)"
                    )
                    break
            next(iter(pending.values())).wait(0.05)
        if count_deaths() or sabotage is not None:
            self._discard()
        return results

    def _discard(self) -> None:
        """Tear the (presumed wedged) pool down on a background thread.

        Terminating a pool whose task queue died with a lock held can itself
        block (the handler threads join the queue); a daemon thread keeps
        that out of the routing flow's way.
        """
        pool, self._pool = self._pool, None

        def _terminate() -> None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # pragma: no cover - teardown of a broken pool
                pass

        threading.Thread(target=_terminate, name="discard-broken-pool", daemon=True).start()
        obs.inc("recovery.pools_discarded")

    def close(self) -> None:
        """Terminate and join the workers.  Idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


@dataclass(frozen=True)
class NetTask:
    """Everything a worker needs to route one net (cheap to pickle).

    ``net_name`` is the net's own (netlist-unique) name; it keys the net's
    private RNG stream, so a net keeps its stream when routed at a shifted
    index or inside a sub-netlist.  ``name`` is the fully qualified
    ``design/net`` label used for instance reporting only.
    """

    net_index: int
    root: int
    sinks: Tuple[int, ...]
    weights: Tuple[float, ...]
    name: str = ""
    net_name: str = ""

    @property
    def rng_name(self) -> str:
        """The key of this net's RNG stream (falls back to the full label)."""
        return self.net_name or self.name

    def payload(self, costs: np.ndarray, bifurcation: BifurcationModel) -> dict:
        """The :meth:`SteinerInstance.from_payload` dict of this task under a
        batch cost vector (graph and delay are supplied by the executor)."""
        return {
            "root": self.root,
            "sinks": self.sinks,
            "weights": self.weights,
            "cost": costs,
            "bifurcation": bifurcation,
            "name": self.name,
        }


class BatchExecutor:
    """Common state and interface of all executor backends."""

    #: Backend name used in configuration and result reporting.
    backend = "?"

    def __init__(
        self,
        graph: RoutingGraph,
        oracle: SteinerOracle,
        bifurcation: BifurcationModel,
        seed: int,
    ) -> None:
        self.graph = graph
        self.oracle = oracle
        self.bifurcation = bifurcation
        self.seed = seed
        #: Flips to ``True`` on :meth:`close`; lifecycle tests (and the
        #: shard coordinator's teardown guarantees) assert on it.
        self.closed = False
        self._delay = graph.delay_array()
        self._last_context: Optional[OracleCostContext] = None

    # ------------------------------------------------------------------ API
    def route_batch(
        self,
        costs: np.ndarray,
        tasks: Sequence[NetTask],
        context: Optional[OracleCostContext] = None,
    ) -> Dict[int, EmbeddedTree]:
        """Route every task against ``costs``; returns trees by net index.

        ``context``, when given, shares the batch-level cost artefacts
        (list conversions, future-cost estimator, validation) across the
        batch's nets; backends build their own when omitted.
        """
        raise NotImplementedError

    def make_context(self, costs: np.ndarray) -> Optional[OracleCostContext]:
        """One :class:`OracleCostContext` for a batch routed against
        ``costs``.  Consecutive contexts inherit each other's memoised
        list materialisations (see :meth:`OracleCostContext.inherit`).
        The reference-kernel benchmark harness patches this to return
        ``None``, which reverts every consumer to the per-net slow paths."""
        context = OracleCostContext(self.graph, costs, delay=self._delay)
        if self._last_context is not None:
            context.inherit(self._last_context)
        self._last_context = context
        return context

    def close(self) -> None:
        """Release backend resources (worker pools).  Idempotent."""
        self.closed = True

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- shared
    def _route_one(
        self,
        costs: np.ndarray,
        task: NetTask,
        context: Optional[OracleCostContext] = None,
    ) -> EmbeddedTree:
        if context is not None:
            # The context's (contiguous) array is the canonical batch vector:
            # routing against it keeps the instance/context identity check hot.
            costs = context.cost
        instance = SteinerInstance.from_payload(
            self.graph,
            task.payload(costs, self.bifurcation),
            delay=self._delay,
            context=context,
        )
        rng = derive_net_rng_for_name(self.seed, task.rng_name)
        plan = faults.get_plan()
        if plan is not None:
            plan.sleep("slow-oracle")
        if obs.get_tracer() is None:
            return self.oracle.build(instance, rng)
        # Per-net events exist only under an active tracer; the timing calls
        # and record writes would otherwise tax the innermost loop for nothing.
        started = time.monotonic()
        tree = self.oracle.build(instance, rng)
        obs.event(
            "net",
            net=task.name or task.rng_name,
            sinks=len(task.sinks),
            method=tree.method,
            seconds=time.monotonic() - started,
        )
        return tree


class SerialExecutor(BatchExecutor):
    """Routes a batch in-process, one net after the other."""

    backend = "serial"

    def route_batch(
        self,
        costs: np.ndarray,
        tasks: Sequence[NetTask],
        context: Optional[OracleCostContext] = None,
    ) -> Dict[int, EmbeddedTree]:
        if context is None and tasks:
            context = self.make_context(costs)
        return {task.net_index: self._route_one(costs, task, context) for task in tasks}


# --------------------------------------------------------------------------
# Process backend.  The worker functions live at module level so they can be
# located by child processes under every multiprocessing start method.
# --------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(payload_bytes: bytes) -> None:
    """Pool initializer: unpack the shared read-only routing payload."""
    state = pickle.loads(payload_bytes)
    state["delay"] = state["graph"].delay_array()
    _WORKER_STATE.clear()
    _WORKER_STATE.update(state)


def _route_shard(
    shard: Tuple[np.ndarray, List[NetTask]]
) -> Tuple[List[Tuple[int, Tuple[int, ...], Tuple[int, ...], str]], Dict[str, object]]:
    """Route one shard of a batch inside a worker process.

    Returns the routed-tree tuples plus the worker's local metrics
    snapshot (A* pops etc. accumulated by the oracle while routing this
    shard); the parent merges snapshots in fixed shard order so pooled
    runs report the same counters as serial ones.
    """
    costs, tasks = shard
    graph: RoutingGraph = _WORKER_STATE["graph"]
    oracle: SteinerOracle = _WORKER_STATE["oracle"]
    bifurcation: BifurcationModel = _WORKER_STATE["bifurcation"]
    seed: int = _WORKER_STATE["seed"]
    delay: np.ndarray = _WORKER_STATE["delay"]
    # One context per shard: the whole shard shares one cost vector, so the
    # per-net list conversions / estimator / validation amortise worker-side.
    context = OracleCostContext(graph, costs, delay=delay)
    costs = context.cost
    results = []
    local = obs.MetricsRegistry()
    previous = obs.swap_registry(local)
    plan = faults.get_plan()
    try:
        for task in tasks:
            if plan is not None:
                plan.sleep("slow-oracle")
            instance = SteinerInstance.from_payload(
                graph, task.payload(costs, bifurcation), delay=delay, context=context
            )
            tree = oracle.build(instance, derive_net_rng_for_name(seed, task.rng_name))
            results.append(
                (task.net_index, tuple(tree.sinks), tuple(tree.edges), tree.method)
            )
    finally:
        obs.swap_registry(previous)
    return results, local.snapshot()


class ProcessExecutor(BatchExecutor):
    """Routes batches on a ``multiprocessing`` pool of worker processes.

    When the pool cannot be created at all -- sandboxed and containerised
    environments routinely forbid ``fork``/semaphores -- the executor
    degrades to in-process serial routing with a warning instead of
    crashing the job: every backend produces bit-identical trees, so the
    fallback only costs parallelism, never correctness.

    Parameters
    ----------
    num_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8 (pure-Python
        workloads stop scaling long before the core count on big machines).
    """

    backend = "process"

    def __init__(
        self,
        graph: RoutingGraph,
        oracle: SteinerOracle,
        bifurcation: BifurcationModel,
        seed: int,
        num_workers: Optional[int] = None,
    ) -> None:
        super().__init__(graph, oracle, bifurcation, seed)
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers or min(os.cpu_count() or 2, 8)
        self.pool = WorkerPool(
            _worker_init,
            backend=self.backend,
            degrade_message="the process backend degrades to in-process serial routing",
        )

    def _worker_payload(self) -> Dict[str, object]:
        return {
            "graph": self.graph,
            "oracle": self.oracle,
            "bifurcation": self.bifurcation,
            "seed": self.seed,
        }

    def close(self) -> None:
        self.pool.close()
        super().close()

    # ------------------------------------------------------------------ API
    def route_batch(
        self,
        costs: np.ndarray,
        tasks: Sequence[NetTask],
        context: Optional[OracleCostContext] = None,
    ) -> Dict[int, EmbeddedTree]:
        # A single net cannot repay the IPC overhead; without a pool (the
        # degraded mode) everything routes in-process.
        pooled = len(tasks) > 1 and self.pool.start(self._worker_payload, self.num_workers)
        if not pooled:
            if context is None and tasks:
                context = self.make_context(costs)
            return {task.net_index: self._route_one(costs, task, context) for task in tasks}
        outcomes = self.pool.run(
            _route_shard,
            [(costs, shard) for shard in self._shard(list(tasks))],
            retry=self._route_shard_inline,
            sabotage=faults.pool_sabotage("kill-pool-worker", faults.current_round()),
        )
        roots = {task.net_index: task.root for task in tasks}
        trees: Dict[int, EmbeddedTree] = {}
        for shard_result, worker_metrics in outcomes:
            for net_index, sinks, edges, method in shard_result:
                trees[net_index] = EmbeddedTree(self.graph, roots[net_index], sinks, edges, method)
            # Fixed shard order keeps the merged counters deterministic.
            obs.merge_snapshot(worker_metrics)
        return trees

    def _route_shard_inline(self, shard: Tuple[np.ndarray, List[NetTask]]):
        """Route one worker shard in the parent (the dead-worker recovery
        path).  Every net carries its own derived RNG stream, so the trees
        are bit-identical to what the lost worker would have returned; the
        oracle's counters land in the parent registry directly (no snapshot
        to ship)."""
        costs, tasks = shard
        context = self.make_context(costs) if tasks else None
        results = []
        for task in tasks:
            tree = self._route_one(costs, task, context)
            results.append(
                (task.net_index, tuple(tree.sinks), tuple(tree.edges), tree.method)
            )
        return results, {}

    def _shard(self, tasks: List[NetTask]) -> List[List[NetTask]]:
        """Split a batch into one contiguous shard per worker."""
        num_shards = min(self.num_workers, len(tasks))
        size, extra = divmod(len(tasks), num_shards)
        shards: List[List[NetTask]] = []
        start = 0
        for i in range(num_shards):
            end = start + size + (1 if i < extra else 0)
            shards.append(tasks[start:end])
            start = end
        return shards


EXECUTOR_BACKENDS = {
    SerialExecutor.backend: SerialExecutor,
    ProcessExecutor.backend: ProcessExecutor,
}


def make_executor(
    backend: str,
    graph: RoutingGraph,
    oracle: SteinerOracle,
    bifurcation: BifurcationModel,
    seed: int,
    num_workers: Optional[int] = None,
) -> BatchExecutor:
    """Construct an executor backend by name (``serial`` or ``process``)."""
    if backend == SerialExecutor.backend:
        return SerialExecutor(graph, oracle, bifurcation, seed)
    if backend == ProcessExecutor.backend:
        return ProcessExecutor(graph, oracle, bifurcation, seed, num_workers=num_workers)
    raise ValueError(
        f"unknown executor backend {backend!r}; available: {sorted(EXECUTOR_BACKENDS)}"
    )
