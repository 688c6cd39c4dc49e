"""The task map.

"Run these independent, pure tasks -- here or on worker processes -- and
give me the results in task order" is one idea, stated once:
:class:`WorkerPool`.  Its user is the shard layer's
:class:`~repro.shard.executor.RegionExecutor`, which routes the K regions
of one round; the process boundary sits at the region subproblem, while the
engine routes each batch of nets in-process
(:meth:`~repro.engine.engine.RoutingEngine.route_round`).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Callable, Optional, Sequence, Tuple

from repro import faults, obs

__all__ = ["WorkerPool"]

#: Seconds between a pool worker's checks that its parent is still alive.
PARENT_POLL_SECONDS = 0.25

#: Worker side of the process boundary: the route callable this pool worker
#: built from its payload (set once by :func:`_worker_init`).
_worker_route: Optional[Callable] = None


def _worker_init(payload_bytes: bytes, build: Callable) -> None:
    """The one pool initializer: unpickle the read-only payload and build
    the worker's route callable from it.  Trace writing and event publishing
    are the parent's alone -- a forked worker inherits the parent's tracer
    (file handle, span-id counter) and bus, so both are dropped here.

    A worker also exits once the process that started the pool is gone: a
    parent that dies hard (``os._exit``, SIGKILL) never terminates its pool,
    and the orphans would otherwise wait on the task queue forever."""
    global _worker_route
    import multiprocessing

    obs.drop_tracing()
    obs.configure_bus(None)
    threading.Thread(
        target=_exit_with_parent,
        args=(multiprocessing.parent_process().pid, os.getppid()),
        name="parent-watch",
        daemon=True,
    ).start()
    _worker_route = build(pickle.loads(payload_bytes))


def _exit_with_parent(creator: int, parent: int) -> None:
    """Poll until the pool's creator is gone, then exit without cleanup:
    there is nobody left to hand results to.  Gone means this process was
    re-parented (``parent`` is the creator, or the fork server it forked
    this worker through, which exits with the creator) or the creator's pid
    no longer exists (it died before this worker started)."""
    while os.getppid() == parent and _exists(creator):
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(1)


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:  # no such process, or a reused pid another user owns
        return False
    return True


def _worker_call(task):
    """The one worker-side call: route ``task`` against a fresh metrics
    registry and ship its snapshot (engine counters, A* pops, ...) back with
    the result; the parent merges the snapshots in task order, so pooled
    runs report the same counters as inline ones."""
    local = obs.MetricsRegistry()
    previous = obs.swap_registry(local)
    try:
        result = _worker_route(task)
    finally:
        obs.swap_registry(previous)
    return result, local.snapshot()


class WorkerPool:
    """The one task map -- and the one ``multiprocessing`` pool lifecycle --
    of the repo.

    :meth:`map` runs pure tasks inline or on pool workers and returns the
    results in task order; callers own only what a task *is*: the payload
    factory, the module-level ``build(payload) -> route(task)`` worker
    factory and the parent's inline ``route``.  The contract, stated once:

    * **Validation.**  ``start_method``, when given, is checked at
      construction -- pinning an unknown method raises :class:`ValueError`
      instead of silently falling back.  Unpinned pools prefer ``fork``
      (workers inherit ``sys.path``), then the platform default.
    * **Size.**  ``workers`` (required, positive) caps the pool; a pool is
      never larger than the task count of the call that starts it.
    * **Inline.**  With one worker, at most one task (nothing to overlap,
      skip the IPC) or no startable pool, the tasks run through ``route``
      in this process, in order.
    * **Lazy start.**  The pool is created by the first call that needs it;
      every worker is primed once by :func:`_worker_init` with the pickled
      ``payload()``.
    * **Degradation.**  When no pool can be started -- sandboxes routinely
      forbid ``fork``/semaphores -- one structured WARNING log record (and
      trace event) carries ``backend``, ``start_method``, the failure and
      ``degrade_message``; the failure is remembered and every later call
      runs inline.  Degradation costs parallelism, never correctness.
    * **Recovery and discard.**  Tasks lost with a dead worker are re-run
      through ``route``; a pool that saw a death (or was sabotaged) is torn
      down off-thread and the next call builds a fresh one.
    * **Metrics.**  Worker counters travel back with each result
      (:func:`_worker_call`) and are merged in task order; inline and
      retried tasks book into the parent registry directly.
    * **Teardown.**  :meth:`close` terminates *and joins* the workers and
      is idempotent.

    ``used`` records whether a pool was ever started (it stays ``True``
    after :meth:`close`; benchmarks read it to tell real pool runs from
    degraded ones), ``active`` whether one is live right now.
    """

    def __init__(
        self,
        backend: str,
        degrade_message: str,
        workers: int,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
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

    def start(self, payload: Callable, build: Callable, num_tasks: int) -> bool:
        """Ensure a live pool (of ``min(workers, num_tasks)`` processes when
        one has to be started); ``False`` when this environment cannot
        provide one.  ``payload`` is a zero-argument factory, called only
        when a pool is actually (re)started.  :meth:`map` calls this itself;
        it is public so a benchmark can pay the start-up outside its timed
        window."""
        if self._pool is not None:
            return True
        if self._unavailable:
            return False
        import multiprocessing

        initargs = (pickle.dumps(payload(), protocol=pickle.HIGHEST_PROTOCOL), build)
        try:
            if self.start_method is not None:
                context = multiprocessing.get_context(self.start_method)
            else:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    context = multiprocessing.get_context()
            self._pool = context.Pool(
                processes=min(self.workers, num_tasks),
                initializer=_worker_init,
                initargs=initargs,
            )
        except (ImportError, OSError, PermissionError, RuntimeError, AssertionError) as exc:
            # AssertionError is what the stdlib raises for daemonic nesting
            # ("daemonic processes are not allowed to have children") -- e.g.
            # a pool started from inside another pool's worker.
            # Degrading is exactly right there.
            obs.log_pool_degradation(
                self.backend, self.start_method, exc, self.degrade_message
            )
            obs.inc(f"pool.degraded.{self.backend}")
            self._unavailable = True
            return False
        self.used = True
        return True

    def map(
        self,
        tasks: Sequence,
        payload: Callable,
        build: Callable,
        route: Callable,
        fault: Optional[Tuple[str, Optional[int]]] = None,
        stall_timeout: float = 5.0,
    ) -> list:
        """``route(task)`` for every task, inline or on the pool (see the
        class docstring); returns the results aligned with ``tasks``.

        Pooled dispatch survives dead workers.  ``multiprocessing.Pool``
        replaces a worker that dies (OOM-killed, segfaulted, chaos-injected
        SIGKILL) but silently *loses the task the worker was executing* -- a
        plain ``pool.map`` then blocks forever on a result that will never
        arrive.  This collector submits each task as its own
        ``apply_async``, watches the pool's worker processes for deaths, and
        -- once every still-pending task can only be explained by a lost
        worker -- re-executes the pending tasks in the parent via ``route``.
        Tasks are pure functions of their inputs (the engine's determinism
        contract), so a re-execution, wherever it runs, is bit-identical to
        the result the dead worker would have produced.

        A death can also wedge the pool outright: a worker SIGKILLed while
        holding the shared task-queue lock starves every other worker.  When
        deaths were observed but completions stop for ``stall_timeout``
        seconds, the collector gives up on the pool and recovers *all*
        pending tasks in-process.  And because a wedge can surface only on
        the *next* dispatch (the victim died after this call's results were
        in), **any** observed death discards the pool; the next call
        rebuilds it from the payload factory -- cheap, and it closes the
        hang window for good.

        ``fault`` names the ``(kind, round)`` chaos fault of this choke
        point; when it fires (asked only once the call is pooled), one
        worker is killed right after the tasks are dispatched -- the moment
        it is most likely mid-task.  A sabotaged pool is discarded even when
        no death was observed during the call: a worker killed *after* its
        last task leaves no pending work to recover, but it may die holding
        the task-queue lock and wedge the next dispatch with no observable
        deaths (the pool respawns its ``_pool`` entry).

        Worker exceptions (as opposed to worker *deaths*) propagate
        unchanged.
        """
        tasks = list(tasks)
        if not (self.workers > 1 and len(tasks) > 1 and self.start(payload, build, len(tasks))):
            return [route(task) for task in tasks]
        pool = self._pool
        sabotage = faults.pool_sabotage(*fault) if fault is not None else None
        pending = {
            index: pool.apply_async(_worker_call, (task,)) for index, task in enumerate(tasks)
        }
        if sabotage is not None:
            # Give the workers a moment to pick the tasks up: killing a busy
            # worker loses its task (the case under test); killing an idle one
            # can only wedge the queue (the stall path below).
            time.sleep(0.05)
            sabotage(pool)
        # (result, worker metrics snapshot) per task; retried tasks book
        # their counters into the parent registry directly and ship none.
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
                results[index] = (route(tasks[index]), None)
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
        # Fixed task order keeps the merged counters deterministic.
        for _result, worker_metrics in results:
            obs.merge_snapshot(worker_metrics)
        return [result for result, _worker_metrics in results]

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
