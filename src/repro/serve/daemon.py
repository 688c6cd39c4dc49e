"""The routing service daemon: JSON-lines over TCP, stdlib only.

:class:`ServeDaemon` multiplexes concurrent routing jobs across engine
backends.  A ``ThreadingTCPServer`` answers one JSON object per line
(``submit`` / ``status`` / ``result`` / ``cancel`` / ``jobs`` / ``sessions``
/ ``history`` / ``health`` / ``metrics`` / ``ping`` / ``shutdown``); actual
routing runs on a small worker pool, so slow jobs never block the control
plane.  The one exception to one-line-per-request is ``watch``: it holds
the connection open and streams JSON-lines events from the daemon's
:class:`~repro.obs.bus.EventBus` (``round`` / ``region_done`` /
``seam_done`` / ``pool_degraded`` / ``job_state``) until the watched job
reaches a terminal state.  Publishing never blocks -- a stalled watcher
loses events to its bounded queue (``bus.dropped``), never stalls routing.
Each job is either a full route
(optionally opening a named persistent :class:`~repro.serve.session.RoutingSession`)
or an ECO delta against an existing session.

Cancellation is two-tier: a queued job's future is cancelled outright, a
running job is stopped cooperatively at its next round boundary (the
router's ``on_round_end`` hook raises :class:`~repro.serve.jobs.JobCancelled`),
which leaves no half-applied congestion state behind.

The wire protocol is deliberately primitive -- newline-delimited JSON over a
localhost socket -- so ``nc``/``telnet`` can poke it and the client needs
nothing beyond the standard library.
"""

from __future__ import annotations

import json
import os
import socketserver
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Optional, Tuple, cast

from repro import obs
from repro.engine.cache import reroute_stats
from repro.flowparams import build_flow, config_kwargs, validate_params
from repro.instances.chips import build_chip
from repro.router.router import GlobalRouter
from repro.serve.checkpoint import checkpoint_every_hook, try_resume_router
from repro.serve.jobs import JobCancelled, JobState, JobStore
from repro.serve.session import RoutingSession

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ServeDaemon"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642
#: Longest request line a connection may send (newline included).  Legitimate
#: requests are a few hundred bytes; the cap bounds what one client can make
#: the daemon buffer.
MAX_REQUEST_BYTES = 1 << 20


def _daemon_safe_start_method() -> str:
    """The region-pool start method for routers living inside the daemon.

    The daemon process is multi-threaded (listener, handler threads, job
    workers); ``fork`` -- the region pool's usual preference -- can copy a
    held lock into the child there, so in-daemon routers pin ``forkserver``
    (or ``spawn`` where unavailable) instead.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def _chain_hooks(*hooks):
    """Compose ``on_round_end`` callbacks, invoked left to right."""

    def hook(router, round_index):
        for callback in hooks:
            callback(router, round_index)

    return hook


class _Handler(socketserver.StreamRequestHandler):
    """One connection: any number of JSON-line requests until EOF.

    ``watch`` is the streaming exception: it takes over the connection and
    writes event lines until the watched job finishes (or the client goes
    away), then the connection is done.
    """

    def handle(self) -> None:
        daemon: "ServeDaemon" = self.server.daemon_ref  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except (OSError, ValueError):
                return
            if not line:
                return
            if len(line) > MAX_REQUEST_BYTES:
                # A client streaming bytes without a newline must not grow
                # the daemon's memory: name the error and drop this
                # connection (the rest of the line stays unread).
                self._send(
                    {
                        "ok": False,
                        "error": "ValueError: request line exceeds "
                        f"{MAX_REQUEST_BYTES} bytes",
                    }
                )
                return
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                if request.get("op") == "watch":
                    daemon.handle_watch(request, self.wfile)
                    return
                response = daemon.handle(request)
            except Exception as exc:  # protocol surface: never kill the socket
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            if not self._send(response):
                return

    def _send(self, response: Dict[str, object]) -> bool:
        """Write one response line; ``False`` when the client has gone."""
        try:
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
        except (OSError, ValueError):
            return False
        return True


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServeDaemon:
    """The routing service: job store + worker pool + TCP control plane.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after construction).
    job_workers:
        Concurrent routing jobs (each may itself fan out over a process
        pool when its engine places a batch there).
    state_dir:
        Optional directory for job persistence across daemon restarts:
        the job table ``jobs.sqlite3`` and the jobs' auto-checkpoints.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        job_workers: int = 2,
        state_dir: Optional[str] = None,
    ) -> None:
        if job_workers < 1:
            raise ValueError("job_workers must be positive")
        self.store = JobStore(state_dir, adopt=True)
        #: Lazily created fallback directory for auto-checkpoints of
        #: daemons running without a ``state_dir``.
        self._checkpoint_scratch: Optional[str] = None
        #: ``None`` marks a name reserved by a route job still in flight.
        self.sessions: Dict[str, Optional[RoutingSession]] = {}
        self._session_locks: Dict[str, threading.Lock] = {}
        self._sessions_guard = threading.Lock()
        self._futures: Dict[str, Future] = {}
        self._cancel_flags: Dict[str, threading.Event] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-serve"
        )
        self._server = _Server((host, port), _Handler)
        self._server.daemon_ref = self  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        self._closed = False
        self._started_monotonic = time.monotonic()
        #: The live event bus ``watch`` connections subscribe to.  Also
        #: installed as the process-global bus (unless the host application
        #: already installed one) so deeper layers -- the shard
        #: coordinator's ``region_done``/``seam_done``, the pool degradation
        #: warning -- publish onto it via ``obs.publish``.
        self.bus = obs.EventBus()
        self._owns_global_bus = obs.get_bus() is None
        if self._owns_global_bus:
            obs.configure_bus(self.bus)
        # Jobs a crashed predecessor left mid-flight: the store re-queued
        # the re-runnable ones (see JobStore adopt); resubmit them now that
        # the bus exists.  A job that auto-checkpointed resumes from its
        # last durable round, the rest re-run from round 0 -- either way
        # the result is bit-identical to an uninterrupted run.
        if self.store.adopted_jobs:
            obs.inc("recovery.jobs_adopted", len(self.store.adopted_jobs))
            obs.get_logger("serve").warning(
                "re-adopted %d interrupted job(s): %s",
                len(self.store.adopted_jobs),
                ", ".join(self.store.adopted_jobs),
                extra={"adopted": list(self.store.adopted_jobs)},
            )
            for job_id in self.store.adopted_jobs:
                self._cancel_flags[job_id] = threading.Event()
                self._publish_job_state(job_id, adopted=True)
                self._futures[job_id] = self._pool.submit(self._run_job, job_id)

    # ----------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)``."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI mode)."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> Tuple[str, int]:
        """Serve on a background thread; returns the bound address."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._serve_thread.start()
        return self.address

    def shutdown(self) -> None:
        """Stop accepting requests and release all resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for event in self._cancel_flags.values():
            event.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.store.close()
        if self._owns_global_bus and obs.get_bus() is self.bus:
            obs.configure_bus(None)

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------- protocol
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one request object to its ``op`` handler."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not isinstance(op, str) or op.startswith("_"):
            return {"ok": False, "error": f"unknown op {op!r}"}
        return handler(request)

    def _op_ping(self, request: Dict[str, object]) -> Dict[str, object]:
        with self._sessions_guard:
            session_names = sorted(
                name for name, session in self.sessions.items() if session is not None
            )
        return {
            "ok": True,
            "pong": True,
            "jobs": self.store.counts(),
            "sessions": session_names,
        }

    def _op_submit(self, request: Dict[str, object]) -> Dict[str, object]:
        kind = request.get("kind")
        if kind not in ("route", "eco"):
            return {"ok": False, "error": f"unknown job kind {kind!r}"}
        params = request.get("params")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            return {"ok": False, "error": "params must be a JSON object"}
        # An unknown or ill-typed param is refused here, by name, instead of
        # failing the job later or silently routing something else (the
        # connection handler turns the ValueError into the error response).
        validate_params(str(kind), params)
        job = self.store.submit(str(kind), params)
        self._cancel_flags[job.job_id] = threading.Event()
        self._publish_job_state(job.job_id)
        self._futures[job.job_id] = self._pool.submit(self._run_job, job.job_id)
        return {"ok": True, "job_id": job.job_id}

    def _op_status(self, request: Dict[str, object]) -> Dict[str, object]:
        snapshot = self.store.snapshot(str(request.get("job_id")), with_result=False)
        return {"ok": True, "job": snapshot}

    def _op_result(self, request: Dict[str, object]) -> Dict[str, object]:
        snapshot = self.store.snapshot(str(request.get("job_id")), with_result=True)
        return {"ok": True, "job": snapshot}

    def _op_cancel(self, request: Dict[str, object]) -> Dict[str, object]:
        job_id = str(request.get("job_id"))
        self.store.get(job_id)  # raises for unknown ids
        future = self._futures.get(job_id)
        if future is not None and future.cancel():
            # The job never reaches _run_job, whose ``finally`` would have
            # dropped these entries.
            self._futures.pop(job_id, None)
            self._cancel_flags.pop(job_id, None)
            self.store.mark_cancelled(job_id)
            self._publish_job_state(job_id)
            return {"ok": True, "status": JobState.CANCELLED}
        flag = self._cancel_flags.get(job_id)
        if flag is not None:
            flag.set()
        return {"ok": True, "status": self.store.get(job_id).status}

    def _op_jobs(self, request: Dict[str, object]) -> Dict[str, object]:
        return {"ok": True, "jobs": self.store.snapshots(with_result=False)}

    def _op_metrics(self, request: Dict[str, object]) -> Dict[str, object]:
        """Dump the daemon-wide metrics registry (counters/gauges/histograms).

        ``format: "prometheus"`` returns the same snapshot rendered in the
        Prometheus text exposition format instead of the raw JSON.
        """
        fmt = str(request.get("format") or "json")
        snapshot = obs.default_registry().snapshot()
        if fmt == "prometheus":
            return {
                "ok": True,
                "format": "prometheus",
                "text": obs.render_prometheus(snapshot),
            }
        if fmt != "json":
            return {"ok": False, "error": f"unknown metrics format {fmt!r}"}
        return {"ok": True, "metrics": snapshot}

    def _op_history(self, request: Dict[str, object]) -> Dict[str, object]:
        """A job's per-round time-series samples (oldest first)."""
        job_id = str(request.get("job_id"))
        return {"ok": True, "job_id": job_id, "history": self.store.history(job_id)}

    def _op_health(self, request: Dict[str, object]) -> Dict[str, object]:
        """The daemon heartbeat: uptime, queue depth, bus and pool state."""
        counts = self.store.counts()
        counters = obs.default_registry().snapshot().get("counters", {})
        pool_degradations = {
            name[len("pool.degraded.") :]: value
            for name, value in counters.items()  # type: ignore[union-attr]
            if name.startswith("pool.degraded.")
        }
        with self._sessions_guard:
            sessions = sum(1 for s in self.sessions.values() if s is not None)
        return {
            "ok": True,
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "jobs": counts,
            "queue_depth": counts.get(JobState.QUEUED, 0),
            "active_jobs": counts.get(JobState.RUNNING, 0),
            "sessions": sessions,
            "watchers": self.bus.subscriber_count,
            "events_published": self.bus.published,
            "events_dropped": counters.get("bus.dropped", 0),  # type: ignore[union-attr]
            "pool_degradations": pool_degradations,
            "event_schema": obs.EVENT_SCHEMA_VERSION,
            "trace_schema": obs.TRACE_SCHEMA_VERSION,
        }

    def _op_sessions(self, request: Dict[str, object]) -> Dict[str, object]:
        with self._sessions_guard:
            sessions = [
                {
                    "name": session.name,
                    "nets": session.num_nets,
                    "generation": session.generation,
                }
                for session in self.sessions.values()
                if session is not None
            ]
        return {"ok": True, "sessions": sorted(sessions, key=lambda s: s["name"])}

    def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        # Respond first, then tear down from a separate thread so the
        # handler's socket write is not racing the server close.  Not a
        # daemon thread (the default for a handler thread's child): the
        # process must not exit before the job pool drains and the store
        # closes.
        threading.Thread(target=self.shutdown, name="repro-serve-stop", daemon=False).start()
        return {"ok": True, "stopping": True}

    # ------------------------------------------------------------- watching
    def _publish_job_state(self, job_id: str, **extra: object) -> None:
        """Publish the job's *current* store state as a ``job_state`` event.

        Reading the status back from the store (instead of trusting the
        caller) respects the terminal-state guard: a ``mark_done`` racing a
        cancellation publishes the state that actually stuck.
        """
        try:
            job = self.store.get(job_id)
        except KeyError:
            return
        self.bus.publish("job_state", job_id=job_id, status=job.status, kind=job.kind, **extra)

    def handle_watch(self, request: Dict[str, object], wfile) -> None:
        """Stream a job's events as JSON lines until it reaches a terminal
        state (called by the connection handler; owns the connection).

        The subscription is taken out *before* the job's status is read so
        no event can fall between the snapshot and the stream.  A watcher
        that stops reading fills its bounded queue and loses oldest events
        (``bus.dropped``); the publishing side never blocks on it.  Socket
        writes happen on this handler thread only, so a dead client at most
        ends this stream.
        """

        def write_line(record: Dict[str, object]) -> bool:
            try:
                wfile.write((json.dumps(record) + "\n").encode("utf-8"))
                wfile.flush()
                return True
            except (OSError, ValueError):
                return False

        job_id = str(request.get("job_id"))
        sub = self.bus.subscribe(match=lambda e: e.get("job_id") == job_id)
        try:
            try:
                job = self.store.get(job_id)
            except KeyError:
                write_line({"ok": False, "error": f"unknown job {job_id!r}"})
                return
            if not write_line(
                {
                    "ok": True,
                    "watching": job_id,
                    "schema": obs.EVENT_SCHEMA_VERSION,
                    "status": job.status,
                }
            ):
                return
            terminal_sent = False
            while not self._closed:
                event = sub.get(timeout=0.2)
                if event is not None:
                    if not write_line(event):
                        return
                    if event.get("event") == "job_state" and (
                        event.get("status") in JobState.TERMINAL
                    ):
                        terminal_sent = True
                        break
                    continue
                # Queue idle: poll the store so a watcher attached after the
                # job finished (or whose terminal event was dropped) still
                # terminates with a synthesized job_state line.
                try:
                    job = self.store.get(job_id)
                except KeyError:
                    break
                if job.status in JobState.TERMINAL:
                    for event in sub.drain():
                        if not write_line(event):
                            return
                        if event.get("event") == "job_state" and (
                            event.get("status") in JobState.TERMINAL
                        ):
                            terminal_sent = True
                    if not terminal_sent:
                        write_line(
                            {
                                "event": "job_state",
                                "schema": obs.EVENT_SCHEMA_VERSION,
                                "job_id": job_id,
                                "status": job.status,
                                "kind": job.kind,
                                "time": time.time(),
                            }
                        )
                    break
        finally:
            self.bus.unsubscribe(sub)

    # ------------------------------------------------------------ job logic
    def _run_job(self, job_id: str) -> None:
        cancel = self._cancel_flags[job_id]
        # Every event published from this thread (and anything routing calls
        # on it: the shard coordinator's region_done/seam_done, the pool
        # degradation warning) carries the owning job's id.
        with obs.bus_context(job_id=job_id):
            try:
                if cancel.is_set():
                    raise JobCancelled()
                self.store.mark_running(job_id)
                self._publish_job_state(job_id)
                job = self.store.get(job_id)
                job_tracer = None
                trace_path = job.params.get("trace")
                if trace_path is not None and obs.get_tracer() is None:
                    # Job-scoped tracing (``submit --trace``).  A daemon-wide
                    # tracer (``serve --trace``) takes precedence, and only one
                    # job-scoped trace can be active at a time -- the tracer is
                    # a process-global single-writer.
                    job_tracer = obs.configure_tracing(str(trace_path))
                try:
                    with obs.span("job", job_id=job_id, kind=job.kind):
                        if job.kind == "route":
                            result = self._run_route(job_id, job.params, cancel)
                        else:
                            result = self._run_eco(job_id, job.params, cancel)
                finally:
                    if job_tracer is not None and obs.get_tracer() is job_tracer:
                        obs.close_tracing(obs.default_registry().snapshot())
                self.store.mark_done(job_id, result)
                obs.inc("serve.jobs_done")
            except JobCancelled:
                self.store.mark_cancelled(job_id)
                obs.inc("serve.jobs_cancelled")
            except Exception as exc:
                self.store.mark_failed(job_id, f"{type(exc).__name__}: {exc}")
                obs.inc("serve.jobs_failed")
            finally:
                self._publish_job_state(job_id)
                self._futures.pop(job_id, None)
                self._cancel_flags.pop(job_id, None)

    def _round_hook(self, job_id: str, cancel: threading.Event):
        """The per-round callback of an in-daemon routing flow: cooperative
        cancellation plus live progress into the job store (``status`` then
        reports round counts while the job runs) and onto the trace."""

        def hook(router: GlobalRouter, round_index: int) -> None:
            if cancel.is_set():
                raise JobCancelled()
            progress = {
                "round": round_index + 1,
                "rounds_total": router.config.num_rounds,
                "overflow": router.congestion.overflow(),
            }
            self.store.update_progress(job_id, progress)
            # The router recorded its full round sample just before calling
            # this hook; copy it into the job's persisted time-series and
            # stream it to watchers.
            sample = router.series.latest() or progress
            self.store.append_history(job_id, sample)
            self.bus.publish(
                "round",
                job_id=job_id,
                rounds_remaining=router.config.num_rounds - (round_index + 1),
                **sample,
            )
            obs.event("job_round", job_id=job_id, **progress)
            obs.inc("serve.rounds")

        return hook

    def _checkpoint_plan(
        self, job_id: str, params: Dict[str, object]
    ) -> Tuple[Optional[str], int]:
        """The ``(path, every)`` of a route job's auto-checkpointing, or
        ``(None, 0)`` when the job did not ask for it.

        The path is derived, not user-supplied: ``<state_dir>/<job_id>.ckpt``
        next to the job's persisted record, so a restarted daemon that
        re-adopts the job derives the same path and resumes from it.
        """
        every = params.get("checkpoint_every")
        if every is None:
            return None, 0
        base = self.store.state_dir
        if base is None:
            if self._checkpoint_scratch is None:
                self._checkpoint_scratch = tempfile.mkdtemp(prefix="repro-serve-ckpt-")
            base = self._checkpoint_scratch
        # ``every`` passed build_flow's validation: a positive integer.
        return os.path.join(base, f"{job_id}.ckpt"), cast(int, every)

    def _run_route(
        self, job_id: str, params: Dict[str, object], cancel: threading.Event
    ) -> Dict[str, object]:
        # The same call a one-shot `route` makes (it re-validates, so a
        # record re-adopted from an older daemon's state dir fails by name).
        # The daemon is multi-threaded: its region pools must not fork.
        spec, oracle, config = build_flow(params)
        config = replace(config, shard_start_method=_daemon_safe_start_method())
        graph, netlist = build_chip(spec)
        hook = self._round_hook(job_id, cancel)
        checkpoint_path, checkpoint_every = self._checkpoint_plan(job_id, params)
        if checkpoint_path is not None:
            # Cancellation/progress first, then the durable write: a round
            # whose checkpoint exists has definitely run its hooks.
            hook = _chain_hooks(
                hook, checkpoint_every_hook(checkpoint_path, checkpoint_every)
            )
        session_name = params.get("session")
        if session_name is not None:
            # Reserve the name atomically so two concurrent route jobs
            # cannot both pass the duplicate check and race the insert.
            with self._sessions_guard:
                if session_name in self.sessions:
                    raise ValueError(
                        f"session {session_name!r} already exists; submit an "
                        "eco job against it instead"
                    )
                self.sessions[session_name] = None
            try:
                session = RoutingSession(
                    graph, netlist, oracle, config, name=session_name
                )
                result = session.route(on_round_end=hook, resume_from=checkpoint_path)
            except BaseException:
                with self._sessions_guard:
                    if self.sessions.get(session_name) is None:
                        self.sessions.pop(session_name, None)
                raise
            with self._sessions_guard:
                self.sessions[session_name] = session
                self._session_locks[session_name] = threading.Lock()
            return {
                "result": result.as_dict(),
                "session": session_name,
                "backend": session.router.engine.backend,
            }
        router = GlobalRouter(graph, netlist, oracle, config)
        if checkpoint_path is not None:
            try_resume_router(router, checkpoint_path)
        result = router.run(on_round_end=hook)
        payload: Dict[str, object] = {
            "result": result.as_dict(),
            "session": None,
            "backend": router.engine.backend,
        }
        if config.shards > 1:
            stats = router.engine.stats
            payload["shards"] = stats.num_regions
            payload["interior_nets"] = list(stats.interior_nets)
            payload["seam_nets"] = stats.seam_nets
            payload["region_backend"] = router.engine.region_executor.backend
        if config.engine.reroute_cache:
            stats = reroute_stats(router.engine.round_reports)
            payload["cache"] = {"hits": stats.hits, "lookups": stats.lookups}
        return payload

    def _run_eco(
        self, job_id: str, params: Dict[str, object], cancel: threading.Event
    ) -> Dict[str, object]:
        session_name = str(params.get("session"))
        with self._sessions_guard:
            if self.sessions.get(session_name, "absent") is None:
                raise ValueError(
                    f"session {session_name!r} is still being created; retry "
                    "once its route job finishes"
                )
            session = self.sessions.get(session_name)
            lock = self._session_locks.get(session_name)
        if session is None or lock is None:
            raise ValueError(f"unknown session {session_name!r}")
        ops = params.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ValueError("eco jobs need a non-empty 'ops' list")
        with lock:  # ECOs against one session are serialised
            # ECO jobs may re-point the session's flow at a different shard
            # configuration (``eco --shards K --shard-workers N``); worker
            # counts are result-neutral, a changed K makes this re-route a
            # cold-equivalent one under the new decomposition.  The previous
            # configuration is restored when the flow fails or is cancelled:
            # a failed ECO must leave the session *exactly* as it was,
            # decomposition included.
            previous_config = session.config
            _, shard_overrides = config_kwargs(params)
            try:
                session.configure_sharding(**shard_overrides)
                report = session.apply_eco(
                    ops, on_round_end=self._round_hook(job_id, cancel)
                )
            except BaseException:
                session.config = previous_config
                raise
        payload = report.as_dict()
        payload["session"] = session_name
        return payload
