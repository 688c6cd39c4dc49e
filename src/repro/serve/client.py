"""Client for the routing service daemon (stdlib sockets + JSON lines).

:class:`ServeClient` opens one short-lived TCP connection per request,
writes a single JSON line, and reads a single JSON-line response -- the
simplest protocol that survives daemon restarts, thread pools, and shell
pipelines.  All CLI subcommands (``python -m repro submit`` etc.) and the
CI smoke job are built on it.  :meth:`ServeClient.watch` is the one
long-lived exception: it keeps its connection open and yields the job's
streamed events until the job reaches a terminal state.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, Iterator, List, Sequence

from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT
from repro.serve.jobs import JobState

__all__ = ["ServeError", "ServeClient"]


class ServeError(RuntimeError):
    """The daemon rejected a request or could not be reached."""


class ServeClient:
    """Talks the daemon's JSON-lines protocol.

    Parameters
    ----------
    host / port:
        The daemon's bind address.
    timeout:
        Socket timeout per request, in seconds.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------ transport
    def request(self, op: str, **payload: object) -> Dict[str, object]:
        """Send one request and return the response body.

        Raises :class:`ServeError` on transport failures and on responses
        with ``ok: false``.
        """
        message = dict(payload)
        message["op"] = op
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as conn:
                conn.sendall((json.dumps(message) + "\n").encode("utf-8"))
                with conn.makefile("r", encoding="utf-8") as reader:
                    line = reader.readline()
        except OSError as exc:
            raise ServeError(
                f"cannot reach routing daemon at {self.host}:{self.port} ({exc})"
            ) from exc
        if not line:
            raise ServeError("daemon closed the connection without responding")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServeError(f"malformed daemon response: {line!r}") from exc
        if not response.get("ok"):
            raise ServeError(str(response.get("error", "daemon refused the request")))
        return response

    # ------------------------------------------------------------- commands
    def ping(self) -> Dict[str, object]:
        return self.request("ping")

    def wait_until_up(self, timeout: float = 10.0, poll: float = 0.1) -> None:
        """Block until the daemon answers a ping (for CI/startup scripts)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.ping()
                return
            except ServeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    def submit_route(self, **params: object) -> str:
        """Submit a full-route job; returns the job id.

        ``shards=K`` (optionally ``shard_workers=N``) routes the job through
        the shard coordinator, exactly like ``python -m repro route --shards
        K``; its result payload then also reports ``shards`` /
        ``interior_nets`` / ``seam_nets`` / ``region_backend``.
        """
        response = self.request("submit", kind="route", params=params)
        return str(response["job_id"])

    def submit_eco(
        self, session: str, ops: Sequence[Dict[str, object]], **params: object
    ) -> str:
        """Submit an ECO job against a named session; returns the job id."""
        payload = dict(params)
        payload["session"] = session
        payload["ops"] = list(ops)
        response = self.request("submit", kind="eco", params=payload)
        return str(response["job_id"])

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's lifecycle record, without the result payload."""
        return self.request("status", job_id=job_id)["job"]  # type: ignore[return-value]

    def result(self, job_id: str) -> Dict[str, object]:
        """The job's full record including the result payload."""
        return self.request("result", job_id=job_id)["job"]  # type: ignore[return-value]

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.1
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns its record."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.result(job_id)
            if job["status"] in JobState.TERMINAL:
                return job
            if time.monotonic() >= deadline:
                raise ServeError(f"timed out waiting for {job_id}")
            time.sleep(poll)

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's status after the attempt."""
        return str(self.request("cancel", job_id=job_id)["status"])

    def jobs(self) -> List[Dict[str, object]]:
        return self.request("jobs")["jobs"]  # type: ignore[return-value]

    def metrics(self, format: str = "json") -> object:
        """The daemon-wide metrics registry snapshot.

        ``format="json"`` (default) returns the snapshot dict;
        ``format="prometheus"`` returns the text-exposition rendering.
        """
        if format == "prometheus":
            return self.request("metrics", format="prometheus")["text"]
        return self.request("metrics")["metrics"]

    def history(self, job_id: str) -> List[Dict[str, object]]:
        """The job's per-round time-series samples (oldest first)."""
        return self.request("history", job_id=job_id)["history"]  # type: ignore[return-value]

    def health(self) -> Dict[str, object]:
        """The daemon's heartbeat record (uptime, queue depth, bus state)."""
        return self.request("health")  # type: ignore[return-value]

    def watch(
        self, job_id: str, timeout: float = 600.0
    ) -> Iterator[Dict[str, object]]:
        """Stream a job's live events until it reaches a terminal state.

        Yields each event dict as the daemon publishes it (``round``,
        ``region_done``, ``seam_done``, ``pool_degraded``, ``job_state``).
        The stream ends when the daemon closes it -- after a terminal
        ``job_state`` -- or raises :class:`ServeError` after ``timeout``
        seconds without a single event line.
        """
        message = {"op": "watch", "job_id": job_id}
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=timeout
            ) as conn:
                conn.sendall((json.dumps(message) + "\n").encode("utf-8"))
                with conn.makefile("r", encoding="utf-8") as reader:
                    ack_line = reader.readline()
                    if not ack_line:
                        raise ServeError(
                            "daemon closed the watch stream without responding"
                        )
                    ack = json.loads(ack_line)
                    if not ack.get("ok"):
                        raise ServeError(
                            str(ack.get("error", "daemon refused the watch"))
                        )
                    for line in reader:
                        line = line.strip()
                        if not line:
                            continue
                        yield json.loads(line)
        except socket.timeout as exc:
            raise ServeError(
                f"watch of {job_id} timed out after {timeout}s"
            ) from exc
        except OSError as exc:
            raise ServeError(
                f"cannot reach routing daemon at {self.host}:{self.port} ({exc})"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ServeError(f"malformed watch event: {exc}") from exc

    def sessions(self) -> List[Dict[str, object]]:
        return self.request("sessions")["sessions"]  # type: ignore[return-value]

    def shutdown(self) -> None:
        self.request("shutdown")
