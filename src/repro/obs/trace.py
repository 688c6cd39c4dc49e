"""Structured tracing: spans and events written as JSON lines.

A trace is one append-only JSON-lines file.  The first record is a header
pinning the schema version; every later record is a ``span`` (a named,
timed, attributed interval with a parent pointer), an ``event`` (a point
in time), or a final ``metrics`` dump written on close.  The span parent
pointers reconstruct the full round -> region -> batch tree of a routing
run, which is what ``python -m repro trace summarize`` renders.

Tracing is **disabled by default** and designed for near-zero overhead in
that state: :func:`span` returns one shared no-op context manager and
:func:`event` returns immediately, so instrumented hot paths pay a single
module-global read when no trace file is configured.  Worker processes of
the engine and shard pools never inherit the parent's tracer -- their
measurements travel back inside the existing task/outcome transports as
metric snapshots (see :mod:`repro.obs.metrics`), not as trace records, so
the trace file has exactly one writer process.

Thread-safety: the daemon traces concurrent jobs from several threads.
Record writes are serialised by a lock and the span stack (which provides
parent ids) is thread-local, so interleaved spans from different threads
nest correctly within their own thread.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_FORMAT",
    "Span",
    "Tracer",
    "get_tracer",
    "configure_tracing",
    "close_tracing",
    "drop_tracing",
    "span",
    "event",
]

#: Pinned trace schema version; readers refuse other versions rather than
#: mis-parsing (see :mod:`repro.obs.summary`).
TRACE_SCHEMA_VERSION = 1
TRACE_FORMAT = "repro-trace"


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """One named, timed interval of a trace (used as a context manager)."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_started", "_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None

    def set(self, **attrs: object) -> "Span":
        """Attach attributes discovered mid-span (e.g. routed-net counts)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        # Wall stamp for display/alignment only; the duration below comes
        # from the monotonic clock so NTP steps can't produce negative or
        # inflated span times.
        self._wall = time.time()
        self._started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.monotonic() - self._started
        self._tracer._pop(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._emit(
            {
                "type": "span",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self._wall,
                "duration": duration,
                "tid": threading.get_ident(),
                "attrs": self.attrs,
            }
        )
        return False


class Tracer:
    """A JSON-lines trace writer bound to one output file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack = threading.local()
        self._closed = False
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._file = open(path, "w", encoding="utf-8")
        self._emit(
            {
                "type": "trace_header",
                "format": TRACE_FORMAT,
                "schema": TRACE_SCHEMA_VERSION,
                "pid": os.getpid(),
                "created": time.time(),
            }
        )

    # ------------------------------------------------------------------ API
    def span(self, name: str, **attrs: object) -> Span:
        """A new span; the record is written when the span exits."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Write one point-in-time record (parented to the current span)."""
        stack = getattr(self._stack, "spans", None)
        parent = stack[-1].span_id if stack else None
        self._emit(
            {
                "type": "event",
                "name": name,
                "time": time.time(),
                "parent_id": parent,
                "tid": threading.get_ident(),
                "attrs": attrs,
            }
        )

    def close(self, metrics_snapshot: Optional[Dict[str, object]] = None) -> None:
        """Write the final metrics dump and seal the file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            if metrics_snapshot is not None:
                self._write({"type": "metrics", "snapshot": metrics_snapshot})
            self._write({"type": "trace_end", "closed": time.time()})
            self._closed = True
            self._file.close()

    # ------------------------------------------------------------ internals
    def _push(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        with self._lock:
            self._next_id += 1
            span.span_id = self._next_id
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", [])
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exits must not corrupt the stack
            stack.remove(span)

    def _write(self, record: Dict[str, object]) -> None:
        self._file.write(json.dumps(record, default=str) + "\n")

    def _emit(self, record: Dict[str, object]) -> None:
        with self._lock:
            if self._closed:
                return
            self._write(record)
            self._file.flush()


# --------------------------------------------------------------------------
# The process-global tracer.  One per process, installed by the CLI's
# --trace flag (or a daemon job's trace param); ``None`` = tracing disabled.
# --------------------------------------------------------------------------

_GLOBAL: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` while tracing is disabled."""
    return _GLOBAL


def configure_tracing(path: str) -> Tracer:
    """Install a process-global tracer writing to ``path``.

    Replaces (and closes) any previously installed tracer.
    """
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.close()
    _GLOBAL = Tracer(path)
    return _GLOBAL


def close_tracing(metrics_snapshot: Optional[Dict[str, object]] = None) -> None:
    """Close and uninstall the global tracer (no-op when none is active)."""
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.close(metrics_snapshot)
        _GLOBAL = None


def drop_tracing() -> None:
    """Uninstall the global tracer *without* closing it: a forked pool
    worker inherits the parent's tracer, whose file and span ids are the
    parent's to write (trace writing is single-process)."""
    global _GLOBAL
    _GLOBAL = None


def span(name: str, **attrs: object):
    """A span on the global tracer, or the shared no-op when disabled."""
    tracer = _GLOBAL
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: object) -> None:
    """An event on the global tracer (dropped when tracing is disabled)."""
    tracer = _GLOBAL
    if tracer is not None:
        tracer.event(name, **attrs)
