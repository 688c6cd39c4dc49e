"""Observability for the routing stack: tracing, metrics, and logging.

Import this module as ``from repro import obs`` and use:

* ``obs.span("round", round=i)`` / ``obs.event(...)`` — structured tracing
  (no-ops unless ``--trace PATH`` configured a tracer);
* ``obs.inc("engine.oracle_calls")`` et al — always-on process-safe
  metrics, aggregated across pool workers via snapshot shipping;
* ``obs.configure_logging("debug")`` — stdlib logging for the ``repro.*``
  logger tree;
* ``obs.publish("round", ...)`` / ``obs.bus_context(job_id=...)`` — the
  live pub/sub event bus (no-ops unless a daemon installed one);
* ``obs.RoundSeries`` / ``obs.round_sample`` — per-round time-series
  samples recorded by the router;
* ``obs.render_prometheus`` / ``obs.chrome_trace`` — exporters to the
  Prometheus text exposition and Chrome trace-event formats.

See DESIGN.md's "Observability" and "Live telemetry" sections for the
span taxonomy, the metric-ownership rules that keep serial and pooled
runs reporting identical counters, and the event schema.
"""

from .bus import (
    DEFAULT_QUEUE_DEPTH,
    EVENT_SCHEMA_VERSION,
    EventBus,
    Subscription,
    bus_context,
    configure_bus,
    get_bus,
    publish,
)
from .export import chrome_trace, render_prometheus
from .logcfg import configure_logging, get_logger, log_pool_degradation
from .metrics import (
    SAMPLE_WINDOW,
    MetricsRegistry,
    active_registry,
    default_registry,
    inc,
    merge_snapshot,
    observe,
    set_gauge,
    swap_registry,
    use_registry,
)
from .timeseries import DEFAULT_SERIES_MAXLEN, RoundSeries, round_sample
from .trace import (
    NOOP_SPAN,
    TRACE_FORMAT,
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    close_tracing,
    configure_tracing,
    drop_tracing,
    event,
    get_tracer,
    span,
)

__all__ = [
    "NOOP_SPAN",
    "TRACE_FORMAT",
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "close_tracing",
    "configure_tracing",
    "drop_tracing",
    "event",
    "get_tracer",
    "span",
    "SAMPLE_WINDOW",
    "MetricsRegistry",
    "active_registry",
    "default_registry",
    "inc",
    "merge_snapshot",
    "observe",
    "set_gauge",
    "swap_registry",
    "use_registry",
    "DEFAULT_QUEUE_DEPTH",
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "Subscription",
    "bus_context",
    "configure_bus",
    "get_bus",
    "publish",
    "DEFAULT_SERIES_MAXLEN",
    "RoundSeries",
    "round_sample",
    "chrome_trace",
    "render_prometheus",
    "configure_logging",
    "get_logger",
    "log_pool_degradation",
]
