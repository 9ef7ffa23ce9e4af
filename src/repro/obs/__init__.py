"""Observability: tracing spans, metrics, progress telemetry, exporters.

Four pillars, all zero-cost when disabled:

- :mod:`repro.obs.trace` -- nestable wall-clock spans emitted as JSONL
  events.  The global tracer defaults to a no-op; enable it with
  :func:`enable_tracing` (or the ``REPRO_TRACE`` environment variable,
  read once at import, for commands that install no tracer themselves).
- :mod:`repro.obs.metrics` -- a registry of counters, gauges and
  histograms that the SAT solver, the static analyses, the cache and the
  pipeline executor publish into.  Defaults to a no-op registry; enable
  with :func:`enable_metrics`.
- :mod:`repro.obs.progress` -- live solver progress snapshots, written by
  the tracer as heartbeat lines in the trace file every
  ``heartbeat_interval`` conflicts (an argument of :func:`enable_tracing`,
  or ``REPRO_PROGRESS``), and tailed by :class:`HeartbeatMonitor` for the
  ``repro pipeline --watch`` view.
- :mod:`repro.obs.view` / :mod:`repro.obs.export` -- rendering and
  standard-format export: span trees and hotspot tables for ``repro
  trace``, Chrome trace-event JSON for Perfetto, Prometheus text
  exposition for scrapers.

:mod:`repro.obs.cost` is not a pillar: it has no global instance and no
switch.  A :class:`CostLedger` attributes metered work (solver
conflicts, cache traffic, PDP cache hits, wall-clock) to
``(trace_id, device, bundle, signature)`` accounts, and each one belongs
to the pipeline run or the device session that charges it.

Pipeline worker processes get tracing, heartbeats and metrics from the
telemetry envelope each task carries (see
:mod:`repro.pipeline.executor`), never from the environment, so they
behave the same whether the pool forks or spawns.

Instrumentation never feeds cache keys (tracer/registry/ledger state is
not part of any content hash) and never touches analysis outputs, so
enabling or disabling observability cannot perturb the byte-identical
serial/parallel guarantee or invalidate cached pipeline entries.
"""

from repro.obs.cost import COST_FIELDS, CostKey, CostLedger
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    chrome_trace,
    cost_metrics_snapshot,
    make_metrics_server,
    render_prometheus,
    sanitize_metric_name,
    write_chrome_trace,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    enable_metrics,
    get_metrics,
    set_metrics,
)
from repro.obs.progress import HeartbeatMonitor, ProgressSnapshot
from repro.obs.trace import (
    DEFAULT_INTERVAL,
    NULL_TRACER,
    PROGRESS_ENV,
    TRACE_ENV,
    InMemoryTracer,
    JsonlTracer,
    NullTracer,
    SpanRecord,
    TraceContext,
    Tracer,
    adopt_trace_context,
    current_trace_context,
    current_trace_id,
    enable_tracing,
    get_tracer,
    new_trace_id,
    read_events,
    read_trace,
    set_tracer,
    span,
)
from repro.obs.view import aggregate_spans, render_hotspots, render_span_tree

__all__ = [
    "COST_FIELDS",
    "CostKey",
    "CostLedger",
    "Counter",
    "DEFAULT_INTERVAL",
    "Gauge",
    "HeartbeatMonitor",
    "Histogram",
    "InMemoryTracer",
    "JsonlTracer",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "PROGRESS_ENV",
    "PROMETHEUS_CONTENT_TYPE",
    "ProgressSnapshot",
    "SpanRecord",
    "TRACE_ENV",
    "TraceContext",
    "Tracer",
    "adopt_trace_context",
    "aggregate_spans",
    "chrome_trace",
    "cost_metrics_snapshot",
    "current_trace_context",
    "current_trace_id",
    "enable_metrics",
    "enable_tracing",
    "get_metrics",
    "get_tracer",
    "make_metrics_server",
    "new_trace_id",
    "read_events",
    "read_trace",
    "render_hotspots",
    "render_prometheus",
    "render_span_tree",
    "sanitize_metric_name",
    "set_metrics",
    "set_tracer",
    "span",
    "write_chrome_trace",
]
