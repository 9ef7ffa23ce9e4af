"""Observability: tracing spans, metrics, progress telemetry, exporters.

- :mod:`repro.obs.trace` -- nestable wall-clock spans emitted as JSONL
  events.  The active tracer is a context variable: library code reads
  it with :func:`current_tracer` (a no-op that costs one method call
  per span unless someone installed another), and its owner installs
  it for a block with :func:`tracing`.  The owners are a CLI command
  (``pipeline --trace``/``--watch``, else the ``REPRO_TRACE``
  environment variable), a pipeline task and a ``repro serve`` batch;
  importing this package installs nothing.
- :mod:`repro.obs.metrics` -- counters, gauges and histograms in a
  :class:`MetricsRegistry`.  There is no global registry: a pipeline run
  and the ``repro serve`` daemon each create one and are the only code
  that counts into it, reading the accounts the solver, the engine, the
  cache and the enforcement layer keep themselves.
- :mod:`repro.obs.progress` -- live solver progress snapshots, written by
  the tracer as heartbeat lines in the trace file every
  ``heartbeat_interval`` conflicts (an argument of
  :class:`JsonlTracer`), and tailed by :class:`HeartbeatMonitor` for
  the ``repro pipeline --watch`` view.
- :mod:`repro.obs.view` / :mod:`repro.obs.export` -- rendering and
  standard-format export: span trees and hotspot tables for ``repro
  trace``, Chrome trace-event JSON for Perfetto, Prometheus text
  exposition for scrapers.

:mod:`repro.obs.cost` has no global instance either: a
:class:`CostLedger` attributes metered work (solver conflicts, cache
traffic, PDP cache hits, wall-clock) to
``(trace_id, device, bundle, signature)`` accounts, and each one belongs
to the pipeline run or the device session that charges it.

Pipeline worker processes get tracing and heartbeats from the telemetry
envelope each task carries (see :mod:`repro.pipeline.executor`), never
from the environment or a process global, so they behave the same
whether the pool forks or spawns.  Workers count nothing into a
registry: their payloads carry the stats the orchestrator books.

Instrumentation never feeds cache keys (tracer/registry/ledger state is
not part of any content hash) and never touches analysis outputs, so
enabling or disabling tracing cannot perturb the byte-identical
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
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import HeartbeatMonitor, ProgressSnapshot
from repro.obs.trace import (
    DEFAULT_INTERVAL,
    NULL_TRACER,
    InMemoryTracer,
    JsonlTracer,
    NullTracer,
    SpanRecord,
    TraceContext,
    Tracer,
    adopt_trace_context,
    current_trace_context,
    current_trace_id,
    current_tracer,
    new_trace_id,
    read_events,
    read_trace,
    tracing,
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
    "NULL_TRACER",
    "NullTracer",
    "PROMETHEUS_CONTENT_TYPE",
    "ProgressSnapshot",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "adopt_trace_context",
    "aggregate_spans",
    "chrome_trace",
    "cost_metrics_snapshot",
    "current_trace_context",
    "current_trace_id",
    "current_tracer",
    "make_metrics_server",
    "new_trace_id",
    "read_events",
    "read_trace",
    "render_hotspots",
    "render_prometheus",
    "render_span_tree",
    "sanitize_metric_name",
    "tracing",
    "write_chrome_trace",
]
