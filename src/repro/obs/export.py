"""Exporters: span JSONL -> Chrome trace-event JSON, metrics -> Prometheus.

Two standard-tooling escapes from the repo-local observability formats:

- :func:`chrome_trace` converts span records (plus progress heartbeat
  events) into the Chrome trace-event JSON object format, loadable in
  Perfetto / ``chrome://tracing``.  Every traced process -- the
  orchestrator and each pipeline pool worker -- becomes its own pid track
  (named via ``process_name`` metadata events); solver heartbeats become
  counter (``"ph": "C"``) tracks so conflicts/sec, learned-DB size and
  trail depth render as graphs under the worker that produced them.
- :func:`render_prometheus` renders a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as Prometheus text
  exposition format (version 0.0.4): ``HELP``/``TYPE`` comment lines,
  sanitized metric names, counters suffixed ``_total``, bucketed
  histograms as cumulative ``_bucket{le="..."}`` series and unbucketed
  ones as summaries, with min/max surfaced as companion gauges.
- :func:`make_metrics_server` wraps a snapshot provider in a stdlib
  ``ThreadingHTTPServer`` serving ``GET /metrics`` for scrape-based
  monitoring -- no third-party client library involved.
"""

from __future__ import annotations

import json
import logging
import math
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs.trace import SpanRecord

#: Content type Prometheus scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_METRIC_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


# ----------------------------------------------------------------------
# Chrome trace-event JSON


def _process_label(pid: int, root_names: Dict[int, List[str]]) -> str:
    """Human label for a pid track, derived from its root span names."""
    names = root_names.get(pid, [])
    if any(name == "pipeline.run" for name in names):
        return f"repro orchestrator (pid {pid})"
    return f"repro worker (pid {pid})"


#: Heartbeat fields rendered as Chrome counter tracks, in display order.
COUNTER_FIELDS = ("conflicts", "conflicts_per_sec", "learned", "trail")


def chrome_trace(
    spans: Sequence[SpanRecord],
    events: Iterable[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Convert spans + heartbeat events to a Chrome trace-event object.

    Completed spans become complete (``"X"``) events with microsecond
    timestamps; open spans (crashed workers) become begin (``"B"``) events
    with no matching end, which Perfetto renders as unfinished slices.
    ``events`` heartbeats (``{"event": "progress", ...}``) become counter
    tracks per pid.  All span events share ``tid`` 1 within a process --
    spans nest per thread by construction, and the pipeline's workers are
    single-threaded.
    """
    trace_events: List[Dict[str, Any]] = []
    root_names: Dict[int, List[str]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        if span.parent_id is None or span.parent_id not in ids:
            root_names.setdefault(span.pid, []).append(span.name)

    pids = sorted({s.pid for s in spans})
    event_list = [e for e in events if e.get("event") == "progress"]
    pids = sorted(set(pids) | {e.get("pid", 0) for e in event_list})
    for index, pid in enumerate(pids):
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": _process_label(pid, root_names)},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": index},
            }
        )

    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        base = {
            "name": span.name,
            "cat": "span",
            "ts": int(span.start * 1_000_000),
            "pid": span.pid,
            "tid": 1,
            "args": dict(span.attrs),
        }
        if span.open:
            trace_events.append({**base, "ph": "B"})
        else:
            trace_events.append(
                {**base, "ph": "X", "dur": max(0, int(span.seconds * 1_000_000))}
            )

    for event in event_list:
        ts = int(event.get("ts", 0.0) * 1_000_000)
        pid = event.get("pid", 0)
        for field in COUNTER_FIELDS:
            if field not in event:
                continue
            trace_events.append(
                {
                    "name": f"sat.{field}",
                    "cat": "solver",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {field: event[field]},
                }
            )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    spans: Sequence[SpanRecord],
    events: Iterable[Dict[str, Any]] = (),
) -> int:
    """Write :func:`chrome_trace` output to ``path``; returns event count."""
    trace = chrome_trace(spans, events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
        handle.write("\n")
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# Prometheus text exposition


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """Map a registry metric name onto the Prometheus name grammar."""
    candidate = prefix + _METRIC_NAME_SANITIZE.sub("_", name)
    if not _METRIC_NAME_OK.match(candidate):  # e.g. empty name
        candidate = prefix + "invalid"
    return candidate


def escape_help(text: str) -> str:
    """Escape a HELP line: backslash and newline (exposition format)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double-quote, newline."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: Dict[str, Any]) -> str:
    """Render a label set as ``{k="v",...}`` with values escaped.

    The single place exposition labels are written, so quotes and
    backslashes in values (package names, device ids) can never break
    the output syntax.  Label *names* are sanitized onto the metric-name
    grammar; an empty label set renders as the empty string.
    """
    if not labels:
        return ""
    parts = []
    for name in sorted(labels):
        key = _METRIC_NAME_SANITIZE.sub("_", str(name)) or "invalid"
        parts.append(f'{key}="{escape_label_value(str(labels[name]))}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(bound)


def render_prometheus(
    snapshot: Dict[str, Dict[str, Any]],
    help_texts: Optional[Dict[str, str]] = None,
    prefix: str = "repro_",
) -> str:
    """Render a metrics snapshot as Prometheus text exposition format.

    Counters become ``<name>_total`` with ``TYPE counter``; gauges keep
    their name with ``TYPE gauge``; histograms with bucket boundaries
    become real Prometheus histograms (cumulative ``_bucket`` series with
    a ``+Inf`` bucket, plus ``_sum``/``_count``); unbucketed histograms
    become summaries.  Histogram min/max -- which the exposition format
    has no slot for -- are emitted as ``<name>_min``/``<name>_max``
    companion gauges.
    """
    help_texts = help_texts or {}
    lines: List[str] = []
    for name in sorted(snapshot):
        data = snapshot[name]
        kind = data.get("type")
        base = sanitize_metric_name(name, prefix=prefix)
        help_text = escape_help(
            help_texts.get(name, f"repro metric {name}")
        )
        if kind == "counter":
            full = base + "_total"
            lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} counter")
            samples = data.get("samples")
            if samples is not None:
                for sample in samples:
                    labels = format_labels(sample.get("labels", {}))
                    value = _format_value(sample.get("value", 0))
                    lines.append(f"{full}{labels} {value}")
            else:
                lines.append(f"{full} {_format_value(data.get('value', 0))}")
        elif kind == "gauge":
            lines.append(f"# HELP {base} {help_text}")
            lines.append(f"# TYPE {base} gauge")
            samples = data.get("samples")
            if samples is not None:
                for sample in samples:
                    labels = format_labels(sample.get("labels", {}))
                    value = _format_value(sample.get("value", 0.0))
                    lines.append(f"{base}{labels} {value}")
            else:
                lines.append(
                    f"{base} {_format_value(data.get('value', 0.0))}"
                )
        elif kind == "histogram":
            bounds = list(data.get("bounds", ()))
            buckets = list(data.get("buckets", ()))
            count = data.get("count", 0)
            total = data.get("sum", 0.0)
            if bounds and buckets:
                lines.append(f"# HELP {base} {help_text}")
                lines.append(f"# TYPE {base} histogram")
                running = 0
                for bound, n in zip(bounds, buckets):
                    running += n
                    le = format_labels({"le": _format_le(float(bound))})
                    lines.append(f"{base}_bucket{le} {running}")
                # The +Inf bucket must equal _count by definition.
                overflow = running + (
                    buckets[len(bounds)] if len(buckets) > len(bounds) else 0
                )
                lines.append(f'{base}_bucket{{le="+Inf"}} {overflow}')
                lines.append(f"{base}_sum {_format_value(total)}")
                lines.append(f"{base}_count {overflow}")
            else:
                lines.append(f"# HELP {base} {help_text}")
                lines.append(f"# TYPE {base} summary")
                lines.append(f"{base}_sum {_format_value(total)}")
                lines.append(f"{base}_count {_format_value(count)}")
            for extremum in ("min", "max"):
                value = data.get(extremum)
                if value is None:
                    continue
                companion = f"{base}_{extremum}"
                lines.append(
                    f"# HELP {companion} {help_text} ({extremum})"
                )
                lines.append(f"# TYPE {companion} gauge")
                lines.append(f"{companion} {_format_value(value)}")
        # Unknown instrument kinds are skipped rather than emitting
        # malformed exposition lines.
    return "\n".join(lines) + ("\n" if lines else "")


def cost_metrics_snapshot(
    entries: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Convert cost-ledger entries into a labeled metrics snapshot.

    Each ledger meter becomes one ``cost.<meter>`` counter whose samples
    carry the attribution key as labels, so :func:`render_prometheus`
    emits series like
    ``repro_cost_conflicts_total{bundle="...",device="...",signature="...",trace_id="..."}``.
    Merges cleanly into a registry snapshot -- ``cost.`` names cannot
    collide with instrument names, which never contain the ledger's
    attribution labels.
    """
    from repro.obs.cost import COST_FIELDS

    rows = list(entries)
    snapshot: Dict[str, Dict[str, Any]] = {}
    for meter in COST_FIELDS:
        samples = []
        for row in rows:
            value = row.get(meter, 0)
            if not value:
                continue
            samples.append(
                {
                    "labels": {
                        "trace_id": row.get("trace_id", ""),
                        "device": row.get("device", ""),
                        "bundle": row.get("bundle", ""),
                        "signature": row.get("signature", ""),
                    },
                    "value": value,
                }
            )
        if samples:
            snapshot[f"cost.{meter}"] = {"type": "counter", "samples": samples}
    return snapshot


# ----------------------------------------------------------------------
# Scrape endpoint (stdlib only)


def make_metrics_server(
    snapshot_provider: Callable[[], Dict[str, Dict[str, Any]]],
    host: str = "127.0.0.1",
    port: int = 9464,
) -> ThreadingHTTPServer:
    """An HTTP server whose ``GET /metrics`` renders the provider's
    snapshot as Prometheus text.  The caller owns the serve loop
    (``serve_forever`` / ``shutdown``); requests log at DEBUG only."""
    logger = logging.getLogger("repro.metrics.http")

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            if self.path.split("?")[0] not in ("/metrics", "/"):
                self.send_error(404, "try /metrics")
                return
            try:
                body = render_prometheus(snapshot_provider()).encode("utf-8")
            except Exception as exc:  # noqa: BLE001 - surface as HTTP 500
                self.send_error(500, f"snapshot failed: {exc}")
                return
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: Any) -> None:
            logger.debug("%s - %s", self.address_string(), format % args)

    return ThreadingHTTPServer((host, port), _Handler)
