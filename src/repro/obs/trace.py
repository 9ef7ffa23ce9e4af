"""Lightweight tracing: nestable wall-clock spans emitted as JSONL.

A span is one timed region of work with a name, key/value attributes, and
a parent -- the enclosing span on the same thread (nesting is tracked with
a :class:`contextvars.ContextVar`, so spans nest correctly across threads
and ``asyncio`` tasks without any locking on the hot path).  Completed
spans become single-line JSON events.

Process safety: every event is written as one ``os.write`` of a complete
line to a file descriptor opened with ``O_APPEND``, which POSIX keeps
atomic for writes of this size -- so the pipeline's worker processes can
all append to the same trace file without interleaving.  Workers learn
the file (and the heartbeat interval) from the telemetry envelope each
pipeline task carries, so they trace whether the pool forks or spawns.

The tracer also carries solver heartbeats: a tracer with a positive
``heartbeat_interval`` asks every solve to :meth:`Tracer.heartbeat` a
:class:`~repro.obs.progress.ProgressSnapshot` that often (in conflicts),
and writes each one as a ``progress`` event line.

The active tracer is a context variable too: library code reads it
with :func:`current_tracer`, and its owner -- a CLI command, a pipeline
task, a ``repro serve`` batch -- installs it for a block with
:func:`tracing`.  The default is :data:`NULL_TRACER`, whose ``span()``
returns a shared singleton context manager that records nothing, writes
nothing, and allocates nothing, so instrumented code pays only a method
call when nothing traces.  Importing this module installs nothing.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # progress imports this module; annotation only
    from repro.obs.progress import ProgressSnapshot

#: Heartbeat every this-many conflicts unless configured otherwise:
#: frequent enough to watch a live solve, rare enough to cost nothing
#: measurable.
DEFAULT_INTERVAL = 256

_current_span_id: ContextVar[Optional[str]] = ContextVar(
    "repro_current_span", default=None
)

#: The trace (request/run) every span in this context belongs to.  Root
#: spans mint one lazily; :func:`adopt_trace_context` installs one shipped
#: across a process or task boundary.
_current_trace_id: ContextVar[Optional[str]] = ContextVar(
    "repro_current_trace", default=None
)

#: Parent span id adopted from a *remote* context (another process, or the
#: service request envelope).  Consulted only when no local span is open,
#: so a worker's first span parents under the orchestrator dispatch span
#: instead of becoming a new per-pid root.
_remote_parent_id: ContextVar[Optional[str]] = ContextVar(
    "repro_remote_parent", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id.

    Trace ids are observability-only: they never enter cache keys,
    content hashes, or analysis outputs, so randomness here cannot
    perturb determinism guarantees.
    """
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The portable causal link: a trace id plus the parent span id.

    Instances are frozen and picklable, so they cross process and task
    boundaries as they are (each pipeline task's telemetry envelope
    carries one); the receiving side calls :func:`adopt_trace_context`
    so its spans join the sender's tree instead of rooting a new one.
    """

    trace_id: str
    span_id: Optional[str] = None

    @staticmethod
    def new() -> "TraceContext":
        return TraceContext(trace_id=new_trace_id())


def current_trace_id() -> Optional[str]:
    """The trace id of the enclosing run/request, if any."""
    return _current_trace_id.get()


def current_trace_context() -> Optional[TraceContext]:
    """Capture the ambient context for shipping to another process/task.

    Returns ``None`` when no trace is active (tracing disabled and no
    context adopted), in which case there is nothing worth propagating.
    """
    trace_id = _current_trace_id.get()
    if trace_id is None:
        return None
    span_id = _current_span_id.get()
    if span_id is None:
        span_id = _remote_parent_id.get()
    return TraceContext(trace_id=trace_id, span_id=span_id)


@contextlib.contextmanager
def adopt_trace_context(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Join ``ctx``'s trace for the duration of the block.

    Spans opened inside parent under ``ctx.span_id`` (when they have no
    closer local parent) and carry ``ctx.trace_id``.  Pool workers are
    reused across tasks, so the previous context is restored on exit --
    a task never inherits the trace of the task before it.  ``None`` is
    accepted and adopts nothing, keeping call sites branch-free.
    """
    if ctx is None:
        yield
        return
    trace_token = _current_trace_id.set(ctx.trace_id)
    parent_token = _remote_parent_id.set(ctx.span_id)
    try:
        yield
    finally:
        _remote_parent_id.reset(parent_token)
        _current_trace_id.reset(trace_token)


@dataclass
class SpanRecord:
    """One span, as read back from (or written to) a trace.

    ``open`` marks a span whose end was never recorded -- the process died
    (crash, SIGKILL, pool teardown) between the begin event and the
    completion event.  Open spans carry ``seconds == 0.0``; consumers
    should render them as unfinished rather than instantaneous.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    start: float  # epoch seconds (wall clock)
    seconds: float  # duration (monotonic clock)
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    open: bool = False
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "seconds": self.seconds,
            "attrs": self.attrs,
            "pid": self.pid,
        }
        if self.open:
            data["open"] = True
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SpanRecord":
        return SpanRecord(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start=data.get("start", 0.0),
            seconds=data.get("seconds", 0.0),
            attrs=dict(data.get("attrs", {})),
            pid=data.get("pid", 0),
            open=bool(data.get("open", False)),
            trace_id=data.get("trace_id"),
        )


class _NullSpan:
    """The do-nothing span: one shared instance, reused forever."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; finishes (and emits) on ``__exit__``."""

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "_token", "_t0", "_wall",
        "_parent", "trace_id", "_trace_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self.span_id = self._tracer._next_id()
        # The parent is whatever is current *before* this span starts: the
        # nearest local span, falling back to an adopted remote parent so
        # worker-side spans link under the orchestrator dispatch span.
        self._parent = _current_span_id.get()
        if self._parent is None:
            self._parent = _remote_parent_id.get()
        # A root span with no ambient trace starts a fresh one; nested
        # spans and adopted contexts reuse the enclosing trace id.
        self._trace_token = None
        self.trace_id = _current_trace_id.get()
        if self.trace_id is None:
            self.trace_id = new_trace_id()
            self._trace_token = _current_trace_id.set(self.trace_id)
        self._token = _current_span_id.set(self.span_id)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        self._tracer._emit_begin(self)
        return self

    def __exit__(self, *exc: object) -> None:
        seconds = time.perf_counter() - self._t0
        _current_span_id.reset(self._token)
        if self._trace_token is not None:
            _current_trace_id.reset(self._trace_token)
        self._tracer._emit(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self._parent,
                start=self._wall,
                seconds=seconds,
                attrs=self.attrs,
                pid=os.getpid(),
                trace_id=self.trace_id,
            )
        )

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is running."""
        self.attrs.update(attrs)


#: Span ids are ``<pid>-<n>`` with ``n`` from this one per-process
#: counter, not a per-tracer one: a pipeline task may open a fresh tracer
#: on the file an earlier task wrote, and its ids must not repeat.
_span_counter = itertools.count(1)


class Tracer:
    """Base tracer: allocates spans, hands completed records to ``_emit``."""

    #: Solver heartbeat period in conflicts; 0 asks for none.  Each solve
    #: reads it once, so with 0 the search loop pays one integer test per
    #: conflict and nothing else.
    heartbeat_interval = 0

    def _next_id(self) -> str:
        # The pid is read per call: a forked pool worker inherits the
        # counter's state, and stamping the *current* pid keeps its span
        # ids distinct from every sibling worker's.
        return f"{os.getpid()}-{next(_span_counter)}"

    def span(self, name: str, **attrs: Any):
        """Context manager timing one region of work."""
        return _Span(self, name, attrs)

    def _emit_begin(self, span: "_Span") -> None:
        """Hook called when a span opens; only durable tracers record it."""
        return None

    def emit_event(self, payload: Dict[str, Any]) -> None:
        """Record a non-span event (e.g. a solver progress heartbeat).

        Payloads must carry an ``event`` key so trace readers can tell
        them apart from span records.  The default tracer discards them.
        """
        return None

    def heartbeat(self, snapshot: "ProgressSnapshot") -> None:
        """Emit a solver progress snapshot as a ``progress`` event.

        The event is tagged with the ambient trace context, so a watcher
        can attribute a worker's solve to the run (and the span) that
        caused it.
        """
        payload = snapshot.to_dict()
        ctx = current_trace_context()
        if ctx is not None:
            payload["trace_id"] = ctx.trace_id
            if ctx.span_id is not None:
                payload["span_id"] = ctx.span_id
        self.emit_event(payload)

    def _emit(self, record: SpanRecord) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class NullTracer(Tracer):
    """The disabled tracer: no records, no I/O, no allocation."""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def _emit(self, record: SpanRecord) -> None:
        return None


class InMemoryTracer(Tracer):
    """Collects spans in a list -- for tests and in-process aggregation."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._lock = threading.Lock()

    def _emit(self, record: SpanRecord) -> None:
        with self._lock:
            self.records.append(record)


class JsonlTracer(Tracer):
    """Appends one JSON line per span event to ``path``.

    The descriptor is opened with ``O_APPEND`` and every event is a single
    ``os.write`` call, so concurrent writers (pipeline worker processes)
    never interleave partial lines.

    Every span additionally writes a ``span_begin`` event line when it
    opens.  A span whose process dies before completion then still leaves
    its begin line behind, and :func:`read_trace` recovers it as an
    *open* span instead of dropping it silently -- the difference between
    "this worker never ran the task" and "this worker was killed
    mid-task".

    ``heartbeat_interval`` (conflicts, 0 = off) turns on solver heartbeat
    lines in the same file.
    """

    def __init__(self, path: str, heartbeat_interval: int = 0) -> None:
        self.path = str(path)
        self.heartbeat_interval = max(0, int(heartbeat_interval))
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def _write_line(self, payload: Dict[str, Any]) -> None:
        line = json.dumps(payload, sort_keys=True) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def _emit_begin(self, span: "_Span") -> None:
        payload = {
            "event": "span_begin",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span._parent,
            "start": span._wall,
            "pid": os.getpid(),
        }
        if span.trace_id is not None:
            payload["trace_id"] = span.trace_id
        self._write_line(payload)

    def emit_event(self, payload: Dict[str, Any]) -> None:
        if "event" not in payload:
            raise ValueError("trace events must carry an 'event' key")
        self._write_line(payload)

    def _emit(self, record: SpanRecord) -> None:
        self._write_line(record.to_dict())

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


NULL_TRACER = NullTracer()

#: The tracer spans in this context go to; :func:`tracing` scopes it.
_current_tracer: ContextVar[Tracer] = ContextVar(
    "repro_tracer", default=NULL_TRACER
)


def current_tracer() -> Tracer:
    """The tracer installed by the nearest enclosing :func:`tracing`
    block in this context, else :data:`NULL_TRACER`."""
    return _current_tracer.get()


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Run the block under ``tracer``, which the caller owns and closes;
    the previous tracer comes back on exit, an exception included."""
    token = _current_tracer.set(tracer)
    try:
        yield tracer
    finally:
        _current_tracer.reset(token)


def read_events(path: str) -> Tuple[List[SpanRecord], List[Dict[str, Any]]]:
    """Load a JSONL trace: ``(spans, events)``.

    ``spans`` holds every completed span plus one *open* span
    (``record.open`` set, ``seconds == 0.0``) for each ``span_begin``
    event that never got its completion line -- the signature of a worker
    killed mid-span.  ``events`` holds every other event line (progress
    heartbeats and future event kinds), in file order, as raw dicts.
    Blank and unparseable-as-span lines are skipped.
    """
    records: List[SpanRecord] = []
    events: List[Dict[str, Any]] = []
    begins: Dict[str, Dict[str, Any]] = {}
    begin_order: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            kind = data.get("event")
            if kind == "span_begin":
                span_id = data.get("span_id")
                if span_id is not None and span_id not in begins:
                    begins[span_id] = data
                    begin_order.append(span_id)
            elif kind is not None:
                events.append(data)
            else:
                records.append(SpanRecord.from_dict(data))
    completed = {r.span_id for r in records}
    for span_id in begin_order:
        if span_id in completed:
            continue
        data = begins[span_id]
        records.append(
            SpanRecord(
                name=data.get("name", "?"),
                span_id=span_id,
                parent_id=data.get("parent_id"),
                start=data.get("start", 0.0),
                seconds=0.0,
                attrs={},
                pid=data.get("pid", 0),
                open=True,
                trace_id=data.get("trace_id"),
            )
        )
    return records, events


def read_trace(path: str) -> List[SpanRecord]:
    """Load every span from a JSONL trace file (see :func:`read_events`);
    non-span event lines are skipped, unterminated spans come back open."""
    return read_events(path)[0]


def write_trace(path: str, records: Iterable[SpanRecord]) -> None:
    """Write span records as JSONL (the inverse of :func:`read_trace`)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
