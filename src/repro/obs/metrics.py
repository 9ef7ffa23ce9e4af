"""A process-local metrics registry: counters, gauges, histograms.

Instrumented subsystems publish here -- the SAT solver its
conflicts/decisions/propagations, the static analyses their CFG/call-graph
/taint sizes, the cache its hits and misses, the pipeline executor its
task counts.  The registry is thread-safe (instrument creation is locked;
updates touch per-instrument state under the GIL-atomic operations used
below) and process-local: each pipeline task runs under a fresh registry
(when the dispatching parent collects) and ships its
:meth:`MetricsRegistry.snapshot` back with its result, which the parent
folds in with :meth:`MetricsRegistry.merge`.

The default registry is :data:`NULL_METRICS`: every instrument method is
a no-op on a shared singleton, so disabled instrumentation costs one
method call and records nothing.  Enable collection with
:func:`enable_metrics`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


def _normalize_bounds(bounds: Optional[Iterable[float]]) -> Tuple[float, ...]:
    """Canonical bucket boundaries: sorted, deduplicated, floats."""
    if not bounds:
        return ()
    return tuple(sorted({float(b) for b in bounds}))


class Histogram:
    """Streaming summary of observed values: count/sum/min/max.

    With ``bounds`` (sorted upper boundaries, Prometheus ``le`` semantics)
    the histogram additionally keeps per-interval bucket counts: bucket
    ``i`` counts values ``v <= bounds[i]`` (and ``> bounds[i-1]``); one
    extra overflow bucket counts values above the largest boundary.
    Without ``bounds`` only the streaming summary is kept and the
    serialized form is unchanged from earlier releases.
    """

    __slots__ = ("name", "count", "total", "min", "max", "bounds",
                 "bucket_counts")

    def __init__(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bounds: Tuple[float, ...] = _normalize_bounds(bounds)
        self.bucket_counts: List[int] = (
            [0] * (len(self.bounds) + 1) if self.bounds else []
        )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.bounds:
            # bisect_left gives the first boundary >= value, i.e. the
            # smallest bucket whose ``le`` covers it; past-the-end is the
            # overflow bucket.
            self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ending with
        ``(inf, count)``.  Empty when the histogram is unbucketed."""
        if not self.bounds:
            return []
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        if self.bounds:
            data["bounds"] = list(self.bounds)
            data["buckets"] = list(self.bucket_counts)
        return data


class MetricsRegistry:
    """Named instruments, created on first use."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, factory(name))
        if not isinstance(instrument, (Counter, Gauge, Histogram)):
            raise TypeError(f"metric {name!r} already registered")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        """The named histogram, created with ``bounds`` on first use.

        Re-requesting an existing histogram with *different* explicit
        bounds is a programming error and raises ``ValueError`` --
        silently handing back an instrument with other boundaries would
        mis-bucket every subsequent observation.  Omitting ``bounds``
        always returns the existing instrument unchanged.
        """
        hist = self._get(name, lambda n: Histogram(n, bounds))
        if bounds is not None:
            wanted = _normalize_bounds(bounds)
            if hist.bounds != wanted:
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{hist.bounds}, not {wanted}"
                )
        return hist

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as a plain, JSON-ready, sorted dict."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.to_dict() for name, instrument in items}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters and histogram sums add, min/max widen, gauges
        take the incoming value (last write wins).

        Bucketed histograms merge by three rules: identical boundaries
        add element-wise, a fresh (never-observed, unbucketed) local
        histogram adopts the incoming boundaries, and any other pairing
        widens to the unbucketed summary (count/sum/min/max are always
        preserved).  Merging is therefore total: it degrades resolution,
        never raises and never invents counts.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(data.get("value", 0))
            elif kind == "gauge":
                self.gauge(name).set(data.get("value", 0.0))
            elif kind == "histogram":
                hist = self.histogram(name)
                fresh = hist.count == 0 and not hist.bounds
                hist.count += data.get("count", 0)
                hist.total += data.get("sum", 0.0)
                for bound, widen in (("min", min), ("max", max)):
                    incoming = data.get(bound)
                    if incoming is None:
                        continue
                    current = getattr(hist, bound)
                    setattr(
                        hist,
                        bound,
                        incoming if current is None else widen(current, incoming),
                    )
                in_bounds = _normalize_bounds(data.get("bounds"))
                in_counts = list(data.get("buckets", ()))
                if fresh and in_bounds:
                    hist.bounds = in_bounds
                    hist.bucket_counts = in_counts or [0] * (len(in_bounds) + 1)
                elif hist.bounds == in_bounds:
                    for i, n in enumerate(in_counts):
                        hist.bucket_counts[i] += n
                else:
                    # Differing bounds: widen to the unbucketed summary.
                    hist.bounds = ()
                    hist.bucket_counts = []


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "<null>"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0
    bounds = ()
    bucket_counts: List[int] = []

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        return []

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: hands out one shared no-op instrument."""

    enabled = False

    def __init__(self) -> None:
        pass

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def reset(self) -> None:
        return None

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        return None


NULL_METRICS = NullMetricsRegistry()
_metrics: MetricsRegistry = NULL_METRICS


def get_metrics() -> MetricsRegistry:
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous registry."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh collecting registry.  Pipeline tasks
    collect into registries of their own and report back to it."""
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry
