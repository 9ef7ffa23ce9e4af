"""Counters, gauges and histograms, held in a :class:`MetricsRegistry`.

A registry has one owner, which creates it and is the only code that
counts into it: each pipeline run (:meth:`repro.pipeline.AnalysisPipeline.run`
books cache traffic, solver and engine work from the payloads it
computed, and its own task counts) and the ``repro serve`` daemon
(:class:`repro.service.PolicyService`: request, latency, heartbeat and
session series).  Library code publishes nothing: the solver, the
engine, the cache and the enforcement layer keep their own counters,
and their owners read those.  There is no process-global registry.

A registry is thread-safe: instrument creation is locked, and updates
touch per-instrument state under the GIL-atomic operations used below.
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

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, factory(name))
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
