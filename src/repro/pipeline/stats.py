"""Pipeline instrumentation: stage timings, cache accounting, run reports.

A :class:`RunReport` is the machine-readable record of one pipeline run:
per-stage wall time, and the run's own metrics and cost ledger, which
are the one account of the solver work it did and the cache traffic it
made.  The Table 2 / Fig 5 benchmark harnesses and ``benchsuite.metrics``
consume it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class TaskFailure:
    """A pipeline task that exhausted its retries.

    ``kind`` distinguishes the failure mode: ``error`` (the worker
    function raised), ``timeout`` (the task overran the per-task
    timeout), or ``crash`` (the worker process died while running it --
    attributed via isolation re-runs).  Failures are *data*, not control
    flow: the run completes and reports them in ``RunReport.failures``.
    """

    stage: str
    task: str
    kind: str
    error: str
    attempts: int = 1
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "task": self.task,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TaskFailure":
        return TaskFailure(
            stage=data.get("stage", ""),
            task=data.get("task", ""),
            kind=data.get("kind", "error"),
            error=data.get("error", ""),
            attempts=data.get("attempts", 1),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


@dataclass
class StageTiming:
    """Wall-clock seconds spent in one pipeline stage."""

    name: str
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seconds": self.seconds}


#: The cache's traffic kinds: the :class:`CacheAccounting` maps, and the
#: last part of a run's ``cache.<namespace>.<kind>`` counter names.
_KINDS = ("hits", "misses", "invalidations", "rejections")


@dataclass
class CacheAccounting:
    """Hit/miss/invalidation counters, kept per namespace.

    ``invalidations`` counts persisted entries that were found but
    discarded (stale format version); every invalidation is also a miss.
    ``rejections`` counts writes the cache refused because the payload
    was marked incomplete (degraded results are never cached).
    """

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    invalidations: Dict[str, int] = field(default_factory=dict)
    rejections: Dict[str, int] = field(default_factory=dict)

    def record_hit(self, namespace: str) -> None:
        self.hits[namespace] = self.hits.get(namespace, 0) + 1

    def record_miss(self, namespace: str) -> None:
        self.misses[namespace] = self.misses.get(namespace, 0) + 1

    def record_invalidation(self, namespace: str) -> None:
        self.invalidations[namespace] = (
            self.invalidations.get(namespace, 0) + 1
        )

    def record_rejection(self, namespace: str) -> None:
        self.rejections[namespace] = self.rejections.get(namespace, 0) + 1

    def counts(self, namespace: str) -> Dict[str, int]:
        """One namespace's four counts so far, by kind."""
        return {
            kind: getattr(self, kind).get(namespace, 0) for kind in _KINDS
        }

    @staticmethod
    def from_metrics(metrics: Dict[str, Dict[str, Any]]) -> "CacheAccounting":
        """The traffic a run's ``cache.<namespace>.<kind>`` counters hold."""
        accounting = CacheAccounting()
        for name, metric in metrics.items():
            scope, _, rest = name.partition(".")
            namespace, _, kind = rest.rpartition(".")
            if scope == "cache" and namespace and kind in _KINDS:
                getattr(accounting, kind)[namespace] = metric["value"]
        return accounting

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def total_invalidations(self) -> int:
        return sum(self.invalidations.values())

    @property
    def total_rejections(self) -> int:
        return sum(self.rejections.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": dict(sorted(self.hits.items())),
            "misses": dict(sorted(self.misses.items())),
            "invalidations": dict(sorted(self.invalidations.items())),
            "rejections": dict(sorted(self.rejections.items())),
            "total_hits": self.total_hits,
            "total_misses": self.total_misses,
            "total_invalidations": self.total_invalidations,
            "total_rejections": self.total_rejections,
        }


@dataclass
class RunReport:
    """The machine-readable record of one pipeline run.

    ``spans`` is populated only when tracing is enabled for the run: the
    per-span-name roll-up of a JSONL trace
    (:func:`repro.obs.view.aggregate_spans` output).  ``metrics`` and
    ``cost`` are always filled: the
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the run's own
    registry, and the entries of its own cost ledger
    (:meth:`repro.obs.cost.CostLedger.entries` rows keyed by
    ``trace_id``/``device``/``bundle``/``signature``, in charge order).
    All default to empty and serialize round-trip losslessly.  They are
    the one account of the run's work: the ``sat.*``/``ase.*`` metrics
    and the cost rows are booked only from the payloads this run
    computed, and :attr:`cache` is read from the
    ``cache.<namespace>.<kind>`` counters.  ``per_bundle`` lists each
    bundle's ``{apps, scenarios, policies}`` in bundle order.

    ``failures`` lists every task that exhausted its retries
    (:meth:`TaskFailure.to_dict` records) and ``degraded`` every
    synthesis task that ran out of budget and returned a partial payload
    (``{stage, task, reason, scenarios}``).  An empty list in both means
    the run was clean.
    """

    jobs: int = 1
    num_apps: int = 0
    num_bundles: int = 0
    num_scenarios: int = 0
    num_policies: int = 0
    stages: List[StageTiming] = field(default_factory=list)
    per_bundle: List[Dict[str, Any]] = field(default_factory=list)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cost: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    degraded: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cache(self) -> CacheAccounting:
        """This run's own cache traffic, read from its metrics."""
        return CacheAccounting.from_metrics(self.metrics)

    @property
    def clean(self) -> bool:
        """True when no task failed and no result was degraded."""
        return not self.failures and not self.degraded

    def stage(self, name: str) -> Optional[StageTiming]:
        for timing in self.stages:
            if timing.name == name:
                return timing
        return None

    def add_stage(self, name: str, seconds: float) -> StageTiming:
        timing = StageTiming(name=name, seconds=seconds)
        self.stages.append(timing)
        return timing

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.stages)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "num_apps": self.num_apps,
            "num_bundles": self.num_bundles,
            "num_scenarios": self.num_scenarios,
            "num_policies": self.num_policies,
            "stages": [t.to_dict() for t in self.stages],
            "total_seconds": self.total_seconds,
            "cache": self.cache.to_dict(),
            "per_bundle": self.per_bundle,
            "spans": self.spans,
            "metrics": self.metrics,
            "cost": self.cost,
            "failures": self.failures,
            "degraded": self.degraded,
        }

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunReport":
        report = RunReport(
            jobs=data.get("jobs", 1),
            num_apps=data.get("num_apps", 0),
            num_bundles=data.get("num_bundles", 0),
            num_scenarios=data.get("num_scenarios", 0),
            num_policies=data.get("num_policies", 0),
            per_bundle=list(data.get("per_bundle", ())),
            spans={k: dict(v) for k, v in data.get("spans", {}).items()},
            metrics={k: dict(v) for k, v in data.get("metrics", {}).items()},
            cost=[dict(c) for c in data.get("cost", ())],
            failures=[dict(f) for f in data.get("failures", ())],
            degraded=[dict(d) for d in data.get("degraded", ())],
        )
        for timing in data.get("stages", ()):
            report.add_stage(timing["name"], timing["seconds"])
        return report

    @staticmethod
    def loads(text: str) -> "RunReport":
        return RunReport.from_dict(json.loads(text))
