"""Pipeline instrumentation: stage timings, cache accounting, run reports.

A :class:`RunReport` is the machine-readable record of one pipeline run:
per-stage wall time, the CDCL solver counters rolled up across every
synthesis call, and the cache's hit/miss/invalidation accounting.  The
Table 2 / Fig 5 benchmark harnesses and ``benchsuite.metrics`` consume it.
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
            "hits": self.hits.get(namespace, 0),
            "misses": self.misses.get(namespace, 0),
            "invalidations": self.invalidations.get(namespace, 0),
            "rejections": self.rejections.get(namespace, 0),
        }

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
class SolverCounters:
    """CDCL and encoding work rolled up across every SAT call of a run.

    The last four fields account for shared-encoding reuse:
    ``translations`` counts full formula-to-CNF translations actually
    performed, ``translations_avoided`` the ones the shared encoding
    skipped, ``clauses_shared`` the base clauses warm queries reused
    instead of re-adding, and ``learned_carried`` the learned clauses
    already in the solver when each subsequent signature started.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    solver_calls: int = 0
    num_vars: int = 0
    num_clauses: int = 0
    translations: int = 0
    translations_avoided: int = 0
    clauses_shared: int = 0
    learned_carried: int = 0

    def add_synthesis_stats(self, stats: "SynthesisStatsLike") -> None:
        self.conflicts += stats.conflicts
        self.decisions += stats.decisions
        self.propagations += stats.propagations
        self.solver_calls += stats.solver_calls
        self.num_vars += stats.num_vars
        self.num_clauses += stats.num_clauses
        self.translations += getattr(stats, "translations", 0)
        self.translations_avoided += getattr(
            stats, "translations_avoided", 0
        )
        self.clauses_shared += getattr(stats, "clauses_shared", 0)
        self.learned_carried += getattr(stats, "learned_carried", 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "solver_calls": self.solver_calls,
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "translations": self.translations,
            "translations_avoided": self.translations_avoided,
            "clauses_shared": self.clauses_shared,
            "learned_carried": self.learned_carried,
        }


class SynthesisStatsLike:
    """Structural protocol: anything carrying the rolled-up counters."""

    conflicts: int
    decisions: int
    propagations: int
    solver_calls: int
    num_vars: int
    num_clauses: int
    translations: int
    translations_avoided: int
    clauses_shared: int
    learned_carried: int


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
    All default to empty and serialize round-trip losslessly.

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
    cache: CacheAccounting = field(default_factory=CacheAccounting)
    solver: SolverCounters = field(default_factory=SolverCounters)
    construction_seconds: float = 0.0
    solving_seconds: float = 0.0
    per_bundle: List[Dict[str, Any]] = field(default_factory=list)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cost: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    degraded: List[Dict[str, Any]] = field(default_factory=list)

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
            "solver": self.solver.to_dict(),
            "construction_seconds": self.construction_seconds,
            "solving_seconds": self.solving_seconds,
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
            construction_seconds=data.get("construction_seconds", 0.0),
            solving_seconds=data.get("solving_seconds", 0.0),
            per_bundle=list(data.get("per_bundle", ())),
            spans={k: dict(v) for k, v in data.get("spans", {}).items()},
            metrics={k: dict(v) for k, v in data.get("metrics", {}).items()},
            cost=[dict(c) for c in data.get("cost", ())],
            failures=[dict(f) for f in data.get("failures", ())],
            degraded=[dict(d) for d in data.get("degraded", ())],
        )
        for timing in data.get("stages", ()):
            report.add_stage(timing["name"], timing["seconds"])
        cache = data.get("cache", {})
        report.cache.hits = dict(cache.get("hits", {}))
        report.cache.misses = dict(cache.get("misses", {}))
        report.cache.invalidations = dict(cache.get("invalidations", {}))
        report.cache.rejections = dict(cache.get("rejections", {}))
        solver = data.get("solver", {})
        report.solver = SolverCounters(
            conflicts=solver.get("conflicts", 0),
            decisions=solver.get("decisions", 0),
            propagations=solver.get("propagations", 0),
            solver_calls=solver.get("solver_calls", 0),
            num_vars=solver.get("num_vars", 0),
            num_clauses=solver.get("num_clauses", 0),
            translations=solver.get("translations", 0),
            translations_avoided=solver.get("translations_avoided", 0),
            clauses_shared=solver.get("clauses_shared", 0),
            learned_carried=solver.get("learned_carried", 0),
        )
        return report

    @staticmethod
    def loads(text: str) -> "RunReport":
        return RunReport.from_dict(json.loads(text))
