"""Per-device warm analysis sessions for the ``repro serve`` daemon.

A :class:`DeviceSession` holds everything the paper's continuous-
enforcement loop (Section IX) needs resident between events:

- the device's extracted :class:`AppModel`\\ s and current permission
  grants, tracked by the PR 1 :class:`IncrementalAnalyzer` (install /
  uninstall / grant / revoke each return a detection *delta* --
  "what changed?" -- from the cheap architectural detector);
- one long-lived :class:`AnalysisAndSynthesisEngine` whose shared
  encoding answers every signature on a single warm solver per
  composition and keeps its :class:`RelationalProblem` addressable
  (``engine.last_problem``) for telemetry;
- an in-memory content-addressed cache (:class:`MemoryCache`) keyed by
  :mod:`repro.pipeline.synthesis_key`, exactly as the pipeline keys its
  bundle tasks, so any composition this device has been in before --
  uninstall/reinstall flips, permission toggles that round-trip --
  answers without solving;
- a resident compiled PDP whose policy set is refreshed through the
  existing invalidation protocol (``pdp.policies = ...``) whenever
  re-synthesis changes it, plus the device's append-only audit trail;
- the device's one cost account, ``CostKey(device=...)`` in its own
  :class:`CostLedger`: cache hits and misses, synthesis stats and PDP
  cache hits land there, and the server adds each request's wall clock.

Synthesis is *lazy*: mutations only mark the session dirty, and the next
synthesis-backed query (``analyze`` / ``policies`` / ``decide``) pays for
one re-synthesis of the current composition.  A burst of installs
therefore batches into a single solve.

Warm-state invariant (pinned by ``tests/service/``): every answer is
byte-identical to a cold full-bundle run of the same composition.  The
session guarantees this by construction -- bundles are assembled in
sorted package order, the cached payloads are the same serialized forms
the pipeline caches, and :func:`cold_analysis` below *is* the comparator
the differential suite replays against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.android.resources import Resource
from repro.core import serialize
from repro.core.detector import DetectionReport
from repro.core.incremental import DeltaReport, IncrementalAnalyzer, effective_app
from repro.core.model import AppModel, BundleModel
from repro.core.policy import IccEvent, PolicyEvent
from repro.core.separ import Separ, SeparReport
from repro.core.synthesis import AnalysisAndSynthesisEngine
from repro.enforcement import AuditLog, make_pdp
from repro.enforcement.pdp import deny_all_prompts
from repro.pipeline.cache import MemoryCache, PipelineCache
from repro.obs import CostKey, CostLedger
from repro.pipeline.synthesis_key import (
    app_content_key,
    engine_params,
    synthesis_key,
    synthesis_payload,
    synthesis_result,
)
from repro.service.protocol import ProtocolError


@dataclass(frozen=True)
class SessionConfig:
    """Engine + enforcement knobs shared by every session of one server.

    The first four fields are the engine parameters the pipeline keys
    its cache entries by, so a session's entries are interchangeable
    with the pipeline's.
    """

    scenarios_per_signature: int = 2
    minimal: bool = True
    conflict_budget: Optional[int] = None
    time_budget_seconds: Optional[float] = None
    #: LRU bound of the per-session synthesis cache (0 = unbounded).
    cache_entries: int = 256
    #: Resident audit window (0 = keep every record).
    audit_window: int = 0

    def engine_params(self) -> Dict[str, Any]:
        """The engine parameter block of the cache key."""
        return engine_params(
            self.scenarios_per_signature,
            self.minimal,
            self.conflict_budget,
            self.time_budget_seconds,
        )


def _make_engine(config: SessionConfig) -> AnalysisAndSynthesisEngine:
    return AnalysisAndSynthesisEngine(**config.engine_params())


def findings_bundle(report: SeparReport) -> Dict[str, Any]:
    """One bundle's findings in the pipeline's canonical diffable shape
    (the per-bundle entry of ``PipelineResult.findings_dict``)."""
    return {
        "apps": sorted(a.package for a in report.bundle.apps),
        "scenarios": [
            serialize.scenario_to_dict(s) for s in report.scenarios
        ],
        "policies": [serialize.policy_to_dict(p) for p in report.policies],
        "detection": report.detection.to_dict(),
    }


def cold_analysis(
    apps: List[AppModel], config: SessionConfig
) -> Dict[str, Any]:
    """The cold comparator: a fresh engine over the same composition.

    No warm solver, no cache, no session -- just the composition in the
    session's canonical (sorted-package) order through a brand-new
    engine.  The differential suite replays event streams through a live
    session and asserts its answers equal this, byte for byte; a
    dedicated test pins ``cold_analysis`` itself against
    ``Separ.analyze_bundle`` so the comparator cannot drift from the
    reference facade.
    """
    bundle = BundleModel(apps=sorted(apps, key=lambda a: a.package))
    result = _make_engine(config).run(bundle)
    return findings_bundle(Separ.assemble_report(bundle, result))


def detection_delta(
    before: DetectionReport, after: DetectionReport
) -> DeltaReport:
    """Findings that appeared/disappeared between two detection states
    (the same diff ``IncrementalAnalyzer._recompute`` computes, exposed
    for multi-step mutations like ``update``)."""
    delta = DeltaReport()
    for vuln in set(before.findings) | set(after.findings):
        gained = after.components(vuln) - before.components(vuln)
        lost = before.components(vuln) - after.components(vuln)
        if gained:
            delta.added[vuln] = gained
        if lost:
            delta.removed[vuln] = lost
    return delta


def _delta_dict(delta: DeltaReport) -> Dict[str, Any]:
    return {
        "added": {v: sorted(c) for v, c in sorted(delta.added.items())},
        "removed": {v: sorted(c) for v, c in sorted(delta.removed.items())},
    }


class DeviceSession:
    """Warm, single-device analysis + enforcement state.

    Thread-safe via one coarse lock: the server already serializes each
    device's requests through its own queue worker, so the lock only
    guards direct (test / embedding) use.
    """

    def __init__(
        self,
        device: str,
        config: Optional[SessionConfig] = None,
        cache: Optional[PipelineCache] = None,
    ) -> None:
        self.device = device
        self.config = config or SessionConfig()
        self.cache = (
            cache
            if cache is not None
            else MemoryCache(max_entries=self.config.cache_entries)
        )
        self.engine = _make_engine(self.config)
        self.signature_names = [s.name for s in self.engine.signatures]
        self.analyzer = IncrementalAnalyzer(BundleModel(apps=[]))
        self.audit = AuditLog(window=self.config.audit_window or None)
        self.pdp = make_pdp(
            [], prompt_callback=deny_all_prompts, audit=self.audit
        )
        self._lock = threading.RLock()
        self._dirty = True
        self._report: Optional[SeparReport] = None
        # Telemetry: requests handled, syntheses actually solved, and
        # warm lookups answered straight from the cache.
        self.requests = 0
        self.syntheses = 0
        self.warm_hits = 0
        self.warm_lookups = 0
        # The device's one cost account.  The server runs this device's
        # requests one at a time, so what the account grows by while a
        # request runs is that request's cost.
        self.ledger = CostLedger()
        self.account = CostKey(device=device)
        self._last_status = self.status()

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def packages(self) -> List[str]:
        with self._lock:
            return self.analyzer.packages()

    def current_bundle(self) -> BundleModel:
        """The device's composition in canonical sorted-package order --
        the exact bundle a cold run would analyze."""
        apps = sorted(
            self.analyzer.current_bundle().apps, key=lambda a: a.package
        )
        return BundleModel(apps=apps)

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.warm_lookups if self.warm_lookups else 0.0

    def charge(self, **amounts: float) -> None:
        """Add ``amounts`` (cost field=value) to the device's account."""
        self.ledger.charge(self.account, **amounts)

    # ------------------------------------------------------------------
    # Mutations: cheap detection delta now, synthesis deferred
    # ------------------------------------------------------------------
    def install(self, app_dict: Dict[str, Any]) -> Dict[str, Any]:
        app = self._parse_app(app_dict)
        with self._lock:
            if app.package in set(self.packages()):
                raise ProtocolError(
                    "conflict", f"{app.package} already installed"
                )
            delta = self.analyzer.install(app)
            return self._mutated(delta)

    def update(self, app_dict: Dict[str, Any]) -> Dict[str, Any]:
        app = self._parse_app(app_dict)
        with self._lock:
            if app.package not in set(self.packages()):
                raise ProtocolError("not_found", f"{app.package} not installed")
            before = self.analyzer.report
            self.analyzer.uninstall(app.package)
            self.analyzer.install(app)
            return self._mutated(detection_delta(before, self.analyzer.report))

    def uninstall(self, package: str) -> Dict[str, Any]:
        with self._lock:
            try:
                delta = self.analyzer.uninstall(package)
            except KeyError as exc:
                raise ProtocolError("not_found", str(exc)) from exc
            return self._mutated(delta)

    def grant(self, package: str, permission: str) -> Dict[str, Any]:
        with self._lock:
            try:
                delta = self.analyzer.grant_permission(package, permission)
            except KeyError as exc:
                raise ProtocolError("not_found", str(exc)) from exc
            return self._mutated(delta)

    def revoke(self, package: str, permission: str) -> Dict[str, Any]:
        with self._lock:
            try:
                delta = self.analyzer.revoke_permission(package, permission)
            except KeyError as exc:
                raise ProtocolError("not_found", str(exc)) from exc
            return self._mutated(delta)

    def _mutated(self, delta: DeltaReport) -> Dict[str, Any]:
        self._dirty = True
        return {
            "delta": _delta_dict(delta),
            "installed": self.packages(),
            # Policies are refreshed lazily: the next analyze / policies
            # / decide pays one re-synthesis for the whole burst.
            "synthesis": "deferred",
        }

    @staticmethod
    def _parse_app(app_dict: Any) -> AppModel:
        if not isinstance(app_dict, dict):
            raise ProtocolError("bad_request", "'app' must be an app dict")
        try:
            return serialize.app_from_dict(app_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad_request", f"bad app model: {exc}") from exc

    # ------------------------------------------------------------------
    # Queries: pay (at most) one synthesis for the current composition
    # ------------------------------------------------------------------
    def analyze(self) -> Dict[str, Any]:
        with self._lock:
            return findings_bundle(self._ensure_fresh())

    def policies(self) -> Dict[str, Any]:
        with self._lock:
            report = self._ensure_fresh()
            return {
                "policies": [
                    serialize.policy_to_dict(p) for p in report.policies
                ],
            }

    def decide(
        self, kind: Any, event: Any, context: Optional[str] = None
    ) -> Dict[str, Any]:
        event_kind, icc = self._parse_event(kind, event)
        with self._lock:
            # Decisions must reflect the current composition's policies.
            self._ensure_fresh()
            # The compiled PDP counts decision-cache hits; diffing around
            # the call charges this decide's hits to the device.
            hits_before = self.pdp.cache_hits
            decision = self.pdp.decide(event_kind, icc, context=context)
            if self.pdp.cache_hits > hits_before:
                self.charge(pdp_cache_hits=self.pdp.cache_hits - hits_before)
            record = self.audit.records[-1] if self.audit.records else None
            return {
                "decision": decision.value,
                "audit": record.to_dict() if record is not None else None,
            }

    def audit_trail(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "records": [r.to_dict() for r in self.audit.iter_all()],
                "summary": self.audit.summary(),
            }

    def status(self) -> Dict[str, Any]:
        with self._lock:
            problem = self.engine.last_problem
            self._last_status = {
                "device": self.device,
                "installed": self.packages(),
                "dirty": self._dirty,
                "requests": self.requests,
                "syntheses": self.syntheses,
                "warm_hits": self.warm_hits,
                "warm_lookups": self.warm_lookups,
                "warm_hit_rate": self.warm_hit_rate,
                "cache_entries": len(self.cache)
                if isinstance(self.cache, MemoryCache)
                else None,
                "policies": len(self._report.policies)
                if self._report is not None
                else None,
                "solver": None
                if problem is None
                else {
                    "num_vars": problem.stats.num_vars,
                    "num_clauses": problem.stats.num_clauses,
                    "learnt": problem.num_learnt,
                },
                "cost": self.ledger.totals(),
            }
            return self._last_status

    def status_nowait(self) -> Dict[str, Any]:
        """:meth:`status` without waiting for the session lock.

        A device's batch thread holds the lock through a whole synthesis;
        while it does, this returns the status last taken (at creation or
        by the last :meth:`status` call), so a server-wide status never
        stalls the caller's thread."""
        if not self._lock.acquire(blocking=False):
            return self._last_status
        try:
            return self.status()
        finally:
            self._lock.release()

    @staticmethod
    def _parse_event(kind: Any, event: Any) -> Tuple[PolicyEvent, IccEvent]:
        try:
            event_kind = PolicyEvent(kind)
        except ValueError as exc:
            raise ProtocolError(
                "bad_request", f"unknown event kind {kind!r}"
            ) from exc
        if not isinstance(event, dict) or not isinstance(
            event.get("sender"), str
        ):
            raise ProtocolError(
                "bad_request", "'event' must be a dict with a 'sender'"
            )
        try:
            extras = frozenset(
                Resource(name) for name in event.get("extras", ())
            )
        except ValueError as exc:
            raise ProtocolError(
                "bad_request", f"unknown resource: {exc}"
            ) from exc
        return event_kind, IccEvent(
            sender=event["sender"],
            receiver=event.get("receiver"),
            action=event.get("action"),
            extras=extras,
            sender_permissions=frozenset(
                event.get("sender_permissions", ())
            ),
        )

    # ------------------------------------------------------------------
    # Warm synthesis
    # ------------------------------------------------------------------
    def _ensure_fresh(self) -> SeparReport:
        if not self._dirty and self._report is not None:
            return self._report
        bundle = self.current_bundle()
        result = synthesis_result([self._synthesis_payload(bundle)])
        # The analyzer detected this composition at the last mutation.
        self._report = Separ.assemble_report(
            bundle, result, detection=self.analyzer.report
        )
        # The existing invalidation protocol: assigning the policy list
        # recompiles the compiled backend's index and flushes its
        # decision cache.  The audit log carries across refreshes.
        self.pdp.policies = list(self._report.policies)
        self._dirty = False
        return self._report

    def _synthesis_payload(self, bundle: BundleModel) -> Dict[str, Any]:
        """The composition's synthesis payload: cache hit or fresh solve.

        Keyed exactly as the pipeline keys a bundle task, so session
        entries and pipeline entries are the same currency.  Degraded
        (budget-exhausted) payloads pass through to the caller but are
        never cached -- ``MemoryCache`` inherits the pipeline's rejection
        rule.
        """
        key = synthesis_key(
            [app_content_key(serialize.app_to_dict(a)) for a in bundle.apps],
            self.config.engine_params(),
            self.signature_names,
        )
        self.warm_lookups += 1
        cached = self.cache.get("synthesis", key)
        if cached is not None:
            self.warm_hits += 1
            self.charge(cache_hits=1)
            return cached
        payload = synthesis_payload(self.engine.run_shared(bundle))
        self.syntheses += 1
        self.charge(cache_misses=1)
        self.ledger.charge_stats(self.account, payload["stats"])
        self.cache.put("synthesis", key, payload)
        return payload

    # ------------------------------------------------------------------
    # Request dispatch (the server's worker calls this)
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one validated request; returns the ``result`` payload.

        Raises :class:`ProtocolError` for anything the client got wrong;
        the server maps it onto an error response.
        """
        self.requests += 1
        op = request["op"]
        if op == "install":
            return self.install(request.get("app"))
        if op == "update":
            return self.update(request.get("app"))
        if op == "uninstall":
            return self.uninstall(self._required_str(request, "package"))
        if op == "grant":
            return self.grant(
                self._required_str(request, "package"),
                self._required_str(request, "permission"),
            )
        if op == "revoke":
            return self.revoke(
                self._required_str(request, "package"),
                self._required_str(request, "permission"),
            )
        if op == "analyze":
            return self.analyze()
        if op == "policies":
            return self.policies()
        if op == "decide":
            return self.decide(
                request.get("kind"),
                request.get("event"),
                context=request.get("context"),
            )
        if op == "audit":
            return self.audit_trail()
        if op == "status":
            return self.status()
        raise ProtocolError("unknown_op", f"unhandled op {op!r}")

    @staticmethod
    def _required_str(request: Dict[str, Any], field: str) -> str:
        value = request.get(field)
        if not isinstance(value, str) or not value:
            raise ProtocolError(
                "bad_request", f"missing or non-string {field!r}"
            )
        return value


__all__ = [
    "DeviceSession",
    "SessionConfig",
    "cold_analysis",
    "detection_delta",
    "effective_app",
    "findings_bundle",
]
