"""Incremental analysis for evolving systems (the paper's Section IX).

Android Marshmallow lets users revoke granted permissions after install
time, so the security posture of a device is "user-specific and
continuously evolving".  The paper argues SEPAR fits this setting: re-run
the analysis on permission-modified apps at runtime, synthesize new
policies where new vulnerabilities appear, and retire policies whose
supporting vulnerabilities vanished.

:class:`IncrementalAnalyzer` maintains the detection state of one device
bundle and recomputes only what a change can affect:

- permission grant/revoke  -> the modified app's per-component findings,
  plus every cross-app leak pair with that app on either side;
- app install/uninstall    -> the new/removed app's findings plus its
  cross-app compositions.

Every mutation returns a :class:`DeltaReport`; correctness is pinned by a
property test asserting incremental state == from-scratch recomputation
after arbitrary mutation sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from repro.core.detector import DetectionReport, SeparDetector
from repro.core.model import AppModel, BundleModel, ComponentModel


@dataclass
class DeltaReport:
    """Findings that appeared/disappeared due to one mutation."""

    added: Dict[str, Set[str]] = field(default_factory=dict)
    removed: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not any(self.added.values()) and not any(self.removed.values())

    def describe(self) -> str:
        lines = []
        for vuln, components in sorted(self.added.items()):
            for comp in sorted(components):
                lines.append(f"+ {vuln}: {comp}")
        for vuln, components in sorted(self.removed.items()):
            for comp in sorted(components):
                lines.append(f"- {vuln}: {comp}")
        return "\n".join(lines) or "(no change)"


def _effective_app(app: AppModel, granted: FrozenSet[str]) -> AppModel:
    """An app view under the user's current permission grants.

    Revoking a permission makes the guarded capability throw at runtime:
    the components' exposed capabilities are capped to the granted set."""
    components = [
        ComponentModel(
            name=c.name,
            kind=c.kind,
            app=c.app,
            exported=c.exported,
            intent_filters=c.intent_filters,
            permissions=c.permissions,
            paths=c.paths,
            uses_permissions=c.uses_permissions & granted,
            reachable=c.reachable,
            authority=c.authority,
            reads_extra_keys=c.reads_extra_keys,
        )
        for c in app.components
    ]
    return AppModel(
        package=app.package,
        uses_permissions=granted,
        components=components,
        intents=app.intents,
        provider_accesses=app.provider_accesses,
        extraction_seconds=app.extraction_seconds,
        apk_size_kb=app.apk_size_kb,
        repository=app.repository,
    )


#: Public alias: the ``repro serve`` session layer builds per-device
#: bundle views under current grants with the exact same transform the
#: analyzer uses internally, so warm and cold paths cannot diverge.
effective_app = _effective_app


class IncrementalAnalyzer:
    """Tracks one device's evolving bundle and its findings."""

    def __init__(self, bundle: BundleModel) -> None:
        self._apps: Dict[str, AppModel] = {a.package: a for a in bundle.apps}
        self._granted: Dict[str, FrozenSet[str]] = {
            a.package: frozenset(a.uses_permissions) for a in bundle.apps
        }
        self._detector = SeparDetector()
        self._report = self._detect_full()

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def report(self) -> DetectionReport:
        return self._report

    def current_bundle(self) -> BundleModel:
        return BundleModel(
            apps=[
                _effective_app(app, self._granted[pkg])
                for pkg, app in self._apps.items()
            ]
        )

    def packages(self) -> List[str]:
        """The installed package names, sorted; builds no app model."""
        return sorted(self._apps)

    def granted_permissions(self, package: str) -> FrozenSet[str]:
        return self._granted[package]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def revoke_permission(self, package: str, permission: str) -> DeltaReport:
        if package not in self._apps:
            raise KeyError(f"{package} not installed")
        self._granted[package] = self._granted[package] - {permission}
        return self._recompute()

    def grant_permission(self, package: str, permission: str) -> DeltaReport:
        if package not in self._apps:
            raise KeyError(f"{package} not installed")
        self._granted[package] = self._granted[package] | {permission}
        return self._recompute()

    def install(self, app: AppModel) -> DeltaReport:
        if app.package in self._apps:
            raise ValueError(f"{app.package} already installed")
        self._apps[app.package] = app
        self._granted[app.package] = frozenset(app.uses_permissions)
        return self._recompute()

    def uninstall(self, package: str) -> DeltaReport:
        if package not in self._apps:
            raise KeyError(f"{package} not installed")
        del self._apps[package]
        del self._granted[package]
        return self._recompute()

    # ------------------------------------------------------------------
    def _detect_full(self) -> DetectionReport:
        return self._detector.detect(self.current_bundle())

    def _recompute(self) -> DeltaReport:
        """Recompute detection and diff against the previous state.

        Detection over the architectural models is cheap (milliseconds per
        bundle); the incremental value is the *delta* interface -- policies
        to deploy or retire -- rather than saved compute.  Static model
        extraction, the expensive phase, is never repeated: the stored
        AppModels are reused and only re-viewed under the new grants.
        """
        old = self._report
        new = self._detect_full()
        delta = DeltaReport()
        vulns = set(old.findings) | set(new.findings)
        for vuln in vulns:
            before = old.components(vuln)
            after = new.components(vuln)
            if after - before:
                delta.added[vuln] = after - before
            if before - after:
                delta.removed[vuln] = before - after
        self._report = new
        return delta

    # ------------------------------------------------------------------
    def refresh_policies(self, separ=None):
        """Re-synthesize the preventive policy set for the current state."""
        from repro.core.separ import Separ

        engine = separ or Separ(scenarios_per_signature=4)
        return engine.analyze_bundle(self.current_bundle()).policies
