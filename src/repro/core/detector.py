"""Concrete vulnerability detection over app models.

The SAT-based synthesis engine produces *scenarios* -- witnesses with
bindings for postulated malicious elements.  For large-scale counting
(which of 4,000 apps harbor each vulnerability class, RQ2) SEPAR only needs
the *decision*: does a scenario exist for this victim?  This module
evaluates exactly the same signature semantics directly over the
:class:`~repro.core.model.BundleModel`, in plain Python.  Tests
cross-validate it against the SAT pipeline on small bundles; the RQ2
benchmark uses it to sweep the full corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.android.components import ComponentKind
from repro.android.resources import Resource, SINKS, SOURCES
from repro.core.icc_graph import (
    BundleIndex,
    provider_read_edges,
    provider_write_edges,
    transitive_receivers,
)
from repro.core.model import BundleModel, ComponentModel, IntentModel

SENSITIVE_SOURCES = SOURCES - {Resource.ICC}
PUBLIC_SINKS = SINKS - {Resource.ICC}


def _adjacency(edges: Set[Tuple[str, str]]) -> Dict[str, Set[str]]:
    adjacency: Dict[str, Set[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    return adjacency


def _forward_closure(adjacency: Dict[str, Set[str]], start: str) -> Set[str]:
    """Nodes reachable from ``start`` over >= 1 edge hops (the strict
    transitive closure the chain signatures take)."""
    seen: Set[str] = set()
    stack = list(adjacency.get(start, ()))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency.get(node, ()))
    return seen


@dataclass
class DetectionReport:
    """Vulnerable components per vulnerability class."""

    findings: Dict[str, Set[str]] = field(default_factory=dict)
    leak_pairs: Set[tuple] = field(default_factory=set)  # (src, sink) pairs

    def components(self, vulnerability: str) -> Set[str]:
        return self.findings.get(vulnerability, set())

    def apps(self, vulnerability: str) -> Set[str]:
        return {
            name.split("/", 1)[0] for name in self.components(vulnerability)
        }

    def add(self, vulnerability: str, component: str) -> None:
        self.findings.setdefault(vulnerability, set()).add(component)

    def to_dict(self) -> Dict[str, object]:
        """Canonical form for run reports and findings files (sorted)."""
        return {
            "findings": {
                vuln: sorted(comps)
                for vuln, comps in sorted(self.findings.items())
            },
            "leak_pairs": sorted(list(pair) for pair in self.leak_pairs),
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "DetectionReport":
        return DetectionReport(
            findings={
                vuln: set(comps)
                for vuln, comps in data.get("findings", {}).items()
            },
            leak_pairs={tuple(pair) for pair in data.get("leak_pairs", ())},
        )


class SeparDetector:
    """Decision-procedure twin of the synthesis signatures."""

    def detect(self, bundle: BundleModel) -> DetectionReport:
        report = DetectionReport()
        index = BundleIndex(bundle)
        components = index.components
        intents = bundle.all_intents()
        by_name = index.by_name
        relay_edges = index.relay_edges()

        for intent in intents:
            self._check_hijack(intent, report)
        for comp in components:
            self._check_launch(comp, report)
            self._check_escalation(comp, report)
            self._check_dynamic_receiver(comp, report)
        self._check_leaks(bundle, index, intents, relay_edges, report)
        self._check_redelegation(bundle, index, report)
        self._check_provider_leak(bundle, by_name, report)
        self._check_collusion(bundle, index, intents, relay_edges, report)
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _check_hijack(intent: IntentModel, report: DetectionReport) -> None:
        """Implicit Intent with an action and a sensitive payload: a filter
        listing its attributes intercepts it."""
        if intent.explicit or intent.passive:
            return
        if intent.action is None or not intent.extras:
            return
        report.add("intent_hijack", intent.sender)

    @staticmethod
    def _check_launch(comp: ComponentModel, report: DetectionReport) -> None:
        """Exported component with an ICC-rooted sensitive path."""
        if not comp.exported or not comp.reachable:
            return
        if comp.kind not in (ComponentKind.SERVICE, ComponentKind.ACTIVITY):
            return
        if not any(p.source is Resource.ICC for p in comp.paths):
            return
        name = (
            "service_launch"
            if comp.kind is ComponentKind.SERVICE
            else "activity_launch"
        )
        report.add(name, comp.name)

    @staticmethod
    def _check_escalation(comp: ComponentModel, report: DetectionReport) -> None:
        """Exported component exposing unenforced permission-guarded work.

        Narrowed the way the paper's counts imply: the unenforced
        permission must be *dangerous*-level, and the capability must be
        drivable from the component's ICC surface (an ICC-rooted path
        exists), i.e. a caller actually escalates through it."""
        from repro.android.permissions import ProtectionLevel, protection_level

        if not comp.exported or not comp.reachable:
            return
        leaked = {
            p
            for p in comp.uses_permissions - comp.permissions
            if protection_level(p) is ProtectionLevel.DANGEROUS
        }
        if not leaked:
            return
        if not any(p.source is Resource.ICC for p in comp.paths):
            return
        report.add("privilege_escalation", comp.name)

    @staticmethod
    def _check_leaks(
        bundle: BundleModel,
        index: BundleIndex,
        intents: List[IntentModel],
        relay_edges: Set[Tuple[str, str]],
        report: DetectionReport,
    ) -> None:
        """Sensitive payload delivered to a component that relays its ICC
        input to a public sink."""
        components, by_name = index.components, index.by_name
        relays = [
            c
            for c in components
            if c.reachable
            and any(
                p.source is Resource.ICC and p.sink in PUBLIC_SINKS
                for p in c.paths
            )
        ]
        relay_names = {c.name for c in relays}
        for intent in intents:
            sensitive = intent.extras & SENSITIVE_SOURCES
            if not sensitive:
                continue
            sender = by_name.get(intent.sender)
            if sender is None:
                continue
            first_hops = {
                c.name for c in index.receivers(intent, sender) if c.reachable
            }
            if not first_hops:
                continue
            # Transitive propagation: the payload keeps flowing through
            # ICC->ICC relays (the paper's OwnCloud chain) until it hits a
            # component that drains ICC input into a public sink.
            reached = transitive_receivers(relay_edges, first_hops)
            for name in reached & relay_names:
                if name == intent.sender:
                    continue
                report.add("information_leak", intent.sender)
                report.add("information_leak", name)
                report.leak_pairs.add((intent.sender, name))
        # Provider-directed leaks: tainted resolver payloads reaching a
        # provider whose operations relay ICC input to a public sink.
        providers = [
            c
            for c in components
            if c.kind is ComponentKind.PROVIDER and c.reachable
        ]
        for app in bundle.apps:
            for access in app.provider_accesses:
                sensitive = access.payload & SENSITIVE_SOURCES
                if not sensitive:
                    continue
                sender = by_name.get(access.sender)
                if sender is None:
                    continue
                for provider in providers:
                    if provider.authority is not None and access.authority not in (
                        None,
                        provider.authority,
                    ):
                        continue
                    if not provider.exported and provider.app != sender.app:
                        continue
                    if not any(
                        p.source is Resource.ICC and p.sink in PUBLIC_SINKS
                        for p in provider.paths
                    ):
                        continue
                    report.add("information_leak", access.sender)
                    report.add("information_leak", provider.name)
                    report.leak_pairs.add((access.sender, provider.name))

    @staticmethod
    def _check_dynamic_receiver(
        comp: ComponentModel, report: DetectionReport
    ) -> None:
        """Receiver registered from code with an unguarded matchable filter
        and sensitive work rooted at its ICC surface."""
        if comp.kind is not ComponentKind.RECEIVER:
            return
        if not comp.exported or not comp.reachable:
            return
        if comp.permissions:
            return
        if not any(f.dynamic and f.actions for f in comp.intent_filters):
            return
        if not any(p.source is Resource.ICC for p in comp.paths):
            return
        report.add("dynamic_receiver_hijack", comp.name)

    @staticmethod
    def _check_redelegation(
        bundle: BundleModel, index: BundleIndex, report: DetectionReport
    ) -> None:
        """Exported entry reaching, over >= 1 ICC call hops, a terminal
        that exercises its app's dangerous permission with neither end
        enforcing it."""
        from repro.android.permissions import ProtectionLevel, protection_level

        edges = index.call_edges()
        if not edges:
            return
        components = index.components
        app_perms = {app.package: app.uses_permissions for app in bundle.apps}
        terminals: Dict[str, Set[str]] = {}
        for comp in components:
            if not comp.reachable:
                continue
            if not any(p.source is Resource.ICC for p in comp.paths):
                continue
            delegated = {
                p
                for p in comp.uses_permissions - comp.permissions
                if protection_level(p) is ProtectionLevel.DANGEROUS
                and p in app_perms.get(comp.app, frozenset())
            }
            if delegated:
                terminals[comp.name] = delegated
        if not terminals:
            return
        adjacency = _adjacency(edges)
        for entry in components:
            if not entry.exported or not entry.reachable:
                continue
            reached = _forward_closure(adjacency, entry.name)
            for name in reached:
                if name == entry.name:
                    continue
                delegated = terminals.get(name)
                if not delegated:
                    continue
                if not (delegated - entry.permissions):
                    continue
                report.add("permission_redelegation", entry.name)
                report.add("permission_redelegation", name)

    @staticmethod
    def _check_provider_leak(
        bundle: BundleModel,
        by_name: Dict[str, ComponentModel],
        report: DetectionReport,
    ) -> None:
        """Sensitive write into a provider that escapes via the provider's
        own public sink or a foreign reader's."""

        def drains(comp: ComponentModel) -> bool:
            return comp.reachable and any(
                p.source is Resource.ICC and p.sink in PUBLIC_SINKS
                for p in comp.paths
            )

        readers: Dict[str, Set[str]] = {}
        for reader_name, provider_name in provider_read_edges(bundle):
            readers.setdefault(provider_name, set()).add(reader_name)
        for writer_name, provider_name in provider_write_edges(bundle):
            writer = by_name.get(writer_name)
            provider = by_name.get(provider_name)
            if writer is None or provider is None or not provider.reachable:
                continue
            if provider.name == writer.name:
                continue
            if drains(provider):
                report.add("provider_leak", writer.name)
                report.add("provider_leak", provider.name)
            for reader_name in readers.get(provider_name, ()):
                reader = by_name.get(reader_name)
                if reader is None or reader.name == provider.name:
                    continue
                if reader.app == writer.app or not drains(reader):
                    continue
                report.add("provider_leak", writer.name)
                report.add("provider_leak", provider.name)
                report.add("provider_leak", reader.name)

    @staticmethod
    def _check_collusion(
        bundle: BundleModel,
        index: BundleIndex,
        intents: List[IntentModel],
        relay_edges: Set[Tuple[str, str]],
        report: DetectionReport,
    ) -> None:
        """Sensitive payload crossing three apps: source -> exported
        intermediary -> (relay chain) -> draining sink component."""
        if len(bundle.apps) < 3 or not relay_edges:
            return
        components, by_name = index.components, index.by_name
        adjacency = _adjacency(relay_edges)
        drains = {
            c.name
            for c in components
            if c.reachable
            and any(
                p.source is Resource.ICC and p.sink in PUBLIC_SINKS
                for p in c.paths
            )
        }
        for intent in intents:
            if not (intent.extras & SENSITIVE_SOURCES):
                continue
            sender = by_name.get(intent.sender)
            if sender is None or not sender.reachable:
                continue
            for mid in index.receivers(intent, sender):
                if mid.app == sender.app:
                    continue
                if not mid.exported or not mid.reachable:
                    continue
                for dst_name in _forward_closure(adjacency, mid.name):
                    dst = by_name.get(dst_name)
                    if dst is None or dst_name not in drains:
                        continue
                    if dst.app in (sender.app, mid.app):
                        continue
                    report.add("app_collusion", sender.name)
                    report.add("app_collusion", mid.name)
                    report.add("app_collusion", dst.name)
