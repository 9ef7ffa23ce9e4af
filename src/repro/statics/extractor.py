"""AME orchestration: APK in, architectural app specification out.

Runs the extraction pipeline per app -- architecture (manifest), value
analysis, Intent extraction, taint-based path extraction, permission
extraction -- and assembles the :class:`~repro.core.model.AppModel`.
Bundle extraction then applies Algorithm 1 (passive-Intent targets)
across the whole app set, since result channels may cross apps.

``handle_dynamic_receivers`` opts into extracting dynamically registered
Broadcast Receiver filters.  It is **off by default**: SEPAR's published
extractor misses these (its only DroidBench misses, Table I); enabling the
flag is this reproduction's documented extension/ablation.
"""

from __future__ import annotations

import time
from typing import List, Set

from repro.android.apk import Apk
from repro.android.components import ComponentKind
from repro.obs import get_metrics, get_tracer
from repro.core.model import (
    AppModel,
    BundleModel,
    ComponentModel,
    IntentFilterModel,
    ProviderAccessModel,
)
from repro.statics.callgraph import CallGraph
from repro.statics.constprop import ValueAnalysis
from repro.statics.intent_extraction import (
    IntentExtraction,
    update_passive_intent_targets,
)
from repro.statics.permission_extraction import PermissionExtraction
from repro.statics.taint import TaintAnalysis


class ModelExtractor:
    """Extracts the formal specification of one app."""

    def __init__(
        self,
        handle_dynamic_receivers: bool = False,
        reachability_pruning: bool = True,
    ) -> None:
        self.handle_dynamic_receivers = handle_dynamic_receivers
        self.reachability_pruning = reachability_pruning

    def extract(self, apk: Apk) -> AppModel:
        tracer = get_tracer()
        with tracer.span("ame.extract", package=apk.package):
            return self._extract(apk, tracer)

    def _extract(self, apk: Apk, tracer) -> AppModel:
        start = time.perf_counter()
        with tracer.span("ame.callgraph"):
            callgraph = CallGraph(apk)
        with tracer.span("ame.constprop"):
            values = ValueAnalysis(callgraph)

        all_roots = not self.reachability_pruning
        with tracer.span("ame.taint"):
            taint = TaintAnalysis(
                apk, callgraph, values, all_roots=all_roots
            ).run()
        with tracer.span("ame.intents"):
            intents_result = IntentExtraction(
                apk, callgraph, values, all_roots=all_roots
            ).run(extras_taint=taint.extras_taint)
        with tracer.span("ame.permissions"):
            permissions = PermissionExtraction(apk, callgraph, values).run()

        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("ame.apps_extracted").inc()
            metrics.counter("ame.constprop_method_analyses").inc(
                values.method_analyses
            )
            metrics.histogram("ame.cfg_count").observe(len(callgraph.cfgs))
            metrics.histogram("ame.callgraph_edges").observe(
                sum(len(sites) for sites in callgraph.edges.values())
            )
            metrics.histogram("ame.taint_paths").observe(
                sum(len(paths) for paths in taint.paths.values())
            )
            metrics.histogram("ame.intents").observe(
                len(intents_result.intents)
            )

        components = []
        for decl in apk.manifest.components:
            qualified = apk.manifest.qualified(decl)
            filters = [
                IntentFilterModel(
                    actions=frozenset(f.actions),
                    categories=frozenset(f.categories),
                    data_types=frozenset(f.data_types),
                    data_schemes=frozenset(f.data_schemes),
                )
                for f in decl.intent_filters
            ]
            if self.handle_dynamic_receivers and decl.kind is ComponentKind.RECEIVER:
                filters.extend(
                    reg.filter_model
                    for reg in intents_result.dynamic_filters
                    if reg.receiver_class == decl.name
                )
            perm_info = permissions.get(qualified)
            enforced: Set[str] = set()
            if decl.permission:
                enforced.add(decl.permission)
            if perm_info:
                enforced |= set(perm_info.enforced_in_code)
            cls = apk.component_class(decl.name)
            reachable = cls is None or any(m.is_entry_point for m in cls.methods)
            exported = decl.is_public or (
                self.handle_dynamic_receivers
                and any(
                    reg.receiver_class == decl.name
                    for reg in intents_result.dynamic_filters
                )
            )
            components.append(
                ComponentModel(
                    name=qualified,
                    kind=decl.kind,
                    app=apk.package,
                    exported=exported,
                    intent_filters=tuple(filters),
                    permissions=frozenset(enforced),
                    paths=tuple(sorted(
                        taint.paths.get(qualified, set()),
                        key=lambda p: (p.source.value, p.sink.value),
                    )),
                    uses_permissions=(
                        perm_info.exposed if perm_info else frozenset()
                    ),
                    reachable=reachable,
                    authority=decl.authority,
                    reads_extra_keys=frozenset(
                        taint.reads_extra_keys.get(qualified, ())
                    ),
                )
            )

        intents = update_passive_intent_targets(intents_result.intents)
        provider_accesses = [
            ProviderAccessModel(
                sender=call.sender,
                operation=call.operation,
                authority=call.authority,
                payload=frozenset(taint.resolver_taint.get(call.site, ())),
            )
            for call in intents_result.resolver_calls
        ]
        elapsed = time.perf_counter() - start
        return AppModel(
            package=apk.package,
            uses_permissions=frozenset(apk.manifest.uses_permissions),
            components=components,
            intents=intents,
            provider_accesses=provider_accesses,
            extraction_seconds=elapsed,
            apk_size_kb=apk.size_kb or 0,
            repository=apk.repository,
        )


def extract_app(apk: Apk, handle_dynamic_receivers: bool = False) -> AppModel:
    return ModelExtractor(handle_dynamic_receivers).extract(apk)


def extract_bundle(
    apks: List[Apk], handle_dynamic_receivers: bool = False
) -> BundleModel:
    """Extract every app, then resolve passive-Intent targets bundle-wide."""
    extractor = ModelExtractor(handle_dynamic_receivers)
    apps = [extractor.extract(apk) for apk in apks]
    bundle = BundleModel(apps=apps)
    # Algorithm 1 across apps: a result channel may cross app boundaries.
    all_intents = bundle.all_intents()
    updated = update_passive_intent_targets(all_intents)
    by_id = {i.entity_id: i for i in updated}
    for app in bundle.apps:
        app.intents = [by_id.get(i.entity_id, i) for i in app.intents]
    return bundle
