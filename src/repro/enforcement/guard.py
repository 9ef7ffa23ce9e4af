"""DeviceGuard: the end-user deployment loop.

Ties the whole system together the way SEPAR runs on a device:

- apps are installed/uninstalled over time;
- after each change, the guard re-extracts only the new app (cached
  models for the rest), re-runs synthesis for the current bundle, and
  refreshes the PDP's policy set;
- the PEP stays installed on the runtime the whole time, so protection is
  continuous and always specific to the *current* app combination --
  "fine-tuned to the user-specific, continuously-evolving configuration of
  apps" (Section IX).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.android.apk import Apk
from repro.core.model import AppModel, BundleModel
from repro.core.policy import ECAPolicy
from repro.core.separ import Separ, SeparReport
from repro.enforcement.pdp import PromptCallback, deny_all_prompts
from repro.enforcement.pep import PolicyEnforcementPoint
from repro.enforcement.runtime import AndroidRuntime
from repro.statics.extractor import ModelExtractor
from repro.statics.intent_extraction import update_passive_intent_targets


class DeviceGuard:
    """Continuously protects a simulated device with synthesized policies."""

    def __init__(
        self,
        runtime: Optional[AndroidRuntime] = None,
        separ: Optional[Separ] = None,
        prompt_callback: PromptCallback = deny_all_prompts,
    ) -> None:
        from repro.enforcement import make_pdp

        self.runtime = runtime or AndroidRuntime()
        self.separ = separ or Separ(scenarios_per_signature=4)
        self._extractor = ModelExtractor()
        self._models: Dict[str, AppModel] = {}
        self.pdp = make_pdp([], prompt_callback=prompt_callback)
        self.pep = PolicyEnforcementPoint(self.runtime, self.pdp)
        self.pep.install()
        self.last_report: Optional[SeparReport] = None

    # ------------------------------------------------------------------
    def install(self, apk: Apk) -> SeparReport:
        """Install an app: extract it, re-synthesize, refresh policies."""
        self.runtime.install(apk)
        self._models[apk.package] = self._extractor.extract(apk)
        return self._refresh()

    def uninstall(self, package: str) -> SeparReport:
        self.runtime.device.uninstall(package)
        self._models.pop(package, None)
        return self._refresh()

    # ------------------------------------------------------------------
    def current_bundle(self) -> BundleModel:
        bundle = BundleModel(apps=list(self._models.values()))
        # Re-run Algorithm 1 bundle-wide: result channels may cross apps.
        updated = update_passive_intent_targets(bundle.all_intents())
        by_id = {i.entity_id: i for i in updated}
        for app in bundle.apps:
            app.intents = [by_id.get(i.entity_id, i) for i in app.intents]
        return bundle

    def _refresh(self) -> SeparReport:
        report = self.separ.analyze_bundle(self.current_bundle())
        # Plain assignment is the whole invalidation protocol: the PDP's
        # ``policies`` setter recompiles the dispatch index and clears the
        # decision cache on the compiled backend.
        self.pdp.policies = list(report.policies)
        self.last_report = report
        return report

    # ------------------------------------------------------------------
    @property
    def policies(self) -> List[ECAPolicy]:
        return list(self.pdp.policies)

    def start_component(self, qualified: str) -> None:
        self.runtime.start_component(qualified)

    def protection_summary(self) -> str:
        lines = [
            f"installed apps:   {len(self._models)}",
            f"active policies:  {len(self.pdp.policies)}",
            # Audit counters are exact even after the decision-log window
            # or audit rotation has evicted old records.
            f"prompts so far:   {self.pdp.audit.summary()['prompted']}",
            f"blocked so far:   {self.pep.blocked_deliveries}",
        ]
        if self.last_report is not None:
            by_vuln: Dict[str, int] = {}
            for scenario in self.last_report.scenarios:
                by_vuln[scenario.vulnerability] = (
                    by_vuln.get(scenario.vulnerability, 0) + 1
                )
            for vuln, count in sorted(by_vuln.items()):
                lines.append(f"  {vuln}: {count} scenario(s)")
        return "\n".join(lines)
