"""The SEPAR facade: APKs in, scenarios + policies out.

Wires the full pipeline of Figure 2 -- AME model extraction, ASE formal
synthesis, policy derivation -- behind one call::

    report = Separ().analyze_apks(apks)
    report.scenarios        # synthesized exploit scenarios
    report.policies         # preventive ECA policies
    report.stats            # construction/solving timings (Table II)

The policies feed :class:`repro.enforcement.pep.PolicyEnforcementPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.android.apk import Apk
from repro.core import serialize
from repro.core.detector import DetectionReport, SeparDetector
from repro.core.model import BundleModel
from repro.core.policy import ECAPolicy, derive_policies
from repro.core.synthesis import (
    AnalysisAndSynthesisEngine,
    SynthesisResult,
    SynthesisStats,
)
from repro.core.vulnerabilities.base import ExploitScenario, VulnerabilitySignature
from repro.statics import extract_bundle


@dataclass
class SeparReport:
    bundle: BundleModel
    scenarios: List[ExploitScenario]
    policies: List[ECAPolicy]
    stats: SynthesisStats
    detection: DetectionReport

    def vulnerable_apps(self, vulnerability: Optional[str] = None) -> List[str]:
        apps = set()
        for scenario in self.scenarios:
            if vulnerability and scenario.vulnerability != vulnerability:
                continue
            if scenario.victim_app:
                apps.add(scenario.victim_app)
        return sorted(apps)

    def findings(self) -> Dict[str, Any]:
        """The bundle's findings in canonical, diffable form: one entry
        of ``PipelineResult.findings_dict`` and the service's ``analyze``
        answer."""
        return {
            "apps": sorted(a.package for a in self.bundle.apps),
            "scenarios": [
                serialize.scenario_to_dict(s) for s in self.scenarios
            ],
            "policies": [serialize.policy_to_dict(p) for p in self.policies],
            "detection": self.detection.to_dict(),
        }

    def summary(self) -> str:
        grouped: Dict[str, int] = {}
        for scenario in self.scenarios:
            grouped[scenario.vulnerability] = (
                grouped.get(scenario.vulnerability, 0) + 1
            )
        lines = [
            f"bundle: {len(self.bundle.apps)} apps, "
            f"{len(self.bundle.all_components())} components"
        ]
        for name in sorted(grouped):
            lines.append(f"  {name}: {grouped[name]} scenario(s)")
        lines.append(f"  policies synthesized: {len(self.policies)}")
        return "\n".join(lines)


class Separ:
    """End-to-end SEPAR pipeline."""

    def __init__(
        self,
        signatures: Optional[Sequence[VulnerabilitySignature]] = None,
        scenarios_per_signature: int = 8,
        minimal: bool = True,
        handle_dynamic_receivers: bool = False,
    ) -> None:
        self.engine = AnalysisAndSynthesisEngine(
            signatures=signatures,
            scenarios_per_signature=scenarios_per_signature,
            minimal=minimal,
        )
        self.handle_dynamic_receivers = handle_dynamic_receivers

    def analyze_apks(self, apks: Sequence[Apk]) -> SeparReport:
        bundle = extract_bundle(
            list(apks), handle_dynamic_receivers=self.handle_dynamic_receivers
        )
        return self.analyze_bundle(bundle)

    def analyze_bundle(self, bundle: BundleModel) -> SeparReport:
        result: SynthesisResult = self.engine.run(bundle)
        return self.assemble_report(bundle, result)

    @staticmethod
    def assemble_report(
        bundle: BundleModel,
        result: SynthesisResult,
        detection: Optional[DetectionReport] = None,
    ) -> SeparReport:
        """Policy derivation + detection over a precomputed synthesis.

        Split out so the parallel pipeline can fan synthesis out across
        (bundle, signature) pairs and still assemble the exact report
        `analyze_bundle` would have produced.  A caller that already
        holds the bundle's detection passes it as ``detection`` (any app
        order: :meth:`DetectionReport.to_dict` sorts), and detection does
        not run again."""
        policies = derive_policies(result.scenarios, bundle)
        if detection is None:
            detection = SeparDetector().detect(bundle)
        return SeparReport(
            bundle=bundle,
            scenarios=result.scenarios,
            policies=policies,
            stats=result.stats,
            detection=detection,
        )
