"""Direct tests for the formal layer: framework meta-model, app embedding,
and the synthesis engine's mechanics."""

import pytest

from repro.android.components import ComponentKind
from repro.android.resources import Resource, SINKS, SOURCES
from repro.benchsuite.running_example import build_app1, build_app2
from repro.core.app_to_spec import BundleSpec
from repro.core.framework_spec import (
    AndroidFrameworkSpec,
    action_atom,
    resource_atom,
)
from repro.core.icc_graph import BundleIndex
from repro.core.model import (
    AppModel,
    BundleModel,
    ComponentModel,
    IntentFilterModel,
    IntentModel,
    PathModel,
)
from repro.core.policy import hijack_allow_list
from repro.core.synthesis import AnalysisAndSynthesisEngine
from repro.core.vulnerabilities import (
    IntentHijackSignature,
    ServiceLaunchSignature,
    default_signatures,
    lookup,
    register,
    registered,
)
from repro.core.vulnerabilities.base import VulnerabilitySignature
from repro.relational import ast as rast
from repro.statics import extract_bundle


class TestFrameworkSpec:
    def test_resource_atoms_classified(self):
        fw = AndroidFrameworkSpec()
        bounds, _ = fw.module.build()
        source_atoms = {t[0] for t in bounds.lower(fw.source_resources.relation)}
        sink_atoms = {t[0] for t in bounds.lower(fw.sink_resources.relation)}
        assert source_atoms == {resource_atom(r) for r in SOURCES}
        assert sink_atoms == {resource_atom(r) for r in SINKS}
        assert resource_atom(Resource.ICC) in source_atoms & sink_atoms

    def test_meta_model_satisfiable_empty(self):
        """The bare meta-model admits the empty instance."""
        fw = AndroidFrameworkSpec()
        problem = fw.module.solve_problem()
        assert problem.solve() is not None

    def test_filter_ownership_fact(self):
        """A free IntentFilter atom must attach to exactly one component."""
        fw = AndroidFrameworkSpec()
        # A filter needs at least one action (some-multiplicity): give the
        # universe an action atom to pick.
        fw.module.one_sig(action_atom("test"), extends=fw.action)
        problem = fw.module.solve_problem(
            extra={fw.intent_filter: 1, fw.service: 1, fw.application: 1}
        )
        instance = problem.solve()
        assert instance is not None
        owners = [
            t for t in instance.tuples(fw.cmp_filters.relation)
            if t[1] == "IntentFilter$0"
        ]
        assert len(owners) == 1

    def test_no_filters_on_providers_fact(self):
        """A free filter cannot attach to a Provider: with only a Provider
        atom available to own it, the model is unsatisfiable."""
        fw = AndroidFrameworkSpec()
        problem = fw.module.solve_problem(
            extra={fw.intent_filter: 1, fw.provider: 1, fw.application: 1}
        )
        assert problem.solve() is None

    def test_pin_validation_eager(self):
        fw = AndroidFrameworkSpec()
        provider = fw.module.one_sig("pkg_Prov", extends=fw.provider)
        with pytest.raises(ValueError):
            fw.module.pin(fw.cmp_app, provider, [])  # 'one' needs a value


class TestBundleSpec:
    @pytest.fixture(scope="class")
    def bundle(self):
        return extract_bundle([build_app1(), build_app2()])

    def test_every_component_embedded(self, bundle):
        spec = BundleSpec(bundle)
        for comp in bundle.all_components():
            assert comp.name in spec.component_sigs

    def test_every_intent_embedded(self, bundle):
        spec = BundleSpec(bundle)
        for intent in bundle.all_intents():
            assert intent.entity_id in spec.intent_sigs

    def test_device_apps_pinned(self, bundle):
        spec = BundleSpec(bundle)
        bounds, _ = spec.module.build()
        installed = {t[1] for t in bounds.lower(spec.fw.dev_apps.relation)}
        assert installed == {a.package for a in bundle.apps}

    def test_pinned_model_satisfiable(self, bundle):
        """The embedded bundle admits an instance (consistency of the
        extracted facts with the framework facts)."""
        spec = BundleSpec(bundle)
        problem = spec.module.solve_problem()
        assert problem.solve() is not None

    def test_intent_attributes_roundtrip(self, bundle):
        spec = BundleSpec(bundle)
        problem = spec.module.solve_problem()
        instance = problem.solve()
        [hijackable] = [
            i for i in bundle.all_intents() if i.sender.endswith("LocationFinder")
        ]
        attrs = spec.intent_attributes(instance, hijackable.entity_id)
        assert attrs["action"] == "showLoc"
        assert attrs["sender"] == hijackable.sender
        assert Resource.LOCATION in attrs["extras"]
        assert attrs["receiver"] is None

    def test_hijack_allow_list(self, bundle):
        [hijackable] = [
            i for i in bundle.all_intents() if i.sender.endswith("LocationFinder")
        ]
        assert hijack_allow_list(BundleIndex(bundle), hijackable) == {
            "com.example.navigation/RouteFinder"
        }

    def test_absent_sender_intent_skipped(self):
        """Intents whose sender component is not modeled are dropped from
        the embedding rather than crashing it."""
        app = AppModel(
            package="a",
            components=[],
            intents=[IntentModel(entity_id="a:1", sender="a/Ghost")],
        )
        spec = BundleSpec(BundleModel(apps=[app]))
        assert "a:1" not in spec.intent_sigs


class TestSynthesisEngine:
    @pytest.fixture(scope="class")
    def bundle(self):
        return extract_bundle([build_app1(), build_app2()])

    def test_empty_bundle_no_scenarios(self):
        engine = AnalysisAndSynthesisEngine(scenarios_per_signature=2)
        result = engine.run(BundleModel())
        assert result.scenarios == []

    def test_single_signature_runs(self, bundle):
        engine = AnalysisAndSynthesisEngine(
            signatures=[ServiceLaunchSignature()], scenarios_per_signature=4
        )
        result = engine.run(bundle)
        assert all(s.vulnerability == "service_launch" for s in result.scenarios)
        assert result.stats.per_signature["service_launch"]["scenarios"] >= 1

    def test_diversity_yields_distinct_victims(self, bundle):
        engine = AnalysisAndSynthesisEngine(
            signatures=[ServiceLaunchSignature()], scenarios_per_signature=8
        )
        result = engine.run(bundle)
        victims = [s.roles["victim"] for s in result.scenarios]
        assert len(victims) == len(set(victims))

    def test_non_minimal_mode(self, bundle):
        engine = AnalysisAndSynthesisEngine(
            signatures=[IntentHijackSignature()],
            scenarios_per_signature=2,
            minimal=False,
        )
        result = engine.run(bundle)
        assert result.scenarios

    def test_by_vulnerability_grouping(self, bundle):
        engine = AnalysisAndSynthesisEngine(scenarios_per_signature=2)
        result = engine.run(bundle)
        grouped = result.by_vulnerability()
        for vuln, scenarios in grouped.items():
            assert all(s.vulnerability == vuln for s in scenarios)

    def test_vulnerable_apps_projection(self, bundle):
        engine = AnalysisAndSynthesisEngine(scenarios_per_signature=4)
        result = engine.run(bundle)
        assert "com.example.messenger" in result.vulnerable_apps("service_launch")
        assert result.vulnerable_apps("nonexistent") == []

    def test_rejects_zero_scenarios(self):
        # Zero would skip enumeration and report every bundle clean.
        with pytest.raises(ValueError, match="at least 1"):
            AnalysisAndSynthesisEngine(scenarios_per_signature=0)


class TestRegistry:
    def test_builtins_registered(self):
        names = set(registered())
        assert {
            "intent_hijack",
            "activity_launch",
            "service_launch",
            "information_leak",
            "privilege_escalation",
        } <= names

    def test_lookup(self):
        assert lookup("intent_hijack") is IntentHijackSignature

    def test_default_signatures_fresh_instances(self):
        a = default_signatures()
        b = default_signatures()
        assert {type(x) for x in a} == {type(x) for x in b}
        assert all(x is not y for x, y in zip(a, b))

    def test_register_rejects_abstract_name(self):
        class Nameless(VulnerabilitySignature):
            def instantiate(self, spec):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError):
            register(Nameless)

    def test_register_rejects_conflict(self):
        class Impostor(VulnerabilitySignature):
            name = "intent_hijack"

            def instantiate(self, spec):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError):
            register(Impostor)
