"""Unit tests for the warm per-device session layer."""

import json

import pytest

from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.core import serialize
from repro.core.detector import SeparDetector
from repro.core.separ import Separ
from repro.enforcement import CompiledPolicyDecisionPoint
from repro.obs import COST_FIELDS
from repro.pipeline import AnalysisPipeline
from repro.pipeline.cache import MemoryCache
from repro.service.protocol import ProtocolError
from repro.service.session import (
    DeviceSession,
    SessionConfig,
    cold_analysis,
    findings_bundle,
)
from repro.statics import extract_app

CONFIG = SessionConfig(scenarios_per_signature=2)


@pytest.fixture(scope="module")
def apps():
    return [
        extract_app(a)
        for a in (build_app1(), build_app2(), build_malicious_app())
    ]


@pytest.fixture(scope="module")
def app_dicts(apps):
    return {a.package: serialize.app_to_dict(a) for a in apps}


def canon(data):
    return json.dumps(data, sort_keys=True)


class TestMutations:
    def test_install_returns_detection_delta(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        result = session.install(app_dicts[apps[0].package])
        assert result["installed"] == [apps[0].package]
        assert result["synthesis"] == "deferred"
        assert any(result["delta"]["added"].values())

    def test_double_install_conflicts(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        session.install(app_dicts[apps[0].package])
        with pytest.raises(ProtocolError) as exc:
            session.install(app_dicts[apps[0].package])
        assert exc.value.kind == "conflict"

    def test_uninstall_unknown_package(self):
        session = DeviceSession("d", config=CONFIG)
        with pytest.raises(ProtocolError) as exc:
            session.uninstall("no.such.app")
        assert exc.value.kind == "not_found"

    def test_update_requires_installed_package(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        with pytest.raises(ProtocolError) as exc:
            session.update(app_dicts[apps[0].package])
        assert exc.value.kind == "not_found"

    def test_uninstall_reverses_install_delta(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        added = session.install(app_dicts[apps[0].package])["delta"]["added"]
        removed = session.uninstall(apps[0].package)["delta"]["removed"]
        assert added == removed
        assert session.packages() == []

    def test_bad_app_payload_is_bad_request(self):
        session = DeviceSession("d", config=CONFIG)
        with pytest.raises(ProtocolError) as exc:
            session.install({"not": "an app"})
        assert exc.value.kind == "bad_request"
        with pytest.raises(ProtocolError) as exc:
            session.install("nope")
        assert exc.value.kind == "bad_request"


    def test_packages_reads_the_installed_set(
        self, app_dicts, apps, monkeypatch
    ):
        """``packages()`` equals the current bundle's package names after
        every kind of mutation, and builds no grant-effective app."""
        from repro.core import incremental

        session = DeviceSession("d", config=CONFIG)
        built = []
        effective = incremental._effective_app

        def counting(app, granted):
            built.append(app.package)
            return effective(app, granted)

        monkeypatch.setattr(incremental, "_effective_app", counting)
        package = apps[1].package
        permission = sorted(apps[1].uses_permissions)[0]
        steps = [
            lambda: session.install(app_dicts[apps[0].package]),
            lambda: session.install(app_dicts[package]),
            lambda: session.update(app_dicts[package]),
            lambda: session.revoke(package, permission),
            lambda: session.grant(package, permission),
            lambda: session.uninstall(apps[0].package),
        ]
        for step in steps:
            step()
            names = sorted(a.package for a in session.current_bundle().apps)
            del built[:]
            assert session.packages() == names
            assert built == []
        assert session.packages() == [package]


class TestLazySynthesis:
    def test_mutation_burst_pays_one_synthesis(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        for app in apps:
            session.install(app_dicts[app.package])
        assert session.syntheses == 0  # nothing solved yet
        session.analyze()
        assert session.syntheses == 1
        session.analyze()  # clean state: no new synthesis, no new lookup
        assert session.syntheses == 1
        assert session.warm_lookups == 1

    def test_recomposition_hits_warm_cache(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        session.analyze()
        session.install(app_dicts[apps[2].package])
        session.analyze()
        assert session.syntheses == 2
        # Back to a composition we have seen: served from the cache.
        session.uninstall(apps[2].package)
        session.analyze()
        assert session.syntheses == 2
        assert session.warm_hits == 1
        assert 0.0 < session.warm_hit_rate < 1.0

    def test_refresh_reuses_the_mutations_detection(
        self, app_dicts, apps, monkeypatch
    ):
        """Detection runs once per mutation, in the session's analyzer;
        a refresh reuses it instead of detecting the same composition
        again, and still answers what a cold run answers."""
        runs = []
        detect = SeparDetector.detect

        def counted(self, bundle):
            runs.append(len(bundle.apps))
            return detect(self, bundle)

        monkeypatch.setattr(SeparDetector, "detect", counted)
        session = DeviceSession("d", config=CONFIG)
        counts = [len(runs)]
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        counts.append(len(runs))
        both = session.analyze()
        counts.append(len(runs))
        session.uninstall(apps[1].package)
        one = session.analyze()
        counts.append(len(runs))
        assert counts == [1, 3, 3, 4]
        assert canon(both) == canon(cold_analysis(apps[:2], CONFIG))
        assert canon(one) == canon(cold_analysis(apps[:1], CONFIG))

    def test_policies_refresh_through_pdp_invalidation(
        self, app_dicts, apps
    ):
        session = DeviceSession("d", config=CONFIG)
        session.install(app_dicts[apps[0].package])
        session.install(app_dicts[apps[1].package])
        first = session.policies()["policies"]
        assert [serialize.policy_to_dict(p) for p in session.pdp.policies] == first
        session.uninstall(apps[1].package)
        second = session.policies()["policies"]
        assert [serialize.policy_to_dict(p) for p in session.pdp.policies] == second
        assert canon(first) != canon(second)

    def test_grant_revoke_round_trip_is_warm(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        for app in apps:
            session.install(app_dicts[app.package])
        baseline = session.analyze()
        # app2 (messenger) sends SMS through its exposed sender; revoking
        # SEND_SMS changes what the bundle analysis can exploit.
        package = apps[1].package
        permission = sorted(apps[1].uses_permissions)[0]
        session.revoke(package, permission)
        revoked = session.analyze()
        session.grant(package, permission)
        restored = session.analyze()
        assert canon(restored) == canon(baseline)
        assert canon(revoked) != canon(baseline)
        # The round trip back to the original grants is a cache hit.
        assert session.warm_hits >= 1


class TestQueries:
    def test_analyze_matches_cold_run(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        assert canon(session.analyze()) == canon(
            cold_analysis(apps[:2], CONFIG)
        )

    def test_decide_uses_current_policies(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        policies = session.policies()["policies"]
        assert policies
        target = policies[0]
        result = session.decide(
            "icc_receive",
            {
                "sender": "any.app/Comp",
                "receiver": target.get("receiver"),
                "action": target.get("intent_action"),
            },
        )
        assert result["decision"] in ("allow", "deny")
        assert result["audit"]["seq"] == 0

    def test_decide_rejects_bad_kind_and_event(self):
        session = DeviceSession("d", config=CONFIG)
        with pytest.raises(ProtocolError):
            session.decide("nonsense", {"sender": "a/b"})
        with pytest.raises(ProtocolError):
            session.decide("icc_send", {"receiver": "a/b"})
        with pytest.raises(ProtocolError):
            session.decide(
                "icc_send", {"sender": "a/b", "extras": ["NOT_A_RESOURCE"]}
            )

    def test_status_reports_warm_state(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        session.install(app_dicts[apps[0].package])
        session.analyze()
        status = session.status()
        assert status["installed"] == [apps[0].package]
        assert status["dirty"] is False
        assert status["syntheses"] == 1
        assert status["solver"]["num_vars"] > 0

    def test_audit_trail_accumulates(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        session.install(app_dicts[apps[0].package])
        for _ in range(3):
            session.decide("icc_send", {"sender": "a/b"})
        trail = session.audit_trail()
        assert [r["seq"] for r in trail["records"]] == [0, 1, 2]
        assert trail["summary"]["decisions"] == 3


class TestCostAccount:
    """Each session charges one ``CostKey(device=...)`` account, and
    ``status`` shows its totals."""

    @staticmethod
    def _delta(before, after):
        return {
            meter: after[meter] - before[meter]
            for meter in COST_FIELDS
            if after[meter] != before[meter]
        }

    def test_cold_synthesis_charges_the_device_account(
        self, app_dicts, apps
    ):
        session = DeviceSession("d", config=CONFIG)
        assert session.status()["cost"] == dict.fromkeys(COST_FIELDS, 0.0)
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        session.analyze()
        cost = session.status()["cost"]
        assert cost["cache_misses"] == 1
        assert cost["cache_hits"] == 0
        assert cost["clauses_added"] > 0
        assert cost["decisions"] > 0
        # One account, keyed by the device alone.
        (entry,) = session.ledger.entries()
        assert (
            entry["trace_id"], entry["device"], entry["bundle"],
            entry["signature"],
        ) == ("", "d", "", "")
        assert {m: entry[m] for m in COST_FIELDS} == cost

    def test_warm_recomposition_charges_only_a_cache_hit(
        self, app_dicts, apps
    ):
        session = DeviceSession("d", config=CONFIG)
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        session.analyze()
        session.uninstall(apps[1].package)
        session.analyze()
        session.install(app_dicts[apps[1].package])
        before = session.status()["cost"]
        session.analyze()
        assert self._delta(before, session.status()["cost"]) == {
            "cache_hits": 1.0
        }
        assert len(session.ledger) == 1

    def test_repeated_decide_charges_pdp_cache_hits(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        for app in apps[:2]:
            session.install(app_dicts[app.package])
        session.policies()
        event = {"sender": "probe.app/Main"}
        before = session.status()["cost"]
        session.decide("icc_send", event)
        assert self._delta(before, session.status()["cost"]) == {}
        session.decide("icc_send", event)
        assert self._delta(before, session.status()["cost"]) == {
            "pdp_cache_hits": 1.0
        }

    def test_resident_pdp_is_compiled(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        session.install(app_dicts[apps[0].package])
        assert isinstance(session.pdp, CompiledPolicyDecisionPoint)
        assert "pdp_backend" not in session.policies()
        with pytest.raises(TypeError):
            SessionConfig(pdp_backend="linear")


class TestHandleDispatch:
    def test_handle_routes_every_device_op(self, app_dicts, apps):
        session = DeviceSession("d", config=CONFIG)
        pkg = apps[0].package
        assert session.handle(
            {"op": "install", "app": app_dicts[pkg]}
        )["installed"] == [pkg]
        assert "scenarios" in session.handle({"op": "analyze"})
        assert "policies" in session.handle({"op": "policies"})
        assert "records" in session.handle({"op": "audit"})
        assert session.handle({"op": "status"})["device"] == "d"
        assert session.handle(
            {"op": "uninstall", "package": pkg}
        )["installed"] == []

    def test_handle_validates_operands(self):
        session = DeviceSession("d", config=CONFIG)
        with pytest.raises(ProtocolError) as exc:
            session.handle({"op": "uninstall"})
        assert exc.value.kind == "bad_request"
        with pytest.raises(ProtocolError) as exc:
            session.handle({"op": "grant", "package": "p"})
        assert exc.value.kind == "bad_request"


class TestColdComparator:
    def test_cold_analysis_equals_separ_facade(self, apps):
        """The differential comparator must itself match the reference
        facade -- otherwise 'byte-identical to a cold run' proves
        nothing."""
        from repro.core.model import BundleModel

        bundle = BundleModel(apps=sorted(apps, key=lambda a: a.package))
        separ = Separ(scenarios_per_signature=CONFIG.scenarios_per_signature)
        assert canon(cold_analysis(apps, CONFIG)) == canon(
            findings_bundle(separ.analyze_bundle(bundle))
        )

    def test_cold_analysis_order_independent(self, apps):
        assert canon(cold_analysis(apps, CONFIG)) == canon(
            cold_analysis(list(reversed(apps)), CONFIG)
        )


class TestPipelineKeyAgreement:
    """Session and pipeline key synthesis entries the same way, so an
    entry either one writes answers the other without solving."""

    @staticmethod
    def _session(app_dicts, apps, cache):
        session = DeviceSession("d", config=CONFIG, cache=cache)
        for app in apps:
            session.install(app_dicts[app.package])
        # A revoked grant makes the effective composition differ from the
        # extracted apps.
        session.revoke(apps[1].package, sorted(apps[1].uses_permissions)[0])
        return session

    @staticmethod
    def _pipeline(cache):
        return AnalysisPipeline(
            jobs=1,
            cache=cache,
            scenarios_per_signature=CONFIG.scenarios_per_signature,
        )

    def test_session_answers_from_pipeline_entries(self, app_dicts, apps):
        cache = MemoryCache()
        session = self._session(app_dicts, apps, cache)
        cold = self._pipeline(cache).analyze_bundles(
            [session.current_bundle()]
        )
        warm = session.analyze()
        assert session.syntheses == 0
        assert session.warm_hits == 1
        assert canon(warm) == canon(cold.findings_dict()["bundles"][0])

    def test_pipeline_answers_from_session_entries(self, app_dicts, apps):
        cache = MemoryCache()
        session = self._session(app_dicts, apps, cache)
        cold = session.analyze()
        assert session.syntheses == 1
        # The accounting belongs to the shared cache: the session's one
        # miss is already in it.
        assert cache.accounting.misses == {"synthesis": 1}
        warm = self._pipeline(cache).analyze_bundles(
            [session.current_bundle()]
        )
        assert cache.accounting.misses == {"synthesis": 1}
        assert cache.accounting.hits == {"synthesis": 1}
        assert canon(warm.findings_dict()["bundles"][0]) == canon(cold)
