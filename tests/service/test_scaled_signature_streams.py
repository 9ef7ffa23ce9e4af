"""Warm-session differential coverage for the scaled threat model.

The PR-9 signatures (permission re-delegation chains, provider leakage,
dynamic-receiver hijack, app collusion) reach the long-running service
through the same incremental path as the original four.  These tests
replay install/uninstall streams over an adversarial-corpus bundle and
the fixed threat cases, asserting after every event that the warm
answer -- scenarios, policies, detection report -- is byte-identical to
a cold full-bundle rerun, and that multi-app findings appear and vanish
exactly when their participating apps do."""

import json

import pytest

from repro.benchsuite.threatcases import all_threat_cases
from repro.core import serialize
from repro.core.attack_generation import (
    SCALED_SIGNATURES,
    AdversarialCorpusConfig,
    AdversarialCorpusGenerator,
)
from repro.service.session import (
    DeviceSession,
    SessionConfig,
    cold_analysis,
)
from repro.statics import extract_app

SEED = 20160809


def canon(data):
    return json.dumps(data, sort_keys=True)


@pytest.fixture(scope="module")
def adversarial():
    """One extracted adversarial bundle plus its ground-truth manifest."""
    config = AdversarialCorpusConfig(
        seed=SEED, bundles=1, apps_per_bundle=6
    )
    raw, manifest = AdversarialCorpusGenerator(config).generate()
    apps = [
        extract_app(apk, handle_dynamic_receivers=True) for apk in raw[0]
    ]
    return apps, manifest


def assert_warm_equals_cold(session, config):
    warm = session.analyze()
    cold = cold_analysis(session.current_bundle().apps, config)
    assert canon(warm) == canon(cold), session.packages()
    return warm


class TestAdversarialStream:
    def test_install_stream_tracks_cold_runs(self, adversarial):
        apps, manifest = adversarial
        config = SessionConfig(scenarios_per_signature=4)
        session = DeviceSession("adv", config=config)
        for app in apps:
            session.install(serialize.app_to_dict(app))
            assert_warm_equals_cold(session, config)
        warm = session.analyze()
        found = {s["vulnerability"] for s in warm["scenarios"]}
        assert set(SCALED_SIGNATURES) <= found
        # Fully assembled, the session's findings match the manifest.
        for name in SCALED_SIGNATURES:
            flagged = {
                comp.split("/", 1)[0]
                for comp in warm["detection"]["findings"].get(name, [])
            }
            assert flagged == manifest.expected(name, 0), name

    def test_uninstall_retracts_collusion_and_reinstall_restores(
        self, adversarial
    ):
        apps, manifest = adversarial
        config = SessionConfig(scenarios_per_signature=4)
        session = DeviceSession("adv-retract", config=config)
        for app in apps:
            session.install(serialize.app_to_dict(app))
        session.analyze()  # warm the full composition before mutating
        colluders = sorted(manifest.expected("app_collusion", 0))
        assert colluders, "manifest must plant a collusion attack"
        victim = colluders[0]

        session.uninstall(victim)
        warm = assert_warm_equals_cold(session, config)
        flagged = {
            comp.split("/", 1)[0]
            for comp in warm["detection"]["findings"].get(
                "app_collusion", []
            )
        }
        assert victim not in flagged

        by_package = {app.package: app for app in apps}
        session.install(serialize.app_to_dict(by_package[victim]))
        warm = assert_warm_equals_cold(session, config)
        flagged = {
            comp.split("/", 1)[0]
            for comp in warm["detection"]["findings"].get(
                "app_collusion", []
            )
        }
        assert flagged == manifest.expected("app_collusion", 0)
        # The composition was revisited, so warmth actually engaged.
        assert session.warm_hits >= 1

    def test_whole_bundle_warm_equals_cold(self, adversarial):
        apps, _ = adversarial
        config = SessionConfig(scenarios_per_signature=4)
        session = DeviceSession("adv", config=config)
        for app in apps:
            session.install(serialize.app_to_dict(app))
        assert_warm_equals_cold(session, config)


class TestThreatCaseStreams:
    """Each fixed threat case through a warm session: install app by
    app (warm == cold throughout), then peel the last app off again."""

    @pytest.mark.parametrize(
        "case",
        [c for c in all_threat_cases() if not c.is_decoy],
        ids=lambda c: c.name,
    )
    def test_incremental_install_then_uninstall(self, case):
        config = SessionConfig(scenarios_per_signature=4)
        session = DeviceSession(case.name, config=config)
        apps = [
            extract_app(apk, handle_dynamic_receivers=True)
            for apk in case.apks
        ]
        for app in apps:
            session.install(serialize.app_to_dict(app))
            assert_warm_equals_cold(session, config)
        warm = session.analyze()
        flagged = {
            comp.split("/", 1)[0]
            for comp in warm["detection"]["findings"].get(
                case.signature, []
            )
        }
        assert flagged == set(case.expected_apps), case.notes

        if len(apps) > 1:
            session.uninstall(apps[-1].package)
            assert_warm_equals_cold(session, config)
