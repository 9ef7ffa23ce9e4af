"""The paper's Section VII.B findings, reproduced on the re-created apps.

Each finding class must be detected on its app, the synthesis must produce
a matching scenario, and the runtime must demonstrate the concrete abuse.
"""

import pytest

from repro.android.resources import Resource
from repro.benchsuite.market_findings import (
    build_barcoder,
    build_ermete_sms,
    build_hesabdar,
    build_owncloud,
    market_findings_bundle,
)
from repro.android import permissions as perms
from repro.core.detector import SeparDetector
from repro.core.separ import Separ
from repro.enforcement import AndroidRuntime, RuntimeIntent
from repro.statics import extract_bundle


@pytest.fixture(scope="module")
def report():
    return Separ().analyze_apks(market_findings_bundle())


class TestBarcoder:
    """Activity launch: unauthorized payments via the open InquiryActivity."""

    def test_detected(self):
        detection = SeparDetector().detect(extract_bundle([build_barcoder()]))
        assert "ir.barcoder/InquiryActivity" in detection.components(
            "activity_launch"
        )

    def test_scenario_synthesized(self, report):
        victims = {
            s.roles["victim"]
            for s in report.scenarios
            if s.vulnerability == "activity_launch"
        }
        assert "ir.barcoder/InquiryActivity" in victims

    def test_unauthorized_payment_at_runtime(self):
        rt = AndroidRuntime()
        rt.install(build_barcoder())
        intent = RuntimeIntent(sender="evil/App")
        intent.action = "ir.barcoder.PAY_BILL"
        intent.extras["billInfo"] = "attacker-bill"
        recipients = rt.resolve_icc("evil/App", "Context.startActivity", intent)
        rt.deliver_icc("evil/App", "Context.startActivity", intent, recipients)
        rt._drain()
        assert rt.effects_of_kind("sms_sent"), "the unauthorized payment fires"


class TestHesabdar:
    """Intent hijack: account info leaves under an implicit Intent."""

    def test_detected(self):
        detection = SeparDetector().detect(extract_bundle([build_hesabdar()]))
        assert "ir.hesabdar/AccountManagerActivity" in detection.components(
            "intent_hijack"
        )

    def test_scenario_carries_accounts(self, report):
        scenario = next(
            s
            for s in report.scenarios
            if s.vulnerability == "intent_hijack"
            and s.roles["victim"] == "ir.hesabdar/AccountManagerActivity"
        )
        assert Resource.ACCOUNTS in scenario.intent["extras"]
        assert "ir.hesabdar.SHOW_TRANSACTIONS" in scenario.malicious_filter[
            "actions"
        ]


class TestOwnCloud:
    """Information leakage: account info logged to the memory card through
    a chain of Intent passing."""

    def test_detected(self):
        detection = SeparDetector().detect(extract_bundle([build_owncloud()]))
        leaks = detection.components("information_leak")
        assert "com.owncloud.android/AuthenticatorActivity" in leaks

    def test_sat_synthesizes_the_full_chain(self):
        """The formal engine walks the relay closure: the scenario names
        source, intermediate hop, and the draining component."""
        chain_report = Separ().analyze_apks([build_owncloud()])
        scenario = next(
            s
            for s in chain_report.scenarios
            if s.vulnerability == "information_leak"
        )
        assert scenario.roles["source_component"] == (
            "com.owncloud.android/AuthenticatorActivity"
        )
        assert scenario.roles["first_hop"] == (
            "com.owncloud.android/FileSyncService"
        )
        assert scenario.roles["sink_component"] == (
            "com.owncloud.android/LoggerService"
        )

    def test_leak_reaches_sdcard_at_runtime(self):
        rt = AndroidRuntime()
        rt.install(build_owncloud())
        rt.start_component("com.owncloud.android/AuthenticatorActivity")
        writes = rt.effects_of_kind("file_write")
        assert writes
        assert Resource.ACCOUNTS in writes[0].detail["taints"]


class TestErmeteSms:
    """Privilege escalation: WRITE_SMS handed to permission-less callers."""

    def test_detected(self):
        detection = SeparDetector().detect(extract_bundle([build_ermete_sms()]))
        assert "org.ermete.sms/ComposeActivity" in detection.components(
            "privilege_escalation"
        )

    def test_scenario_names_sms_permission(self, report):
        scenario = next(
            s
            for s in report.scenarios
            if s.vulnerability == "privilege_escalation"
            and s.roles["victim"] == "org.ermete.sms/ComposeActivity"
        )
        assert scenario.roles["escalated_permission"] in (
            perms.SEND_SMS,
            perms.WRITE_SMS,
        )

    def test_permissionless_caller_texts_at_runtime(self):
        rt = AndroidRuntime()
        rt.install(build_ermete_sms())
        intent = RuntimeIntent(sender="noperm/App")
        intent.target = "org.ermete.sms/ComposeActivity"
        intent.extras["number"] = "5550001"
        intent.extras["body"] = "spam"
        recipients = rt.resolve_icc("noperm/App", "Context.startActivity", intent)
        rt.deliver_icc("noperm/App", "Context.startActivity", intent, recipients)
        rt._drain()
        assert rt.effects_of_kind("sms_sent")


class TestBundlePolicies:
    def test_all_four_classes_policed(self, report):
        vulns = {p.vulnerability for p in report.policies}
        assert {
            "activity_launch",
            "intent_hijack",
            "information_leak",
            "privilege_escalation",
        } <= vulns

    def test_every_finding_app_is_flagged(self, report):
        flagged = set(report.vulnerable_apps())
        assert {
            "ir.barcoder",
            "ir.hesabdar",
            "com.owncloud.android",
            "org.ermete.sms",
        } <= flagged
