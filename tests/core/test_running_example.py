"""End-to-end synthesis on the paper's running example (Sections II-VI).

The bundle {navigation app, messenger app} must yield: an Intent-hijack
scenario against LocationFinder's implicit location Intent, a
service-launch scenario against MessageSender, a cross-app information
leak (location -> SMS), a privilege-escalation scenario (SEND_SMS), and
the corresponding ECA policies -- including the paper's exact example
policy (extra: LOCATION, receiver: MessageSender, action: user prompt).
"""

import pytest

from repro.android.resources import Resource
from repro.android import permissions as perms
from repro.benchsuite.running_example import build_app1, build_app2
from repro.core.detector import SeparDetector
from repro.core.policy import PolicyAction, PolicyEvent
from repro.core.separ import Separ
from repro.core.synthesis import SynthesisResult


@pytest.fixture(scope="module")
def report():
    return Separ().analyze_apks([build_app1(), build_app2()])


class TestScenarios:
    def test_intent_hijack_found(self, report):
        hijacks = [
            s for s in report.scenarios if s.vulnerability == "intent_hijack"
        ]
        assert hijacks, "the implicit showLoc Intent must be hijackable"
        scenario = next(
            s
            for s in hijacks
            if s.roles["victim"] == "com.example.navigation/LocationFinder"
        )
        assert scenario.intent["action"] == "showLoc"
        assert Resource.LOCATION in scenario.intent["extras"]
        # The synthesized malicious filter lists the hijacked action.
        assert "showLoc" in scenario.malicious_filter["actions"]

    def test_service_launch_found(self, report):
        launches = [
            s for s in report.scenarios if s.vulnerability == "service_launch"
        ]
        victims = {s.roles["victim"] for s in launches}
        assert "com.example.messenger/MessageSender" in victims

    def test_information_leak_found(self, report):
        leaks = [
            s for s in report.scenarios if s.vulnerability == "information_leak"
        ]
        assert any(
            s.roles["source_component"] == "com.example.navigation/LocationFinder"
            for s in leaks
        ) or any(
            s.roles["sink_component"] == "com.example.messenger/MessageSender"
            for s in leaks
        )

    def test_privilege_escalation_found(self, report):
        escalations = [
            s
            for s in report.scenarios
            if s.vulnerability == "privilege_escalation"
        ]
        victims = {s.roles["victim"] for s in escalations}
        assert "com.example.messenger/MessageSender" in victims
        scenario = next(
            s
            for s in escalations
            if s.roles["victim"] == "com.example.messenger/MessageSender"
        )
        assert scenario.roles["escalated_permission"] == perms.SEND_SMS

    def test_minimal_scenarios_have_minimal_malicious_footprint(self, report):
        """Aluminum minimality: a hijack scenario's synthesized filter only
        lists what matching requires."""
        hijacks = [
            s
            for s in report.scenarios
            if s.vulnerability == "intent_hijack"
            and s.roles["victim"] == "com.example.navigation/LocationFinder"
        ]
        scenario = hijacks[0]
        assert scenario.malicious_filter["actions"] == {"showLoc"}
        assert not scenario.malicious_filter["data_types"]
        assert not scenario.malicious_filter["data_schemes"]


class TestPolicies:
    def test_paper_example_policy_synthesized(self, report):
        """The exact policy of Section VI: LOCATION payload into
        MessageSender requires user approval."""
        matches = [
            p
            for p in report.policies
            if p.event is PolicyEvent.ICC_RECEIVE
            and p.receiver == "com.example.messenger/MessageSender"
            and Resource.LOCATION in p.extras_any
        ]
        assert matches
        assert all(p.action is PolicyAction.PROMPT for p in matches)

    def test_hijack_policy_allowlist(self, report):
        hijack_policies = [
            p for p in report.policies if p.vulnerability == "intent_hijack"
        ]
        assert hijack_policies
        policy = next(
            p
            for p in hijack_policies
            if p.sender == "com.example.navigation/LocationFinder"
        )
        assert policy.event is PolicyEvent.ICC_SEND
        assert policy.intent_action == "showLoc"
        # The only legitimate receiver in the bundle is RouteFinder.
        assert policy.allowed_receivers == {
            "com.example.navigation/RouteFinder"
        }

    def test_escalation_policy_requires_permission(self, report):
        escalation_policies = [
            p
            for p in report.policies
            if p.vulnerability == "privilege_escalation"
            and p.receiver == "com.example.messenger/MessageSender"
        ]
        assert escalation_policies
        assert escalation_policies[0].sender_lacks_permission == perms.SEND_SMS

    def test_policies_deduplicated(self, report):
        keys = [
            (
                p.event,
                p.receiver,
                p.sender,
                p.intent_action,
                p.extras_any,
                p.allowed_receivers,
                p.sender_lacks_permission,
                p.vulnerability,
            )
            for p in report.policies
        ]
        assert len(keys) == len(set(keys))


class TestReport:
    def test_vulnerable_apps(self, report):
        assert "com.example.messenger" in report.vulnerable_apps("service_launch")
        assert "com.example.navigation" in report.vulnerable_apps("intent_hijack")

    def test_stats_populated(self, report):
        assert report.stats.construction_seconds > 0
        assert report.stats.num_vars > 0
        assert "intent_hijack" in report.stats.per_signature

    def test_summary_renders(self, report):
        text = report.summary()
        assert "bundle: 2 apps" in text
        assert "policies synthesized" in text

    def test_assemble_report_reuses_a_given_detection(
        self, report, monkeypatch
    ):
        """A caller that holds the bundle's detection hands it over and
        detection does not run again; without one it runs once.  Both
        assemble the report ``analyze_bundle`` produced."""
        runs = []
        detect = SeparDetector.detect

        def counted(self, bundle):
            runs.append(bundle)
            return detect(self, bundle)

        monkeypatch.setattr(SeparDetector, "detect", counted)
        result = SynthesisResult(scenarios=report.scenarios, stats=report.stats)
        reused = Separ.assemble_report(
            report.bundle, result, detection=report.detection
        )
        assert runs == []
        assert reused.detection is report.detection
        fresh = Separ.assemble_report(report.bundle, result)
        assert runs == [report.bundle]
        assert fresh.detection.to_dict() == report.detection.to_dict()
        assert fresh.policies == reused.policies == report.policies

    def test_detector_agrees_with_synthesis(self, report):
        """The concrete detector and the SAT pipeline agree on the victim
        sets for this bundle."""
        detection = report.detection
        assert "com.example.navigation/LocationFinder" in detection.components(
            "intent_hijack"
        )
        assert "com.example.messenger/MessageSender" in detection.components(
            "service_launch"
        )
        assert "com.example.messenger/MessageSender" in detection.components(
            "privilege_escalation"
        )
        sat_victims = {
            s.roles["victim"]
            for s in report.scenarios
            if s.vulnerability == "service_launch"
        }
        assert detection.components("service_launch") <= sat_victims | {
            None
        } or detection.components("service_launch") >= sat_victims
