"""End-to-end enforcement: SEPAR policies block the Figure 1 exploit while
legitimate flows keep working."""

import pytest

from repro.android.resources import Resource
from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.core.policy import ECAPolicy, IccEvent, PolicyAction, PolicyEvent
from repro.core.separ import Separ
from repro.enforcement import (
    AndroidRuntime,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.enforcement.pdp import Decision


@pytest.fixture(scope="module")
def policies():
    report = Separ().analyze_apks([build_app1(), build_app2()])
    return report.policies


def protected_runtime(policies, prompt_callback=None):
    rt = AndroidRuntime()
    rt.install(build_app1())
    rt.install(build_app2())
    rt.install(build_malicious_app())
    kwargs = {}
    if prompt_callback is not None:
        kwargs["prompt_callback"] = prompt_callback
    pdp = PolicyDecisionPoint(policies, **kwargs)
    pep = PolicyEnforcementPoint(rt, pdp)
    pep.install()
    return rt, pdp, pep


class TestPolicyMatching:
    def test_receive_policy_fires_on_matching_event(self):
        policy = ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability="service_launch",
            receiver="com.example.messenger/MessageSender",
            extras_any=frozenset({Resource.LOCATION}),
        )
        event = IccEvent(
            sender="com.evil.innocuous/Thief",
            receiver="com.example.messenger/MessageSender",
            extras=frozenset({Resource.LOCATION}),
        )
        assert policy.matches(PolicyEvent.ICC_RECEIVE, event)
        assert not policy.matches(PolicyEvent.ICC_SEND, event)

    def test_extras_condition(self):
        policy = ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability="x",
            receiver="a/B",
            extras_any=frozenset({Resource.LOCATION}),
        )
        clean = IccEvent(sender="s/S", receiver="a/B", extras=frozenset())
        assert not policy.matches(PolicyEvent.ICC_RECEIVE, clean)

    def test_allowlist_condition(self):
        policy = ECAPolicy(
            event=PolicyEvent.ICC_SEND,
            vulnerability="intent_hijack",
            sender="a/Sender",
            intent_action="go",
            allowed_receivers=frozenset({"a/Friend"}),
        )
        ok = IccEvent(sender="a/Sender", receiver="a/Friend", action="go")
        bad = IccEvent(sender="a/Sender", receiver="evil/Thief", action="go")
        assert not policy.matches(PolicyEvent.ICC_SEND, ok)
        assert policy.matches(PolicyEvent.ICC_SEND, bad)

    def test_permission_condition(self):
        policy = ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability="privilege_escalation",
            receiver="a/B",
            sender_lacks_permission="android.permission.SEND_SMS",
        )
        privileged = IccEvent(
            sender="s/S",
            receiver="a/B",
            sender_permissions=frozenset({"android.permission.SEND_SMS"}),
        )
        unprivileged = IccEvent(sender="s/S", receiver="a/B")
        assert not policy.matches(PolicyEvent.ICC_RECEIVE, privileged)
        assert policy.matches(PolicyEvent.ICC_RECEIVE, unprivileged)


class TestPdp:
    def test_deny_all_prompts_default(self, policies):
        pdp = PolicyDecisionPoint(policies)
        event = IccEvent(
            sender="com.evil.innocuous/Thief",
            receiver="com.example.messenger/MessageSender",
            extras=frozenset({Resource.LOCATION}),
        )
        assert pdp.decide(PolicyEvent.ICC_RECEIVE, event) is Decision.DENY
        assert pdp.log[-1].prompted

    def test_no_matching_policy_allows(self, policies):
        pdp = PolicyDecisionPoint(policies)
        event = IccEvent(sender="x/Y", receiver="z/W")
        assert pdp.decide(PolicyEvent.ICC_RECEIVE, event) is Decision.ALLOW

    def test_consenting_user_allows(self, policies):
        pdp = PolicyDecisionPoint(policies, prompt_callback=lambda p, e: True)
        event = IccEvent(
            sender="com.evil.innocuous/Thief",
            receiver="com.example.messenger/MessageSender",
            extras=frozenset({Resource.LOCATION}),
        )
        assert pdp.decide(PolicyEvent.ICC_RECEIVE, event) is Decision.ALLOW


class TestEndToEndEnforcement:
    def test_exploit_blocked(self, policies):
        """With SEPAR's synthesized policies enforced, the Figure 1 attack
        no longer exfiltrates the location."""
        rt, pdp, pep = protected_runtime(policies)
        rt.start_component("com.example.navigation/LocationFinder")
        assert not rt.effects_of_kind("sms_sent")
        assert pep.blocked_deliveries > 0

    def test_no_crash_in_degraded_mode(self, policies):
        """Blocked ICC must not raise -- the app continues."""
        rt, pdp, pep = protected_runtime(policies)
        rt.start_component("com.example.navigation/LocationFinder")
        rt.start_component("com.example.navigation/LocationFinder")

    def test_user_consent_lets_flow_through(self, policies):
        rt, pdp, pep = protected_runtime(
            policies, prompt_callback=lambda p, e: True
        )
        rt.start_component("com.example.navigation/LocationFinder")
        assert rt.effects_of_kind("sms_sent")

    def test_intra_bundle_leak_also_policed(self, policies):
        """Even without the malicious app, LocationFinder -> RouteFinder is
        an information leak (RouteFinder logs the location), and SEPAR's
        leak policy prompts on it; the hijack allow-list itself does NOT
        fire for this in-bundle receiver."""
        rt = AndroidRuntime()
        rt.install(build_app1())
        rt.install(build_app2())
        pdp = PolicyDecisionPoint(policies)
        pep = PolicyEnforcementPoint(rt, pdp)
        pep.install()
        rt.start_component("com.example.navigation/LocationFinder")
        prompts = [
            r
            for r in pdp.log
            if r.prompted
            and r.event.receiver == "com.example.navigation/RouteFinder"
        ]
        assert prompts
        assert all(
            r.policy.vulnerability != "intent_hijack" for r in prompts
        ), "RouteFinder is in the hijack allow-list"

    def test_approved_intra_bundle_flow_delivers(self, policies):
        rt = AndroidRuntime()
        rt.install(build_app1())
        rt.install(build_app2())
        pdp = PolicyDecisionPoint(policies, prompt_callback=lambda p, e: True)
        pep = PolicyEnforcementPoint(rt, pdp)
        pep.install()
        rt.start_component("com.example.navigation/LocationFinder")
        delivered = [e.component for e in rt.effects_of_kind("icc_delivered")]
        assert "com.example.navigation/RouteFinder" in delivered

    def test_unpoliced_flow_needs_no_prompt(self, policies):
        """A flow no policy covers passes through without prompting."""
        rt = AndroidRuntime()
        rt.install(build_app2())
        pdp = PolicyDecisionPoint(policies)
        pep = PolicyEnforcementPoint(rt, pdp)
        pep.install()
        from repro.enforcement import RuntimeIntent

        intent = RuntimeIntent()
        intent.target = "com.example.messenger/MessageSender"
        intent.extras["TEXT_MSG"] = "hello"  # untainted payload
        sender = "com.example.messenger/MessageSender"
        recipients = rt.resolve_icc(sender, "Context.startService", intent)
        rt.deliver_icc(sender, "Context.startService", intent, recipients)
        rt._drain()
        assert not any(r.prompted for r in pdp.log)

    def test_hijack_blocked_at_send(self, policies):
        """The hijack policy intercepts delivery to the out-of-allowlist
        thief component specifically."""
        rt, pdp, pep = protected_runtime(policies)
        rt.start_component("com.example.navigation/LocationFinder")
        delivered = [e.component for e in rt.effects_of_kind("icc_delivered")]
        assert "com.evil.innocuous/Thief" not in delivered

    def test_uninstall_restores_behavior(self, policies):
        rt, pdp, pep = protected_runtime(policies)
        pep.uninstall()
        rt.start_component("com.example.navigation/LocationFinder")
        assert rt.effects_of_kind("sms_sent")
