"""Tests for DeviceGuard: the continuous-protection deployment loop."""

import pytest

from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.enforcement.guard import DeviceGuard


class TestInstallLoop:
    def test_policies_refresh_on_install(self):
        guard = DeviceGuard()
        guard.install(build_app1())
        after_one = len(guard.policies)
        guard.install(build_app2())
        after_two = len(guard.policies)
        # The messenger brings the launch/escalation policies with it.
        assert after_two > after_one

    def test_attack_blocked_even_after_malicious_install(self):
        """The proactive claim: policies synthesized from the benign bundle
        keep protecting when the (unknown) malicious app arrives later."""
        guard = DeviceGuard()
        guard.install(build_app1())
        guard.install(build_app2())
        guard.install(build_malicious_app())
        guard.start_component("com.example.navigation/LocationFinder")
        assert not guard.runtime.effects_of_kind("sms_sent")
        assert guard.pep.blocked_deliveries > 0

    def test_uninstall_retires_policies(self):
        guard = DeviceGuard()
        guard.install(build_app1())
        guard.install(build_app2())
        with_both = len(guard.policies)
        guard.uninstall("com.example.messenger")
        assert len(guard.policies) < with_both
        assert all(
            p.receiver != "com.example.messenger/MessageSender"
            for p in guard.policies
        )

    def test_unprotected_flow_still_works(self):
        guard = DeviceGuard(prompt_callback=lambda p, e: True)
        guard.install(build_app1())
        guard.install(build_app2())
        guard.start_component("com.example.navigation/LocationFinder")
        delivered = [
            e.component for e in guard.runtime.effects_of_kind("icc_delivered")
        ]
        assert "com.example.navigation/RouteFinder" in delivered

    def test_guard_enforces_through_the_compiled_pdp(self):
        from repro.enforcement import CompiledPolicyDecisionPoint

        guard = DeviceGuard()
        assert isinstance(guard.pdp, CompiledPolicyDecisionPoint)
        with pytest.raises(TypeError):
            DeviceGuard(pdp_backend="linear")

    def test_summary_renders(self):
        guard = DeviceGuard()
        guard.install(build_app1())
        text = guard.protection_summary()
        assert "installed apps:   1" in text
        assert "active policies:" in text

    def test_result_channels_relinked_across_installs(self):
        """Algorithm 1 re-runs bundle-wide as apps arrive."""
        from repro.android.apk import Apk
        from repro.android.components import ComponentDecl, ComponentKind
        from repro.android.manifest import Manifest
        from repro.dex import DexClass, DexProgram, MethodBuilder

        caller = Apk(
            Manifest(
                package="appa",
                components=[ComponentDecl("Caller", ComponentKind.ACTIVITY)],
            ),
            DexProgram([
                DexClass(
                    "Caller",
                    superclass="Activity",
                    methods=[
                        MethodBuilder("onCreate", params=("p0",))
                        .new_instance("v0", "Intent")
                        .const_string("v1", "appb/Picker")
                        .invoke("Intent.setClassName", receiver="v0", args=("v1",))
                        .invoke("Context.startActivityForResult", args=("v0",))
                        .ret()
                        .build()
                    ],
                )
            ]),
        )
        picker = Apk(
            Manifest(
                package="appb",
                components=[
                    ComponentDecl("Picker", ComponentKind.ACTIVITY, exported=True)
                ],
            ),
            DexProgram([
                DexClass(
                    "Picker",
                    superclass="Activity",
                    methods=[
                        MethodBuilder("onCreate", params=("p0",))
                        .new_instance("v0", "Intent")
                        .const_string("v1", "chosen")
                        .invoke("Intent.putExtra", receiver="v0", args=("v1", "v1"))
                        .invoke("Activity.setResult", args=("v0",))
                        .ret()
                        .build()
                    ],
                )
            ]),
        )
        guard = DeviceGuard()
        guard.install(picker)  # passive intent has no known target yet
        bundle = guard.current_bundle()
        passive = [i for i in bundle.all_intents() if i.passive]
        assert passive and not passive[0].passive_targets
        guard.install(caller)  # now Algorithm 1 links the channel
        bundle = guard.current_bundle()
        passive = [i for i in bundle.all_intents() if i.passive]
        assert passive[0].passive_targets == {"appa/Caller"}
