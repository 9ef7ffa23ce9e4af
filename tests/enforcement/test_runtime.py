"""Tests for the simulated Android runtime and the hook framework."""

import pytest

from repro.android.apk import Apk
from repro.android.components import ComponentDecl, ComponentKind
from repro.android.intents import IntentFilter
from repro.android.manifest import Manifest
from repro.android import permissions as perms
from repro.android.resources import Resource
from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.dex import DexClass, DexProgram, MethodBuilder
from repro.enforcement import AndroidRuntime, RuntimeIntent
from repro.enforcement import runtime as runtime_mod
from repro.enforcement.hooks import HookManager, MethodCall
from repro.enforcement.runtime import Tagged, taints_of


class TestHookManager:
    def test_before_hook_runs(self):
        hooks = HookManager()
        seen = []
        hooks.hook("A.b", before=lambda c: seen.append(c.signature))
        call = MethodCall("A.b", "cmp")
        hooks.run_before(call)
        assert seen == ["A.b"]

    def test_skip_short_circuits(self):
        hooks = HookManager()
        hooks.hook("A.b", before=lambda c: setattr(c, "skip", True))
        later = []
        hooks.hook("A.b", before=lambda c: later.append(1))
        call = MethodCall("A.b", "cmp")
        hooks.run_before(call)
        assert call.skip and not later

    def test_after_hook_rewrites_result(self):
        hooks = HookManager()

        def rewrite(call):
            call.result = "rewritten"

        hooks.hook("A.b", after=rewrite)
        call = MethodCall("A.b", "cmp")
        call.result = "original"
        hooks.run_after(call)
        assert call.result == "rewritten"

    def test_unhook(self):
        hooks = HookManager()
        hooks.hook("A.b", before=lambda c: setattr(c, "skip", True))
        hooks.unhook_all("A.b")
        assert not hooks.is_hooked("A.b")

    def test_hook_requires_callback(self):
        with pytest.raises(ValueError):
            HookManager().hook("A.b")


class TestRuntimeBasics:
    def test_install_and_duplicate(self):
        rt = AndroidRuntime()
        rt.install(build_app1())
        with pytest.raises(ValueError):
            rt.install(build_app1())

    def test_start_unknown_component(self):
        rt = AndroidRuntime()
        with pytest.raises(KeyError):
            rt.start_component("nope/Nothing")

    def test_tagged_taint_propagation(self):
        tagged = Tagged("x", frozenset({Resource.LOCATION}))
        intent = RuntimeIntent()
        intent.extras["k"] = tagged
        assert taints_of(intent) == {Resource.LOCATION}

    def test_intra_app_icc(self):
        """LocationFinder's implicit Intent reaches RouteFinder when no
        malicious app is installed."""
        rt = AndroidRuntime()
        rt.install(build_app1())
        rt.start_component("com.example.navigation/LocationFinder")
        delivered = rt.effects_of_kind("icc_delivered")
        assert [e.component for e in delivered] == [
            "com.example.navigation/RouteFinder"
        ]
        logs = rt.effects_of_kind("log")
        assert logs and Resource.LOCATION in logs[0].detail["taints"]

    def test_resolution_never_reads_the_payload(self):
        """The model intent that resolution matches carries no payload:
        a tainted send resolves to the recipients of an empty one, and
        the taint stays on the runtime intent, where the PEP reads it."""
        rt = AndroidRuntime()
        rt.install(build_app1())
        rt.install(build_malicious_app())
        sender = "com.example.navigation/LocationFinder"

        def resolve(extras):
            intent = RuntimeIntent()
            intent.action = "showLoc"
            intent.extras.update(extras)
            found = rt.resolve_icc(sender, "Context.startService", intent)
            return intent, [c.qualified for c in found]

        tainted, got = resolve(
            {"locationInfo": Tagged("x", frozenset({Resource.LOCATION}))}
        )
        _plain, want = resolve({})
        assert got == want and got
        model = tainted.to_model()
        assert (model.extras, model.extra_keys) == (frozenset(), frozenset())
        assert (model.sender, model.action) == (sender, "showLoc")
        assert tainted.carried_resources == {Resource.LOCATION}


class TestExploitChain:
    """The Figure 1 attack, executed concretely."""

    def make_runtime(self):
        rt = AndroidRuntime()
        rt.install(build_app1())
        rt.install(build_app2())
        rt.install(build_malicious_app())
        return rt

    def test_unprotected_device_leaks_location_via_sms(self):
        rt = self.make_runtime()
        rt.start_component("com.example.navigation/LocationFinder")
        sms = rt.effects_of_kind("sms_sent")
        assert sms, "the exploit must fire on an unprotected device"
        assert Resource.LOCATION in sms[0].detail["taints"]

    def test_hijack_before_forwarding(self):
        rt = self.make_runtime()
        rt.start_component("com.example.navigation/LocationFinder")
        delivered = [e.component for e in rt.effects_of_kind("icc_delivered")]
        assert "com.evil.innocuous/Thief" in delivered
        assert "com.example.messenger/MessageSender" in delivered


class TestPermissionEnforcement:
    def test_manifest_permission_blocks_unprivileged_caller(self):
        guarded = Apk(
            Manifest(
                package="guarded",
                components=[
                    ComponentDecl(
                        "Svc",
                        ComponentKind.SERVICE,
                        exported=True,
                        permission=perms.SEND_SMS,
                    )
                ],
            ),
            DexProgram(
                [
                    DexClass(
                        "Svc",
                        superclass="Service",
                        methods=[
                            MethodBuilder("onStartCommand", params=("p0",))
                            .invoke("Log.d", args=("p0", "p0"))
                            .ret()
                            .build()
                        ],
                    )
                ]
            ),
        )
        caller = Apk(
            Manifest(
                package="caller",
                components=[ComponentDecl("Main", ComponentKind.ACTIVITY)],
            ),
            DexProgram(
                [
                    DexClass(
                        "Main",
                        superclass="Activity",
                        methods=[
                            MethodBuilder("onCreate", params=("p0",))
                            .new_instance("v0", "Intent")
                            .const_string("v1", "guarded/Svc")
                            .invoke("Intent.setClassName", receiver="v0", args=("v1",))
                            .invoke("Context.startService", args=("v0",))
                            .ret()
                            .build()
                        ],
                    )
                ]
            ),
        )
        rt = AndroidRuntime()
        rt.install(guarded)
        rt.install(caller)
        rt.start_component("caller/Main")
        assert rt.effects_of_kind("icc_permission_denied")
        assert not rt.effects_of_kind("icc_delivered")

    def test_check_calling_permission_concrete(self):
        """The fixed messenger refuses senders without SEND_SMS."""
        fixed = DexClass(
            "Fixed",
            superclass="Service",
            methods=[
                MethodBuilder("onStartCommand", params=("p0",))
                .const_string("v0", perms.SEND_SMS)
                .invoke("Context.checkCallingPermission", args=("v0",), dest="v1")
                .if_goto("v1", "ok")
                .ret()
                .label("ok")
                .invoke("SmsManager.getDefault", dest="v2")
                .const_string("v3", "payload")
                .invoke(
                    "SmsManager.sendTextMessage",
                    receiver="v2",
                    args=("v3", "v3", "v3", "v3", "v3"),
                )
                .ret()
                .build()
            ],
        )
        target = Apk(
            Manifest(
                package="t",
                components=[
                    ComponentDecl(
                        "Fixed",
                        ComponentKind.SERVICE,
                        intent_filters=[IntentFilter.for_action("go")],
                    )
                ],
            ),
            DexProgram([fixed]),
        )

        def make_caller(package, permissions):
            cls = DexClass(
                "Main",
                superclass="Activity",
                methods=[
                    MethodBuilder("onCreate", params=("p0",))
                    .new_instance("v0", "Intent")
                    .const_string("v1", "go")
                    .invoke("Intent.setAction", receiver="v0", args=("v1",))
                    .invoke("Context.startService", args=("v0",))
                    .ret()
                    .build()
                ],
            )
            return Apk(
                Manifest(
                    package=package,
                    uses_permissions=frozenset(permissions),
                    components=[ComponentDecl("Main", ComponentKind.ACTIVITY)],
                ),
                DexProgram([cls]),
            )

        rt = AndroidRuntime()
        rt.install(target)
        rt.install(make_caller("privileged", [perms.SEND_SMS]))
        rt.install(make_caller("unprivileged", []))

        rt.start_component("unprivileged/Main")
        assert not rt.effects_of_kind("sms_sent")
        rt.start_component("privileged/Main")
        assert rt.effects_of_kind("sms_sent")


class TestResultChannel:
    def test_set_result_returns_to_caller(self):
        caller = DexClass(
            "Caller",
            superclass="Activity",
            methods=[
                MethodBuilder("onCreate", params=("p0",))
                .new_instance("v0", "Intent")
                .const_string("v1", "appb/Picker")
                .invoke("Intent.setClassName", receiver="v0", args=("v1",))
                .invoke("Context.startActivityForResult", args=("v0",))
                .ret()
                .build(),
                MethodBuilder("onActivityResult", params=("p0",))
                .const_string("v1", "chosen")
                .invoke("Intent.getStringExtra", receiver="p0", args=("v1",), dest="v2")
                .invoke("Log.d", args=("v3", "v2"))
                .ret()
                .build(),
            ],
        )
        picker = DexClass(
            "Picker",
            superclass="Activity",
            methods=[
                MethodBuilder("onCreate", params=("p0",))
                .new_instance("v0", "Intent")
                .const_string("v1", "chosen")
                .const_string("v2", "result-value")
                .invoke("Intent.putExtra", receiver="v0", args=("v1", "v2"))
                .invoke("Activity.setResult", args=("v0",))
                .ret()
                .build(),
            ],
        )
        rt = AndroidRuntime()
        rt.install(
            Apk(
                Manifest(
                    package="appa",
                    components=[ComponentDecl("Caller", ComponentKind.ACTIVITY)],
                ),
                DexProgram([caller]),
            )
        )
        rt.install(
            Apk(
                Manifest(
                    package="appb",
                    components=[
                        ComponentDecl("Picker", ComponentKind.ACTIVITY, exported=True)
                    ],
                ),
                DexProgram([picker]),
            )
        )
        rt.start_component("appa/Caller")
        logs = rt.effects_of_kind("log")
        assert logs and logs[0].detail["payload"] == "result-value"


class TestBroadcast:
    def test_broadcast_reaches_all_matching_receivers(self):
        def receiver_app(pkg):
            cls = DexClass(
                "Recv",
                superclass="BroadcastReceiver",
                methods=[
                    MethodBuilder("onReceive", params=("p0",))
                    .const_string("v0", "tag")
                    .invoke("Log.d", args=("v0", "v0"))
                    .ret()
                    .build()
                ],
            )
            return Apk(
                Manifest(
                    package=pkg,
                    components=[
                        ComponentDecl(
                            "Recv",
                            ComponentKind.RECEIVER,
                            intent_filters=[IntentFilter.for_action("ping")],
                        )
                    ],
                ),
                DexProgram([cls]),
            )

        sender_cls = DexClass(
            "Main",
            superclass="Activity",
            methods=[
                MethodBuilder("onCreate", params=("p0",))
                .new_instance("v0", "Intent")
                .const_string("v1", "ping")
                .invoke("Intent.setAction", receiver="v0", args=("v1",))
                .invoke("Context.sendBroadcast", args=("v0",))
                .ret()
                .build()
            ],
        )
        rt = AndroidRuntime()
        rt.install(receiver_app("r1"))
        rt.install(receiver_app("r2"))
        rt.install(
            Apk(
                Manifest(
                    package="s",
                    components=[ComponentDecl("Main", ComponentKind.ACTIVITY)],
                ),
                DexProgram([sender_cls]),
            )
        )
        rt.start_component("s/Main")
        delivered = {e.component for e in rt.effects_of_kind("icc_delivered")}
        assert delivered == {"r1/Recv", "r2/Recv"}
        assert len(rt.effects_of_kind("log")) == 2

    def test_dynamic_registration_at_runtime(self):
        registrar = DexClass(
            "Main",
            superclass="Activity",
            methods=[
                MethodBuilder("onCreate", params=("p0",))
                .new_instance("v0", "DynRecv")
                .new_instance("v1", "IntentFilter")
                .const_string("v2", "dyn.PING")
                .invoke("IntentFilter.addAction", receiver="v1", args=("v2",))
                .invoke("Context.registerReceiver", args=("v0", "v1"))
                .ret()
                .build()
            ],
        )
        dyn = DexClass(
            "DynRecv",
            superclass="BroadcastReceiver",
            methods=[
                MethodBuilder("onReceive", params=("p0",))
                .const_string("v0", "tag")
                .invoke("Log.d", args=("v0", "v0"))
                .ret()
                .build()
            ],
        )
        rt = AndroidRuntime()
        rt.install(
            Apk(
                Manifest(
                    package="d",
                    components=[
                        ComponentDecl("Main", ComponentKind.ACTIVITY),
                        ComponentDecl("DynRecv", ComponentKind.RECEIVER),
                    ],
                ),
                DexProgram([registrar, dyn]),
            )
        )
        rt.start_component("d/Main")  # registers the filter
        intent = RuntimeIntent(sender="android/framework")
        intent.action = "dyn.PING"
        # Broadcast from the framework.
        recipients = rt.resolve_icc("d/Main", "Context.sendBroadcast", intent)
        rt.deliver_icc("d/Main", "Context.sendBroadcast", intent, recipients)
        rt._drain()
        assert rt.effects_of_kind("log")


class TestDispatchBudget:
    """The ICC dispatch budget bounds one activation, not the runtime's
    lifetime, so a long-lived runtime keeps serving activations."""

    @staticmethod
    def _broadcaster(name, superclass, entry, action):
        return DexClass(
            name,
            superclass=superclass,
            methods=[
                MethodBuilder(entry, params=("p0",))
                .new_instance("v0", "Intent")
                .const_string("v1", action)
                .invoke("Intent.setAction", receiver="v0", args=("v1",))
                .invoke("Context.sendBroadcast", args=("v0",))
                .ret()
                .build()
            ],
        )

    @pytest.fixture
    def rt(self, monkeypatch):
        monkeypatch.setattr(runtime_mod, "_MAX_DISPATCH", 5)
        classes = [
            self._broadcaster("Main", "Activity", "onCreate", "ping"),
            self._broadcaster("Storm", "Activity", "onCreate", "echo"),
            DexClass(
                "Recv",
                superclass="BroadcastReceiver",
                methods=[
                    MethodBuilder("onReceive", params=("p0",)).ret().build()
                ],
            ),
            # Echo re-broadcasts what it hears: an endless chain.
            self._broadcaster(
                "Echo", "BroadcastReceiver", "onReceive", "echo"
            ),
        ]
        components = [
            ComponentDecl("Main", ComponentKind.ACTIVITY),
            ComponentDecl("Storm", ComponentKind.ACTIVITY),
            ComponentDecl(
                "Recv",
                ComponentKind.RECEIVER,
                intent_filters=[IntentFilter.for_action("ping")],
            ),
            ComponentDecl(
                "Echo",
                ComponentKind.RECEIVER,
                intent_filters=[IntentFilter.for_action("echo")],
            ),
        ]
        rt = AndroidRuntime()
        rt.install(
            Apk(
                Manifest(package="b", components=components),
                DexProgram(classes),
            )
        )
        return rt

    def test_many_short_activations_pass(self, rt):
        # Two dispatches each: twenty in all against a budget of five.
        for _ in range(10):
            rt.start_component("b/Main")
        assert len(rt.effects_of_kind("icc_delivered")) == 10

    def test_runaway_activation_raises_and_the_next_one_runs(self, rt):
        with pytest.raises(RuntimeError, match="dispatch budget exceeded"):
            rt.start_component("b/Storm")
        delivered = len(rt.effects_of_kind("icc_delivered"))
        rt.start_component("b/Main")
        assert len(rt.effects_of_kind("icc_delivered")) == delivered + 1
