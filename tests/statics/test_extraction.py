"""End-to-end tests of AME on the paper's running example, plus targeted
tests for the value, taint, and permission analyses."""

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
from repro.core.model import PathModel
from repro.dex import DexClass, DexProgram, MethodBuilder
from repro.obs import InMemoryTracer, set_tracer
from repro.statics import extract_app, extract_bundle
from repro.statics.callgraph import CallGraph
from repro.statics.constprop import ValueAnalysis


class TestApp1Extraction:
    """Listing 1 -> Listing 4(a)."""

    def setup_method(self):
        self.model = extract_app(build_app1())

    def test_location_finder_path(self):
        lf = self.model.component("com.example.navigation/LocationFinder")
        assert PathModel(Resource.LOCATION, Resource.ICC) in lf.paths

    def test_location_finder_not_exported(self):
        lf = self.model.component("com.example.navigation/LocationFinder")
        assert not lf.exported
        assert not lf.intent_filters

    def test_intent_entity(self):
        [intent] = [
            i for i in self.model.intents
            if i.sender.endswith("LocationFinder")
        ]
        assert intent.action == "showLoc"
        assert intent.target is None  # implicit
        assert Resource.LOCATION in intent.extras
        assert "locationInfo" in intent.extra_keys

    def test_route_finder_receives_and_logs(self):
        rf = self.model.component("com.example.navigation/RouteFinder")
        assert PathModel(Resource.ICC, Resource.LOG) in rf.paths
        assert rf.exported  # public via its Intent filter


class TestApp2Extraction:
    """Listing 2 -> Listing 4(b)."""

    def setup_method(self):
        self.model = extract_app(build_app2())

    def test_icc_to_sms_path(self):
        ms = self.model.component("com.example.messenger/MessageSender")
        assert PathModel(Resource.ICC, Resource.SMS) in ms.paths

    def test_no_enforced_permissions(self):
        """hasPermission exists but is never called -- the vulnerability."""
        ms = self.model.component("com.example.messenger/MessageSender")
        assert not ms.permissions

    def test_exposed_sms_capability(self):
        ms = self.model.component("com.example.messenger/MessageSender")
        assert perms.SEND_SMS in ms.uses_permissions

    def test_enforced_when_check_is_called(self):
        """Uncommenting line 6 of Listing 2 makes the check reachable."""
        fixed = DexClass(
            "MessageSender",
            superclass="Service",
            methods=[
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .invoke("this.hasPermission", dest="v0")
                    .if_goto("v0", "send")
                    .ret()
                    .label("send")
                    .const_string("v1", "TEXT_MSG")
                    .invoke(
                        "Intent.getStringExtra",
                        receiver="p0", args=("v1",), dest="v2",
                    )
                    .invoke("this.sendTextMessage", args=("v2", "v2"))
                    .ret()
                    .build()
                ),
                (
                    MethodBuilder("sendTextMessage", params=("p0", "p1"))
                    .invoke("SmsManager.getDefault", dest="v0")
                    .invoke(
                        "SmsManager.sendTextMessage",
                        receiver="v0",
                        args=("p0", "p0", "p1", "p0", "p0"),
                    )
                    .ret()
                    .build()
                ),
                (
                    MethodBuilder("hasPermission")
                    .const_string("v0", perms.SEND_SMS)
                    .invoke(
                        "Context.checkCallingPermission", args=("v0",), dest="v1"
                    )
                    .ret("v1")
                    .build()
                ),
            ],
        )
        manifest = Manifest(
            package="fixed.messenger",
            uses_permissions=frozenset({perms.SEND_SMS}),
            components=[
                ComponentDecl("MessageSender", ComponentKind.SERVICE, exported=True)
            ],
        )
        model = extract_app(Apk(manifest, DexProgram([fixed])))
        ms = model.component("fixed.messenger/MessageSender")
        assert perms.SEND_SMS in ms.permissions


class TestMaliciousAppExtraction:
    def test_explicit_intent_with_forwarded_payload(self):
        model = extract_app(build_malicious_app())
        [intent] = model.intents
        assert intent.explicit
        assert intent.target == "com.example.messenger/MessageSender"
        assert Resource.ICC in intent.extras  # forwards received data

    def test_transit_path(self):
        model = extract_app(build_malicious_app())
        thief = model.component("com.evil.innocuous/Thief")
        assert PathModel(Resource.ICC, Resource.ICC) in thief.paths

    def test_no_permissions_needed(self):
        model = extract_app(build_malicious_app())
        assert not model.uses_permissions


class TestValueAnalysis:
    def test_string_disambiguation_generates_multiple_entities(self):
        """A conditionally assigned action yields one entity per value."""
        cls = DexClass(
            "Svc",
            superclass="Service",
            methods=[
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .new_instance("v0", "Intent")
                    .const_string("v1", "actionA")
                    .if_goto("v9", "setit")
                    .const_string("v1", "actionB")
                    .label("setit")
                    .invoke("Intent.setAction", receiver="v0", args=("v1",))
                    .invoke("Context.startService", args=("v0",))
                    .ret()
                    .build()
                ),
            ],
        )
        manifest = Manifest(
            package="p", components=[ComponentDecl("Svc", ComponentKind.SERVICE)]
        )
        model = extract_app(Apk(manifest, DexProgram([cls])))
        actions = sorted(i.action for i in model.intents)
        assert actions == ["actionA", "actionB"]

    def test_alias_through_heap_field(self):
        """An action stored through a heap field is found at the send site
        (the paper's on-demand alias analysis)."""
        cls = DexClass(
            "Svc",
            superclass="Service",
            methods=[
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .new_instance("v0", "Intent")
                    .iput("this", "pending", "v0")
                    .invoke("this.helper")
                    .ret()
                    .build()
                ),
                (
                    MethodBuilder("helper")
                    .iget("v0", "this", "pending")
                    .const_string("v1", "aliasedAction")
                    .invoke("Intent.setAction", receiver="v0", args=("v1",))
                    .invoke("Context.startService", args=("v0",))
                    .ret()
                    .build()
                ),
            ],
        )
        manifest = Manifest(
            package="p", components=[ComponentDecl("Svc", ComponentKind.SERVICE)]
        )
        model = extract_app(Apk(manifest, DexProgram([cls])))
        assert [i.action for i in model.intents] == ["aliasedAction"]

    def test_value_flows_through_internal_call_return(self):
        prog = DexProgram(
            [
                DexClass(
                    "Svc",
                    superclass="Service",
                    methods=[
                        (
                            MethodBuilder("onStartCommand", params=("p0",))
                            .invoke("this.makeAction", dest="v1")
                            .new_instance("v0", "Intent")
                            .invoke("Intent.setAction", receiver="v0", args=("v1",))
                            .invoke("Context.sendBroadcast", args=("v0",))
                            .ret()
                            .build()
                        ),
                        (
                            MethodBuilder("makeAction")
                            .const_string("v0", "returnedAction")
                            .ret("v0")
                            .build()
                        ),
                    ],
                )
            ]
        )
        manifest = Manifest(
            package="p", components=[ComponentDecl("Svc", ComponentKind.SERVICE)]
        )
        model = extract_app(Apk(manifest, prog))
        assert [i.action for i in model.intents] == ["returnedAction"]


class TestTaintCorners:
    def _service_app(self, methods):
        cls = DexClass("Svc", superclass="Service", methods=methods)
        manifest = Manifest(
            package="p", components=[ComponentDecl("Svc", ComponentKind.SERVICE)]
        )
        return Apk(manifest, DexProgram([cls]))

    def test_overwrite_kills_taint(self):
        """Flow sensitivity: re-assigning the register clears the taint."""
        apk = self._service_app(
            [
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .invoke(
                        "LocationManager.getLastKnownLocation",
                        receiver="v9", dest="v0",
                    )
                    .const_string("v0", "clean")
                    .invoke("Log.d", args=("v8", "v0"))
                    .ret()
                    .build()
                )
            ]
        )
        model = extract_app(apk)
        assert not model.component("p/Svc").paths

    def test_dead_code_leak_ignored(self):
        """A leak after an unconditional goto is not reported."""
        apk = self._service_app(
            [
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .invoke(
                        "LocationManager.getLastKnownLocation",
                        receiver="v9", dest="v0",
                    )
                    .goto("end")
                    .invoke("Log.d", args=("v8", "v0"))
                    .label("end")
                    .ret()
                    .build()
                )
            ]
        )
        model = extract_app(apk)
        assert not model.component("p/Svc").paths

    def test_branch_join_keeps_taint(self):
        """Taint survives a join where only one arm tainted the register
        (may-analysis, not path-sensitive)."""
        apk = self._service_app(
            [
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .const_string("v0", "clean")
                    .if_goto("v9", "log")
                    .invoke(
                        "LocationManager.getLastKnownLocation",
                        receiver="v9", dest="v0",
                    )
                    .label("log")
                    .invoke("Log.d", args=("v8", "v0"))
                    .ret()
                    .build()
                )
            ]
        )
        model = extract_app(apk)
        assert PathModel(Resource.LOCATION, Resource.LOG) in model.component(
            "p/Svc"
        ).paths

    def test_taint_through_helper_return(self):
        apk = self._service_app(
            [
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .invoke("this.fetch", dest="v0")
                    .invoke("SmsManager.getDefault", dest="v5")
                    .const_string("v6", "5551234")
                    .invoke(
                        "SmsManager.sendTextMessage",
                        receiver="v5",
                        args=("v6", "v6", "v0", "v6", "v6"),
                    )
                    .ret()
                    .build()
                ),
                (
                    MethodBuilder("fetch")
                    .invoke("TelephonyManager.getDeviceId", receiver="v9", dest="v0")
                    .ret("v0")
                    .build()
                ),
            ]
        )
        model = extract_app(apk)
        assert PathModel(Resource.IMEI, Resource.SMS) in model.component(
            "p/Svc"
        ).paths

    def test_taint_through_string_operations(self):
        apk = self._service_app(
            [
                (
                    MethodBuilder("onStartCommand", params=("p0",))
                    .invoke(
                        "LocationManager.getLastKnownLocation",
                        receiver="v9", dest="v0",
                    )
                    .invoke("Location.toString", receiver="v0", dest="v1")
                    .const_string("v2", "prefix: ")
                    .invoke("String.concat", receiver="v2", args=("v1",), dest="v3")
                    .invoke("Log.d", args=("v8", "v3"))
                    .ret()
                    .build()
                )
            ]
        )
        model = extract_app(apk)
        assert PathModel(Resource.LOCATION, Resource.LOG) in model.component(
            "p/Svc"
        ).paths


class TestBundleExtraction:
    def test_passive_intent_targets_resolved(self):
        """Algorithm 1: the result Intent of a startActivityForResult callee
        targets the original caller."""
        caller = DexClass(
            "Caller",
            superclass="Activity",
            methods=[
                (
                    MethodBuilder("onCreate", params=("p0",))
                    .new_instance("v0", "Intent")
                    .const_string("v1", "appb/Picker")
                    .invoke("Intent.setClassName", receiver="v0", args=("v1",))
                    .invoke("Context.startActivityForResult", args=("v0",))
                    .ret()
                    .build()
                ),
            ],
        )
        picker = DexClass(
            "Picker",
            superclass="Activity",
            methods=[
                (
                    MethodBuilder("onCreate", params=("p0",))
                    .new_instance("v0", "Intent")
                    .const_string("v1", "chosen")
                    .const_string("v2", "value")
                    .invoke("Intent.putExtra", receiver="v0", args=("v1", "v2"))
                    .invoke("Activity.setResult", args=("v0",))
                    .ret()
                    .build()
                ),
            ],
        )
        apk_a = Apk(
            Manifest(
                package="appa",
                components=[ComponentDecl("Caller", ComponentKind.ACTIVITY)],
            ),
            DexProgram([caller]),
        )
        apk_b = Apk(
            Manifest(
                package="appb",
                components=[
                    ComponentDecl("Picker", ComponentKind.ACTIVITY, exported=True)
                ],
            ),
            DexProgram([picker]),
        )
        bundle = extract_bundle([apk_a, apk_b])
        passive = [i for i in bundle.all_intents() if i.passive]
        assert len(passive) == 1
        assert passive[0].passive_targets == {"appa/Caller"}

    def test_bundle_stats(self):
        bundle = extract_bundle([build_app1(), build_app2()])
        stats = bundle.stats
        assert stats["apps"] == 2
        assert stats["components"] == 3
        assert stats["intent_filters"] == 1


class TestDynamicReceivers:
    def _apk(self):
        cls = DexClass(
            "Main",
            superclass="Activity",
            methods=[
                (
                    MethodBuilder("onCreate", params=("p0",))
                    .new_instance("v0", "DynReceiver")
                    .new_instance("v1", "IntentFilter")
                    .const_string("v2", "dyn.ACTION")
                    .invoke("IntentFilter.addAction", receiver="v1", args=("v2",))
                    .invoke("Context.registerReceiver", args=("v0", "v1"))
                    .ret()
                    .build()
                ),
            ],
        )
        recv = DexClass("DynReceiver", superclass="BroadcastReceiver")
        manifest = Manifest(
            package="p",
            components=[
                ComponentDecl("Main", ComponentKind.ACTIVITY, exported=True),
                ComponentDecl("DynReceiver", ComponentKind.RECEIVER),
            ],
        )
        return Apk(manifest, DexProgram([cls, recv]))

    def test_default_extractor_misses_dynamic_filters(self):
        """SEPAR's published behavior: dynamic registration not handled."""
        model = extract_app(self._apk())
        recv = model.component("p/DynReceiver")
        assert not recv.intent_filters
        assert not recv.exported

    def test_extension_flag_captures_dynamic_filters(self):
        model = extract_app(self._apk(), handle_dynamic_receivers=True)
        recv = model.component("p/DynReceiver")
        assert any(
            f.dynamic and "dyn.ACTION" in f.actions for f in recv.intent_filters
        )
        assert recv.exported


class TestExtractionMetadata:
    def test_timing_recorded(self):
        model = extract_app(build_app1())
        assert model.extraction_seconds > 0

    def test_size_recorded(self):
        model = extract_app(build_app1())
        assert model.apk_size_kb > 0


class TestExtractionSpans:
    def test_each_pass_has_its_own_span(self):
        """Value analysis is timed apart from the call graph: every AME
        pass is one child span of ``ame.extract``, in the order it runs."""
        tracer = InMemoryTracer()
        previous = set_tracer(tracer)
        try:
            extract_app(build_app1())
        finally:
            set_tracer(previous)
        [root] = [r for r in tracer.records if r.name == "ame.extract"]
        children = [
            r.name for r in tracer.records if r.parent_id == root.span_id
        ]
        assert children == [
            "ame.callgraph",
            "ame.constprop",
            "ame.taint",
            "ame.intents",
            "ame.permissions",
        ]
