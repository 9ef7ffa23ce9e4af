"""Resolving each ICC send once, through action buckets, must not change
what the runtime does.

The runtime looks a send's candidates up in the device's per-kind action
buckets (``Device.candidates``) instead of scanning every installed
component, resolves the send once before its before-hooks run, and hands
the recipients to the PEP on ``MethodCall.recipients`` (see
:mod:`repro.enforcement.runtime`).  This module keeps the earlier runtime
as the reference -- every installed component of the kind as the
candidates, the PEP resolving the send inside its hook, and the framework
resolving it again when the PEP denied nobody -- swaps it in with
``monkeypatch``, checks that each swapped function ran, and compares the
effect sequences ``(kind, component, detail)``, the audit records and the
allowed/blocked delivery counts:

- on populations shaped like the icc_enforce benchmark's (64 ICC-issuing
  apps under the 192-policy enforcement workload) at seeds 3, 17 and 42;
- on the enforcement test apps: the running example, the market findings
  and the threat cases, each under its own synthesized policies;
- on devices drawn with ``REPRO_FUZZ_SEED`` that install, uninstall and
  register receivers between sends.

A Hypothesis property over random filters (categories, DEFAULT, schemes,
MIME types, priorities) checks that bucketed resolution equals the full
scan, and that every recipient is one the framework's rules admit.
"""

import os
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.android.apk import Apk
from repro.android.components import ComponentDecl, ComponentKind
from repro.android.intents import CATEGORY_DEFAULT, IntentFilter, filter_matches
from repro.android.manifest import Manifest
from repro.android.permissions import SOURCE_API_MAP
from repro.benchsuite.bench import make_enforcement_workload
from repro.benchsuite.market_findings import market_findings_bundle
from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.benchsuite.threatcases import all_threat_cases
from repro.core.policy import ECAPolicy, IccEvent, PolicyAction, PolicyEvent
from repro.core.separ import Separ
from repro.dex import DexClass, DexProgram, MethodBuilder
from repro.dex.instructions import Invoke
from repro.enforcement import (
    AndroidRuntime,
    AuditLog,
    PolicyEnforcementPoint,
    RuntimeIntent,
    make_pdp,
)
from repro.enforcement.hooks import MethodCall
from repro.enforcement.pdp import Decision
from repro.enforcement.runtime import _SEND_KIND, Device, Effect


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20160807"))


# ----------------------------------------------------------------------
# The reference runtime: full scan, resolve in the hook, resolve again
# ----------------------------------------------------------------------
def reference_candidates(runs):
    def candidates(self, kind, intent):
        runs["candidates"] += 1
        return [c for c in self.all_components() if c.decl.kind is kind]

    return candidates


def reference_invoke(runs):
    def _invoke(self, app, component, method, instr, regs, depth, caller_app):
        runs["invoke"] += 1
        receiver = regs.get(instr.receiver) if instr.receiver else None
        args = [regs.get(a) for a in instr.args]
        callee = None
        if instr.class_name == "this":
            cls = app.apk.program.cls(method.class_name)
            if cls.has_method(instr.method_name):
                callee = cls.method(instr.method_name)
        else:
            callee = app.apk.program.lookup(instr.signature)
        if callee is not None:
            return self._run_method(
                app, component, callee, args, depth + 1, caller_app
            )
        call = MethodCall(
            signature=instr.signature,
            component=component,
            receiver=receiver,
            args=args,
        )
        self.hooks.run_before(call)
        if call.skip:
            self.effects.append(
                Effect("call_skipped", component, {"signature": instr.signature})
            )
            return call.result
        call.result = self._platform_api(app, component, call, caller_app)
        self.hooks.run_after(call)
        return call.result

    return _invoke


def reference_platform_api(runs, platform_api):
    def _platform_api(self, app, component, call, caller_app):
        if call.signature not in _SEND_KIND:
            return platform_api(self, app, component, call, caller_app)
        runs["framework_send"] += 1
        intent = call.args[0] if call.args else None
        if isinstance(intent, RuntimeIntent):
            matches = self.resolve_icc(component, call.signature, intent)
            self.deliver_icc(component, call.signature, intent, matches)
        return None

    return _platform_api


def reference_on_icc_send(runs):
    def _on_icc_send(self, call):
        runs["hook"] += 1
        intent = call.args[0] if call.args else None
        if not isinstance(intent, RuntimeIntent):
            return
        sender = call.component
        matches = self.runtime.resolve_icc(sender, call.signature, intent)
        sender_perms = self.runtime.sender_permissions(sender)
        allowed = []
        for component in matches:
            event = IccEvent(
                sender=sender,
                receiver=component.qualified,
                action=intent.action,
                extras=intent.carried_resources,
                sender_permissions=sender_perms,
            )
            send_ok = (
                self.pdp.decide(PolicyEvent.ICC_SEND, event, context=call.signature)
                is Decision.ALLOW
            )
            receive_ok = (
                self.pdp.decide(
                    PolicyEvent.ICC_RECEIVE, event, context=call.signature
                )
                is Decision.ALLOW
            )
            if send_ok and receive_ok:
                allowed.append(component)
                self.allowed_deliveries += 1
            else:
                self.blocked_deliveries += 1
        if len(allowed) == len(matches):
            return
        call.skip = True
        self.runtime.deliver_icc(sender, call.signature, intent, allowed)

    return _on_icc_send


@pytest.fixture
def reference(monkeypatch):
    """Returns ``swap()``: install the reference runtime (undone when the
    test ends) and return the counts of its functions' runs."""

    def swap():
        runs = Counter()
        monkeypatch.setattr(Device, "candidates", reference_candidates(runs))
        monkeypatch.setattr(AndroidRuntime, "_invoke", reference_invoke(runs))
        monkeypatch.setattr(
            AndroidRuntime,
            "_platform_api",
            reference_platform_api(runs, AndroidRuntime._platform_api),
        )
        monkeypatch.setattr(
            PolicyEnforcementPoint, "_on_icc_send", reference_on_icc_send(runs)
        )
        return runs

    return swap


# ----------------------------------------------------------------------
# Running a script and recording what it did
# ----------------------------------------------------------------------
def _canonical(value):
    if isinstance(value, RuntimeIntent):
        return (
            "intent",
            value.sender,
            value.target,
            value.action,
            tuple(sorted(value.categories)),
            value.data_type,
            value.data_scheme,
            tuple(sorted(value.extras)),
            value.wants_result,
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(v) for v in value))
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    return value


def _record(record):
    data = record.to_dict()
    data["payload"] = sorted(data["payload"])
    data["sender_permissions"] = sorted(data["sender_permissions"])
    return data


def run_script(steps, policies, prompt=lambda policy, event: True):
    """Play ``steps`` on fresh runtimes sharing one PEP-guarded PDP.

    Steps: ``("boot",)`` starts a fresh runtime, ``("install", apk)``,
    ``("uninstall", package)``, ``("start", component)``."""
    pdp = make_pdp(policies, prompt_callback=prompt, audit=AuditLog())
    effects, errors, counts = [], [], []
    runtime = pep = None

    def close():
        if runtime is not None:
            effects.append([
                (e.kind, e.component, _canonical(e.detail))
                for e in runtime.effects
            ])
            counts.append(
                (pep.allowed_deliveries, pep.blocked_deliveries,
                 runtime.hooks.invocations, runtime.icc_sent,
                 runtime.icc_delivered)
            )

    for step in steps:
        if step[0] == "boot":
            close()
            runtime = AndroidRuntime()
            pep = PolicyEnforcementPoint(runtime, pdp)
            pep.install()
        elif step[0] == "install":
            runtime.install(step[1])
        elif step[0] == "uninstall":
            runtime.device.uninstall(step[1])
        else:
            try:
                runtime.start_component(step[1])
            except (KeyError, RuntimeError) as exc:
                errors.append((step[1], repr(exc)))
    close()
    return {
        "effects": effects,
        "counts": counts,
        "errors": errors,
        "audit": [_record(r) for r in pdp.audit.iter_all()],
        "summary": pdp.audit.summary(),
    }


ALL_REFERENCES = ("candidates", "invoke", "framework_send", "hook")


def assert_identical(steps, policies, reference, ran=ALL_REFERENCES, **kwargs):
    """Play ``steps`` on the runtime, then on the reference, and compare;
    each reference function named in ``ran`` must have run."""
    new = run_script(steps, policies, **kwargs)
    runs = reference()
    old = run_script(steps, policies, **kwargs)
    for name in ran:
        assert runs[name], f"the reference {name} never ran"
    assert new == old
    return new


# ----------------------------------------------------------------------
# Populations shaped like the icc_enforce benchmark's
# ----------------------------------------------------------------------
_ENTRY = {
    ComponentKind.ACTIVITY: ("onCreate", "Activity", "Context.startActivity"),
    ComponentKind.SERVICE: ("onStartCommand", "Service", "Context.startService"),
    ComponentKind.RECEIVER: (
        "onReceive", "BroadcastReceiver", "Context.sendBroadcast"
    ),
}


def benchmark_population(seed, apps=64, activations=100, reps=2):
    """The 192-policy enforcement workload and 64 apps issuing bursts of
    eight sends (two explicit, two carrying a sensitive-source extra),
    the shape of the icc_enforce benchmark's population; ``reps`` fresh
    runtimes of ``activations`` framework starts each."""
    policies, _ = make_enforcement_workload(
        seed=seed, num_policies=192, num_events=0
    )
    pool = [f"app{i:03d}.pkg/Comp{i:03d}" for i in range(96)]
    actions = [f"com.bench.ACTION_{i}" for i in range(24)]
    permissions = [f"perm.P{i}" for i in range(12)]
    rng = random.Random(seed)
    chosen = sorted(rng.sample(pool, apps))
    kinds = (list(_ENTRY) * apps)[:apps]
    rng.shuffle(kinds)
    by_kind = {}
    for name, kind in zip(chosen, kinds):
        by_kind.setdefault(kind, []).append(name)
    dealt = rng.sample(actions, len(actions))
    sources = sorted(SOURCE_API_MAP)
    apks = []
    for slot, (qualified, kind) in enumerate(zip(chosen, kinds)):
        package, name = qualified.split("/")
        entry, superclass, _ = _ENTRY[kind]
        code = MethodBuilder(entry, params=("p0",))
        code.const_string("v1", "hop")
        code.invoke("Intent.getStringExtra", receiver="p0", args=("v1",), dest="v2")
        code.if_goto("v2", "done")
        targets = rng.sample([ComponentKind.SERVICE] * 3 + [ComponentKind.RECEIVER] * 3
                             + [ComponentKind.ACTIVITY] * 2, 8)
        explicit = set(rng.sample(range(8), 2))
        tainted = set(rng.sample(range(8), 2))
        for n, target_kind in enumerate(targets):
            code.new_instance("v0", "Intent")
            code.const_string("v3", rng.choice(actions))
            code.invoke("Intent.setAction", receiver="v0", args=("v3",))
            if n in explicit:
                code.const_string("v4", rng.choice(by_kind[target_kind]))
                code.invoke("Intent.setClassName", receiver="v0", args=("v4",))
            code.const_string("v5", "1")
            code.invoke("Intent.putExtra", receiver="v0", args=("v1", "v5"))
            if n in tainted:
                code.invoke(rng.choice(sources), receiver="v9", dest="v8")
                code.const_string("v6", "data")
                code.invoke("Intent.putExtra", receiver="v0", args=("v6", "v8"))
            code.invoke(_ENTRY[target_kind][2], args=("v0",))
        code.label("done")
        code.ret()
        filters = [
            IntentFilter.for_action(dealt[(2 * slot + k) % len(dealt)])
            for k in (0, 1)
        ]
        apks.append(Apk(
            Manifest(
                package=package,
                uses_permissions=frozenset(rng.sample(permissions, 2)),
                components=[ComponentDecl(
                    name, kind, exported=True, intent_filters=filters
                )],
            ),
            DexProgram([DexClass(name, superclass=superclass,
                                 methods=[code.build()])]),
        ))
    steps = []
    for _ in range(reps):
        steps.append(("boot",))
        steps.extend(("install", apk) for apk in apks)
        steps.extend(("start", rng.choice(chosen)) for _ in range(activations))
    return steps, policies


def benchmark_prompt(policy, event):
    return (event.receiver or "") < event.sender


@pytest.mark.parametrize("population_seed", [3, 17, 42])
def test_benchmark_population(population_seed, reference):
    steps, policies = benchmark_population(population_seed)
    new = assert_identical(steps, policies, reference, prompt=benchmark_prompt)
    allowed = sum(c[0] for c in new["counts"])
    blocked = sum(c[1] for c in new["counts"])
    assert allowed and blocked, "both the allow and the deny path must run"


# ----------------------------------------------------------------------
# The enforcement test apps
# ----------------------------------------------------------------------
def _bundle_script(apks, rounds=2):
    steps = [("boot",)] + [("install", apk) for apk in apks]
    for _ in range(rounds):
        for apk in apks:
            for decl in apk.manifest.components:
                if decl.kind is not ComponentKind.PROVIDER:
                    steps.append(("start", apk.manifest.qualified(decl)))
    return steps


def _test_app_bundles():
    """(analyzed apps, installed apps) per bundle: the running example is
    analyzed without its attacker, as a user's device would be."""
    running = [build_app1(), build_app2()]
    bundles = [
        pytest.param(running, running + [build_malicious_app()],
                     id="running_example"),
        pytest.param(market_findings_bundle(), market_findings_bundle(),
                     id="market_findings"),
    ]
    for case in all_threat_cases():
        bundles.append(pytest.param(case.apks, case.apks, id=case.name))
    return bundles


@pytest.mark.parametrize("analyzed,installed", _test_app_bundles())
@pytest.mark.parametrize("consent", [True, False])
def test_enforcement_test_apps(analyzed, installed, consent, reference):
    policies = Separ(
        scenarios_per_signature=2, handle_dynamic_receivers=True
    ).analyze_apks(analyzed).policies
    sends = any(
        isinstance(instr, Invoke) and instr.signature in _SEND_KIND
        for apk in installed
        for cls in apk.program.classes
        for method in cls.methods
        for instr in method.instructions
    )
    assert_identical(
        _bundle_script(installed), policies, reference,
        ran=("invoke", "candidates", "hook") if sends else ("invoke",),
        prompt=lambda policy, event: consent,
    )


# ----------------------------------------------------------------------
# Drawn devices: install, uninstall and registerReceiver between sends
# ----------------------------------------------------------------------
ACTIONS = [f"fz.ACT{i}" for i in range(5)]
CATEGORIES = [CATEGORY_DEFAULT, "fz.CAT0", "fz.CAT1"]
SCHEMES = ["http", "content"]
TYPES = ["text/plain", "image/png"]
FILTER_TYPES = ["text/plain", "image/*", "*/*"]
PERMISSIONS = ["fz.PERM0", "fz.PERM1"]
SEND_APIS = sorted(_SEND_KIND)


def random_filter(rng):
    return IntentFilter(
        actions=frozenset(rng.sample(ACTIONS, rng.randint(1, 2))),
        categories=frozenset(c for c in CATEGORIES if rng.random() < 0.6),
        data_types=frozenset(t for t in FILTER_TYPES if rng.random() < 0.15),
        data_schemes=frozenset(s for s in SCHEMES if rng.random() < 0.15),
        priority=rng.choice([0, 0, 1, 5]),
    )


def random_app(rng, package, universe):
    """An app whose components each send a burst of random Intents when
    the framework starts them, may register a receiver of their app, and
    log the sensitive extra of any Intent they receive."""
    decls, classes = [], []
    names = [f"C{i}" for i in range(rng.randint(2, 4))]
    kinds = {n: rng.choice(list(_ENTRY)) for n in names}
    receivers = [n for n in names if kinds[n] is ComponentKind.RECEIVER]
    sources = sorted(SOURCE_API_MAP)
    for name in names:
        kind = kinds[name]
        decls.append(ComponentDecl(
            name,
            kind,
            exported=rng.choice([None, True, False]),
            permission=rng.choice(PERMISSIONS) if rng.random() < 0.15 else None,
            intent_filters=[random_filter(rng) for _ in range(rng.randint(0, 3))],
        ))
        entry, superclass, _ = _ENTRY[kind]
        code = MethodBuilder(entry, params=("p0",))
        code.const_string("v1", "hop")
        code.invoke("Intent.getStringExtra", receiver="p0", args=("v1",), dest="v2")
        code.if_goto("v2", "relay")
        for _ in range(rng.randint(1, 4)):
            if receivers and rng.random() < 0.3:
                code.new_instance("v7", rng.choice(receivers))
                code.new_instance("v8", "IntentFilter")
                code.const_string("v3", rng.choice(ACTIONS))
                code.invoke("IntentFilter.addAction", receiver="v8", args=("v3",))
                if rng.random() < 0.5:
                    code.const_string("v3", rng.choice(CATEGORIES))
                    code.invoke("IntentFilter.addCategory", receiver="v8", args=("v3",))
                code.invoke("Context.registerReceiver", args=("v7", "v8"))
            code.new_instance("v0", "Intent")
            if rng.random() < 0.85:
                code.const_string("v3", rng.choice(ACTIONS))
                code.invoke("Intent.setAction", receiver="v0", args=("v3",))
            for category in CATEGORIES:
                if rng.random() < 0.25:
                    code.const_string("v3", category)
                    code.invoke("Intent.addCategory", receiver="v0", args=("v3",))
            if rng.random() < 0.1:
                code.const_string("v3", rng.choice(TYPES))
                code.invoke("Intent.setType", receiver="v0", args=("v3",))
            if rng.random() < 0.1:
                code.const_string("v3", rng.choice(SCHEMES) + "://x")
                code.invoke("Intent.setData", receiver="v0", args=("v3",))
            if rng.random() < 0.25:
                code.const_string("v3", rng.choice(universe))
                code.invoke("Intent.setClassName", receiver="v0", args=("v3",))
            code.const_string("v5", "1")
            code.invoke("Intent.putExtra", receiver="v0", args=("v1", "v5"))
            if rng.random() < 0.4:
                code.invoke(rng.choice(sources), receiver="v9", dest="v6")
                code.const_string("v3", "data")
                code.invoke("Intent.putExtra", receiver="v0", args=("v3", "v6"))
            code.invoke(rng.choice(SEND_APIS), args=("v0",))
        code.ret()
        code.label("relay")
        code.const_string("v3", "data")
        code.invoke("Intent.getStringExtra", receiver="p0", args=("v3",), dest="v6")
        code.invoke("Log.d", args=("v3", "v6"))
        if rng.random() < 0.3:
            code.invoke("Activity.setResult", args=("p0",))
        code.ret()
        classes.append(DexClass(name, superclass=_ENTRY[kind][1],
                                methods=[code.build()]))
    return Apk(
        Manifest(
            package=package,
            uses_permissions=frozenset(p for p in PERMISSIONS if rng.random() < 0.5),
            components=decls,
        ),
        DexProgram(classes),
    )


def random_policies(rng, universe):
    return [
        ECAPolicy(
            event=rng.choice(list(PolicyEvent)),
            vulnerability="fuzz",
            action=rng.choice(list(PolicyAction)),
            receiver=rng.choice(universe) if rng.random() < 0.6 else None,
            intent_action=rng.choice(ACTIONS) if rng.random() < 0.5 else None,
        )
        for _ in range(rng.randint(0, 4))
    ]


def random_device_script(rng, packages=6, steps=30):
    names = [f"fz{p}" for p in range(packages)]
    universe = [f"{n}/C{i}" for n in names for i in range(4)]
    apks = {n: random_app(rng, n, universe) for n in names}
    installed = [n for n in names if rng.random() < 0.6] or names[:1]
    script = [("boot",)] + [("install", apks[n]) for n in installed]
    for _ in range(steps):
        roll = rng.random()
        absent = [n for n in names if n not in installed]
        if roll < 0.12 and absent:
            package = rng.choice(absent)
            installed.append(package)
            script.append(("install", apks[package]))
        elif roll < 0.22 and len(installed) > 1:
            package = rng.choice(installed)
            installed.remove(package)
            script.append(("uninstall", package))
        else:
            package = rng.choice(installed)
            decl = rng.choice(apks[package].manifest.components)
            script.append(("start", apks[package].manifest.qualified(decl)))
    return script, random_policies(rng, universe)


@pytest.mark.parametrize("device", range(12))
def test_drawn_devices(device, reference):
    rng = random.Random(f"{FUZZ_SEED}:{device}")
    script, policies = random_device_script(rng)
    prompt = lambda policy, event: event.sender < (event.receiver or "")  # noqa: E731
    assert_identical(script, policies, reference, prompt=prompt)


def _sender_app(*body):
    """``s/Main``: sets each action in turn and broadcasts it, with
    ``registerReceiver(late/Late, filter for late.ACT)`` where ``body``
    places the marker ``"register"``."""
    code = MethodBuilder("onCreate", params=("p0",))
    for step in body:
        if step == "register":
            code.new_instance("v7", "Late")
            code.new_instance("v8", "IntentFilter")
            code.const_string("v3", "late.ACT")
            code.invoke("IntentFilter.addAction", receiver="v8", args=("v3",))
            code.invoke("Context.registerReceiver", args=("v7", "v8"))
        else:
            code.new_instance("v0", "Intent")
            code.const_string("v3", step)
            code.invoke("Intent.setAction", receiver="v0", args=("v3",))
            code.invoke("Context.sendBroadcast", args=("v0",))
    code.ret()
    return Apk(
        Manifest(package="s", components=[
            ComponentDecl("Main", ComponentKind.ACTIVITY, exported=True),
            ComponentDecl("Late", ComponentKind.RECEIVER, exported=True),
        ]),
        DexProgram([
            DexClass("Main", superclass="Activity", methods=[code.build()]),
            DexClass("Late", superclass="BroadcastReceiver", methods=[
                MethodBuilder("onReceive", params=("p0",))
                .const_string("v0", "late")
                .invoke("Log.d", args=("v0", "v0"))
                .ret()
                .build()
            ]),
        ]),
    )


def _listener(package, action):
    return Apk(
        Manifest(package=package, components=[ComponentDecl(
            "Recv", ComponentKind.RECEIVER, exported=True,
            intent_filters=[IntentFilter.for_action(action)],
        )]),
        DexProgram([DexClass("Recv", superclass="BroadcastReceiver", methods=[
            MethodBuilder("onReceive", params=("p0",))
            .const_string("v0", package)
            .invoke("Log.d", args=("v0", "v0"))
            .ret()
            .build()
        ])]),
    )


def _delivered(result):
    return [
        component
        for run in result["effects"]
        for kind, component, _ in run
        if kind == "icc_delivered"
    ]


def test_receiver_registered_between_broadcasts(reference):
    """A broadcast resolved before a ``registerReceiver`` must not hide
    the new receiver from the broadcasts after it."""
    script = [("boot",), ("install", _sender_app("late.ACT", "register", "late.ACT")),
              ("start", "s/Main")]
    result = assert_identical(
        script, [], reference, ran=("candidates", "framework_send", "hook")
    )
    assert _delivered(result) == ["s/Late"]


def test_install_and_uninstall_between_broadcasts(reference):
    """Receivers installed or uninstalled between two activations are
    found, or no longer found, by the next broadcast."""
    sender = _sender_app("x.ACT")
    script = [
        ("boot",), ("install", sender), ("install", _listener("r1", "x.ACT")),
        ("start", "s/Main"),
        ("install", _listener("r2", "x.ACT")), ("start", "s/Main"),
        ("uninstall", "r1"), ("start", "s/Main"),
    ]
    result = assert_identical(
        script, [], reference, ran=("candidates", "framework_send", "hook")
    )
    assert _delivered(result) == ["r1/Recv", "r1/Recv", "r2/Recv", "r2/Recv"]


# ----------------------------------------------------------------------
# Property: bucketed resolution over random filters
# ----------------------------------------------------------------------
class FullScanDevice(Device):
    """The reference candidates: every installed component of the kind."""

    def candidates(self, kind, intent):
        return [c for c in self.all_components() if c.decl.kind is kind]


filters = st.builds(
    IntentFilter,
    actions=st.frozensets(st.sampled_from(ACTIONS), min_size=1, max_size=2),
    categories=st.frozensets(st.sampled_from(CATEGORIES), max_size=3),
    data_types=st.frozensets(st.sampled_from(FILTER_TYPES), max_size=2),
    data_schemes=st.frozensets(st.sampled_from(SCHEMES), max_size=2),
    priority=st.integers(min_value=-2, max_value=3),
)
components = st.tuples(
    st.sampled_from(list(_ENTRY)),
    st.sampled_from([None, True, False]),
    st.lists(filters, max_size=3),
)
intents = st.fixed_dictionaries({
    "api": st.sampled_from(SEND_APIS),
    "sender": st.sampled_from(["p0/C0", "p1/C0", "outsider/X"]),
    "action": st.none() | st.sampled_from(ACTIONS + ["fz.UNLISTED"]),
    "categories": st.frozensets(st.sampled_from(CATEGORIES), max_size=2),
    "data_type": st.none() | st.sampled_from(TYPES),
    "data_scheme": st.none() | st.sampled_from(SCHEMES),
    "target": st.none() | st.sampled_from(["p0/C0", "p0/C1", "p1/C2", "p9/C0"]),
})


def _device_apks(apps):
    apks = []
    for p, comps in enumerate(apps):
        decls = [
            ComponentDecl(f"C{i}", kind, exported=exported, intent_filters=list(fs))
            for i, (kind, exported, fs) in enumerate(comps)
        ]
        apks.append(Apk(Manifest(package=f"p{p}", components=decls), DexProgram([])))
    return apks


def _admitted(model, component):
    """The framework's rules, stated for the check: exported or in the
    sender's app, and a filter passing the three tests that, for an
    Activity, declares DEFAULT."""
    if not component.exported and component.app != model.sender.split("/")[0]:
        return False
    return any(
        filter_matches(model, f)
        and (component.kind is not ComponentKind.ACTIVITY
             or CATEGORY_DEFAULT in f.categories)
        for f in component.intent_filters
    )


@seed(FUZZ_SEED)
@settings(max_examples=150, deadline=None)
@given(
    apps=st.lists(st.lists(components, min_size=1, max_size=3), min_size=1, max_size=3),
    sends=st.lists(intents, min_size=1, max_size=6),
)
def test_bucketed_resolution_matches_full_scan(apps, sends):
    indexed, scanned = AndroidRuntime(), AndroidRuntime(device=FullScanDevice())
    for apk in _device_apks(apps):
        indexed.install(apk)
        scanned.install(apk)
    for send in sends:
        got = []
        for runtime in (indexed, scanned):
            intent = RuntimeIntent()
            intent.action = send["action"]
            intent.categories = set(send["categories"])
            intent.data_type = send["data_type"]
            intent.data_scheme = send["data_scheme"]
            intent.target = send["target"]
            got.append([
                c.qualified
                for c in runtime.resolve_icc(send["sender"], send["api"], intent)
            ])
        assert got[0] == got[1]
        if send["target"] is not None:
            continue
        model = intent.to_model()
        kind = _SEND_KIND[send["api"]]
        admitted = [
            c.qualified
            for c in indexed.device.all_components()
            if c.decl.kind is kind and _admitted(model, c)
        ]
        if kind is ComponentKind.RECEIVER:
            assert got[0] == admitted
        else:
            assert set(got[0]) <= set(admitted)
            assert bool(got[0]) == bool(admitted)
