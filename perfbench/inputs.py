"""Seeded input generation for every workload.

The program receives only what these functions build.  They draw on the
program's own generators (``repro.workloads``, ``make_enforcement_workload``)
so the inputs look like the paper's, and every workload records a digest
of what it generated (``common.digest``) so that runs over different
inputs are never compared.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

#: Audits: 40 apps drawn from a corpus five times larger: exactly
#: ``AUDIT_FLAGGED`` apps the generator injected a vulnerability into (the
#: paper's base rate, about one app in ten; one per injected pattern where
#: the corpus has one), the rest by systematic sampling over code volume
#: inside each repository.  Every seed then
#: audits about the same amount of code and of vulnerable code, in the
#: paper's four-repository mix, and the seed still changes every app.
AUDIT_POOL_SCALE = 0.05
AUDIT_SAMPLE_EVERY = 5
AUDIT_FLAGGED = 4
BUNDLE_SIZE = 8
SCENARIOS = 2

#: device_stream: every device holds the composition of the program's own
#: ``service`` bench workload (``repro.benchsuite.bench._bench_service``):
#: three apps the generator injected a vulnerability into and two neutral
#: ones, drawn from the audits' corpus.  Apps closest to these component
#: counts go first, so every seed's devices cost about the same.
DEVICE_VULNERABLE = 3
DEVICE_NEUTRAL = 2
VULNERABLE_COMPONENTS = 7
NEUTRAL_COMPONENTS = 5
DECIDES_PER_CYCLE = 20
DEVICES = 2

#: icc_enforce: population size.
ICC_APPS = 64


def code_volume(apk: Any) -> int:
    return sum(
        len(method.instructions)
        for cls in apk.program.classes
        for method in cls.methods
    )


# ----------------------------------------------------------------------
# audit_cold / audit_warm

def audit_inputs(seed: int) -> Tuple[List[Any], List[List[Any]]]:
    """(apks, bundles): a sampled market corpus in 8-app bundles."""
    from repro.workloads import CorpusConfig, CorpusGenerator, partition_bundles

    generator = CorpusGenerator(CorpusConfig(seed=seed, scale=AUDIT_POOL_SCALE))
    pool = generator.generate()
    flagged = _flagged(generator)
    rng = random.Random(seed)
    ledger = generator.ledger
    chosen: List[str] = []
    # One app per injected pattern where the pool has one, topped up from
    # the other flagged apps: every seed audits each pattern.
    for group in (ledger.hijack_apps, ledger.launch_apps, ledger.leak_apps,
                  ledger.escalation_apps):
        candidates = sorted(group - set(chosen))
        if candidates:
            chosen.append(rng.choice(candidates))
    spare = sorted(flagged - set(chosen))
    chosen += rng.sample(spare, AUDIT_FLAGGED - len(chosen))
    by_repo: Dict[str, List[Any]] = {}
    for apk in pool:
        by_repo.setdefault(apk.repository, []).append(apk)
    apks: List[Any] = []
    for repo in sorted(by_repo):
        members = by_repo[repo]
        picked = [a for a in members if a.package in chosen]
        rest = sorted(
            (a for a in members if a.package not in flagged),
            key=lambda a: (code_volume(a), a.package),
        )
        need = max(0, len(members) // AUDIT_SAMPLE_EVERY - len(picked))
        picked += [rest[(2 * i + 1) * len(rest) // (2 * need)] for i in range(need)]
        apks.extend(sorted(picked, key=lambda a: a.package))
    bundles = partition_bundles(apks, bundle_size=BUNDLE_SIZE, seed=seed)
    return apks, bundles


def _flagged(generator: Any) -> set:
    """Packages the generator injected a vulnerability into."""
    ledger = generator.ledger
    return (
        ledger.hijack_apps | ledger.launch_apps | ledger.leak_apps
        | ledger.escalation_apps
    )


# ----------------------------------------------------------------------
# device_stream

def _event_pool(rng: random.Random, senders, apps, count: int) -> List[Dict[str, Any]]:
    from repro.android.resources import Resource
    from repro.workloads.corpus import COMMON_ACTIONS

    receivers = [c.name for app in apps for c in app.components]
    actions = sorted(
        {
            action
            for app in apps
            for c in app.components
            for f in c.intent_filters
            for action in f.actions
        }
        | {i.action for app in apps for i in app.intents if i.action}
    ) + rng.sample(COMMON_ACTIONS, 4)
    resources = sorted(r.value for r in Resource)
    pool = []
    for _ in range(count):
        sender_app, sender = rng.choice(senders)
        event: Dict[str, Any] = {
            "sender": sender,
            "sender_permissions": sorted(sender_app.uses_permissions),
        }
        if rng.random() < 0.9:
            event["receiver"] = rng.choice(receivers)
        if rng.random() < 0.8:
            event["action"] = rng.choice(actions)
        if rng.random() < 0.3:
            event["extras"] = sorted(rng.sample(resources, rng.randint(1, 2)))
        kind = "icc_send" if rng.random() < 0.4 else "icc_receive"
        pool.append({"kind": kind, "event": event})
    return pool


def _app_dict(model: Any) -> Dict[str, Any]:
    """An extracted app as sent to the daemon, minus its wall-clock
    extraction time, so one seed always yields identical requests."""
    from repro.core import serialize

    return dict(serialize.app_to_dict(model), extraction_seconds=0.0)


def device_inputs(seed: int, cycles: int) -> Dict[str, Any]:
    """Apps, and per device an install list plus a stream of cycles.

    Each device holds five apps (three vulnerable, two neutral) and
    toggles two things: one of its vulnerable apps (uninstall /
    reinstall, as the ``service`` bench stream does with its victims) and,
    on device 0, a permission of another app (revoke / grant) or, on
    device 1, the version of another app (update between two builds of
    one package).  A seeded walk over those four states brings earlier
    compositions back, so the session cache both hits and misses.  A
    cycle is one mutation, one refresh query and ``DECIDES_PER_CYCLE``
    decides.
    """
    from repro.statics import extract_app
    from repro.workloads import CorpusConfig, CorpusGenerator

    generator = CorpusGenerator(CorpusConfig(seed=seed, scale=AUDIT_POOL_SCALE))
    apks = generator.generate()
    flagged = _flagged(generator)
    builds = {
        a.package: a
        for a in CorpusGenerator(
            CorpusConfig(seed=seed + 104729, scale=AUDIT_POOL_SCALE)
        ).generate()
    }
    rng = random.Random(seed)
    vulnerable = sorted((a for a in apks if a.package in flagged), key=lambda a: a.package)
    neutral = sorted((a for a in apks if a.package not in flagged), key=lambda a: a.package)
    rng.shuffle(vulnerable)
    rng.shuffle(neutral)
    # pop() takes the app closest to the target size; the shuffle breaks ties.
    vulnerable.sort(key=lambda a: -abs(len(a.manifest.components) - VULNERABLE_COMPONENTS))
    neutral.sort(key=lambda a: -abs(len(a.manifest.components) - NEUTRAL_COMPONENTS))

    devices = []
    for d in range(DEVICES):
        risky = [vulnerable.pop() if vulnerable else neutral.pop()
                 for _ in range(DEVICE_VULNERABLE)]
        base = risky[:-1] + [neutral.pop() for _ in range(DEVICE_NEUTRAL)]
        flip = risky[-1]
        models = {a.package: extract_app(a) for a in base + [flip]}
        device: Dict[str, Any] = {
            "name": f"device{d}",
            "base": [a.package for a in base],
            "flip": flip.package,
        }
        if d == 0:
            # Revoke and re-grant a declared permission; with none declared
            # on the device, grant and revoke INTERNET on a base app.
            holders = [a for a in base if a.manifest.uses_permissions]
            holder = rng.choice(holders or base)
            declared = sorted(holder.manifest.uses_permissions)
            device["toggle"] = {
                "kind": "permission",
                "package": holder.package,
                "permission": rng.choice(declared or ["android.permission.INTERNET"]),
                "held": bool(declared),
            }
        else:
            target = rng.choice(base)
            v2 = extract_app(builds[target.package])
            device["toggle"] = {"kind": "version", "package": target.package}
            device["v2"] = _app_dict(v2)
        device["apps"] = {p: _app_dict(m) for p, m in sorted(models.items())}
        present = [models[p] for p in device["base"]] + [models[flip.package]]
        senders = [
            (app, c.name) for app in present[:-1] for c in app.components
        ]
        device["events"] = _event_pool(rng, senders, present, 48)
        device["cycles"] = _cycles(rng, device, cycles)
        devices.append(device)
    return {"devices": devices}


def _cycles(rng: random.Random, device: Dict[str, Any], count: int) -> List[Dict[str, Any]]:
    """The seeded walk: state = (flip app installed, toggle flipped)."""
    flip_in, toggled = True, False
    events = len(device["events"])
    toggle = device["toggle"]
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            op = {"op": "uninstall" if flip_in else "install", "package": device["flip"]}
            flip_in = not flip_in
        elif toggle["kind"] == "permission":
            op = {
                "op": "grant" if toggled == toggle["held"] else "revoke",
                "package": toggle["package"],
                "permission": toggle["permission"],
            }
            toggled = not toggled
        else:
            op = {"op": "update", "package": toggle["package"], "version": 1 if toggled else 2}
            toggled = not toggled
        refresh = (
            {"op": "analyze"}
            if rng.random() < 0.5
            else {"op": "decide", "event": rng.randrange(events)}
        )
        out.append(
            {
                "mutation": op,
                "state": [flip_in, toggled],
                "refresh": refresh,
                "decides": [rng.randrange(events) for _ in range(DECIDES_PER_CYCLE)],
            }
        )
    return out


def device_composition(device: Dict[str, Any], state) -> List[Dict[str, Any]]:
    """App dicts resident on ``device`` in walk state ``state``."""
    flip_in, toggled = state
    toggle = device["toggle"]
    apps = []
    for package in device["base"] + ([device["flip"]] if flip_in else []):
        app = device["apps"][package]
        if toggle["kind"] == "version" and toggled and package == toggle["package"]:
            app = device["v2"]
        apps.append(app)
    return apps


def device_granted(device: Dict[str, Any], app: Dict[str, Any], state) -> frozenset:
    granted = frozenset(app["uses_permissions"])
    toggle = device["toggle"]
    if toggle["kind"] == "permission" and state[1] and app["package"] == toggle["package"]:
        granted = granted ^ {toggle["permission"]}
    return granted


# ----------------------------------------------------------------------
# icc_enforce

def enforcement_pools():
    """The component, action and permission pools ``make_enforcement_workload``
    pins its policies to (same naming scheme)."""
    components = [f"app{i:03d}.pkg/Comp{i:03d}" for i in range(96)]
    actions = [f"com.bench.ACTION_{i}" for i in range(24)]
    permissions = [f"perm.P{i}" for i in range(12)]
    return components, actions, permissions


#: kind -> (entry method, superclass, the ICC API that reaches that kind)
_KINDS = {
    "ACTIVITY": ("onCreate", "Activity", "Context.startActivity"),
    "SERVICE": ("onStartCommand", "Service", "Context.startService"),
    "RECEIVER": ("onReceive", "BroadcastReceiver", "Context.sendBroadcast"),
}
#: Target kinds of one burst's sends, and how many of them are explicit
#: (``setClassName``) and how many carry a sensitive-source extra.
_BURST_TARGETS = ["SERVICE"] * 3 + ["RECEIVER"] * 3 + ["ACTIVITY"] * 2
_BURST_EXPLICIT = 2
_BURST_TAINTED = 2


def icc_inputs(seed: int, children: int, reps: int, activations: int) -> Dict[str, Any]:
    """192 policies, the app population, and each repetition's activations.

    The population is balanced so every seed costs about the same per
    activation: a third of the apps per component kind, two filter actions
    per app with every action used equally often, and every burst sending
    the same mix of target kinds, explicit Intents and tainted extras.
    """
    from repro.android.apk import Apk
    from repro.android.components import ComponentDecl, ComponentKind
    from repro.android.intents import IntentFilter
    from repro.android.manifest import Manifest
    from repro.android.permissions import SOURCE_API_MAP
    from repro.benchsuite.bench import make_enforcement_workload
    from repro.dex import DexClass, DexProgram, MethodBuilder

    policies, _ = make_enforcement_workload(
        seed=seed, num_policies=192, num_events=0
    )
    components, actions, permissions = enforcement_pools()
    named = {p.receiver for p in policies} | {p.sender for p in policies}
    if not named - {None} <= set(components):
        raise ValueError("policy pools no longer match the enforcement pools")
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(components)), ICC_APPS))
    kinds = (list(_KINDS) * ICC_APPS)[:ICC_APPS]
    rng.shuffle(kinds)
    kind_of = dict(zip(chosen, kinds))
    by_kind: Dict[str, List[str]] = {}
    for i in chosen:
        by_kind.setdefault(kind_of[i], []).append(components[i])
    dealt = rng.sample(actions, len(actions))
    sources = sorted(SOURCE_API_MAP)
    apks = []
    for slot, i in enumerate(chosen):
        package, name = components[i].split("/")
        entry, superclass, _ = _KINDS[kind_of[i]]
        code = MethodBuilder(entry, params=("p0",))
        # ICC deliveries carry a "hop" extra; only a framework start
        # (no extra) fires the burst, so every activation is finite.
        code.const_string("v1", "hop")
        code.invoke("Intent.getStringExtra", receiver="p0", args=("v1",), dest="v2")
        code.if_goto("v2", "done")
        targets = rng.sample(_BURST_TARGETS, len(_BURST_TARGETS))
        explicit = set(rng.sample(range(len(targets)), _BURST_EXPLICIT))
        tainted = set(rng.sample(range(len(targets)), _BURST_TAINTED))
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
            code.invoke(_KINDS[target_kind][2], args=("v0",))
        code.label("done")
        code.ret()
        filters = [
            IntentFilter.for_action(dealt[(2 * slot + k) % len(dealt)]) for k in (0, 1)
        ]
        apks.append(
            Apk(
                Manifest(
                    package=package,
                    uses_permissions=frozenset(rng.sample(permissions, 2)),
                    components=[
                        ComponentDecl(
                            name,
                            ComponentKind[kind_of[i]],
                            exported=True,
                            intent_filters=filters,
                        )
                    ],
                ),
                DexProgram([DexClass(name, superclass=superclass, methods=[code.build()])]),
            )
        )
    initiators = [components[i] for i in chosen]
    schedule = [
        [
            [rng.choice(initiators) for _ in range(activations)]
            for _ in range(reps)
        ]
        for _ in range(children)
    ]
    return {"policies": policies, "apks": apks, "schedule": schedule}


def prompt_answer(policy: Any, event: Any) -> bool:
    """The simulated user's deterministic consent: both answers occur."""
    return (event.receiver or "") < event.sender
