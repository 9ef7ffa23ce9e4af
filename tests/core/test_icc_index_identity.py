"""The bundle index must give the ICC graphs, detection reports and
policies of a full scan.

``BundleIndex`` (:mod:`repro.core.icc_graph`) hands each Intent only the
components it could reach -- an implicit Intent's action bucket, an
explicit or passive Intent's named targets -- and ``deliverable`` still
decides every candidate.  ``call_edges``, ``relay_edges``, the
detector's leak and collusion checks and the hijack policies' allow-lists
all go through it.  This module keeps the full scan as the reference --
``candidates`` returning every component of the bundle, in bundle order
-- swaps it in with ``monkeypatch``, checks that it ran, and compares
``call_edges``, ``relay_edges``, ``DetectionReport.to_dict()`` and the
output of ``derive_policies`` under a hijack scenario for every Intent:

- on DroidBench and ICC-Bench;
- on the scale-0.05 market corpora the audit benchmark samples from, at
  seeds 3, 17 and 42, in 8-app bundles;
- on bundles drawn with ``REPRO_FUZZ_SEED``: passive Intents, explicit
  Intents to private and to absent components, action-less implicit
  Intents, multi-filter and action-less-filter components, relay chains
  and provider accesses.

It also checks each hijack allow-list against the rule the policies
used before the index, a filter scan over every bundle component that
ignores the Intent's target and passive channel.
"""

import os
import random
from collections import Counter

import pytest

from repro.android.components import ComponentKind
from repro.android.intents import Intent, IntentFilter, filter_matches
from repro.android.resources import Resource
from repro.benchsuite.droidbench import droidbench_cases
from repro.benchsuite.iccbench import iccbench_cases
from repro.core.detector import SeparDetector
from repro.core.icc_graph import BundleIndex, call_edges, relay_edges
from repro.core.model import (
    AppModel,
    BundleModel,
    ComponentModel,
    IntentFilterModel,
    IntentModel,
    PathModel,
    ProviderAccessModel,
)
from repro.core.policy import derive_policies, hijack_allow_list
from repro.core.serialize import policy_to_dict
from repro.core.vulnerabilities.base import ExploitScenario
from repro.statics import extract_bundle
from repro.workloads import CorpusConfig, CorpusGenerator, partition_bundles


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20160807"))


@pytest.fixture
def full_scan(monkeypatch):
    """Returns ``swap()``: make every index hand out every component as
    the candidates (undone when the test ends); returns the call count."""

    def swap():
        runs = Counter()

        def candidates(self, intent):
            runs["candidates"] += 1
            return list(self.components)

        monkeypatch.setattr(BundleIndex, "candidates", candidates)
        return runs

    return swap


def hijack_scenarios(bundle):
    return [
        ExploitScenario(
            vulnerability="intent_hijack",
            roles={"victim": intent.sender, "vulnerable_intent": intent.entity_id},
            intent={"action": intent.action},
        )
        for intent in bundle.all_intents()
    ]


def outputs(bundle):
    return {
        "call_edges": sorted(call_edges(bundle)),
        "relay_edges": sorted(relay_edges(bundle)),
        "detection": SeparDetector().detect(bundle).to_dict(),
        "policies": [
            policy_to_dict(p)
            for p in derive_policies(hijack_scenarios(bundle), bundle)
        ],
    }


def assert_identical(bundles, full_scan):
    new = [outputs(b) for b in bundles]
    runs = full_scan()
    old = [outputs(b) for b in bundles]
    assert runs["candidates"], "the full-scan reference never ran"
    for bundle, got, want in zip(bundles, new, old):
        assert got == want, sorted(a.package for a in bundle.apps)
    return new


def scan_allow_list(bundle, intent):
    """The hijack allow-list rule before the index: every bundle component,
    exported or in the sender's app, with a filter the Intent matches;
    the Intent's target and passive channel play no part."""
    sender_app = intent.sender.split("/", 1)[0]
    rt_intent = Intent(
        sender=intent.sender,
        action=intent.action,
        categories=intent.categories,
        data_type=intent.data_type,
        data_scheme=intent.data_scheme,
    )
    matches = set()
    for comp in bundle.all_components():
        if not comp.exported and comp.app != sender_app:
            continue
        for filt in comp.intent_filters:
            if not filt.actions:
                continue  # the scan raised here; deliverable skips them
            rt_filter = IntentFilter(
                actions=frozenset(filt.actions),
                categories=frozenset(filt.categories),
                data_types=frozenset(filt.data_types),
                data_schemes=frozenset(filt.data_schemes),
            )
            if filter_matches(rt_intent, rt_filter):
                matches.add(comp.name)
                break
    return matches


def assert_allow_lists(bundles):
    checked = 0
    for bundle in bundles:
        index = BundleIndex(bundle)
        for intent in bundle.all_intents():
            if intent.sender not in index.by_name:
                continue
            assert hijack_allow_list(index, intent) == scan_allow_list(
                bundle, intent
            ), intent
            checked += 1
    return checked


# ----------------------------------------------------------------------
# DroidBench and ICC-Bench
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def benchmark_bundles():
    return [
        extract_bundle(list(case.apks), handle_dynamic_receivers=True)
        for case in droidbench_cases() + iccbench_cases()
    ]


def test_droidbench_and_iccbench(benchmark_bundles, full_scan):
    new = assert_identical(benchmark_bundles, full_scan)
    assert any(out["call_edges"] for out in new)
    assert any(out["detection"]["leak_pairs"] for out in new)
    assert assert_allow_lists(benchmark_bundles)


# ----------------------------------------------------------------------
# The market corpora the audit benchmark samples
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[3, 17, 42])
def corpus_bundles(request):
    apks = CorpusGenerator(CorpusConfig(scale=0.05, seed=request.param)).generate()
    return [
        extract_bundle(list(part))
        for part in partition_bundles(apks, bundle_size=8, seed=request.param)
    ]


def test_market_corpora(corpus_bundles, full_scan):
    new = assert_identical(corpus_bundles, full_scan)
    assert sum(len(out["call_edges"]) for out in new) > 50
    assert any(out["detection"]["findings"] for out in new)
    assert assert_allow_lists(corpus_bundles)


# ----------------------------------------------------------------------
# Drawn bundles
# ----------------------------------------------------------------------
ACTIONS = [f"fz.ACT{i}" for i in range(4)]
CATEGORIES = ["fz.CAT0", "fz.CAT1"]
SCHEMES = ["http", "content"]
TYPES = ["text/plain", "image/png"]
FILTER_TYPES = ["text/plain", "image/*", "*/*"]
PATHS = [
    PathModel(Resource.ICC, Resource.ICC),
    PathModel(Resource.ICC, Resource.SMS),
    PathModel(Resource.ICC, Resource.LOG),
    PathModel(Resource.LOCATION, Resource.ICC),
]
KINDS = [
    ComponentKind.ACTIVITY,
    ComponentKind.SERVICE,
    ComponentKind.RECEIVER,
    ComponentKind.PROVIDER,
]
DANGEROUS = ["android.permission.SEND_SMS", "android.permission.READ_CONTACTS"]


def random_filter(rng):
    return IntentFilterModel(
        actions=frozenset()
        if rng.random() < 0.1
        else frozenset(rng.sample(ACTIONS, rng.randint(1, 2))),
        categories=frozenset(c for c in CATEGORIES if rng.random() < 0.4),
        data_types=frozenset(t for t in FILTER_TYPES if rng.random() < 0.15),
        data_schemes=frozenset(s for s in SCHEMES if rng.random() < 0.15),
        dynamic=rng.random() < 0.2,
    )


def random_component(rng, package, index):
    kind = rng.choice(KINDS)
    return ComponentModel(
        name=f"{package}/C{index}",
        kind=kind,
        app=package,
        exported=rng.random() < 0.7,
        intent_filters=tuple(
            random_filter(rng)
            for _ in range(0 if kind is ComponentKind.PROVIDER else rng.randint(0, 3))
        ),
        permissions=frozenset(p for p in DANGEROUS if rng.random() < 0.1),
        paths=tuple(p for p in PATHS if rng.random() < 0.35),
        uses_permissions=frozenset(p for p in DANGEROUS if rng.random() < 0.4),
        reachable=rng.random() < 0.9,
        authority=f"{package}.store" if kind is ComponentKind.PROVIDER else None,
    )


def random_intent(rng, entity, sender, universe):
    shape = rng.random()
    target, passive, passive_targets = None, False, frozenset()
    if shape < 0.25:
        target = rng.choice(universe)  # may be private, absent, or the sender
    elif shape < 0.35:
        passive = True
        passive_targets = frozenset(rng.sample(universe, rng.randint(0, 2)))
    return IntentModel(
        entity_id=entity,
        sender=sender,
        target=target,
        action=rng.choice(ACTIONS) if rng.random() < 0.8 else None,
        categories=frozenset(c for c in CATEGORIES if rng.random() < 0.25),
        data_type=rng.choice(TYPES) if rng.random() < 0.1 else None,
        data_scheme=rng.choice(SCHEMES) if rng.random() < 0.1 else None,
        extras=frozenset(
            r for r in (Resource.ICC, Resource.LOCATION, Resource.CONTACTS)
            if rng.random() < 0.4
        ),
        passive=passive,
        passive_targets=passive_targets,
    )


def random_bundle(rng):
    packages = [f"fz{p}" for p in range(rng.randint(2, 5))]
    universe = [f"{p}/C{i}" for p in packages + ["absent"] for i in range(5)]
    apps = []
    for package in packages:
        components = [
            random_component(rng, package, i) for i in range(rng.randint(1, 5))
        ]
        intents = [
            random_intent(rng, f"{package}:{n}", rng.choice(components).name, universe)
            for n in range(rng.randint(0, 6))
        ]
        accesses = [
            ProviderAccessModel(
                sender=rng.choice(components).name,
                operation=rng.choice(["query", "insert", "update"]),
                authority=rng.choice([None, f"{rng.choice(packages)}.store"]),
                payload=frozenset({Resource.LOCATION}) if rng.random() < 0.5 else frozenset(),
            )
            for _ in range(rng.randint(0, 2))
        ]
        apps.append(AppModel(
            package=package,
            uses_permissions=frozenset(p for p in DANGEROUS if rng.random() < 0.6),
            components=components,
            intents=intents,
            provider_accesses=accesses,
        ))
    return BundleModel(apps=apps)


@pytest.fixture(scope="module")
def drawn_bundles():
    rng = random.Random(FUZZ_SEED)
    return [random_bundle(rng) for _ in range(150)]


def test_drawn_bundles(drawn_bundles, full_scan):
    new = assert_identical(drawn_bundles, full_scan)
    intents = [i for b in drawn_bundles for i in b.all_intents()]
    assert any(i.passive for i in intents)
    assert any(i.action is None and not i.explicit for i in intents)
    assert sum(len(out["relay_edges"]) for out in new)
    assert sum(len(out["detection"]["findings"]) for out in new)
    assert assert_allow_lists(drawn_bundles)
