"""Tests for the ICC delivery/relay graph."""

import pytest

from repro.android.components import ComponentKind
from repro.android.resources import Resource
from repro.core.icc_graph import (
    BundleIndex,
    deliverable,
    relay_edges,
    transitive_receivers,
)
from repro.core.model import (
    AppModel,
    BundleModel,
    ComponentModel,
    IntentFilterModel,
    IntentModel,
    PathModel,
)


def component(name, app="a", kind=ComponentKind.SERVICE, **kwargs):
    kwargs.setdefault("exported", True)
    return ComponentModel(name=f"{app}/{name}", kind=kind, app=app, **kwargs)


def relay_component(name, app="a", **kwargs):
    return component(
        name, app, paths=(PathModel(Resource.ICC, Resource.ICC),), **kwargs
    )


def forwarding_intent(entity, sender, target, app="a"):
    return IntentModel(
        entity_id=entity,
        sender=f"{app}/{sender}",
        target=f"{app}/{target}",
        extras=frozenset({Resource.ICC}),
    )


def reaches(intent, sender, receiver):
    """``deliverable``'s verdict, which the bundle index must agree with."""
    apps = {}
    for comp in (sender, receiver):
        apps.setdefault(comp.app, []).append(comp)
    bundle = BundleModel(
        apps=[AppModel(package=p, components=c) for p, c in apps.items()]
    )
    verdict = deliverable(intent, sender, receiver)
    indexed = BundleIndex(bundle).receivers(intent, sender)
    assert (receiver in indexed) == verdict
    return verdict


class TestDeliverable:
    def test_explicit_match(self):
        sender = component("S", exported=True)
        receiver = component("T")
        intent = IntentModel(entity_id="i", sender="a/S", target="a/T")
        assert reaches(intent, sender, receiver)

    def test_explicit_wrong_target(self):
        sender = component("S")
        receiver = component("T")
        intent = IntentModel(entity_id="i", sender="a/S", target="a/Other")
        assert not reaches(intent, sender, receiver)

    def test_private_cross_app_blocked(self):
        sender = component("S", app="a")
        receiver = component("T", app="b", exported=False)
        intent = IntentModel(entity_id="i", sender="a/S", target="b/T")
        assert not reaches(intent, sender, receiver)

    def test_passive_needs_registered_target(self):
        sender = component("S")
        receiver = component("T")
        hit = IntentModel(
            entity_id="i", sender="a/S", passive=True,
            passive_targets=frozenset({"a/T"}),
        )
        miss = IntentModel(entity_id="j", sender="a/S", passive=True)
        assert reaches(hit, sender, receiver)
        assert not reaches(miss, sender, receiver)

    def test_implicit_filter_match(self):
        sender = component("S")
        receiver = component(
            "T",
            exported=True,
            intent_filters=(IntentFilterModel(actions=frozenset({"go"})),),
        )
        intent = IntentModel(entity_id="i", sender="a/S", action="go")
        assert reaches(intent, sender, receiver)


class TestRelayEdges:
    def make_chain(self, length):
        """C0 -> C1 -> ... -> C<length>, each hop forwarding ICC data."""
        components = [relay_component(f"C{i}") for i in range(length + 1)]
        intents = [
            forwarding_intent(f"i{i}", f"C{i}", f"C{i + 1}")
            for i in range(length)
        ]
        app = AppModel(package="a", components=components, intents=intents)
        return BundleModel(apps=[app])

    def test_chain_edges(self):
        bundle = self.make_chain(3)
        edges = relay_edges(bundle)
        assert edges == {
            ("a/C0", "a/C1"),
            ("a/C1", "a/C2"),
            ("a/C2", "a/C3"),
        }

    def test_non_forwarder_produces_no_edge(self):
        """Without an ICC->ICC path, an ICC-carrying Intent is not a relay."""
        comp = component("C0")  # no paths
        intent = forwarding_intent("i", "C0", "C1")
        app = AppModel(
            package="a",
            components=[comp, relay_component("C1")],
            intents=[intent],
        )
        assert not relay_edges(BundleModel(apps=[app]))

    def test_non_icc_payload_produces_no_edge(self):
        comp = relay_component("C0")
        intent = IntentModel(
            entity_id="i", sender="a/C0", target="a/C1",
            extras=frozenset({Resource.LOCATION}),
        )
        app = AppModel(
            package="a",
            components=[comp, relay_component("C1")],
            intents=[intent],
        )
        assert not relay_edges(BundleModel(apps=[app]))

    def test_transitive_receivers_reflexive(self):
        bundle = self.make_chain(4)
        reached = transitive_receivers(relay_edges(bundle), {"a/C1"})
        assert reached == {"a/C1", "a/C2", "a/C3", "a/C4"}

    def test_transitive_receivers_empty_start(self):
        bundle = self.make_chain(2)
        assert transitive_receivers(relay_edges(bundle), set()) == set()

    def test_cycle_terminates(self):
        components = [relay_component("C0"), relay_component("C1")]
        intents = [
            forwarding_intent("i0", "C0", "C1"),
            forwarding_intent("i1", "C1", "C0"),
        ]
        bundle = BundleModel(
            apps=[AppModel(package="a", components=components, intents=intents)]
        )
        reached = transitive_receivers(relay_edges(bundle), {"a/C0"})
        assert reached == {"a/C0", "a/C1"}
