"""The bundle's ICC delivery, call, relay, and provider-access graphs.

Shared between the concrete detector, the formal signatures and policy
derivation:

- :func:`deliverable` -- may this Intent reach this component, under the
  framework's addressing rules (explicit target, passive result channel,
  or implicit filter matching with the export discipline)?
- :class:`BundleIndex` -- the bundle's components indexed for addressing,
  built once per call: an implicit Intent's candidates are the components
  whose filters list its action (:func:`~repro.android.intents.action_buckets`),
  an explicit or passive Intent's are its named targets.  The index only
  narrows; :func:`deliverable` decides every candidate, so each graph
  below is the one a scan of every (Intent, component) pair would give.
- :func:`call_edges` -- every ICC call edge: (c1, c2) when some Intent of
  c1 can reach c2 at all.  Re-delegation chains of arbitrary length are
  walks in this graph (the permission-redelegation signature takes its
  transitive closure).
- :func:`relay_edges` -- the *forwarding* edges: (c1, c2) when c1 relays
  its ICC input onward (it has an ICC -> ICC path) inside an Intent that
  reaches c2.  Transitive leaks -- the paper's OwnCloud finding flows
  through "a chain of Intent message passing" -- are walks in this graph.
- :func:`provider_write_edges` / :func:`provider_read_edges` -- the
  ContentResolver access edges: (accessor, provider) pairs under the
  authority-addressing and export disciplines, write edges restricted to
  operations whose payload carries sensitive (non-ICC source) data.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.android.components import ComponentKind
from repro.android.intents import Intent as RtIntent
from repro.android.intents import IntentFilter as RtFilter
from repro.android.intents import action_buckets, filter_matches
from repro.android.resources import Resource, SOURCES
from repro.core.model import BundleModel, ComponentModel, IntentModel


def deliverable(
    intent: IntentModel, sender: ComponentModel, receiver: ComponentModel
) -> bool:
    """Framework addressing: can ``intent`` reach ``receiver``?"""
    same_app = sender.app == receiver.app
    if not receiver.exported and not same_app:
        return False
    if intent.passive:
        return receiver.name in intent.passive_targets
    if intent.explicit:
        return intent.target == receiver.name
    rt_intent = RtIntent(
        sender=intent.sender,
        action=intent.action,
        categories=intent.categories,
        data_type=intent.data_type,
        data_scheme=intent.data_scheme,
    )
    for filt in receiver.intent_filters:
        if not filt.actions:
            continue
        rt_filter = RtFilter(
            actions=frozenset(filt.actions),
            categories=frozenset(filt.categories),
            data_types=frozenset(filt.data_types),
            data_schemes=frozenset(filt.data_schemes),
        )
        if filter_matches(rt_intent, rt_filter):
            return True
    return False


class BundleIndex:
    """One bundle's components, indexed for Intent addressing."""

    def __init__(self, bundle: BundleModel) -> None:
        self.bundle = bundle
        self.components = bundle.all_components()
        self.by_name = {c.name: c for c in self.components}
        self._by_action = action_buckets(self.components)

    def candidates(self, intent: IntentModel) -> List[ComponentModel]:
        """Every component :func:`deliverable` may accept for ``intent``,
        in bundle order: a passive Intent's registered targets, an explicit
        Intent's target, or the components with a filter listing an
        implicit Intent's action (any action, when it has none)."""
        if intent.passive:
            return [
                c for c in self.components if c.name in intent.passive_targets
            ]
        if intent.explicit:
            target = self.by_name.get(intent.target)
            return [] if target is None else [target]
        return self._by_action.get(intent.action, [])

    def receivers(
        self, intent: IntentModel, sender: ComponentModel
    ) -> List[ComponentModel]:
        """The components other than ``sender`` that ``intent`` reaches."""
        return [
            receiver
            for receiver in self.candidates(intent)
            if receiver.name != sender.name
            and deliverable(intent, sender, receiver)
        ]

    def call_edges(self) -> Set[Tuple[str, str]]:
        """See :func:`call_edges`."""
        return {
            (sender.name, receiver.name)
            for intent, sender in self._sent()
            for receiver in self.receivers(intent, sender)
        }

    def relay_edges(self) -> Set[Tuple[str, str]]:
        """See :func:`relay_edges`."""
        return {
            (sender.name, receiver.name)
            for intent, sender in self._sent()
            if Resource.ICC in intent.extras
            and any(
                p.source is Resource.ICC and p.sink is Resource.ICC
                for p in sender.paths
            )
            for receiver in self.receivers(intent, sender)
        }

    def _sent(self) -> Iterator[Tuple[IntentModel, ComponentModel]]:
        """Each Intent of the bundle with its sender; an Intent whose
        sender is not in the bundle sends nothing."""
        for intent in self.bundle.all_intents():
            sender = self.by_name.get(intent.sender)
            if sender is not None:
                yield intent, sender


def call_edges(bundle: BundleModel) -> Set[Tuple[str, str]]:
    """All ICC call edges: (c1, c2) when any Intent of c1 reaches c2.

    Unlike :func:`relay_edges` there is no payload or data-flow
    requirement -- an edge records mere control transfer.  Permission
    re-delegation chains of length k are k-step walks here."""
    return BundleIndex(bundle).call_edges()


def relay_edges(bundle: BundleModel) -> Set[Tuple[str, str]]:
    """Forwarding edges: c1 has an ICC -> ICC path and sends an
    ICC-carrying Intent that reaches c2."""
    return BundleIndex(bundle).relay_edges()


def _provider_targets(
    bundle: BundleModel, authority, sender: ComponentModel
) -> List[ComponentModel]:
    """Providers a resolver operation may address: the authority must be
    compatible (an unresolved authority matches any) and the provider must
    be exported or co-located with the accessor's app."""
    targets = []
    for comp in bundle.all_components():
        if comp.kind is not ComponentKind.PROVIDER:
            continue
        if comp.authority is not None and authority not in (None, comp.authority):
            continue
        if not comp.exported and comp.app != sender.app:
            continue
        targets.append(comp)
    return targets


def provider_write_edges(bundle: BundleModel) -> Set[Tuple[str, str]]:
    """(accessor, provider) edges over insert/update operations whose
    payload carries sensitive (non-ICC source) data."""
    by_name = {c.name: c for c in bundle.all_components()}
    sensitive = SOURCES - {Resource.ICC}
    edges: Set[Tuple[str, str]] = set()
    for app in bundle.apps:
        for access in app.provider_accesses:
            if access.operation not in ("insert", "update"):
                continue
            if not (access.payload & sensitive):
                continue
            sender = by_name.get(access.sender)
            if sender is None:
                continue
            for provider in _provider_targets(bundle, access.authority, sender):
                edges.add((access.sender, provider.name))
    return edges


def provider_read_edges(bundle: BundleModel) -> Set[Tuple[str, str]]:
    """(accessor, provider) edges over query operations (the result comes
    back from the provider's protection domain)."""
    by_name = {c.name: c for c in bundle.all_components()}
    edges: Set[Tuple[str, str]] = set()
    for app in bundle.apps:
        for access in app.provider_accesses:
            if access.operation != "query":
                continue
            sender = by_name.get(access.sender)
            if sender is None:
                continue
            for provider in _provider_targets(bundle, access.authority, sender):
                edges.add((access.sender, provider.name))
    return edges


def transitive_receivers(
    edges: Set[Tuple[str, str]], first_hops: Set[str]
) -> Set[str]:
    """All components reachable from ``first_hops`` over ``edges`` (the
    bundle's relay edges), reflexively: the first hops themselves are
    included."""
    adjacency: Dict[str, Set[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    seen = set(first_hops)
    stack = list(first_hops)
    while stack:
        node = stack.pop()
        for succ in adjacency.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen
