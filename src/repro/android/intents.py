"""Intents, Intent filters, and the framework's resolution algorithm.

The Android framework delivers an *explicit* Intent to its named target and
matches an *implicit* Intent against the Intent filters of exported
components using three tests (official documentation, mirrored by the
paper's Alloy meta-model):

- **action test** -- the filter must list the Intent's action (an Intent
  without an action passes only filters with at least one action declared);
- **category test** -- every category in the Intent must appear in the
  filter (the filter may declare more);
- **data test** -- the Intent's data scheme and MIME type must match the
  filter's declared schemes/types; an Intent with no data passes only
  filters declaring no data, and vice versa.

:func:`action_buckets` indexes components by the actions their filters
list, the way AOSP's ``IntentResolver`` does: the runtime's device and the
model's ICC graph look an Intent's candidates up there instead of scanning
every component, and the matching rule still decides each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from repro.android.resources import Resource

CATEGORY_DEFAULT = "android.intent.category.DEFAULT"


@dataclass(frozen=True)
class IntentFilter:
    """A component capability declaration.

    A filter must declare at least one action (the framework refuses to
    register action-less filters for manifest components).  ``priority``
    is Android's ``android:priority`` attribute: higher-priority filters
    win single-recipient resolution -- a lever real interception malware
    pulls, and exactly how the synthesized attacker guarantees the hijack.
    """

    actions: FrozenSet[str]
    categories: FrozenSet[str] = frozenset()
    data_types: FrozenSet[str] = frozenset()
    data_schemes: FrozenSet[str] = frozenset()
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("an IntentFilter must declare at least one action")

    @staticmethod
    def for_action(action: str, *more_actions: str) -> "IntentFilter":
        return IntentFilter(actions=frozenset((action,) + more_actions))


@dataclass(frozen=True)
class Intent:
    """An ICC message.

    ``target`` names the recipient component for explicit Intents and is
    None for implicit ones.  ``extras`` records the flow-permission
    resources carried in the payload (the model-level abstraction of
    ``putExtra`` data), and ``extra_keys`` the concrete payload keys.
    """

    sender: str
    target: Optional[str] = None
    action: Optional[str] = None
    categories: FrozenSet[str] = frozenset()
    data_type: Optional[str] = None
    data_scheme: Optional[str] = None
    extras: FrozenSet[Resource] = frozenset()
    extra_keys: FrozenSet[str] = frozenset()
    wants_result: bool = False

    @property
    def explicit(self) -> bool:
        return self.target is not None

    def with_target(self, target: str) -> "Intent":
        return Intent(
            sender=self.sender,
            target=target,
            action=self.action,
            categories=self.categories,
            data_type=self.data_type,
            data_scheme=self.data_scheme,
            extras=self.extras,
            extra_keys=self.extra_keys,
            wants_result=self.wants_result,
        )


def action_test(intent: Intent, filt: IntentFilter) -> bool:
    """The filter must name the Intent's action; actionless Intents pass
    any filter (filters always declare at least one action)."""
    if intent.action is None:
        return True
    return intent.action in filt.actions


def category_test(intent: Intent, filt: IntentFilter) -> bool:
    """Every Intent category must appear in the filter."""
    return intent.categories <= filt.categories


def data_test(intent: Intent, filt: IntentFilter) -> bool:
    """Scheme and MIME type must match the filter's declarations."""
    if intent.data_scheme is None and intent.data_type is None:
        return not filt.data_schemes and not filt.data_types
    if intent.data_scheme is not None:
        if intent.data_scheme not in filt.data_schemes:
            return False
    elif filt.data_schemes:
        return False
    if intent.data_type is not None:
        if not _mime_match(intent.data_type, filt.data_types):
            return False
    elif filt.data_types:
        return False
    return True


def _mime_match(mime: str, declared: FrozenSet[str]) -> bool:
    for pattern in declared:
        if pattern == "*/*" or pattern == mime:
            return True
        if pattern.endswith("/*") and mime.split("/", 1)[0] == pattern[:-2]:
            return True
    return False


def filter_matches(intent: Intent, filt: IntentFilter) -> bool:
    return (
        action_test(intent, filt)
        and category_test(intent, filt)
        and data_test(intent, filt)
    )


def resolve_intent(
    intent: Intent,
    components: Iterable["ResolvableComponent"],
) -> List["ResolvableComponent"]:
    """Return the components an Intent resolves to.

    ``components`` supply ``name``, ``exported``, ``app`` (package name) and
    ``intent_filters``.  Explicit Intents resolve to the named component if
    present (and either exported or in the sender's own app -- the caller
    passes sender app via the Intent's sender component naming convention
    ``package/Component``).  Implicit Intents resolve to every exported
    component with a matching filter.

    Components may additionally expose ``kind``: for Activities, the
    framework's ``startActivity`` resolution only considers filters that
    declare ``android.intent.category.DEFAULT`` (Services and Receivers are
    exempt).  Components without a ``kind`` attribute are not subjected to
    the default-category requirement.
    """
    sender_app = app_of(intent.sender)
    matches = []
    for component in components:
        same_app = component.app == sender_app
        if intent.explicit:
            if component.name == intent.target and (component.exported or same_app):
                matches.append(component)
            continue
        if not component.exported and not same_app:
            continue
        needs_default = str(getattr(component, "kind", "")) == "Activity"
        for filt in component.intent_filters:
            if needs_default and CATEGORY_DEFAULT not in filt.categories:
                continue
            if filter_matches(intent, filt):
                matches.append(component)
                break
    return matches


_C = TypeVar("_C")


def action_buckets(components: Iterable[_C]) -> Dict[Optional[str], List[_C]]:
    """Bucket ``components`` by the actions their ``intent_filters`` list.

    ``buckets[action]`` holds every component with a filter listing
    ``action``; ``buckets[None]`` holds every component with at least one
    action-bearing filter, the candidates of an Intent without an action
    (which passes the action test of any such filter).  Each bucket keeps
    the input order.  A bucket only narrows the candidates: a filter
    listing the action may still fail the category or data test, so the
    caller's matching rule decides each one."""
    buckets: Dict[Optional[str], List[_C]] = {}
    for component in components:
        actions: Set[str] = set()
        for filt in component.intent_filters:
            actions.update(filt.actions)
        if not actions:
            continue
        buckets.setdefault(None, []).append(component)
        for action in actions:
            buckets.setdefault(action, []).append(component)
    return buckets


def app_of(component_ref: str) -> str:
    """Extract the package from a ``package/Component`` reference."""
    return component_ref.split("/", 1)[0] if "/" in component_ref else component_ref


class ResolvableComponent:
    """Structural protocol for resolution targets (duck-typed)."""

    name: str
    app: str
    exported: bool
    intent_filters: Sequence[IntentFilter]
