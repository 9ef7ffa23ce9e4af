"""Policy derivation: exploit scenarios to event-condition-action rules.

From each synthesized scenario SEPAR derives a fine-grained ECA policy at
the level of event messaging (Section VI).  The paper's running-example
policy is::

    { event: ICC received,
      condition: [{Intent.extra: LOCATION}, {Intent.receiver: MessageSender}],
      action: user prompt }

Conditions are matched by the policy decision point against intercepted ICC
events at runtime; the default action routes to a user prompt, and a policy
may be hardened to outright denial.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from repro.android.resources import Resource
from repro.core.icc_graph import BundleIndex, deliverable
from repro.core.model import BundleModel, IntentModel
from repro.core.vulnerabilities.base import ExploitScenario


class PolicyAction(enum.Enum):
    PROMPT = "user_prompt"
    DENY = "deny"


class PolicyEvent(enum.Enum):
    ICC_RECEIVE = "icc_receive"
    ICC_SEND = "icc_send"


@dataclass(frozen=True)
class IccEvent:
    """A runtime ICC occurrence presented to the PDP."""

    sender: str  # qualified component
    receiver: Optional[str]  # resolved recipient (None while unresolved)
    action: Optional[str] = None
    extras: FrozenSet[Resource] = frozenset()
    sender_permissions: FrozenSet[str] = frozenset()

    @property
    def sender_app(self) -> str:
        return self.sender.split("/", 1)[0]


@dataclass(frozen=True)
class ECAPolicy:
    """One synthesized event-condition-action rule."""

    event: PolicyEvent
    vulnerability: str
    action: PolicyAction = PolicyAction.PROMPT
    description: str = ""
    # Conditions (all present ones must hold for the policy to fire):
    receiver: Optional[str] = None
    sender: Optional[str] = None
    intent_action: Optional[str] = None
    extras_any: FrozenSet[Resource] = frozenset()
    allowed_receivers: Optional[FrozenSet[str]] = None
    sender_lacks_permission: Optional[str] = None

    def matches(self, event_kind: PolicyEvent, event: IccEvent) -> bool:
        """Does this intercepted event violate the policy's condition?

        Total over partially-populated events: ``action``, ``extras`` and
        ``sender_permissions`` may be ``None`` on events built outside the
        PEP (an absent field simply fails any condition requiring it).
        """
        if event_kind is not self.event:
            return False
        if self.receiver is not None and event.receiver != self.receiver:
            return False
        if self.sender is not None and event.sender != self.sender:
            return False
        if self.intent_action is not None and event.action != self.intent_action:
            return False
        if self.extras_any and not (
            self.extras_any & (event.extras or frozenset())
        ):
            return False
        if self.allowed_receivers is not None:
            if event.receiver is None or event.receiver in self.allowed_receivers:
                return False
        if self.sender_lacks_permission is not None:
            if self.sender_lacks_permission in (
                event.sender_permissions or frozenset()
            ):
                return False
        return True


def derive_policies(
    scenarios: Iterable[ExploitScenario], bundle: BundleModel
) -> List[ECAPolicy]:
    """Turn synthesized scenarios into the preventive policy set."""
    index = BundleIndex(bundle)
    policies: List[ECAPolicy] = []
    seen = set()
    for scenario in scenarios:
        policy = _derive_one(scenario, bundle, index)
        if policy is None:
            continue
        key = (
            policy.event,
            policy.receiver,
            policy.sender,
            policy.intent_action,
            policy.extras_any,
            policy.allowed_receivers,
            policy.sender_lacks_permission,
            policy.vulnerability,
        )
        if key in seen:
            continue
        seen.add(key)
        policies.append(policy)
    return policies


def hijack_allow_list(index: BundleIndex, intent: IntentModel) -> FrozenSet[str]:
    """The bundle components a hijack policy lets ``intent`` reach: those
    with a filter it matches as an implicit Intent.  The hijack signature
    treats its vulnerable Intent as implicit (no recipient in the bundle
    was extracted for it), so a target outside the bundle or a passive
    channel does not narrow the list."""
    sender = index.by_name.get(intent.sender)
    if sender is None:
        return frozenset()
    implicit = dataclasses.replace(
        intent, target=None, passive=False, passive_targets=frozenset()
    )
    return frozenset(
        receiver.name
        for receiver in index.candidates(implicit)
        if deliverable(implicit, sender, receiver)
    )


def _derive_one(
    scenario: ExploitScenario, bundle: BundleModel, index: BundleIndex
) -> Optional[ECAPolicy]:
    vuln = scenario.vulnerability
    intent = scenario.intent or {}
    if vuln in ("service_launch", "activity_launch"):
        victim = scenario.victim_component
        if victim is None:
            return None
        return ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability=vuln,
            receiver=victim,
            extras_any=frozenset(intent.get("extras", frozenset())),
            description=(
                f"Every Intent delivering "
                f"{sorted(r.value for r in intent.get('extras', frozenset()))} "
                f"to {victim} must be approved by the user."
            ),
        )
    if vuln == "intent_hijack":
        sender = scenario.roles.get("victim")
        action = intent.get("action")
        if sender is None:
            return None
        entity_id = scenario.roles.get("vulnerable_intent")
        allowed: FrozenSet[str] = frozenset()
        for model_intent in bundle.all_intents():
            if model_intent.entity_id == entity_id:
                allowed = hijack_allow_list(index, model_intent)
        return ECAPolicy(
            event=PolicyEvent.ICC_SEND,
            vulnerability=vuln,
            sender=sender,
            intent_action=action,
            allowed_receivers=allowed,
            description=(
                f"Implicit Intents with action {action!r} sent by {sender} "
                f"may only reach {sorted(allowed)}; delivery elsewhere "
                f"requires user approval."
            ),
        )
    if vuln == "information_leak":
        sink_cmp = scenario.roles.get("sink_component")
        extras = frozenset(intent.get("extras", frozenset())) & (
            frozenset(Resource) - {Resource.ICC}
        )
        if sink_cmp is None:
            return None
        return ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability=vuln,
            receiver=sink_cmp,
            extras_any=extras,
            description=(
                f"Delivering sensitive payload "
                f"{sorted(r.value for r in extras)} to {sink_cmp} (which "
                f"relays ICC input to a public sink) requires user approval."
            ),
        )
    if vuln in ("privilege_escalation", "permission_redelegation"):
        victim = scenario.victim_component
        permission = scenario.roles.get("escalated_permission")
        if victim is None or permission is None:
            return None
        return ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability=vuln,
            receiver=victim,
            sender_lacks_permission=permission,
            description=(
                f"Callers of {victim} must hold {permission}; requests from "
                f"apps without it require user approval."
                if vuln == "privilege_escalation"
                else f"Callers of {victim} must hold {permission}; the "
                f"capability it guards is re-delegated down an ICC chain, "
                f"so requests from apps without it require user approval."
            ),
        )
    if vuln == "provider_leak":
        provider = scenario.roles.get("victim")
        writer = scenario.roles.get("writer_component")
        if provider is None or writer is None:
            return None
        from repro.core.vulnerabilities.provider_leak import written_payload

        extras = written_payload(bundle, writer, provider)
        return ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability=vuln,
            receiver=provider,
            extras_any=extras,
            description=(
                f"Writing sensitive payload "
                f"{sorted(r.value for r in extras)} into content provider "
                f"{provider} (whose contents escape to a public sink) "
                f"requires user approval."
            ),
        )
    if vuln == "dynamic_receiver_hijack":
        victim = scenario.victim_component
        action = intent.get("action")
        if victim is None:
            return None
        return ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability=vuln,
            receiver=victim,
            intent_action=action,
            description=(
                f"Broadcasts with action {action!r} delivered to the "
                f"dynamically-registered receiver {victim} require user "
                f"approval (the registration carries no permission guard)."
            ),
        )
    if vuln == "app_collusion":
        intermediary = scenario.roles.get("intermediary")
        extras = frozenset(intent.get("extras", frozenset())) & (
            frozenset(Resource) - {Resource.ICC}
        )
        if intermediary is None:
            return None
        return ECAPolicy(
            event=PolicyEvent.ICC_RECEIVE,
            vulnerability=vuln,
            receiver=intermediary,
            extras_any=extras,
            description=(
                f"Delivering sensitive payload "
                f"{sorted(r.value for r in extras)} to {intermediary} "
                f"(which colluding apps relay to a public sink in a third "
                f"app) requires user approval."
            ),
        )
    return None
