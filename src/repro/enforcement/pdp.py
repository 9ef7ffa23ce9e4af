"""The policy decision point: ECA policies in, verdicts out.

Realized in the paper as an independent Android app storing the synthesized
policies; here an in-process object.  Two interchangeable backends
implement one decision contract (see ``docs/ENFORCEMENT.md``):

- :class:`PolicyDecisionPoint` (``linear``, this module) -- the readable
  reference: ``decide`` scans the ordered policy list and the **first**
  policy whose condition matches the intercepted event determines the
  outcome (first-match-wins).  Kept as the oracle the compiled backend is
  differentially tested against.
- :class:`~repro.enforcement.compiled.CompiledPolicyDecisionPoint`
  (``compiled``) -- hash-dispatches on ``(event kind, receiver, action)``
  with a fallback matcher chain and memoizes non-prompting decisions;
  decision- and audit-identical to the linear backend by construction and
  by test.

Construct either by name with :func:`repro.enforcement.make_pdp`.

**The decision contract.**  ``decide(event_kind, event)`` returns a
:class:`Decision` (``ALLOW`` or ``DENY``) and, as a side effect, records
exactly one :class:`DecisionRecord` in :attr:`PolicyDecisionPoint.log`
(a bounded in-memory window of recent decisions) and exactly one
:class:`~repro.enforcement.audit.AuditRecord` in
:attr:`PolicyDecisionPoint.audit` -- including the default-allow
fallthroughs that match no policy.  The audit log is the durable,
queryable trail; ``log`` is a convenience view for interactive use and
keeps only the most recent ``log_window`` records.

**Prompt-callback semantics.**  A matching policy whose action is
``PolicyAction.DENY`` denies outright.  A matching ``PROMPT`` policy
routes to the injectable user-consent callback (the paper shows the user
the threat description and the event parameters, see
:func:`format_prompt`): the callback receives ``(policy, event)`` and its
boolean answer becomes the verdict (``True`` -> allow).  The default
callback, :func:`deny_all_prompts`, models the cautious user and refuses
everything; tests and headless deployments inject their own.  Because a
prompt consults the user *per event*, prompt outcomes are never memoized
by the compiled backend.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from repro.core.policy import ECAPolicy, IccEvent, PolicyAction, PolicyEvent
from repro.enforcement.audit import AuditLog

#: Default bound on the in-memory ``PolicyDecisionPoint.log`` window.
#: The audit log is the unbounded (or rotation-managed) record; the
#: decision log only exists for interactive inspection and must not grow
#: without bound at enforcement-traffic rates.
DECISION_LOG_WINDOW = 1024


class Decision(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass
class DecisionRecord:
    event_kind: PolicyEvent
    event: IccEvent
    policy: Optional[ECAPolicy]
    decision: Decision
    prompted: bool = False


PromptCallback = Callable[[ECAPolicy, IccEvent], bool]


def deny_all_prompts(policy: ECAPolicy, event: IccEvent) -> bool:
    """Default consent callback: the cautious user refuses."""
    return False


def format_prompt(policy: ECAPolicy, event: IccEvent) -> str:
    """The dialog text shown to the user (Section VI: "the description of
    security threat as well as the name and parameters of the intercepted
    event")."""
    lines = [
        "Security prompt",
        f"  threat:   {policy.vulnerability}",
        f"  details:  {policy.description}" if policy.description else None,
        f"  event:    {policy.event.value}",
        f"  sender:   {event.sender}",
        f"  receiver: {event.receiver or '(unresolved)'}",
    ]
    if event.action:
        lines.append(f"  action:   {event.action}")
    if event.extras:
        payload = ", ".join(sorted(r.value for r in event.extras))
        lines.append(f"  payload:  {payload}")
    lines.append("Allow this operation?")
    return "\n".join(l for l in lines if l)


class PolicyDecisionPoint:
    """The linear reference PDP: first-match-wins over the policy list."""

    def __init__(
        self,
        policies: Sequence[ECAPolicy] = (),
        prompt_callback: PromptCallback = deny_all_prompts,
        audit: Optional[AuditLog] = None,
        log_window: int = DECISION_LOG_WINDOW,
    ) -> None:
        self.prompt_callback = prompt_callback
        #: Recent decisions, newest last, bounded to ``log_window`` entries
        #: (the audit log below is the complete trail).
        self.log: Deque[DecisionRecord] = deque(maxlen=log_window)
        #: Every decision is recorded here, in decision order, including the
        #: default-allow fallthroughs that match no policy.
        self.audit = audit if audit is not None else AuditLog()
        self._policies: List[ECAPolicy] = []
        self.policies = list(policies)

    # ------------------------------------------------------------------
    # Policy installation.  ``policies`` is a property so that backends
    # that precompute dispatch state (the compiled index, the decision
    # cache) observe every install/remove -- DeviceGuard._refresh swaps
    # the whole set via plain assignment.
    @property
    def policies(self) -> List[ECAPolicy]:
        return self._policies

    @policies.setter
    def policies(self, policies: Sequence[ECAPolicy]) -> None:
        self._policies = list(policies)
        self._policies_changed()

    def add_policy(self, policy: ECAPolicy) -> None:
        self._policies.append(policy)
        self._policies_changed()

    def _policies_changed(self) -> None:
        """Hook for backends with derived dispatch state; linear has none."""

    # ------------------------------------------------------------------
    def _audit(
        self,
        event_kind: PolicyEvent,
        event: IccEvent,
        policy: Optional[ECAPolicy],
        decision: Decision,
        prompted: bool,
        approved: Optional[bool],
        context: Optional[str],
    ) -> None:
        self.audit.append(
            event_kind=event_kind.value,
            sender=event.sender,
            receiver=event.receiver,
            action=event.action,
            payload=sorted(r.value for r in event.extras),
            sender_permissions=sorted(event.sender_permissions),
            verdict=decision.value,
            policy_vulnerability=policy.vulnerability if policy else None,
            policy_action=policy.action.value if policy else None,
            policy_description=policy.description if policy else None,
            prompted=prompted,
            prompt_approved=approved,
            context=context,
        )

    def _match(
        self, event_kind: PolicyEvent, event: IccEvent
    ) -> Optional[ECAPolicy]:
        """First policy whose condition the event violates, else None.

        This linear scan *is* the reference semantics; the compiled
        backend overrides it with indexed dispatch and must return the
        identical policy for every event.
        """
        for policy in self._policies:
            if policy.matches(event_kind, event):
                return policy
        return None

    def decide(
        self,
        event_kind: PolicyEvent,
        event: IccEvent,
        context: Optional[str] = None,
    ) -> Decision:
        policy = self._match(event_kind, event)
        return self._finalize(event_kind, event, policy, context)

    def _finalize(
        self,
        event_kind: PolicyEvent,
        event: IccEvent,
        policy: Optional[ECAPolicy],
        context: Optional[str],
    ) -> Decision:
        """Act on the matched policy: verdict, prompt, log, audit."""
        approved: Optional[bool] = None
        prompted = False
        if policy is None:
            decision = Decision.ALLOW
        elif policy.action is PolicyAction.DENY:
            decision = Decision.DENY
        else:
            approved = self.prompt_callback(policy, event)
            decision = Decision.ALLOW if approved else Decision.DENY
            prompted = True
        self.log.append(
            DecisionRecord(event_kind, event, policy, decision, prompted)
        )
        self._audit(
            event_kind, event, policy, decision, prompted, approved, context
        )
        return decision
