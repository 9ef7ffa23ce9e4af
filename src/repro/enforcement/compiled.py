"""Compiled policy dispatch: the fast PDP backend.

The linear :class:`~repro.enforcement.pdp.PolicyDecisionPoint` scans every
installed policy per intercepted ICC event -- the right *reference*
semantics, and the wrong cost model for enforcement traffic (ROADMAP:
millions of events/sec).  This module compiles the synthesized policy set
into an indexed decision engine:

- :class:`CompiledPolicySet` buckets the ordered policy list by the parts
  of an ECA condition that are equality tests against event fields:
  an exact ``(event kind, receiver, intent action)`` bucket, a
  receiver-pinned bucket, a sender-pinned bucket, and a small linear
  **fallback chain** for wildcard policies whose conditions constrain
  neither endpoint (category/extras/permission-predicate matchers).
  Dispatch looks up at most four buckets per event and evaluates the
  merged candidates in original priority order, so **first-match-wins
  ordering is preserved exactly**.  The index is a conservative filter:
  a policy lands in a bucket only when ``ECAPolicy.matches`` would
  require the corresponding event field to equal the bucket key, so no
  potentially matching policy is ever skipped -- ``matches`` itself
  remains the ground truth on every candidate.
- :class:`CompiledPolicyDecisionPoint` wraps the index in a memoized
  **decision cache** keyed by the canonical intent shape
  ``(event kind, sender, receiver, action, sorted extras, sorted
  sender permissions)``.  Only *non-prompting* resolutions are cached --
  a DENY policy match or a default-allow fallthrough -- because a PROMPT
  policy consults the user per event.  Any policy install or remove
  (``pdp.policies = ...``, ``add_policy``; ``DeviceGuard._refresh`` goes
  through the former) recompiles the index and invalidates the whole
  cache.  Every decision, cached or not, still appends its
  :class:`~repro.enforcement.audit.AuditRecord`, so the audit sequence is
  byte-identical to the linear backend's.

``tests/enforcement/test_pdp_differential.py`` replays randomized policy
sets and event streams through both backends and asserts identical
decision and audit-record sequences; the ``enforcement`` workload of
``repro bench`` guards the throughput win.  See ``docs/ENFORCEMENT.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policy import ECAPolicy, IccEvent, PolicyAction, PolicyEvent
from repro.enforcement.audit import AuditLog
from repro.enforcement.pdp import (
    DECISION_LOG_WINDOW,
    PolicyDecisionPoint,
    PromptCallback,
    deny_all_prompts,
)

#: A policy with its original position; candidates merge on this so
#: indexed dispatch decides in exactly the order the list was installed.
_Ranked = Tuple[int, ECAPolicy]

#: Cache sentinel distinct from "cached fallthrough" (which is ``None``).
_MISS = object()


class CompiledPolicySet:
    """An ordered policy list compiled into hash-dispatch buckets."""

    __slots__ = ("policies", "_exact", "_by_receiver", "_by_sender", "_fallback")

    def __init__(self, policies: Sequence[ECAPolicy] = ()) -> None:
        self.policies: Tuple[ECAPolicy, ...] = tuple(policies)
        # Bucket keys mirror the equality tests in ECAPolicy.matches:
        # a policy whose ``receiver`` condition is set can only match an
        # event with that exact receiver, so it is safe to file it under
        # that key -- and so on for sender and intent action.
        self._exact: Dict[Tuple[PolicyEvent, str, str], List[_Ranked]] = {}
        self._by_receiver: Dict[Tuple[PolicyEvent, str], List[_Ranked]] = {}
        self._by_sender: Dict[Tuple[PolicyEvent, str], List[_Ranked]] = {}
        self._fallback: Dict[PolicyEvent, List[_Ranked]] = {}
        for priority, policy in enumerate(self.policies):
            entry = (priority, policy)
            if policy.receiver is not None and policy.intent_action is not None:
                key3 = (policy.event, policy.receiver, policy.intent_action)
                self._exact.setdefault(key3, []).append(entry)
            elif policy.receiver is not None:
                key2 = (policy.event, policy.receiver)
                self._by_receiver.setdefault(key2, []).append(entry)
            elif policy.sender is not None:
                key2 = (policy.event, policy.sender)
                self._by_sender.setdefault(key2, []).append(entry)
            else:
                # Wildcard: neither endpoint pinned (category / extras /
                # permission-predicate conditions).  Small by construction
                # -- policy derivation pins a component whenever the
                # scenario names one -- and scanned last-resort-linear.
                self._fallback.setdefault(policy.event, []).append(entry)

    def __len__(self) -> int:
        return len(self.policies)

    def candidates(
        self, event_kind: PolicyEvent, event: IccEvent
    ) -> List[_Ranked]:
        """Every policy that could match the event, in priority order."""
        found: List[_Ranked] = []
        if event.receiver is not None:
            if event.action is not None:
                found += self._exact.get(
                    (event_kind, event.receiver, event.action), ()
                )
            found += self._by_receiver.get((event_kind, event.receiver), ())
        found += self._by_sender.get((event_kind, event.sender), ())
        found += self._fallback.get(event_kind, ())
        # Candidate lists are tiny (each bucket is one hash hit); a sort
        # on the priority rank restores global first-match order.
        found.sort(key=lambda ranked: ranked[0])
        return found

    def match(
        self, event_kind: PolicyEvent, event: IccEvent
    ) -> Optional[ECAPolicy]:
        """First matching policy under first-match-wins order, else None."""
        for _, policy in self.candidates(event_kind, event):
            if policy.matches(event_kind, event):
                return policy
        return None


def cache_key(
    event_kind: PolicyEvent, event: IccEvent
) -> Tuple[PolicyEvent, str, Optional[str], Optional[str], Tuple[str, ...], Tuple[str, ...]]:
    """Canonical intent shape: two events that ``ECAPolicy.matches``
    cannot distinguish map to the same key (extras and permissions are
    order-insensitive sets, hence sorted)."""
    return (
        event_kind,
        event.sender,
        event.receiver,
        event.action,
        tuple(sorted(r.value for r in event.extras)),
        tuple(sorted(event.sender_permissions)),
    )


class CompiledPolicyDecisionPoint(PolicyDecisionPoint):
    """PDP backend with indexed dispatch and a memoized decision cache.

    Decision- and audit-identical to the linear reference; only the cost
    of resolving the matching policy changes.
    """

    def __init__(
        self,
        policies: Sequence[ECAPolicy] = (),
        prompt_callback: PromptCallback = deny_all_prompts,
        audit: Optional[AuditLog] = None,
        log_window: int = DECISION_LOG_WINDOW,
        cache_max_entries: int = 65536,
    ) -> None:
        # Derived dispatch state must exist before super().__init__
        # assigns ``policies`` (the setter recompiles through it).
        self._compiled = CompiledPolicySet()
        self._cache: Dict[tuple, Optional[ECAPolicy]] = {}
        self._cache_max_entries = cache_max_entries
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        super().__init__(
            policies,
            prompt_callback=prompt_callback,
            audit=audit,
            log_window=log_window,
        )

    @property
    def compiled(self) -> CompiledPolicySet:
        return self._compiled

    def _policies_changed(self) -> None:
        """Recompile the index; any install/remove invalidates the whole
        decision cache (a new policy may out-prioritize any cached
        resolution, a removed one may un-deny any cached DENY)."""
        self._compiled = CompiledPolicySet(self._policies)
        if self._cache:
            self.cache_invalidations += 1
            self._cache.clear()

    def _match(
        self, event_kind: PolicyEvent, event: IccEvent
    ) -> Optional[ECAPolicy]:
        key = cache_key(event_kind, event)
        cached = self._cache.get(key, _MISS)
        if cached is not _MISS:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        policy = self._compiled.match(event_kind, event)
        if policy is None or policy.action is PolicyAction.DENY:
            # Non-prompting resolutions only: a PROMPT match must consult
            # the user on every event, so it is resolved fresh each time.
            if len(self._cache) >= self._cache_max_entries:
                # Bounded by whole-cache reset: adversarially diverse
                # event shapes must not grow memory without limit.
                self._cache.clear()
            self._cache[key] = policy
        return policy
