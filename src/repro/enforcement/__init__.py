"""APE: the Android Policy Enforcer (Section VI).

A simulated Android runtime executes app IR with real ICC dispatch
(:mod:`repro.enforcement.runtime`); an Xposed-style hooking layer
(:mod:`repro.enforcement.hooks`) intercepts method calls without modifying
the apps.  The policy decision point (:mod:`repro.enforcement.pdp`)
evaluates intercepted ICC events against the synthesized ECA policies, and
the policy enforcement point (:mod:`repro.enforcement.pep`) installs the
hooks, consults the PDP, and skips violating calls -- the app continues in
degraded mode, exactly as inhibiting an asynchronous ICC call does on real
Android.  Every decision the PDP makes is appended, in decision order, to
an :class:`~repro.enforcement.audit.AuditLog` (:mod:`repro.enforcement.audit`)
that can be queried and serialized to JSONL after a run, with optional
rotation and sampling for sustained traffic.

Two interchangeable PDP backends implement the decision contract (full
architecture notes in ``docs/ENFORCEMENT.md``):

- ``linear`` (:class:`~repro.enforcement.pdp.PolicyDecisionPoint`) -- the
  readable first-match-wins scan, kept as the differential-testing oracle.
- ``compiled`` (:class:`~repro.enforcement.compiled.CompiledPolicyDecisionPoint`,
  the default) -- indexed hash-dispatch plus a memoized decision cache;
  decision- and audit-identical to ``linear``, selected for throughput.

Use :func:`make_pdp` to construct one by name.
"""

from typing import Optional, Sequence

from repro.core.policy import ECAPolicy
from repro.enforcement.audit import AuditLog, AuditRecord
from repro.enforcement.compiled import CompiledPolicyDecisionPoint, CompiledPolicySet
from repro.enforcement.hooks import HookManager, MethodCall
from repro.enforcement.runtime import AndroidRuntime, Device, RuntimeIntent
from repro.enforcement.pdp import (
    Decision,
    PolicyDecisionPoint,
    PromptCallback,
    deny_all_prompts,
)
from repro.enforcement.pep import PolicyEnforcementPoint

#: Name -> constructor for every PDP backend, by the names
#: ``make_pdp(backend=...)`` accepts.  The product (``repro simulate``,
#: ``repro serve``, ``DeviceGuard``) always runs ``compiled``;
#: ``linear`` is the reference that differential tests and the benchmark's
#: verdict checks replay through this seam.
PDP_BACKENDS = {
    "linear": PolicyDecisionPoint,
    "compiled": CompiledPolicyDecisionPoint,
}

DEFAULT_PDP_BACKEND = "compiled"


def make_pdp(
    policies: Sequence[ECAPolicy] = (),
    backend: str = DEFAULT_PDP_BACKEND,
    prompt_callback: PromptCallback = deny_all_prompts,
    audit: Optional[AuditLog] = None,
) -> PolicyDecisionPoint:
    """Construct a PDP by backend name (``"compiled"`` or ``"linear"``).

    The choice never affects decisions or audit sequences -- the backends
    are held identical by ``tests/enforcement/test_pdp_differential.py``
    -- only the per-event dispatch cost.  Product callers take the
    default; ``backend="linear"`` builds the reference PDP to check
    verdicts against.
    """
    try:
        factory = PDP_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown PDP backend {backend!r}; "
            f"expected one of {sorted(PDP_BACKENDS)}"
        ) from None
    return factory(policies, prompt_callback=prompt_callback, audit=audit)


__all__ = [
    "AuditLog",
    "AuditRecord",
    "HookManager",
    "MethodCall",
    "AndroidRuntime",
    "Device",
    "RuntimeIntent",
    "Decision",
    "PolicyDecisionPoint",
    "CompiledPolicyDecisionPoint",
    "CompiledPolicySet",
    "PolicyEnforcementPoint",
    "PDP_BACKENDS",
    "DEFAULT_PDP_BACKEND",
    "make_pdp",
]
