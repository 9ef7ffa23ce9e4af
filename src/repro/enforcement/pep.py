"""The policy enforcement point: hooks in, ICC events out.

Hooks every ICC API (``startService``, ``startActivity``,
``startActivityForResult``, ``bindService``, ``sendBroadcast``,
``setResult``) through the Xposed-style hook manager.  When a hooked send
fires, the runtime has already resolved its Intent, once, and hands the
prospective receivers over in
:attr:`~repro.enforcement.hooks.MethodCall.recipients`.  The PEP builds
one :class:`~repro.core.policy.IccEvent` per prospective receiver and asks
the PDP **twice per event** -- once as ``ICC_SEND`` (is the sender allowed
to emit this?) and once as ``ICC_RECEIVE`` (is the receiver allowed to
get it?); delivery requires both :class:`~repro.enforcement.pdp.Decision`
values to be ``ALLOW``.  Each ``decide`` call appends its own
``DecisionRecord``/audit record, so one intercepted call with *k*
resolved receivers produces exactly *2k* audit entries (this is the
decision contract documented in :mod:`repro.enforcement.pdp` and
``docs/ENFORCEMENT.md``).

When every receiver is allowed the PEP leaves the call alone, and the
runtime delivers the recipients it resolved.  Receivers the PDP denies
are cut out of the delivery; the call itself is skipped and re-issued
with the approved subset, so a blocked ICC call simply never delivers --
the sending app continues in degraded mode without crashing (ICC is
asynchronous, so no response was guaranteed anyway).  Prompt semantics
live entirely in the PDP: when a PROMPT policy matches, the PDP's
injected consent callback runs synchronously inside ``decide`` and the
PEP only ever sees the resulting verdict.  The PEP works against either
PDP backend (``linear`` or ``compiled``) -- it holds a reference to the
PDP's shared audit trail and never inspects policy internals."""

from __future__ import annotations


from repro.core.policy import IccEvent, PolicyEvent
from repro.enforcement.hooks import MethodCall
from repro.enforcement.pdp import Decision, PolicyDecisionPoint
from repro.enforcement.runtime import (
    AndroidRuntime,
    RuntimeIntent,
    _SEND_KIND,
)


class PolicyEnforcementPoint:
    """Installs ICC hooks on a runtime and enforces via a PDP."""

    def __init__(self, runtime: AndroidRuntime, pdp: PolicyDecisionPoint) -> None:
        self.runtime = runtime
        self.pdp = pdp
        self.audit = pdp.audit  # the shared enforcement audit trail
        self.blocked_deliveries = 0
        self.allowed_deliveries = 0
        self._installed = False

    def install(self) -> None:
        if self._installed:
            return
        for signature in _SEND_KIND:
            self.runtime.hooks.hook(signature, before=self._on_icc_send)
        self.runtime.hooks.hook("Activity.setResult", before=self._on_set_result)
        self._installed = True

    def uninstall(self) -> None:
        for signature in _SEND_KIND:
            self.runtime.hooks.unhook_all(signature)
        self.runtime.hooks.unhook_all("Activity.setResult")
        self._installed = False

    # ------------------------------------------------------------------
    def _on_icc_send(self, call: MethodCall) -> None:
        matches = call.recipients
        if matches is None:
            return
        intent = call.args[0]
        sender = call.component
        extras = intent.carried_resources
        sender_perms = self.runtime.sender_permissions(sender)
        allowed = []
        for component in matches:
            event = IccEvent(
                sender=sender,
                receiver=component.qualified,
                action=intent.action,
                extras=extras,
                sender_permissions=sender_perms,
            )
            send_ok = (
                self.pdp.decide(
                    PolicyEvent.ICC_SEND, event, context=call.signature
                )
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
            return  # nothing denied: let the framework dispatch normally
        # Replace the framework's own dispatch with the approved subset.
        call.skip = True
        self.runtime.deliver_icc(sender, call.signature, intent, allowed)

    def _on_set_result(self, call: MethodCall) -> None:
        intent = call.args[0] if call.args else None
        if not isinstance(intent, RuntimeIntent):
            return
        sender = call.component
        receiver = self.runtime._result_channel.get(sender)
        if receiver is None:
            return
        event = IccEvent(
            sender=sender,
            receiver=receiver,
            action=intent.action,
            extras=intent.carried_resources,
            sender_permissions=self.runtime.sender_permissions(sender),
        )
        if self.pdp.decide(
            PolicyEvent.ICC_SEND, event, context=call.signature
        ) is Decision.ALLOW and (
            self.pdp.decide(
                PolicyEvent.ICC_RECEIVE, event, context=call.signature
            )
            is Decision.ALLOW
        ):
            self.allowed_deliveries += 1
            return  # let the call proceed normally
        self.blocked_deliveries += 1
        call.skip = True
