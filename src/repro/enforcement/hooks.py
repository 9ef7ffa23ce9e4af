"""Xposed-style method hooking.

The Xposed framework lets a module register callbacks that run before and
after any method call, with the power to rewrite arguments, replace the
return value, or skip the call entirely -- all without touching the app's
APK.  :class:`HookManager` reproduces that contract for the IR interpreter:
the runtime consults it at every platform-API invoke.  An ICC send reaches
its before-hooks already resolved: :attr:`MethodCall.recipients` holds the
components the framework would deliver it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class MethodCall:
    """The mutable view of one intercepted invocation.

    Before-hooks may mutate ``args``, set ``skip = True`` (optionally with
    ``result``) to suppress the call, or leave it untouched.  After-hooks
    may replace ``result``.

    For an ICC send the runtime resolves the Intent once, before the
    before-hooks run, and puts the components it resolved to in
    ``recipients`` (``None`` for every other call).  A call no hook skips
    is delivered to ``recipients``, so a hook reads them instead of
    resolving the Intent again."""

    signature: str
    component: str  # qualified component whose code is executing
    receiver: Any = None
    args: List[Any] = field(default_factory=list)
    skip: bool = False
    result: Any = None
    recipients: Optional[List[Any]] = None


BeforeHook = Callable[[MethodCall], None]
AfterHook = Callable[[MethodCall], None]


class HookManager:
    """Registry of per-signature before/after hooks."""

    def __init__(self) -> None:
        self._before: Dict[str, List[BeforeHook]] = {}
        self._after: Dict[str, List[AfterHook]] = {}
        self.invocations: int = 0  # intercepted-call counter (overhead stats)

    def hook(
        self,
        signature: str,
        before: Optional[BeforeHook] = None,
        after: Optional[AfterHook] = None,
    ) -> None:
        if before is None and after is None:
            raise ValueError("a hook needs a before or an after callback")
        if before is not None:
            self._before.setdefault(signature, []).append(before)
        if after is not None:
            self._after.setdefault(signature, []).append(after)

    def unhook_all(self, signature: Optional[str] = None) -> None:
        if signature is None:
            self._before.clear()
            self._after.clear()
        else:
            self._before.pop(signature, None)
            self._after.pop(signature, None)

    def is_hooked(self, signature: str) -> bool:
        return signature in self._before or signature in self._after

    def run_before(self, call: MethodCall) -> None:
        hooks = self._before.get(call.signature)
        if not hooks:
            return
        self.invocations += 1
        for hook in hooks:
            hook(call)
            if call.skip:
                return

    def run_after(self, call: MethodCall) -> None:
        hooks = self._after.get(call.signature)
        if not hooks:
            return
        for hook in hooks:
            hook(call)
