"""The simulated Android runtime: device, ICC dispatch, IR interpreter.

Executes app bytecode concretely.  Sensitive source APIs return values
tagged with their flow-permission resource, Intent payloads carry those
tags, and sink APIs record what reached them -- so an exploit that
exfiltrates the device location through two vulnerable apps is observable
as a concrete ``sms_sent`` effect tagged LOCATION.  ICC is dispatched
through a queue (Android's ICC calls are asynchronous), resolved with the
framework's matching rules, permission-checked, and -- crucially --
interceptable through the Xposed-style :class:`HookManager`, which is where
the policy enforcement point attaches.

Each send is resolved exactly once, before its before-hooks run: the
:class:`Device` looks the candidates up in its per-kind action buckets,
:func:`~repro.android.intents.resolve_intent` decides them, and the
result rides on :attr:`MethodCall.recipients` to the hooks and, unless a
hook skips the call, to delivery.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.android.apk import Apk
from repro.android.components import ComponentDecl, ComponentKind
from repro.android.intents import Intent as ModelIntent
from repro.android.intents import IntentFilter, action_buckets, resolve_intent
from repro.android.permissions import SINK_API_MAP, SOURCE_API_MAP
from repro.android.resources import Resource
from repro.dex.instructions import (
    ConstString,
    Goto,
    IGet,
    IPut,
    If,
    Invoke,
    Move,
    NewInstance,
    Return,
    SGet,
    SPut,
)
from repro.dex.program import DexMethod
from repro.enforcement.hooks import HookManager, MethodCall
from repro.obs import current_tracer

_MAX_DISPATCH = 10_000  # runaway-broadcast backstop, per activation
_MAX_FRAMES = 256


@dataclass
class Tagged:
    """A runtime value carrying taint tags (sensitive-resource provenance)."""

    text: str
    taints: FrozenSet[Resource] = frozenset()

    def __str__(self) -> str:
        return self.text


def taints_of(value: Any) -> FrozenSet[Resource]:
    if isinstance(value, Tagged):
        return value.taints
    if isinstance(value, RuntimeIntent):
        merged: Set[Resource] = set()
        for v in value.extras.values():
            merged |= taints_of(v)
        return frozenset(merged)
    return frozenset()


class RuntimeIntent:
    """A concrete Intent under construction / in flight."""

    _ids = itertools.count(1)

    def __init__(self, sender: Optional[str] = None) -> None:
        self.id = next(self._ids)
        self.sender = sender
        self.target: Optional[str] = None
        self.action: Optional[str] = None
        self.categories: Set[str] = set()
        self.data_type: Optional[str] = None
        self.data_scheme: Optional[str] = None
        self.extras: Dict[str, Any] = {}
        self.wants_result = False

    @property
    def carried_resources(self) -> FrozenSet[Resource]:
        merged: Set[Resource] = set()
        for value in self.extras.values():
            merged |= taints_of(value)
        return frozenset(merged)

    def to_model(self) -> ModelIntent:
        """The model Intent that resolution matches: endpoints, action,
        categories and data.  The payload is left out (no ``extras`` or
        ``extra_keys``): matching never reads it, and the PEP reads
        :attr:`carried_resources` itself."""
        return ModelIntent(
            sender=self.sender or "?",
            target=self.target,
            action=self.action,
            categories=frozenset(self.categories),
            data_type=self.data_type,
            data_scheme=self.data_scheme,
            wants_result=self.wants_result,
        )

    def __repr__(self) -> str:
        return (
            f"RuntimeIntent#{self.id}(action={self.action!r}, "
            f"target={self.target!r}, extras={sorted(self.extras)})"
        )


class RuntimeFilter:
    def __init__(self) -> None:
        self.actions: Set[str] = set()
        self.categories: Set[str] = set()
        self.data_types: Set[str] = set()
        self.data_schemes: Set[str] = set()

    def to_model(self) -> IntentFilter:
        return IntentFilter(
            actions=frozenset(self.actions) or frozenset({"<none>"}),
            categories=frozenset(self.categories),
            data_types=frozenset(self.data_types),
            data_schemes=frozenset(self.data_schemes),
        )


@dataclass
class InstalledComponent:
    decl: ComponentDecl
    qualified: str
    app: str
    dynamic_filters: List[IntentFilter] = field(default_factory=list)

    @property
    def exported(self) -> bool:
        return self.decl.is_public

    @property
    def intent_filters(self) -> List[IntentFilter]:
        return list(self.decl.intent_filters) + self.dynamic_filters

    # resolve_intent duck-type
    @property
    def name(self) -> str:
        return self.qualified

    @property
    def kind(self) -> "ComponentKind":
        return self.decl.kind


@dataclass
class InstalledApp:
    apk: Apk
    components: Dict[str, InstalledComponent]

    @property
    def package(self) -> str:
        return self.apk.package

    @property
    def permissions(self) -> FrozenSet[str]:
        return frozenset(self.apk.manifest.uses_permissions)


class Device:
    """Installed-app registry.

    Keeps, per component kind, the installed components bucketed by the
    actions their filters list (:func:`~repro.android.intents.action_buckets`)
    so that resolving a send looks its candidates up instead of scanning
    every component.  Installing, uninstalling and registering a filter
    drop the buckets; the next resolution rebuilds them."""

    def __init__(self) -> None:
        self.apps: Dict[str, InstalledApp] = {}
        self._buckets: Dict[
            ComponentKind, Dict[Optional[str], List[InstalledComponent]]
        ] = {}

    def install(self, apk: Apk) -> InstalledApp:
        if apk.package in self.apps:
            raise ValueError(f"{apk.package} already installed")
        components = {}
        for decl in apk.manifest.components:
            qualified = apk.manifest.qualified(decl)
            components[qualified] = InstalledComponent(decl, qualified, apk.package)
        app = InstalledApp(apk, components)
        self.apps[apk.package] = app
        self._buckets.clear()
        return app

    def uninstall(self, package: str) -> None:
        del self.apps[package]
        self._buckets.clear()

    def register_filter(
        self, component: InstalledComponent, filt: IntentFilter
    ) -> None:
        """``Context.registerReceiver``: add a filter registered in code."""
        component.dynamic_filters.append(filt)
        self._buckets.clear()

    def candidates(
        self, kind: ComponentKind, intent: ModelIntent
    ) -> List[InstalledComponent]:
        """The installed components of ``kind`` that ``intent`` may resolve
        to, in installation order: an explicit Intent's named target, or
        the components with a filter listing an implicit Intent's action.
        :func:`~repro.android.intents.resolve_intent` still decides each."""
        if intent.explicit:
            target = self.component(intent.target)
            if target is None or target.decl.kind is not kind:
                return []
            return [target]
        buckets = self._buckets.get(kind)
        if buckets is None:
            buckets = self._buckets[kind] = action_buckets(
                c for c in self.all_components() if c.decl.kind is kind
            )
        return buckets.get(intent.action, [])

    def all_components(self) -> List[InstalledComponent]:
        return [c for app in self.apps.values() for c in app.components.values()]

    def component(self, qualified: str) -> Optional[InstalledComponent]:
        package = qualified.split("/", 1)[0]
        app = self.apps.get(package)
        if app is None:
            return None
        return app.components.get(qualified)


@dataclass
class Effect:
    """An observable runtime effect (the enforcement tests' oracle)."""

    kind: str  # sms_sent / log / network / file_write / icc_delivered / ...
    component: str
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _PendingDelivery:
    intent: RuntimeIntent
    receiver: str
    entry: str  # lifecycle method to invoke
    caller_app: str
    result_to: Optional[str] = None  # startActivityForResult return channel


_ENTRY_FOR_KIND = {
    ComponentKind.SERVICE: "onStartCommand",
    ComponentKind.ACTIVITY: "onCreate",
    ComponentKind.RECEIVER: "onReceive",
}

_SEND_KIND = {
    "Context.startService": ComponentKind.SERVICE,
    "Context.startActivity": ComponentKind.ACTIVITY,
    "Context.startActivityForResult": ComponentKind.ACTIVITY,
    "Context.bindService": ComponentKind.SERVICE,
    "Context.sendBroadcast": ComponentKind.RECEIVER,
    "Context.sendOrderedBroadcast": ComponentKind.RECEIVER,
}

_RESOLVER_APIS = {
    "ContentResolver.query": "query",
    "ContentResolver.insert": "insert",
    "ContentResolver.update": "update",
    "ContentResolver.delete": "delete",
}

ICC_API_SIGNATURES = tuple(_SEND_KIND) + ("Activity.setResult",) + tuple(
    _RESOLVER_APIS
)


class AndroidRuntime:
    """Executes installed apps and dispatches ICC, with hook interception."""

    def __init__(self, device: Optional[Device] = None) -> None:
        self.device = device or Device()
        self.hooks = HookManager()
        self.effects: List[Effect] = []
        self._queue: deque = deque()
        self._heap: Dict[Tuple[int, str], Any] = {}  # (object id, field)
        self._statics: Dict[str, Any] = {}
        self._this_fields: Dict[Tuple[str, str], Any] = {}  # (component, field)
        self._result_channel: Dict[str, str] = {}  # receiver -> original caller
        self.icc_sent = 0
        self.icc_delivered = 0

    # ------------------------------------------------------------------
    # Public driving API
    # ------------------------------------------------------------------
    def install(self, apk: Apk) -> InstalledApp:
        return self.device.install(apk)

    def start_component(
        self, qualified: str, intent: Optional[RuntimeIntent] = None
    ) -> None:
        """Framework-initiated start (e.g. the user taps the app icon)."""
        component = self.device.component(qualified)
        if component is None:
            raise KeyError(f"component {qualified} not installed")
        entry = _ENTRY_FOR_KIND.get(component.decl.kind, "onCreate")
        self._queue.append(
            _PendingDelivery(
                intent=intent or RuntimeIntent(sender="android/framework"),
                receiver=qualified,
                entry=entry,
                caller_app=component.app,
            )
        )
        self._drain()

    def _drain(self) -> None:
        """Run queued deliveries until the queue is empty.

        The dispatch budget counts one activation's deliveries, so a
        long-lived runtime serves any number of activations.  A runaway
        activation is abandoned with its pending deliveries, and the next
        activation starts from an empty queue.
        """
        tracer = current_tracer()
        dispatched = 0
        while self._queue:
            dispatched += 1
            if dispatched > _MAX_DISPATCH:
                self._queue.clear()
                raise RuntimeError("ICC dispatch budget exceeded")
            delivery = self._queue.popleft()
            with tracer.span(
                "runtime.dispatch",
                receiver=delivery.receiver,
                entry=delivery.entry,
            ):
                self._execute_entry(delivery)

    # ------------------------------------------------------------------
    # ICC dispatch
    # ------------------------------------------------------------------
    def resolve_icc(
        self, sender: str, signature: str, intent: RuntimeIntent
    ) -> List[InstalledComponent]:
        """Resolution half of an ICC send (framework matching rules)."""
        intent.sender = sender
        kind = _SEND_KIND[signature]
        if signature == "Context.startActivityForResult":
            intent.wants_result = True
        model = intent.to_model()
        matches = resolve_intent(model, self.device.candidates(kind, model))
        if kind is not ComponentKind.RECEIVER and len(matches) > 1:
            # The framework delivers a non-broadcast implicit Intent to a
            # single recipient: highest filter priority wins, name breaks
            # ties deterministically.
            def rank(component):
                priorities = [
                    f.priority for f in component.intent_filters
                ] or [0]
                return (-max(priorities), component.name)

            matches = sorted(matches, key=rank)[:1]
        return matches

    def sender_permissions(self, sender: str) -> FrozenSet[str]:
        sender_app = sender.split("/", 1)[0]
        app = self.device.apps.get(sender_app)
        return app.permissions if app is not None else frozenset()

    def deliver_icc(
        self,
        sender: str,
        signature: str,
        intent: RuntimeIntent,
        matches: List[InstalledComponent],
    ) -> None:
        """Delivery half: permission checks, effects, queueing."""
        self.icc_sent += 1
        kind = _SEND_KIND[signature]
        sender_app = sender.split("/", 1)[0]
        sender_perms = self.sender_permissions(sender)
        for component in matches:
            # Manifest permission enforcement.
            required = component.decl.permission
            if required and required not in sender_perms:
                self.effects.append(
                    Effect(
                        "icc_permission_denied",
                        component.qualified,
                        {"sender": sender, "permission": required},
                    )
                )
                continue
            self.icc_delivered += 1
            self.effects.append(
                Effect(
                    "icc_delivered",
                    component.qualified,
                    {"sender": sender, "intent": intent},
                )
            )
            if intent.wants_result:
                self._result_channel[component.qualified] = sender
            self._queue.append(
                _PendingDelivery(
                    intent=intent,
                    receiver=component.qualified,
                    entry=_ENTRY_FOR_KIND[kind],
                    caller_app=sender_app,
                )
            )

    def _resolver_call(
        self,
        app: InstalledApp,
        component: str,
        signature: str,
        args: List[Any],
        caller_app: str,
    ) -> Any:
        """ContentResolver operation: synchronous dispatch to the provider
        whose authority matches the content URI."""
        operation = _RESOLVER_APIS[signature]
        uri = str(args[0]) if args else ""
        authority = None
        if uri.startswith("content://"):
            authority = uri[len("content://"):].split("/", 1)[0]
        for installed in self.device.all_components():
            if installed.decl.kind is not ComponentKind.PROVIDER:
                continue
            if installed.decl.authority not in (None, authority):
                continue
            if authority is not None and installed.decl.authority != authority:
                continue
            same_app = installed.app == app.package
            if not installed.exported and not same_app:
                continue
            required = installed.decl.permission
            if required and required not in app.permissions:
                self.effects.append(
                    Effect(
                        "icc_permission_denied",
                        installed.qualified,
                        {"sender": component, "permission": required},
                    )
                )
                continue
            self.effects.append(
                Effect(
                    "provider_access",
                    installed.qualified,
                    {"sender": component, "operation": operation},
                )
            )
            provider_app = self.device.apps[installed.app]
            cls = provider_app.apk.component_class(installed.decl.name)
            if cls is None or not cls.has_method(operation):
                continue
            method = cls.method(operation)
            call_args = list(args[: len(method.params)])
            call_args += [None] * (len(method.params) - len(call_args))
            return self._run_method(
                provider_app,
                installed.qualified,
                method,
                call_args,
                depth=0,
                caller_app=app.package,
            )
        return None

    def _send_result(self, sender: str, intent: RuntimeIntent) -> None:
        """Activity.setResult: deliver back over the recorded channel."""
        intent.sender = sender
        caller = self._result_channel.get(sender)
        if caller is None:
            return
        self.icc_sent += 1
        self.icc_delivered += 1
        self.effects.append(
            Effect("icc_delivered", caller, {"sender": sender, "intent": intent})
        )
        self._queue.append(
            _PendingDelivery(
                intent=intent,
                receiver=caller,
                entry="onActivityResult",
                caller_app=sender.split("/", 1)[0],
            )
        )

    # ------------------------------------------------------------------
    # Interpreter
    # ------------------------------------------------------------------
    def _execute_entry(self, delivery: _PendingDelivery) -> None:
        component = self.device.component(delivery.receiver)
        if component is None:
            return
        app = self.device.apps[component.app]
        cls = app.apk.component_class(component.decl.name)
        if cls is None or not cls.has_method(delivery.entry):
            return
        method = cls.method(delivery.entry)
        args: List[Any] = []
        if method.params:
            args = [delivery.intent] + [None] * (len(method.params) - 1)
        self._run_method(
            app, component.qualified, method, args, depth=0,
            caller_app=delivery.caller_app,
        )

    def _run_method(
        self,
        app: InstalledApp,
        component: str,
        method: DexMethod,
        args: List[Any],
        depth: int,
        caller_app: str,
    ) -> Any:
        if depth > _MAX_FRAMES:
            raise RuntimeError(f"call depth exceeded in {method.qualified_name}")
        regs: Dict[str, Any] = {}
        for pi, param in enumerate(method.params):
            regs[param] = args[pi] if pi < len(args) else None
        pc = 0
        instrs = method.instructions
        steps = 0
        while 0 <= pc < len(instrs):
            steps += 1
            if steps > 100_000:
                raise RuntimeError(f"instruction budget exceeded in {method.name}")
            instr = instrs[pc]
            if isinstance(instr, ConstString):
                regs[instr.dest] = instr.value
            elif isinstance(instr, Move):
                regs[instr.dest] = regs.get(instr.src)
            elif isinstance(instr, NewInstance):
                regs[instr.dest] = self._new_instance(instr.type_name)
            elif isinstance(instr, IGet):
                obj = regs.get(instr.obj)
                if instr.obj == "this":
                    regs[instr.dest] = self._this_fields.get(
                        (component, instr.field_name)
                    )
                else:
                    regs[instr.dest] = self._heap.get(
                        (id(obj), instr.field_name)
                    )
            elif isinstance(instr, IPut):
                obj = regs.get(instr.obj)
                if instr.obj == "this":
                    self._this_fields[(component, instr.field_name)] = regs.get(
                        instr.src
                    )
                else:
                    self._heap[(id(obj), instr.field_name)] = regs.get(instr.src)
            elif isinstance(instr, SGet):
                regs[instr.dest] = self._statics.get(instr.class_field)
            elif isinstance(instr, SPut):
                self._statics[instr.class_field] = regs.get(instr.src)
            elif isinstance(instr, If):
                if regs.get(instr.cond):
                    pc = instr.target
                    continue
            elif isinstance(instr, Goto):
                pc = instr.target
                continue
            elif isinstance(instr, Return):
                return regs.get(instr.src) if instr.src else None
            elif isinstance(instr, Invoke):
                result = self._invoke(
                    app, component, method, instr, regs, depth, caller_app
                )
                if instr.dest is not None:
                    regs[instr.dest] = result
            pc += 1
        return None

    @staticmethod
    def _new_instance(type_name: str) -> Any:
        if type_name == "Intent":
            return RuntimeIntent()
        if type_name == "IntentFilter":
            return RuntimeFilter()
        return {"__type__": type_name}

    # ------------------------------------------------------------------
    def _invoke(
        self,
        app: InstalledApp,
        component: str,
        method: DexMethod,
        instr: Invoke,
        regs: Dict[str, Any],
        depth: int,
        caller_app: str,
    ) -> Any:
        receiver = regs.get(instr.receiver) if instr.receiver else None
        args = [regs.get(a) for a in instr.args]

        # App-internal call?
        callee = None
        if instr.class_name == "this":
            cls = app.apk.program.cls(method.class_name)
            if cls.has_method(instr.method_name):
                callee = cls.method(instr.method_name)
        else:
            callee = app.apk.program.lookup(instr.signature)
        if callee is not None:
            return self._run_method(
                app, component, callee, args, depth + 1, caller_app
            )

        # Platform API: hookable.  An ICC send is resolved here, once: the
        # before-hooks see its recipients, and unless one skips the call
        # they are the components it is delivered to.
        call = MethodCall(
            signature=instr.signature,
            component=component,
            receiver=receiver,
            args=args,
        )
        if instr.signature in _SEND_KIND and args and isinstance(
            args[0], RuntimeIntent
        ):
            call.recipients = self.resolve_icc(
                component, instr.signature, args[0]
            )
        self.hooks.run_before(call)
        if call.skip:
            self.effects.append(
                Effect("call_skipped", component, {"signature": instr.signature})
            )
            return call.result
        call.result = self._platform_api(app, component, call, caller_app)
        self.hooks.run_after(call)
        return call.result

    def _platform_api(
        self, app: InstalledApp, component: str, call: MethodCall, caller_app: str
    ) -> Any:
        sig = call.signature
        receiver = call.receiver
        args = call.args

        # Intent construction APIs.
        if isinstance(receiver, RuntimeIntent):
            if sig == "Intent.setAction":
                receiver.action = args[0]
                return receiver
            if sig == "Intent.addCategory":
                receiver.categories.add(args[0])
                return receiver
            if sig == "Intent.setType":
                receiver.data_type = args[0]
                return receiver
            if sig == "Intent.setData":
                uri = str(args[0]) if args else ""
                receiver.data_scheme = uri.split("://", 1)[0] if "://" in uri else uri
                return receiver
            if sig in ("Intent.setClass", "Intent.setClassName", "Intent.setComponent"):
                target = str(args[0])
                receiver.target = (
                    target if "/" in target else f"{app.package}/{target}"
                )
                return receiver
            if sig == "Intent.putExtra":
                receiver.extras[str(args[0])] = args[1] if len(args) > 1 else None
                return receiver
            if sig in (
                "Intent.getStringExtra",
                "Intent.getExtra",
                "Intent.getParcelableExtra",
                "Intent.getIntExtra",
            ):
                return receiver.extras.get(str(args[0]))
            if sig == "Intent.getExtras":
                return dict(receiver.extras)
            if sig == "Intent.getData":
                return receiver.data_scheme
        if isinstance(receiver, RuntimeFilter):
            if sig == "IntentFilter.addAction":
                receiver.actions.add(args[0])
                return receiver
            if sig == "IntentFilter.addCategory":
                receiver.categories.add(args[0])
                return receiver
            if sig == "IntentFilter.addDataType":
                receiver.data_types.add(args[0])
                return receiver
            if sig == "IntentFilter.addDataScheme":
                receiver.data_schemes.add(args[0])
                return receiver

        # ICC sends, resolved by _invoke before the hooks ran.
        if sig in _SEND_KIND:
            if call.recipients is not None:
                self.deliver_icc(component, sig, args[0], call.recipients)
            return None
        if sig in _RESOLVER_APIS:
            return self._resolver_call(app, component, sig, args, caller_app)
        if sig == "Activity.setResult":
            intent = args[0] if args else None
            if isinstance(intent, RuntimeIntent):
                self._send_result(component, intent)
            return None
        if sig == "Context.registerReceiver":
            filt = args[1] if len(args) > 1 else None
            target = args[0]
            if isinstance(filt, RuntimeFilter) and isinstance(target, dict):
                cmp_name = f"{app.package}/{target.get('__type__')}"
                installed = self.device.component(cmp_name)
                if installed is not None:
                    self.device.register_filter(installed, filt.to_model())
            return None

        # Sensitive sources: return tagged data.
        if sig in SOURCE_API_MAP:
            resource = SOURCE_API_MAP[sig]
            return Tagged(f"<{resource.value}-data>", frozenset({resource}))

        # Sinks: record what reached them.
        if sig in SINK_API_MAP:
            resource, data_arg = SINK_API_MAP[sig]
            payload = args[data_arg] if data_arg < len(args) else None
            kind = {
                Resource.SMS: "sms_sent",
                Resource.NETWORK: "network_send",
                Resource.SDCARD: "file_write",
                Resource.LOG: "log",
            }.get(resource, "sink")
            self.effects.append(
                Effect(
                    kind,
                    component,
                    {
                        "payload": str(payload) if payload is not None else None,
                        "taints": taints_of(payload),
                    },
                )
            )
            return None

        # Permission checks against the *calling* app.
        if sig in (
            "Context.checkCallingPermission",
            "Context.checkCallingOrSelfPermission",
        ):
            wanted = str(args[0]) if args else ""
            caller = self.device.apps.get(caller_app)
            granted = caller is not None and wanted in caller.permissions
            return granted

        # Generic platform call: propagate taints (toString, concat, ...).
        merged: Set[Resource] = set(taints_of(receiver))
        for arg in args:
            merged |= taints_of(arg)
        if merged:
            return Tagged(f"<derived:{sig}>", frozenset(merged))
        return None

    # ------------------------------------------------------------------
    def effects_of_kind(self, kind: str) -> List[Effect]:
        return [e for e in self.effects if e.kind == kind]
