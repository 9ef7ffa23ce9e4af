"""Embedding extracted app models into the relational engine (Listing 4).

Each app element -- application, component, Intent filter, path, Intent --
becomes a singleton signature whose fields are *pinned into the bounds*
(the Kodkod partial-instance optimization): the facts AME extracted are not
up for debate, so they cost the SAT solver nothing.  Only the postulated
malicious elements added by a vulnerability signature remain free.

:class:`BundleSpec` owns one framework spec plus the embedded bundle and
provides the lookups vulnerability signatures need.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.android.components import ComponentKind
from repro.android.resources import Resource
from repro.core.framework_spec import (
    AndroidFrameworkSpec,
    action_atom,
    category_atom,
    data_scheme_atom,
    data_type_atom,
    permission_atom,
    resource_atom,
)
from repro.core.model import BundleModel, IntentModel
from repro.relational.instance import Instance
from repro.relational.sigs import Sig


class BundleSpec:
    """The framework meta-model plus one bundle's app modules."""

    def __init__(self, bundle: BundleModel) -> None:
        self.bundle = bundle
        self.fw = AndroidFrameworkSpec()
        self.module = self.fw.module
        self.component_sigs: Dict[str, Sig] = {}
        self.intent_sigs: Dict[str, Sig] = {}
        self.app_sigs: Dict[str, Sig] = {}
        self._action_sigs: Dict[str, Sig] = {}
        self._category_sigs: Dict[str, Sig] = {}
        self._type_sigs: Dict[str, Sig] = {}
        self._scheme_sigs: Dict[str, Sig] = {}
        self._perm_sigs: Dict[str, Sig] = {}
        self._embed()

    # ------------------------------------------------------------------
    # Vocabulary
    # ------------------------------------------------------------------
    def _vocab_sig(self, store: Dict[str, Sig], atom: str, parent: Sig) -> Sig:
        sig = store.get(atom)
        if sig is None:
            sig = self.module.one_sig(atom, extends=parent)
            store[atom] = sig
        return sig

    def _action(self, value: str) -> str:
        self._vocab_sig(self._action_sigs, action_atom(value), self.fw.action)
        return action_atom(value)

    def _category(self, value: str) -> str:
        self._vocab_sig(self._category_sigs, category_atom(value), self.fw.category)
        return category_atom(value)

    def _data_type(self, value: str) -> str:
        self._vocab_sig(self._type_sigs, data_type_atom(value), self.fw.data_type)
        return data_type_atom(value)

    def _data_scheme(self, value: str) -> str:
        self._vocab_sig(self._scheme_sigs, data_scheme_atom(value), self.fw.data_scheme)
        return data_scheme_atom(value)

    def _permission(self, value: str) -> str:
        self._vocab_sig(self._perm_sigs, permission_atom(value), self.fw.permission)
        return permission_atom(value)

    # ------------------------------------------------------------------
    def _embed(self) -> None:
        m = self.module
        fw = self.fw
        component_names = {c.name for c in self.bundle.all_components()}

        for app in self.bundle.apps:
            app_sig = m.one_sig(app.package, extends=fw.application)
            self.app_sigs[app.package] = app_sig
            m.pin(
                fw.app_permissions,
                app_sig,
                [self._permission(p) for p in sorted(app.uses_permissions)],
            )

        # Device holds exactly the bundle's apps; the postulated malicious
        # app (a free Application atom) is definitionally not installed.
        m.pin(fw.dev_apps, fw.device, sorted(self.app_sigs))

        kind_sig = {
            ComponentKind.ACTIVITY: fw.activity,
            ComponentKind.SERVICE: fw.service,
            ComponentKind.RECEIVER: fw.receiver,
            ComponentKind.PROVIDER: fw.provider,
        }

        for app in self.bundle.apps:
            for comp in app.components:
                cmp_sig = m.one_sig(comp.name, extends=kind_sig[comp.kind])
                self.component_sigs[comp.name] = cmp_sig
                m.pin(fw.cmp_app, cmp_sig, [app.package])
                fw.exported.pin(comp.name, comp.exported)
                m.pin(
                    fw.cmp_permissions,
                    cmp_sig,
                    [self._permission(p) for p in sorted(comp.permissions)],
                )
                m.pin(
                    fw.cmp_exposed,
                    cmp_sig,
                    [self._permission(p) for p in sorted(comp.uses_permissions)],
                )
                # Intent filters.
                filter_atoms = []
                for fi, filt in enumerate(comp.intent_filters):
                    f_sig = m.one_sig(f"{comp.name}#f{fi}", extends=fw.intent_filter)
                    m.pin(
                        fw.flt_actions,
                        f_sig,
                        [self._action(a) for a in sorted(filt.actions)],
                    )
                    m.pin(
                        fw.flt_categories,
                        f_sig,
                        [self._category(c) for c in sorted(filt.categories)],
                    )
                    m.pin(
                        fw.flt_data_types,
                        f_sig,
                        [self._data_type(t) for t in sorted(filt.data_types)],
                    )
                    m.pin(
                        fw.flt_data_schemes,
                        f_sig,
                        [self._data_scheme(s) for s in sorted(filt.data_schemes)],
                    )
                    fw.dynamic_filters.pin(f"{comp.name}#f{fi}", filt.dynamic)
                    filter_atoms.append(f"{comp.name}#f{fi}")
                m.pin(fw.cmp_filters, cmp_sig, filter_atoms)
                # Paths.
                path_atoms = []
                for pi, path in enumerate(comp.paths):
                    p_sig = m.one_sig(f"{comp.name}#p{pi}", extends=fw.path)
                    m.pin(fw.path_source, p_sig, [resource_atom(path.source)])
                    m.pin(fw.path_sink, p_sig, [resource_atom(path.sink)])
                    path_atoms.append(f"{comp.name}#p{pi}")
                m.pin(fw.cmp_paths, cmp_sig, path_atoms)

        for app in self.bundle.apps:
            for intent in app.intents:
                self._embed_intent(intent, component_names)

    def _embed_intent(self, intent: IntentModel, component_names: Set[str]) -> None:
        m = self.module
        fw = self.fw
        if intent.sender not in component_names:
            return  # sender component absent from the bundle model
        i_sig = m.one_sig(intent.entity_id, extends=fw.intent)
        self.intent_sigs[intent.entity_id] = i_sig
        m.pin(fw.int_sender, i_sig, [intent.sender])
        receiver: List[str] = []
        if intent.target is not None and intent.target in component_names:
            receiver = [intent.target]
        elif intent.passive and len(intent.passive_targets) == 1:
            (target,) = intent.passive_targets
            if target in component_names:
                receiver = [target]
        m.pin(fw.int_receiver, i_sig, receiver)
        m.pin(
            fw.int_action,
            i_sig,
            [self._action(intent.action)] if intent.action else [],
        )
        m.pin(
            fw.int_categories,
            i_sig,
            [self._category(c) for c in sorted(intent.categories)],
        )
        m.pin(
            fw.int_data_type,
            i_sig,
            [self._data_type(intent.data_type)] if intent.data_type else [],
        )
        m.pin(
            fw.int_data_scheme,
            i_sig,
            [self._data_scheme(intent.data_scheme)] if intent.data_scheme else [],
        )
        m.pin(
            fw.int_extra,
            i_sig,
            [resource_atom(r) for r in sorted(intent.extras, key=lambda r: r.value)],
        )

    # ------------------------------------------------------------------
    # Reading scenarios back out
    # ------------------------------------------------------------------
    def intent_attributes(self, instance: Instance, intent_atom: str) -> Dict:
        """Decode one Intent atom's attributes from a solved instance."""
        fw = self.fw

        def values(field) -> List[str]:
            return sorted(
                t[1] for t in instance.tuples(field.relation) if t[0] == intent_atom
            )

        def strip(prefix: str, atoms: List[str]) -> List[str]:
            return [a[len(prefix):] for a in atoms]

        extras = [
            Resource(a[len("res:"):]) for a in values(fw.int_extra)
        ]
        senders = values(fw.int_sender)
        receivers = values(fw.int_receiver)
        return {
            "sender": senders[0] if senders else None,
            "receiver": receivers[0] if receivers else None,
            "action": (strip("action:", values(fw.int_action)) or [None])[0],
            "categories": frozenset(strip("cat:", values(fw.int_categories))),
            "data_type": (strip("type:", values(fw.int_data_type)) or [None])[0],
            "data_scheme": (strip("scheme:", values(fw.int_data_scheme)) or [None])[0],
            "extras": frozenset(extras),
        }

    def filter_attributes(self, instance: Instance, filter_atom: str) -> Dict:
        fw = self.fw

        def values(field) -> List[str]:
            return sorted(
                t[1] for t in instance.tuples(field.relation) if t[0] == filter_atom
            )

        return {
            "actions": frozenset(a[len("action:"):] for a in values(fw.flt_actions)),
            "categories": frozenset(
                c[len("cat:"):] for c in values(fw.flt_categories)
            ),
            "data_types": frozenset(
                t[len("type:"):] for t in values(fw.flt_data_types)
            ),
            "data_schemes": frozenset(
                s[len("scheme:"):] for s in values(fw.flt_data_schemes)
            ),
        }
