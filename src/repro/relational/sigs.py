"""Alloy-style signature declarations over the relational core.

This is the surface SEPAR's models are written in: abstract signatures with
extension hierarchies (``abstract sig Component`` with ``sig Activity
extends Component``), singleton signatures for extracted app elements
(``one sig LocationFinder extends Service``), binary fields with
multiplicities (``sender: one Component``), facts, and *partial-instance
pinning* -- the Kodkod trick of injecting statically-extracted facts
directly into relation bounds so the SAT search is confined to the
postulated (malicious) elements.

Usage sketch::

    m = Module()
    component = m.sig("Component", abstract=True)
    service = m.sig("Service", extends=component)
    app = m.sig("Application")
    cmp_app = m.field(component, "app", app, mult="one")
    loc = m.one_sig("LocationFinder", extends=service)
    m.pin(cmp_app, loc, ["App1"])          # bound-level fact
    m.fact(...)                            # formula-level fact
    problem = m.solve_problem(goal, extra={service: 1})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.relational import ast as rast
from repro.relational.problem import RelationalProblem
from repro.relational.universe import Bounds, Relation, Universe


class Sig:
    """A signature: a named atom set, possibly extending a parent sig."""

    def __init__(
        self,
        name: str,
        parent: Optional["Sig"] = None,
        abstract: bool = False,
        one: bool = False,
    ) -> None:
        self.name = name
        self.parent = parent
        self.abstract = abstract
        self.one = one
        self.children: List["Sig"] = []
        self.relation = Relation(name, 1)
        self._expr = rast.RelationExpr(self.relation)
        if parent is not None:
            parent.children.append(self)

    @property
    def expr(self) -> rast.Expr:
        return self._expr

    def ancestors(self) -> List["Sig"]:
        chain = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def descendants(self) -> List["Sig"]:
        out = []
        stack = list(self.children)
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(child.children)
        return out

    def __repr__(self) -> str:
        return f"Sig({self.name})"


class Field:
    """A binary field ``owner.name: mult range``."""

    MULTS = ("one", "lone", "some", "set")

    def __init__(self, owner: Sig, name: str, range_sig: Sig, mult: str = "set") -> None:
        if mult not in self.MULTS:
            raise ValueError(f"unknown field multiplicity {mult!r}")
        self.owner = owner
        self.name = name
        self.range_sig = range_sig
        self.mult = mult
        self.relation = Relation(f"{owner.name}.{name}", 2)
        self._expr = rast.RelationExpr(self.relation)

    @property
    def expr(self) -> rast.Expr:
        return self._expr

    def of(self, subject: rast.Expr) -> rast.Expr:
        """``subject.field`` navigation."""
        return subject.join(self._expr)

    def __repr__(self) -> str:
        return f"Field({self.owner.name}.{self.name}: {self.mult} {self.range_sig.name})"


class SubsetSig:
    """A subset signature: a unary relation contained in a parent sig.

    Unlike extension sigs, subset sigs may overlap each other (Alloy's
    ``sig X in Y``).  Membership of individual atoms can be pinned
    (``exported`` components, source/sink resource classes); unpinned atoms
    are left to the solver, bounded by the parent's atom set.
    """

    def __init__(self, name: str, parent: Sig) -> None:
        self.name = name
        self.parent = parent
        self.relation = Relation(name, 1)
        self._expr = rast.RelationExpr(self.relation)
        self.pinned: Dict[str, bool] = {}

    @property
    def expr(self) -> rast.Expr:
        return self._expr

    def pin(self, atom: str, member: bool = True) -> None:
        existing = self.pinned.get(atom)
        if existing is not None and existing != member:
            raise ValueError(
                f"conflicting membership pins for {atom} in {self.name}"
            )
        self.pinned[atom] = member

    def __repr__(self) -> str:
        return f"SubsetSig({self.name} in {self.parent.name})"


@dataclass
class _Pin:
    field: Field
    owner_atom: str
    values: Tuple[str, ...]


class Module:
    """A collection of sigs, fields, facts, and partial-instance pins."""

    def __init__(self) -> None:
        self._sigs: List[Sig] = []
        self._fields: List[Field] = []
        self._subsets: List[SubsetSig] = []
        self._facts: List[rast.Formula] = []
        self._pins: List[_Pin] = []
        self._atom_names: Dict[Sig, List[str]] = {}
        self._by_name: Dict[str, Sig] = {}

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def sig(
        self,
        name: str,
        extends: Optional[Sig] = None,
        abstract: bool = False,
    ) -> Sig:
        if name in self._by_name:
            raise ValueError(f"duplicate sig {name!r}")
        sig = Sig(name, parent=extends, abstract=abstract)
        self._sigs.append(sig)
        self._by_name[name] = sig
        return sig

    def one_sig(self, name: str, extends: Optional[Sig] = None) -> Sig:
        """A singleton signature; its single atom is named after the sig."""
        if name in self._by_name:
            raise ValueError(f"duplicate sig {name!r}")
        sig = Sig(name, parent=extends, one=True)
        self._sigs.append(sig)
        self._by_name[name] = sig
        self._atom_names[sig] = [name]
        return sig

    def field(self, owner: Sig, name: str, range_sig: Sig, mult: str = "set") -> Field:
        fld = Field(owner, name, range_sig, mult)
        self._fields.append(fld)
        return fld

    def subset_sig(self, name: str, parent: Sig) -> SubsetSig:
        if name in self._by_name:
            raise ValueError(f"duplicate sig {name!r}")
        subset = SubsetSig(name, parent)
        self._subsets.append(subset)
        return subset

    def helper_relation(
        self, name: str, arity: int, tuples: Iterable[Tuple[str, ...]]
    ) -> Relation:
        """An exact-bound derived relation (a Kodkod partial-instance trick):
        facts computed outside the solver -- e.g. the Intent-relay edges a
        transitive-closure formula walks -- enter the problem as constants.
        Atoms must exist in the built universe (one-sig atoms)."""
        if not hasattr(self, "_helpers"):
            self._helpers: List[Tuple[Relation, List[Tuple[str, ...]]]] = []
        relation = Relation(name, arity)
        self._helpers.append((relation, [tuple(t) for t in tuples]))
        return relation

    def fact(self, formula: rast.Formula) -> None:
        self._facts.append(formula)

    def lookup(self, name: str) -> Sig:
        return self._by_name[name]

    @property
    def sigs(self) -> Sequence[Sig]:
        return self._sigs

    @property
    def fields(self) -> Sequence[Field]:
        return self._fields

    # ------------------------------------------------------------------
    # Partial instances
    # ------------------------------------------------------------------
    def pin(self, field: Field, owner: Sig, value_atoms: Iterable[str]) -> None:
        """Fix ``owner_atom.field`` exactly to ``value_atoms`` in the bounds.

        ``owner`` must be a ``one`` sig (the pin addresses its single atom).
        Multiplicity is validated eagerly so extraction bugs surface here
        rather than as mysterious UNSAT results.
        """
        if not owner.one:
            raise ValueError(f"pin target {owner.name} must be a one-sig")
        values = tuple(value_atoms)
        if field.mult == "one" and len(values) != 1:
            raise ValueError(
                f"field {field.name} has multiplicity one; got {len(values)} values"
            )
        if field.mult == "lone" and len(values) > 1:
            raise ValueError(
                f"field {field.name} has multiplicity lone; got {len(values)} values"
            )
        if field.mult == "some" and not values:
            raise ValueError(f"field {field.name} has multiplicity some; got none")
        self._pins.append(_Pin(field, owner.name, values))

    # ------------------------------------------------------------------
    # Atom assignment and bound generation
    # ------------------------------------------------------------------
    def atoms_of(self, sig: Sig) -> List[str]:
        """All atoms of a sig (own plus descendants').

        After :meth:`build` this includes the anonymous atoms assigned
        there; before, it covers one-sig atoms only.
        """
        built = getattr(self, "_last_atom_sets", None)
        if built is not None and sig in built:
            return list(built[sig])
        collected = list(self._atom_names.get(sig, []))
        for child in sig.children:
            collected.extend(self.atoms_of(child))
        return collected

    @staticmethod
    def field_constraint(fld: Field) -> Optional[rast.Formula]:
        """The implicit multiplicity constraint of a field, or None for
        ``set`` fields.  Quantified over the owner sig, so when the owner's
        membership floats (``float_anon`` builds) the grounding guard makes
        the per-atom constraint conditional on actual membership."""
        if fld.mult == "set":
            return None
        var = rast.Variable(f"__{fld.owner.name}_{fld.name}")
        body = rast.MultiplicityFormula(fld.mult, fld.of(var))
        return rast.all_(var, fld.owner.expr, body)

    def anon_atoms_of(self, sig: Sig) -> List[str]:
        """The anonymous atoms :meth:`build` assigned directly to ``sig``
        (not descendants), in scope order.  Empty before the first build."""
        built = getattr(self, "_last_anon", None)
        if not built:
            return []
        return list(built.get(sig, []))

    def build(
        self,
        extra: Optional[Dict[Sig, int]] = None,
        float_anon: bool = False,
        exclude_fields: Iterable[Field] = (),
    ) -> Tuple[Bounds, rast.Formula]:
        """Produce bounds and the implicit constraint formula.

        ``extra`` assigns additional anonymous atoms to (non-one) sigs: these
        are the free elements the synthesizer may populate -- the postulated
        malicious app, component, and Intent.  Sigs not mentioned get no
        anonymous atoms; their contents come entirely from one-sigs.

        With ``float_anon`` the anonymous atoms' sig membership is *not*
        fixed: they enter only the upper bounds of their sig (and its
        ancestors), becoming primary variables.  This lets one shared
        problem host the anonymous scopes of several goals, each goal
        forcing its own atoms in and the foreign ones out under its
        selector literal (see ``RelationalProblem.add_gated_tuples``).
        The extension-hierarchy invariant (child membership implies parent
        membership), free with exact bounds, is re-asserted as implicit
        formulas for floated atoms.

        ``exclude_fields`` suppresses the implicit multiplicity constraint
        for the given fields; callers re-assert them per goal with
        :meth:`field_constraint` (shared-encoding mode gates each goal's
        own signature fields with its selector).
        """
        extra = extra or {}
        exclude = set(exclude_fields)
        # Assign anonymous atoms.
        anon: Dict[Sig, List[str]] = {}
        for sig, count in extra.items():
            if sig.one:
                raise ValueError(f"cannot add anonymous atoms to one-sig {sig.name}")
            if sig.abstract:
                raise ValueError(
                    f"cannot add anonymous atoms to abstract sig {sig.name}"
                )
            anon[sig] = [f"{sig.name}${i}" for i in range(count)]

        universe = Universe()
        atom_sets: Dict[Sig, List[str]] = {}

        def collect(sig: Sig) -> List[str]:
            atoms = list(self._atom_names.get(sig, []))
            atoms.extend(anon.get(sig, []))
            for child in sig.children:
                atoms.extend(collect(child))
            atom_sets[sig] = atoms
            return atoms

        roots = [s for s in self._sigs if s.parent is None]
        for root in roots:
            for atom in collect(root):
                if atom not in universe:
                    universe.add(atom)
        self._last_atom_sets = atom_sets
        self._last_anon = anon
        anon_atoms = {a for atoms in anon.values() for a in atoms}

        implicit: List[rast.Formula] = []
        bounds = Bounds(universe)
        for sig in self._sigs:
            rows = [(a,) for a in atom_sets[sig]]
            if float_anon:
                fixed = [(a,) for a in atom_sets[sig] if a not in anon_atoms]
                bounds.bound(sig.relation, fixed, rows)
            else:
                bounds.bound_exact(sig.relation, rows)
        if float_anon:
            # child in parent, otherwise implied by the exact bounds.
            for sig in self._sigs:
                if sig.parent is not None and any(
                    a in anon_atoms for a in atom_sets[sig]
                ):
                    implicit.append(sig.expr.in_(sig.parent.expr))

        # Field bounds: pinned rows are exact; remaining rows range freely.
        pins_by_field: Dict[Field, Dict[str, Tuple[str, ...]]] = {}
        for pin in self._pins:
            rows = pins_by_field.setdefault(pin.field, {})
            if pin.owner_atom in rows:
                raise ValueError(
                    f"duplicate pin for {pin.field.name} on {pin.owner_atom}"
                )
            rows[pin.owner_atom] = pin.values

        for fld in self._fields:
            owner_atoms = atom_sets[fld.owner]
            range_atoms = atom_sets[fld.range_sig]
            pinned_rows = pins_by_field.get(fld, {})
            lower: List[Tuple[str, str]] = []
            upper: List[Tuple[str, str]] = []
            free_owner_atoms: List[str] = []
            for owner_atom in owner_atoms:
                if owner_atom in pinned_rows:
                    for value in pinned_rows[owner_atom]:
                        lower.append((owner_atom, value))
                        upper.append((owner_atom, value))
                else:
                    free_owner_atoms.append(owner_atom)
                    for value in range_atoms:
                        upper.append((owner_atom, value))
            bounds.bound(fld.relation, lower, upper)
            # Multiplicity constraints apply only to free rows (pinned rows
            # were validated at pin time); translated cheaply per owner atom.
            if fld.mult != "set" and free_owner_atoms and fld not in exclude:
                implicit.append(self.field_constraint(fld))

        for relation, tuples in getattr(self, "_helpers", ()):
            bounds.bound_exact(relation, tuples)

        # Subset sig bounds: pinned-in atoms form the lower bound; pinned-out
        # atoms are excluded from the upper bound; the rest float.
        for subset in self._subsets:
            parent_atoms = atom_sets[subset.parent]
            lower = [(a,) for a in parent_atoms if subset.pinned.get(a) is True]
            upper = [
                (a,) for a in parent_atoms if subset.pinned.get(a) is not False
            ]
            for atom in subset.pinned:
                if atom not in parent_atoms:
                    raise ValueError(
                        f"pinned atom {atom!r} is not in {subset.parent.name}"
                    )
            bounds.bound(subset.relation, lower, upper)

        return bounds, rast.and_all(implicit + self._facts)

    # ------------------------------------------------------------------
    def solve_problem(
        self,
        goal: rast.Formula = rast.TRUE_F,
        extra: Optional[Dict[Sig, int]] = None,
    ) -> RelationalProblem:
        """Build bounds and return a solver-ready problem for goal ∧ facts."""
        bounds, implicit = self.build(extra)
        return RelationalProblem(bounds, rast.and_all([implicit, goal]))
