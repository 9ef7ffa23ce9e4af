"""Kodkod-style translation of bounded relational logic to CNF.

Every relation becomes a sparse boolean adjacency matrix over the universe:
tuples in the lower bound map to the TRUE circuit constant, tuples in the
upper bound but not the lower map to fresh SAT variables (the *primary
variables*), and all other tuples are absent (FALSE).  Expressions are
evaluated to matrices by structural recursion; formulas become boolean
circuits which the Tseitin encoder turns into clauses.

Quantifiers are ground out over the upper bound of their bounding
expression, which is sound and complete within the declared bounds --
exactly the finitization the Alloy Analyzer performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sat import tseitin as ts
from repro.sat.cnf import CNF
from repro.relational import ast as rast
from repro.relational.universe import Bounds, Relation

AtomIndexTuple = Tuple[int, ...]


class Matrix:
    """A sparse boolean matrix: tuple of atom indices -> circuit node.

    Missing entries are FALSE.  TRUE/FALSE constants are folded eagerly by
    the circuit factories, so lower-bound tuples cost nothing downstream.

    ``entries`` is never mutated after construction: every producer builds
    a fresh dict.  That is what makes the leading-atom index sound to
    cache -- it is built the first time the matrix is the right operand
    of a join and reused by every later join.
    """

    __slots__ = ("arity", "entries", "_by_head")

    def __init__(self, arity: int, entries: Dict[AtomIndexTuple, ts.Node]) -> None:
        self.arity = arity
        self.entries = {k: v for k, v in entries.items() if v is not ts.FALSE}
        self._by_head: Optional[
            Dict[int, List[Tuple[AtomIndexTuple, ts.Node]]]
        ] = None

    def get(self, key: AtomIndexTuple) -> ts.Node:
        return self.entries.get(key, ts.FALSE)

    def by_head(self) -> Dict[int, List[Tuple[AtomIndexTuple, ts.Node]]]:
        """Entries grouped by leading atom: ``{atom: [(rest, node), ...]}``."""
        if self._by_head is None:
            index: Dict[int, List[Tuple[AtomIndexTuple, ts.Node]]] = {}
            for key, node in self.entries.items():
                index.setdefault(key[0], []).append((key[1:], node))
            self._by_head = index
        return self._by_head

    def __repr__(self) -> str:
        return f"Matrix(arity={self.arity}, {len(self.entries)} entries)"


@dataclass
class TranslationRecord:
    """Output of :func:`translate`: the CNF plus variable provenance."""

    cnf: CNF
    primary_vars: Dict[Tuple[Relation, Tuple[str, ...]], int]
    trivially_unsat: bool = False

    @property
    def var_to_tuple(self) -> Dict[int, Tuple[Relation, Tuple[str, ...]]]:
        return {v: k for k, v in self.primary_vars.items()}


class Translator:
    """Translates expressions and formulas against fixed bounds."""

    def __init__(self, bounds: Bounds, cnf: Optional[CNF] = None) -> None:
        self.bounds = bounds
        self.universe = bounds.universe
        self.cnf = cnf if cnf is not None else CNF()
        self.encoder = ts.TseitinEncoder(self.cnf)
        self.primary_vars: Dict[Tuple[Relation, Tuple[str, ...]], int] = {}
        self._rel_matrices: Dict[Relation, Matrix] = {}
        self._allocate()

    def _allocate(self) -> None:
        idx = self.universe.index
        for relation in self.bounds.relations:
            lower = self.bounds.lower(relation)
            upper = self.bounds.upper(relation)
            entries: Dict[AtomIndexTuple, ts.Node] = {}
            for tup in sorted(upper):
                key = tuple(idx(a) for a in tup)
                if tup in lower:
                    entries[key] = ts.TRUE
                else:
                    var = self.cnf.new_var()
                    self.primary_vars[(relation, tup)] = var
                    entries[key] = ts.var(var)
            self._rel_matrices[relation] = Matrix(relation.arity, entries)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, expr: rast.Expr, env: Optional[Dict[rast.Variable, int]] = None
    ) -> Matrix:
        env = env or {}
        return self._eval(expr, env)

    def _eval(self, expr: rast.Expr, env: Dict[rast.Variable, int]) -> Matrix:
        if isinstance(expr, rast.RelationExpr):
            if expr.relation not in self._rel_matrices:
                raise KeyError(f"relation {expr.relation.name} has no bounds")
            return self._rel_matrices[expr.relation]
        if isinstance(expr, rast.Variable):
            if expr not in env:
                raise KeyError(f"unbound variable {expr.name}")
            return Matrix(1, {(env[expr],): ts.TRUE})
        if isinstance(expr, rast.ConstantExpr):
            return self._eval_constant(expr)
        if isinstance(expr, rast.BinaryExpr):
            return self._eval_binary(expr, env)
        if isinstance(expr, rast.JoinExpr):
            return self._join(self._eval(expr.left, env), self._eval(expr.right, env))
        if isinstance(expr, rast.ProductExpr):
            return self._product(
                self._eval(expr.left, env), self._eval(expr.right, env)
            )
        if isinstance(expr, rast.UnaryExpr):
            return self._eval_unary(expr, env)
        if isinstance(expr, rast.IfExpr):
            cond = self.translate_formula(expr.condition, env)
            then = self._eval(expr.then, env)
            else_ = self._eval(expr.else_, env)
            keys = set(then.entries) | set(else_.entries)
            entries = {
                k: ts.or_(
                    ts.and_(cond, then.get(k)), ts.and_(ts.not_(cond), else_.get(k))
                )
                for k in keys
            }
            return Matrix(then.arity, entries)
        raise TypeError(f"unknown expression type {type(expr).__name__}")

    def _eval_constant(self, expr: rast.ConstantExpr) -> Matrix:
        n = len(self.universe)
        if expr.kind == "none":
            return Matrix(1, {})
        if expr.kind == "univ":
            return Matrix(1, {(i,): ts.TRUE for i in range(n)})
        return Matrix(2, {(i, i): ts.TRUE for i in range(n)})

    def _eval_binary(
        self, expr: rast.BinaryExpr, env: Dict[rast.Variable, int]
    ) -> Matrix:
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if expr.op == "union":
            keys = set(left.entries) | set(right.entries)
            return Matrix(
                left.arity, {k: ts.or_(left.get(k), right.get(k)) for k in keys}
            )
        if expr.op == "intersection":
            keys = set(left.entries) & set(right.entries)
            return Matrix(
                left.arity, {k: ts.and_(left.get(k), right.get(k)) for k in keys}
            )
        # difference
        return Matrix(
            left.arity,
            {
                k: ts.and_(v, ts.not_(right.get(k)))
                for k, v in left.entries.items()
            },
        )

    def _join(self, left: Matrix, right: Matrix) -> Matrix:
        arity = left.arity + right.arity - 2
        by_head = right.by_head()
        combined: Dict[AtomIndexTuple, List[ts.Node]] = {}
        for lkey, lnode in left.entries.items():
            tail = lkey[-1]
            for rrest, rnode in by_head.get(tail, ()):
                combined.setdefault(lkey[:-1] + rrest, []).append(
                    ts.and_(lnode, rnode)
                )
        return Matrix(arity, {k: ts.or_(*v) for k, v in combined.items()})

    def _product(self, left: Matrix, right: Matrix) -> Matrix:
        entries = {
            lk + rk: ts.and_(lv, rv)
            for lk, lv in left.entries.items()
            for rk, rv in right.entries.items()
        }
        return Matrix(left.arity + right.arity, entries)

    def _eval_unary(
        self, expr: rast.UnaryExpr, env: Dict[rast.Variable, int]
    ) -> Matrix:
        operand = self._eval(expr.operand, env)
        if expr.op == "transpose":
            return Matrix(2, {(b, a): v for (a, b), v in operand.entries.items()})
        closure = self._closure(operand)
        if expr.op == "closure":
            return closure
        # reflexive closure: add the identity
        entries = dict(closure.entries)
        for i in range(len(self.universe)):
            entries[(i, i)] = ts.TRUE
        return Matrix(2, entries)

    def _closure(self, matrix: Matrix) -> Matrix:
        """Transitive closure by iterated squaring."""
        result = matrix
        span = 1
        n = max(len(self.universe), 2)
        while span < n:
            squared = self._join(result, result)
            keys = set(result.entries) | set(squared.entries)
            result = Matrix(
                2, {k: ts.or_(result.get(k), squared.get(k)) for k in keys}
            )
            span *= 2
        return result

    # ------------------------------------------------------------------
    # Formula translation
    # ------------------------------------------------------------------
    def translate_formula(
        self, formula: rast.Formula, env: Optional[Dict[rast.Variable, int]] = None
    ) -> ts.Node:
        env = env or {}
        return self._formula(formula, env)

    def _formula(self, formula: rast.Formula, env: Dict[rast.Variable, int]) -> ts.Node:
        if isinstance(formula, rast.TrueFormula):
            return ts.TRUE
        if isinstance(formula, rast.FalseFormula):
            return ts.FALSE
        if isinstance(formula, rast.NotFormula):
            return ts.not_(self._formula(formula.operand, env))
        if isinstance(formula, rast.NaryFormula):
            nodes = [self._formula(f, env) for f in formula.operands]
            return ts.and_(*nodes) if formula.op == "and" else ts.or_(*nodes)
        if isinstance(formula, rast.ComparisonFormula):
            return self._comparison(formula, env)
        if isinstance(formula, rast.MultiplicityFormula):
            matrix = self._eval(formula.expr, env)
            return self._multiplicity(formula.mult, list(matrix.entries.values()))
        if isinstance(formula, rast.QuantifiedFormula):
            return self._quantified(formula, env)
        raise TypeError(f"unknown formula type {type(formula).__name__}")

    def _comparison(
        self, formula: rast.ComparisonFormula, env: Dict[rast.Variable, int]
    ) -> ts.Node:
        left = self._eval(formula.left, env)
        right = self._eval(formula.right, env)
        subset = ts.all_of(
            ts.implies(v, right.get(k)) for k, v in left.entries.items()
        )
        if formula.op == "subset":
            return subset
        superset = ts.all_of(
            ts.implies(v, left.get(k)) for k, v in right.entries.items()
        )
        return ts.and_(subset, superset)

    def _multiplicity(self, mult: str, nodes: List[ts.Node]) -> ts.Node:
        if mult == "some":
            return ts.any_of(nodes)
        if mult == "no":
            return ts.not_(ts.any_of(nodes))
        at_most_one = self._at_most_one(nodes)
        if mult == "lone":
            return at_most_one
        return ts.and_(ts.any_of(nodes), at_most_one)  # one

    @staticmethod
    def _at_most_one(nodes: List[ts.Node]) -> ts.Node:
        """Sequential (ladder) at-most-one circuit of linear size.

        Each operand may not hold together with the prefix, the
        disjunction of the operands before it (Sinz's sequential
        counter).  The prefix then grows by one binary ``or`` node over
        the previous prefix and the operand, built directly rather than
        through :func:`ts.or_`: ``or_`` flattens its operands, which
        would make prefix *k* a fresh *k*-ary node with *k* + 1
        definition clauses, quadratic over the ladder.  A TRUE operand
        makes the prefix TRUE and a repeated operand leaves it as it
        is.  Each operand thus adds its pairwise constraint and at most
        one prefix node of three definition clauses.
        """
        live = [n for n in nodes if n is not ts.FALSE]
        if len(live) <= 1:
            return ts.TRUE
        constraints: List[ts.Node] = []
        prefix = live[0]
        seen = {prefix}
        for node in live[1:]:
            constraints.append(ts.not_(ts.and_(prefix, node)))
            if prefix is ts.TRUE or node in seen:
                continue
            seen.add(node)
            prefix = ts.TRUE if node is ts.TRUE else ts.Node("or", (prefix, node))
        return ts.all_of(constraints)

    def _quantified(
        self, formula: rast.QuantifiedFormula, env: Dict[rast.Variable, int]
    ) -> ts.Node:
        bound = self._eval(formula.bound, env)
        memberships: List[Tuple[int, ts.Node]] = [
            (key[0], node) for key, node in bound.entries.items()
        ]
        bodies: List[Tuple[ts.Node, ts.Node]] = []
        for atom_idx, member in memberships:
            child_env = dict(env)
            child_env[formula.variable] = atom_idx
            bodies.append((member, self._formula(formula.body, child_env)))
        if formula.quant == "all":
            return ts.all_of(ts.implies(m, b) for m, b in bodies)
        if formula.quant == "some":
            return ts.any_of(ts.and_(m, b) for m, b in bodies)
        if formula.quant == "no":
            return ts.not_(ts.any_of(ts.and_(m, b) for m, b in bodies))
        holds = [ts.and_(m, b) for m, b in bodies]
        at_most = self._at_most_one(holds)
        if formula.quant == "lone":
            return at_most
        return ts.and_(ts.any_of(holds), at_most)  # one

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def assert_formula(self, formula: rast.Formula) -> bool:
        """Translate ``formula`` and assert it into the CNF.

        Returns False when the formula folds to the FALSE constant under the
        given bounds (trivially unsatisfiable).
        """
        node = self._formula(formula, {})
        return self.encoder.assert_node(node)

    def assert_formula_gated(
        self,
        formula: rast.Formula,
        selector: int,
        mask: Optional[List[Tuple[Relation, Tuple[str, ...]]]] = None,
    ) -> bool:
        """Translate ``formula`` and assert it guarded by ``selector``.

        Clauses are emitted as ``selector -> formula``: the constraint only
        binds when ``selector`` is assumed true, so many mutually exclusive
        formula groups can share one CNF (and one solver).  Tseitin
        definitions are shared, unguarded, with previously translated
        formulas.  Returns False when the formula folds to FALSE, in which
        case the selector can never be activated.

        ``mask`` lists ``(relation, tuple)`` rows to treat as the FALSE
        constant during this translation only.  Sound whenever other
        clauses already force those rows false under the selector: the
        constant folds away every subtree the rows appear in, so a gated
        group costs no more than a standalone translation over the
        smaller universe it actually uses.
        """
        if mask:
            idx = self.universe.index
            masked: Dict[Relation, set] = {}
            for relation, tup in mask:
                masked.setdefault(relation, set()).add(
                    tuple(idx(a) for a in tup)
                )
            saved = self._rel_matrices
            self._rel_matrices = {
                rel: (
                    Matrix(
                        m.arity,
                        {
                            k: v
                            for k, v in m.entries.items()
                            if k not in masked[rel]
                        },
                    )
                    if rel in masked
                    else m
                )
                for rel, m in saved.items()
            }
            try:
                node = self._formula(formula, {})
            finally:
                self._rel_matrices = saved
        else:
            node = self._formula(formula, {})
        return self.encoder.assert_node_gated(node, selector)


def translate(bounds: Bounds, formula: rast.Formula) -> TranslationRecord:
    """One-shot translation of a formula under bounds to CNF."""
    translator = Translator(bounds)
    ok = translator.assert_formula(formula)
    return TranslationRecord(
        cnf=translator.cnf,
        primary_vars=translator.primary_vars,
        trivially_unsat=not ok,
    )
