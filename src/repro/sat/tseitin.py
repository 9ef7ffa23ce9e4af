"""Boolean circuits and Tseitin transformation to CNF.

The relational translator builds large and/or/not circuits over matrix
entries; this module gives those circuits a structural representation and a
polynomial-size conversion to clauses.  Constants are folded eagerly so the
translator can freely combine bound-derived ``TRUE``/``FALSE`` entries with
real variables without blowing up the clause database.

Nodes are not hash-consed.  Each computes its structural hash once, when
built, and two nodes are equal when their kind and children are equal, so
the same sub-circuit built twice is two equal objects.  The
:class:`TseitinEncoder` cache is keyed by that equality, so both still get
one auxiliary variable.  Only the constants and variable nodes are shared
objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sat.cnf import CNF


class Node:
    """A node in a boolean circuit; use the module factories to build them.

    The one exception is a chain that must not be flattened (see
    :func:`_fold`): ``Translator._at_most_one`` builds its binary prefix
    nodes directly.
    """

    __slots__ = ("kind", "children", "_hash")

    def __init__(self, kind: str, children: Tuple) -> None:
        self.kind = kind
        self.children = children
        self._hash = hash((kind, children))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Node)
            and self.kind == other.kind
            and self.children == other.children
        )

    def __repr__(self) -> str:
        if self.kind == "var":
            return f"v{self.children[0]}"
        if self.kind in ("true", "false"):
            return self.kind.upper()
        return f"{self.kind}({', '.join(map(repr, self.children))})"


TRUE = Node("true", ())
FALSE = Node("false", ())

_VAR_CACHE: Dict[int, Node] = {}


def var(index: int) -> Node:
    """A literal node for SAT variable ``index`` (positive integer)."""
    if index < 1:
        raise ValueError("variables are positive integers")
    node = _VAR_CACHE.get(index)
    if node is None:
        node = Node("var", (index,))
        _VAR_CACHE[index] = node
    return node


def not_(operand: Node) -> Node:
    if operand is TRUE:
        return FALSE
    if operand is FALSE:
        return TRUE
    if operand.kind == "not":
        return operand.children[0]
    return Node("not", (operand,))


def _fold(
    kind: str, operands: Tuple[Node, ...], absorbing: Node, identity: Node
) -> Node:
    """Build an ``and``/``or`` node, folding constants and redundancy.

    Same-kind operands are flattened one level; an ``absorbing`` constant
    (or a complementary pair) decides the result, ``identity`` constants
    and duplicates drop out.  Complements are found without building a
    ``not`` node per operand: a ``not`` operand complements a kept child,
    and any other operand complements the child of a kept ``not``.

    A lone operand, or one beside ``identity``, is returned as is:
    factory-built nodes are already folded, so rebuilding it would give
    an equal node (and the Tseitin cache, keyed by equality, the same
    variable).

    Flattening is what gives equal disjunctions (and conjunctions) one
    Tseitin variable, but it makes a running accumulator quadratic:
    ``acc = or_(acc, x)`` rebuilds every earlier operand into a fresh
    *k*-ary node, each with its own variable and *k* + 1 definition
    clauses.  Build such a chain from binary nodes instead, as
    ``Translator._at_most_one`` does for its prefixes.
    """
    if len(operands) == 1:
        return operands[0]
    if len(operands) == 2:
        first, second = operands
        if first is identity:
            return second
        if second is identity:
            return first
    ops: List[Node] = []
    for operand in operands:
        if operand.kind == kind:
            ops.extend(operand.children)
        else:
            ops.append(operand)
    kept: List[Node] = []
    seen = set()
    negated = set()  # children of kept ``not`` operands
    for op in ops:
        if op is absorbing:
            return absorbing
        if op is identity or op in seen:
            continue
        if op.kind == "not":
            child = op.children[0]
            if child in seen:
                return absorbing
            negated.add(child)
        elif negated and op in negated:
            return absorbing
        seen.add(op)
        kept.append(op)
    if not kept:
        return identity
    if len(kept) == 1:
        return kept[0]
    return Node(kind, tuple(kept))


def and_(*operands: Node) -> Node:
    return _fold("and", operands, FALSE, TRUE)


def or_(*operands: Node) -> Node:
    return _fold("or", operands, TRUE, FALSE)


def implies(premise: Node, conclusion: Node) -> Node:
    return or_(not_(premise), conclusion)


def iff(left: Node, right: Node) -> Node:
    return and_(implies(left, right), implies(right, left))


def ite(cond: Node, then: Node, else_: Node) -> Node:
    return or_(and_(cond, then), and_(not_(cond), else_))


def all_of(operands: Iterable[Node]) -> Node:
    return and_(*list(operands))


def any_of(operands: Iterable[Node]) -> Node:
    return or_(*list(operands))


class TseitinEncoder:
    """Converts circuit nodes into CNF clauses over a shared :class:`CNF`.

    Each distinct sub-circuit gets one auxiliary variable (memoised), so
    shared subterms are encoded once.
    """

    def __init__(self, cnf: CNF) -> None:
        self._cnf = cnf
        self._cache: Dict[Node, int] = {}
        self._false_var: Optional[int] = None

    def literal(self, node: Node) -> int:
        """Return a SAT literal equisatisfiably representing ``node``.

        Constants are not representable as bare literals; callers should
        special-case :data:`TRUE` and :data:`FALSE` (``assert_node`` does).
        """
        if node is TRUE or node is FALSE:
            raise ValueError("constant node has no literal; fold it earlier")
        if node.kind == "var":
            return node.children[0]
        if node.kind == "not":
            return -self.literal(node.children[0])
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        child_lits = [self.literal(child) for child in node.children]
        aux = self._cnf.new_var()
        if node.kind == "and":
            for lit in child_lits:
                self._cnf.add_clause((-aux, lit))
            self._cnf.add_clause(tuple([aux] + [-lit for lit in child_lits]))
        elif node.kind == "or":
            for lit in child_lits:
                self._cnf.add_clause((-lit, aux))
            self._cnf.add_clause(tuple([-aux] + child_lits))
        else:  # pragma: no cover - factories only build the kinds above
            raise ValueError(f"unknown node kind {node.kind!r}")
        self._cache[node] = aux
        return aux

    def assert_node(self, node: Node) -> bool:
        """Add clauses forcing ``node`` true.

        Returns False when the node is the FALSE constant (formula
        trivially unsatisfiable), True otherwise.  Top-level conjunctions
        are split into separate asserted conjuncts to keep clauses small.
        """
        if node is TRUE:
            return True
        if node is FALSE:
            if self._false_var is None:
                self._false_var = self._cnf.new_var()
                self._cnf.add_clause((self._false_var,))
                self._cnf.add_clause((-self._false_var,))
            return False
        if node.kind == "and":
            ok = True
            for child in node.children:
                ok = self.assert_node(child) and ok
            return ok
        if node.kind == "or":
            lits = []
            for child in node.children:
                lits.append(self.literal(child))
            self._cnf.add_clause(tuple(lits))
            return True
        self._cnf.add_clause((self.literal(node),))
        return True

    def assert_node_gated(self, node: Node, selector: int) -> bool:
        """Add clauses forcing ``node`` true whenever ``selector`` is true.

        Every *assertion* clause is guarded by ``-selector``; definitional
        (Tseitin auxiliary) clauses emitted by :meth:`literal` stay unguarded
        because they are equivalences, satisfiable under any assignment, and
        this keeps them shareable across gated groups.  Returns False when
        the node is the FALSE constant -- the group is unsatisfiable and the
        emitted unit ``(-selector)`` forbids ever activating it.
        """
        if node is TRUE:
            return True
        if node is FALSE:
            self._cnf.add_clause((-selector,))
            return False
        if node.kind == "and":
            ok = True
            for child in node.children:
                ok = self.assert_node_gated(child, selector) and ok
            return ok
        if node.kind == "or":
            lits = [-selector]
            for child in node.children:
                lits.append(self.literal(child))
            self._cnf.add_clause(tuple(lits))
            return True
        self._cnf.add_clause((-selector, self.literal(node)))
        return True


def evaluate(node: Node, model: Dict[int, bool]) -> bool:
    """Evaluate a circuit under a total assignment (used in tests)."""
    if node is TRUE:
        return True
    if node is FALSE:
        return False
    if node.kind == "var":
        return model[node.children[0]]
    if node.kind == "not":
        return not evaluate(node.children[0], model)
    if node.kind == "and":
        return all(evaluate(child, model) for child in node.children)
    if node.kind == "or":
        return any(evaluate(child, model) for child in node.children)
    raise ValueError(f"unknown node kind {node.kind!r}")
