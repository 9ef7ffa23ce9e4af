"""Tests for boolean circuits and the Tseitin encoder."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sat import CNF, FastSolver
from repro.sat import tseitin as ts
from tests.relational.test_encoding_identity import (
    reference_and,
    reference_or,
)


class TestFolding:
    def test_constants(self):
        assert ts.and_() is ts.TRUE
        assert ts.or_() is ts.FALSE
        assert ts.not_(ts.TRUE) is ts.FALSE
        assert ts.not_(ts.FALSE) is ts.TRUE

    def test_double_negation(self):
        v = ts.var(1)
        assert ts.not_(ts.not_(v)) is v

    def test_and_short_circuit(self):
        v = ts.var(1)
        assert ts.and_(v, ts.FALSE) is ts.FALSE
        assert ts.and_(v, ts.TRUE) == v

    def test_or_short_circuit(self):
        v = ts.var(1)
        assert ts.or_(v, ts.TRUE) is ts.TRUE
        assert ts.or_(v, ts.FALSE) == v

    def test_complementary_literals(self):
        v = ts.var(1)
        assert ts.and_(v, ts.not_(v)) is ts.FALSE
        assert ts.or_(v, ts.not_(v)) is ts.TRUE

    def test_flattening(self):
        a, b, c = ts.var(1), ts.var(2), ts.var(3)
        node = ts.and_(ts.and_(a, b), c)
        assert node.kind == "and"
        assert len(node.children) == 3

    def test_idempotence(self):
        a = ts.var(1)
        assert ts.and_(a, a) == a
        assert ts.or_(a, a) == a

    def test_hash_consing_var(self):
        assert ts.var(5) is ts.var(5)

    def test_implies_iff(self):
        a, b = ts.var(1), ts.var(2)
        model_tt = {1: True, 2: True}
        model_tf = {1: True, 2: False}
        assert ts.evaluate(ts.implies(a, b), model_tt)
        assert not ts.evaluate(ts.implies(a, b), model_tf)
        assert ts.evaluate(ts.iff(a, b), model_tt)
        assert not ts.evaluate(ts.iff(a, b), model_tf)


@st.composite
def circuits(draw, max_var=4, depth=4):
    if depth == 0:
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return ts.TRUE
        if choice == 1:
            return ts.FALSE
        return ts.var(draw(st.integers(min_value=1, max_value=max_var)))
    kind = draw(st.sampled_from(["var", "not", "and", "or", "ite"]))
    if kind == "var":
        return ts.var(draw(st.integers(min_value=1, max_value=max_var)))
    if kind == "not":
        return ts.not_(draw(circuits(max_var=max_var, depth=depth - 1)))
    if kind == "ite":
        c = draw(circuits(max_var=max_var, depth=depth - 1))
        t = draw(circuits(max_var=max_var, depth=depth - 1))
        e = draw(circuits(max_var=max_var, depth=depth - 1))
        return ts.ite(c, t, e)
    arity = draw(st.integers(min_value=2, max_value=3))
    children = [draw(circuits(max_var=max_var, depth=depth - 1)) for _ in range(arity)]
    return ts.and_(*children) if kind == "and" else ts.or_(*children)


MAX_VAR = 4


@given(circuits(max_var=MAX_VAR))
@settings(max_examples=200, deadline=None)
def test_tseitin_equisatisfiable(circuit):
    """assert_node(circuit) is satisfiable iff some input assignment makes
    the circuit true, and the found model's projection satisfies it."""
    truth_sat = any(
        ts.evaluate(circuit, {v + 1: bits[v] for v in range(MAX_VAR)})
        for bits in itertools.product([False, True], repeat=MAX_VAR)
    )
    cnf = CNF(MAX_VAR)
    enc = ts.TseitinEncoder(cnf)
    enc.assert_node(circuit)
    solver = FastSolver()
    solver.ensure_var(MAX_VAR)
    solver.add_clauses(cnf.clauses)
    result = solver.solve()
    assert result.satisfiable == truth_sat
    if result.satisfiable:
        projection = {v: result.model[v] for v in range(1, MAX_VAR + 1)}
        assert ts.evaluate(circuit, projection)


@given(circuits(max_var=MAX_VAR), circuits(max_var=MAX_VAR))
@settings(max_examples=100, deadline=None)
def test_shared_subterms_single_aux(c1, c2):
    """Encoding the same node twice must not duplicate auxiliary variables."""
    cnf = CNF(MAX_VAR)
    enc = ts.TseitinEncoder(cnf)
    combined = ts.and_(ts.or_(c1, c2), ts.or_(c1, c2))
    before = cnf.num_vars
    enc.assert_node(combined)
    first_aux = cnf.num_vars
    enc.assert_node(combined)
    assert cnf.num_vars == first_aux or cnf.num_vars == before


@st.composite
def operand_lists(draw):
    """Factory operands mixing constants, duplicates (shared and equal
    copies), complements and nested same-kind nodes."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        move = draw(
            st.sampled_from(
                [
                    "circuit",
                    "true",
                    "false",
                    "duplicate",
                    "copy",
                    "complement",
                    "nested_and",
                    "nested_or",
                ]
            )
        )
        if move == "true":
            ops.append(ts.TRUE)
        elif move == "false":
            ops.append(ts.FALSE)
        elif move == "circuit" or not ops:
            ops.append(draw(circuits(max_var=MAX_VAR, depth=2)))
        else:
            earlier = draw(st.sampled_from(ops))
            if move == "duplicate":
                ops.append(earlier)
            elif move == "copy":
                constant = earlier is ts.TRUE or earlier is ts.FALSE
                ops.append(
                    earlier
                    if constant
                    else ts.Node(earlier.kind, earlier.children)
                )
            elif move == "complement":
                ops.append(ts.not_(earlier))
            else:
                factory = ts.and_ if move == "nested_and" else ts.or_
                other = draw(circuits(max_var=MAX_VAR, depth=2))
                ops.append(factory(earlier, other))
    return ops


@given(operand_lists())
@settings(max_examples=300, deadline=None)
def test_factories_match_reference(ops):
    """``and_``/``or_`` fold exactly as the ``_flatten``-based reference:
    an equal node (so Tseitin numbering is unchanged), and the very
    constant object when the result folds to one."""
    for factory, reference in (
        (ts.and_, reference_and),
        (ts.or_, reference_or),
    ):
        got = factory(*ops)
        want = reference(*ops)
        assert got == want
        if want is ts.TRUE or want is ts.FALSE:
            assert got is want
