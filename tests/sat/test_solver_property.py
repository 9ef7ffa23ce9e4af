"""Property-based tests: ``FastSolver`` agrees with brute force on random CNFs."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sat import FastSolver

MAX_VARS = 6


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=MAX_VARS))
    num_clauses = draw(st.integers(min_value=1, max_value=14))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = []
        for _ in range(width):
            var = draw(st.integers(min_value=1, max_value=num_vars))
            sign = draw(st.booleans())
            clause.append(var if sign else -var)
        clauses.append(clause)
    return num_vars, clauses


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v + 1: bits[v] for v in range(num_vars)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            return model
    return None


@given(random_cnf())
@settings(max_examples=200, deadline=None)
def test_agrees_with_brute_force(problem):
    num_vars, clauses = problem
    expected = brute_force(num_vars, clauses)
    solver = FastSolver()
    solver.add_clauses(clauses)
    result = solver.solve()
    assert result.satisfiable == (expected is not None)
    if result.satisfiable:
        for clause in clauses:
            assert any(result.model[abs(l)] == (l > 0) for l in clause)


@given(random_cnf(), st.lists(st.integers(min_value=1, max_value=MAX_VARS), max_size=3))
@settings(max_examples=150, deadline=None)
def test_assumptions_agree_with_added_units(problem, assumed_vars):
    """solve(assumptions=A) must match solving the formula with A as units."""
    num_vars, clauses = problem
    assumptions = [v for v in assumed_vars if v <= num_vars]
    with_units = clauses + [[a] for a in assumptions]
    expected = brute_force(num_vars, with_units)

    solver = FastSolver()
    solver.add_clauses(clauses)
    result = solver.solve(assumptions=assumptions)
    assert result.satisfiable == (expected is not None)
    # Assumption solving must not poison later unconstrained solves.
    baseline = brute_force(num_vars, clauses)
    assert solver.solve().satisfiable == (baseline is not None)


@given(random_cnf())
@settings(max_examples=60, deadline=None)
def test_enumeration_finds_all_models(problem):
    """Blocking-clause enumeration yields exactly the brute-force model set."""
    num_vars, clauses = problem
    all_models = set()
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v + 1: bits[v] for v in range(num_vars)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            all_models.add(bits)

    solver = FastSolver()
    solver.ensure_var(num_vars)
    solver.add_clauses(clauses)
    found = set()
    for _ in range(2 ** num_vars + 1):
        res = solver.solve()
        if not res.satisfiable:
            break
        bits = tuple(res.model[v + 1] for v in range(num_vars))
        assert bits not in found, "enumeration repeated a model"
        found.add(bits)
        solver.add_clause(
            [(-(v + 1) if res.model[v + 1] else (v + 1)) for v in range(num_vars)]
        )
    assert found == all_models
