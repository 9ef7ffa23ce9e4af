"""Edge cases for the multi-query :class:`RelationalProblem` API.

The shared-encoding engine drives one problem through many gated
queries: selectors from :meth:`add_gated_formula`, assumption-scoped
``solve``/``solutions``/``minimal_solutions``, gated ``block`` clauses,
and conflict budgets re-armed between query groups.  These tests pin the
corner cases that surface only in that regime: empty primary sets,
blocking after a budget miss, and limits interacting with assumptions.
"""

import pytest

from repro.relational import Bounds, Relation, RelationalProblem, Universe
from repro.relational import ast as rast
from repro.sat import BudgetExhausted


def make_free_unary(atoms, name="r"):
    universe = Universe(atoms)
    bounds = Bounds(universe)
    r = Relation(name, 1)
    bounds.bound(r, [], [(a,) for a in atoms])
    return universe, bounds, r


class TestEmptyPrimarySet:
    """A problem whose relations are all fixed has no primary variables;
    every query path must terminate, not loop on an unblockable model."""

    def _fixed_problem(self, formula=rast.TRUE_F):
        universe = Universe(["a"])
        bounds = Bounds(universe)
        r = Relation("r", 1)
        bounds.bound_exact(r, [("a",)])
        return RelationalProblem(bounds, formula), r

    def test_solutions_yield_exactly_one(self):
        problem, r = self._fixed_problem()
        found = list(problem.solutions())
        assert len(found) == 1
        assert found[0].tuples(r) == {("a",)}

    def test_minimal_solutions_yield_exactly_one(self):
        problem, _ = self._fixed_problem()
        assert len(list(problem.minimal_solutions())) == 1

    def test_solutions_with_assumptions_and_gate(self):
        problem, _ = self._fixed_problem()
        selector = problem.add_gated_formula(rast.TRUE_F)
        found = list(
            problem.solutions(assumptions=[selector], gate=selector)
        )
        assert len(found) == 1

    def test_block_of_only_fixed_tuples_reports_exhaustion(self):
        problem, r = self._fixed_problem()
        assert problem.block([(r, ("a",))]) is False

    def test_minimal_solutions_empty_instance_terminates(self):
        _, bounds, r = make_free_unary(["a", "b"])
        problem = RelationalProblem(bounds, rast.TRUE_F)
        found = list(problem.minimal_solutions())
        # The canonical minimum is the empty instance, which subsumes
        # every other model: enumeration stops after yielding it.
        assert len(found) == 1
        assert found[0].tuples(r) == set()


class TestBudgetMiss:
    def _permutation_problem(self):
        """A SAT instance with structure: m is a bijection on 4 atoms."""
        atoms = [f"a{i}" for i in range(4)]
        universe = Universe(atoms)
        bounds = Bounds(universe)
        m = Relation("m", 2)
        rows = [(x, y) for x in atoms for y in atoms]
        bounds.bound(m, [], rows)
        dom = Relation("dom", 1)
        bounds.bound_exact(dom, [(a,) for a in atoms])
        x = rast.Variable("x")
        expr = m.to_expr()
        formula = rast.all_(
            x, dom.to_expr(), rast.one(x.join(expr))
        ) & rast.all_(x, dom.to_expr(), rast.one(expr.join(x)))
        return bounds, m, formula

    def test_budget_miss_raises_and_rearming_recovers(self):
        bounds, m, formula = self._permutation_problem()
        problem = RelationalProblem(bounds, formula)
        # A zero budget is exhausted before the first solve even starts.
        problem.conflict_budget = 0
        with pytest.raises(BudgetExhausted):
            for _ in problem.minimal_solutions():
                pass
        # Re-arm the budget (the engine's per-signature window pattern):
        # the same problem object finishes the query exactly.
        problem.conflict_budget = problem.stats.conflicts + 1_000_000
        instance = problem.minimal_solution()
        assert instance is not None
        assert len(instance.tuples(m)) == 4

    def test_blocking_still_works_after_budget_miss(self):
        bounds, m, formula = self._permutation_problem()
        problem = RelationalProblem(bounds, formula)
        problem.conflict_budget = 0
        with pytest.raises(BudgetExhausted):
            problem.minimal_solution()
        problem.conflict_budget = problem.stats.conflicts + 1_000_000
        first = problem.minimal_solution()
        assert problem.block([(m, tup) for tup in sorted(first.tuples(m))])
        second = problem.minimal_solution()
        assert second is not None
        assert second.tuples(m) != first.tuples(m)

    def test_budget_accounting_is_cumulative(self):
        bounds, _, formula = self._permutation_problem()
        problem = RelationalProblem(bounds, formula)
        problem.conflict_budget = 0
        with pytest.raises(BudgetExhausted):
            problem.minimal_solution()
        # Without re-arming, the spent budget keeps the problem closed.
        with pytest.raises(BudgetExhausted):
            problem.minimal_solution()


class TestLimitsWithAssumptions:
    def test_limit_respected_under_assumptions(self):
        _, bounds, r = make_free_unary(["a", "b", "c"])
        problem = RelationalProblem(bounds, rast.TRUE_F)
        selector = problem.add_gated_formula(rast.some(r.to_expr()))
        found = list(
            problem.solutions(
                limit=2, assumptions=[selector], gate=selector
            )
        )
        assert len(found) == 2
        for instance in found:
            assert len(instance.tuples(r)) >= 1

    def test_gated_blocking_does_not_leak_across_groups(self):
        _, bounds, r = make_free_unary(["a", "b", "c"])
        problem = RelationalProblem(bounds, rast.TRUE_F)
        sel_some = problem.add_gated_formula(rast.some(r.to_expr()))
        sel_all = problem.add_gated_formula(rast.TRUE_F)
        # Exhaust the `some` group completely (7 non-empty subsets)...
        exhausted = list(
            problem.solutions(assumptions=[sel_some], gate=sel_some)
        )
        assert len(exhausted) == 7
        # ...the other group still sees its full model space (8 subsets).
        remaining = list(
            problem.solutions(assumptions=[sel_all, -sel_some], gate=sel_all)
        )
        assert len(remaining) == 8

    def test_mutually_exclusive_selectors(self):
        _, bounds, r = make_free_unary(["a", "b"])
        problem = RelationalProblem(bounds, rast.TRUE_F)
        sel_some = problem.add_gated_formula(rast.some(r.to_expr()))
        sel_none = problem.add_gated_formula(rast.no(r.to_expr()))
        with_some = problem.solve(assumptions=[sel_some, -sel_none])
        assert with_some is not None and len(with_some.tuples(r)) >= 1
        with_none = problem.solve(assumptions=[sel_none, -sel_some])
        assert with_none is not None and with_none.tuples(r) == set()
        # Both at once is a contradiction -- and it must not poison the
        # solver for the next query.
        assert problem.solve(assumptions=[sel_some, sel_none]) is None
        assert problem.solve(assumptions=[sel_some, -sel_none]) is not None

    def test_minimal_solutions_limit_under_assumptions(self):
        _, bounds, r = make_free_unary(["a", "b", "c"])
        problem = RelationalProblem(bounds, rast.TRUE_F)
        selector = problem.add_gated_formula(rast.some(r.to_expr()))
        found = list(
            problem.minimal_solutions(
                limit=2, assumptions=[selector], gate=selector
            )
        )
        # Minimal models under `some r` are the three singletons; the
        # limit cuts the canonical enumeration to the first two.
        assert len(found) == 2
        for instance in found:
            assert len(instance.tuples(r)) == 1
