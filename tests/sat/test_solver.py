"""Unit tests for the CDCL SAT solver, ``FastSolver``."""

import itertools

import pytest

from repro.sat import BudgetExhausted, FastSolver


def check_model(clauses, model):
    for clause in clauses:
        if not any(model[abs(l)] == (l > 0) for l in clause):
            return False
    return True


def brute_force_sat(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v + 1: bits[v] for v in range(num_vars)}
        if check_model(clauses, model):
            return True
    return False


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert FastSolver().solve().satisfiable

    def test_single_unit(self):
        s = FastSolver()
        s.add_clause([1])
        res = s.solve()
        assert res.satisfiable
        assert res.model[1] is True

    def test_contradictory_units(self):
        s = FastSolver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve().satisfiable

    def test_simple_sat(self):
        s = FastSolver()
        s.add_clauses([[1, 2], [-1, 2], [1, -2]])
        res = s.solve()
        assert res.satisfiable
        assert check_model([[1, 2], [-1, 2], [1, -2]], res.model)

    def test_simple_unsat(self):
        s = FastSolver()
        s.add_clauses([[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert not s.solve().satisfiable

    def test_tautology_ignored(self):
        s = FastSolver()
        s.add_clause([1, -1])
        assert s.solve().satisfiable

    def test_duplicate_literals_merged(self):
        s = FastSolver()
        s.add_clause([1, 1, 1])
        res = s.solve()
        assert res.model[1] is True

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            FastSolver().add_clause([0])

    def test_stats_exposed(self):
        s = FastSolver()
        s.add_clauses([[1, 2], [-1, 3], [-2, 3]])
        res = s.solve()
        assert res.propagations >= 0
        assert res.decisions >= 1


class TestAssumptions:
    def test_sat_under_assumption(self):
        s = FastSolver()
        s.add_clause([1, 2])
        res = s.solve(assumptions=[-1])
        assert res.satisfiable
        assert res.model[2] is True

    def test_unsat_under_assumption_recoverable(self):
        s = FastSolver()
        s.add_clause([1, 2])
        s.add_clause([-2, 1])
        assert not s.solve(assumptions=[-1]).satisfiable
        # Solver remains usable afterwards.
        assert s.solve().satisfiable
        assert s.solve(assumptions=[1]).satisfiable

    def test_conflicting_assumptions(self):
        s = FastSolver()
        s.add_clause([1, 2])
        assert not s.solve(assumptions=[1, -1]).satisfiable

    def test_assumptions_respected_in_model(self):
        s = FastSolver()
        s.add_clauses([[1, 2, 3]])
        res = s.solve(assumptions=[-1, -2])
        assert res.satisfiable
        assert res.model[1] is False
        assert res.model[2] is False
        assert res.model[3] is True

    def test_learned_unit_negating_assumption(self):
        """A conflict under an assumption learns that assumption's negation
        as a level-0 unit: the assumed solve must come back UNSAT, and the
        solver must stay sound for later assumption-free calls."""
        s = FastSolver()
        s.add_clauses([[-1, 2], [-1, -2], [3, 4]])
        assert not s.solve(assumptions=[1]).satisfiable
        # The learned unit -1 is a real consequence of the clauses, so the
        # unassumed formula remains satisfiable and respects it.
        res = s.solve()
        assert res.satisfiable
        assert res.model[1] is False
        assert res.model[3] or res.model[4]
        # Re-assuming the refuted literal still reports UNSAT.
        assert not s.solve(assumptions=[1]).satisfiable
        assert s.solve(assumptions=[-1, 3]).satisfiable


class TestIncremental:
    def test_add_clauses_between_solves(self):
        s = FastSolver()
        s.add_clause([1, 2])
        assert s.solve().satisfiable
        s.add_clause([-1])
        res = s.solve()
        assert res.satisfiable and res.model[2] is True
        s.add_clause([-2])
        assert not s.solve().satisfiable

    def test_blocking_clause_enumeration(self):
        s = FastSolver()
        s.add_clause([1, 2])
        models = []
        while True:
            res = s.solve()
            if not res.satisfiable:
                break
            models.append((res.model[1], res.model[2]))
            block = [(-1 if res.model[1] else 1), (-2 if res.model[2] else 2)]
            s.add_clause(block)
        assert len(models) == 3
        assert (False, False) not in models


class TestPigeonhole:
    """Pigeonhole formulas exercise clause learning on genuinely hard UNSAT."""

    @staticmethod
    def pigeonhole(holes):
        pigeons = holes + 1
        clauses = []

        def v(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            clauses.append([v(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-v(p1, h), -v(p2, h)])
        return clauses

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_unsat(self, holes):
        s = FastSolver()
        s.add_clauses(self.pigeonhole(holes))
        assert not s.solve().satisfiable

    def test_budget_exhaustion(self):
        s = FastSolver()
        s.add_clauses(self.pigeonhole(7))
        with pytest.raises(BudgetExhausted):
            s.solve(conflict_budget=5)

    def test_budget_is_exact(self):
        """A budgeted call raises at exactly the budgeted conflict count,
        never one past it -- callers folding ``exc.conflicts`` into a
        shared budget must not be able to overshoot it."""
        s = FastSolver()
        s.add_clauses(self.pigeonhole(7))
        with pytest.raises(BudgetExhausted) as info:
            s.solve(conflict_budget=5)
        assert info.value.conflicts == 5

    def test_add_clause_after_budget_miss(self):
        """Regression: BudgetExhausted used to leave the trail at a nonzero
        decision level, so the next add_clause raised RuntimeError."""
        s = FastSolver()
        s.add_clauses(self.pigeonhole(7))
        with pytest.raises(BudgetExhausted):
            s.solve(conflict_budget=5)
        assert s.add_clause([1, 2])
        # A level-0 contradiction added post-miss must be honoured.
        s.add_clause([100])
        assert not s.add_clause([-100])
        assert not s.solve().satisfiable

    def test_resume_solving_after_budget_miss(self):
        """A budget miss is a pause, not corruption: retrying with a larger
        budget converges to the right answer on the same solver."""
        s = FastSolver()
        s.add_clauses(self.pigeonhole(5))
        budget = 5
        misses = 0
        result = None
        while result is None:
            try:
                result = s.solve(conflict_budget=budget)
            except BudgetExhausted:
                misses += 1
                budget *= 4
        assert misses >= 1
        assert not result.satisfiable
        # And a satisfiable query on the same solver (new variables bridged
        # by a fresh clause) still completes after the misses.
        s.add_clause([101, 102])
        res = s.solve(assumptions=[-101])
        assert not res.satisfiable  # pigeonhole core is still UNSAT


class TestGraphColoring:
    """3-coloring instances: satisfiable structured problems with models."""

    @staticmethod
    def coloring_clauses(edges, nodes, colors=3):
        def v(n, c):
            return n * colors + c + 1

        clauses = []
        for n in range(nodes):
            clauses.append([v(n, c) for c in range(colors)])
            for c1 in range(colors):
                for c2 in range(c1 + 1, colors):
                    clauses.append([-v(n, c1), -v(n, c2)])
        for a, b in edges:
            for c in range(colors):
                clauses.append([-v(a, c), -v(b, c)])
        return clauses

    def test_cycle_even_2colorable(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        clauses = self.coloring_clauses(edges, 6, colors=2)
        s = FastSolver()
        s.add_clauses(clauses)
        res = s.solve()
        assert res.satisfiable
        assert check_model(clauses, res.model)

    def test_odd_cycle_not_2colorable(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        s = FastSolver()
        s.add_clauses(self.coloring_clauses(edges, 5, colors=2))
        assert not s.solve().satisfiable

    def test_k4_3colorable_fails(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        s = FastSolver()
        s.add_clauses(self.coloring_clauses(edges, 4, colors=3))
        assert not s.solve().satisfiable

    def test_petersen_3colorable(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        edges = outer + inner + spokes
        clauses = self.coloring_clauses(edges, 10, colors=3)
        s = FastSolver()
        s.add_clauses(clauses)
        res = s.solve()
        assert res.satisfiable
        assert check_model(clauses, res.model)
