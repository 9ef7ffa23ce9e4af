"""Self-tests of the RUP proof checker in ``tests/rup.py``.

The checker stands in for a second solver: the fuzz, differential
synthesis and service suites trust ``FastSolver``'s answers because
:class:`CheckedSolver` checks them.  These tests show that it accepts a
real refutation and rejects each kind of claim its clauses do not back.
"""

import pytest

from repro.sat import BudgetExhausted, FastSolver, Model, SolveResult
from tests.rup import CheckedSolver, ProofError, RupChecker


def pigeonhole(holes):
    """``holes + 1`` pigeons into ``holes`` holes: UNSAT, and only by
    many conflicts."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def checked(clauses):
    solver = CheckedSolver()
    solver.add_clauses(clauses)
    return solver


class TestAccepts:
    def test_pigeonhole_5_refutation(self):
        solver = checked(pigeonhole(5))
        assert not solver.solve().satisfiable
        assert solver.checks["lemmas"] > 100  # every one of them RUP-checked
        assert solver.checks["unsat"] == 1

    def test_models_and_assumption_refutations(self):
        solver = checked([[1, 2], [-1, 3], [-2, 3], [-3, 4, 5]])
        assert solver.solve().satisfiable
        assert not solver.solve(assumptions=[-3]).satisfiable
        assert solver.solve(assumptions=[3, -4]).satisfiable
        assert (solver.checks["models"], solver.checks["unsat"]) == (2, 1)

    def test_clause_deletions_are_ignored(self):
        # Enough conflicts for reduce_db to delete learned clauses: the
        # checker keeps checking against everything ever recorded.
        solver = checked(pigeonhole(6))
        with pytest.raises(BudgetExhausted):
            solver.solve(conflict_budget=600)
        assert solver.checks["lemmas"] == 599
        assert solver.num_learnt < 599


class TestRejects:
    def test_lemma_the_clauses_do_not_imply(self):
        proof = RupChecker()
        for clause in ([1, 2], [-1, 3], [-2, 3]):
            proof.add(clause)
        assert proof.conflicts([-3])  # [3] is RUP
        assert not proof.conflicts([-4])  # [4] is not
        assert not proof.conflicts([1, 2])  # nor is [-1, -2]

    def test_learned_clause_missing_a_literal(self, monkeypatch):
        analyze = FastSolver._analyze

        def drop_a_literal(self, conflict):
            learnt, back_level, lbd = analyze(self, conflict)
            if len(learnt) >= 3:
                learnt = learnt[:-1]
            return learnt, back_level, lbd

        monkeypatch.setattr(FastSolver, "_analyze", drop_a_literal)
        with pytest.raises(ProofError, match="not RUP"):
            checked(pigeonhole(5)).solve()

    def test_unsat_claim_for_satisfiable_assumptions(self, monkeypatch):
        solver = checked([[1, 2], [-1, 3]])
        monkeypatch.setattr(
            FastSolver, "solve", lambda self, *args: SolveResult(False)
        )
        with pytest.raises(ProofError, match="not refuted"):
            solver.solve(assumptions=[1])

    def test_model_violating_a_clause(self, monkeypatch):
        solver = checked([[1, 2], [-1, 3]])
        solve = FastSolver.solve

        def flip_var_3(self, *args):
            result = solve(self, *args)
            values = dict(result.model.items())
            values[3] = not values[3]
            result.model = Model(values)
            return result

        monkeypatch.setattr(FastSolver, "solve", flip_var_3)
        with pytest.raises(ProofError, match="model violates"):
            solver.solve(assumptions=[1])
