"""Differential fuzzing of the two CDCL solvers against an oracle.

Seeded random-CNF instances keep CI deterministic: the generator is
parameterized by an explicit seed (override with ``REPRO_FUZZ_SEED`` to
explore), the instances stay small enough (<= 12 variables) that a full
truth-table enumeration is the oracle, and every discrepancy message
carries the seed/instance needed to replay it.

Every instance runs against *both* solvers (the reference object-graph
solver and the flat-arena ``FastSolver``), from three angles
matching how the synthesis engine drives them:

- plain satisfiability + model soundness,
- assumption queries (the shared-encoding mode's bread and butter),
- solver *reusability*: an UNSAT-under-assumptions query must not spoil
  the solver for later queries, incremental clause addition included.

The fast backend additionally gets trail-saving sequences (repeated
assumption queries sharing prefixes, interleaved with clause additions)
checked move-by-move against the oracle, and both backends are checked
for the exact ``BudgetExhausted`` contract.

Clauses with duplicate literals, tautologies and extra units (which
``random_cnf`` never makes) go in through ``add_clauses``, the entry
point the relational layer uses, and must agree with the oracle too.
"""

import itertools
import os
import random

import pytest

from repro.sat import BudgetExhausted, FastSolver, Solver


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20160807"))
ROUNDS = int(os.environ.get("REPRO_FUZZ_ROUNDS", "60"))

SOLVERS = {"reference": Solver, "fast": FastSolver}
BACKENDS = sorted(SOLVERS)


def random_cnf(rng, num_vars, num_clauses, max_width=3):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        lits = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    return clauses


def brute_force(clauses, num_vars, fixed=None):
    """All-models oracle: is there a model extending ``fixed``?"""
    fixed = dict(fixed or {})
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v + 1: bits[v] for v in range(num_vars)}
        if any(model[v] != val for v, val in fixed.items()):
            continue
        if all(
            any(model[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def check_model(clauses, model):
    return all(
        any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses
    )


def messy_cnf(rng, num_vars, num_clauses):
    """``random_cnf`` plus duplicate literals, tautologies and extra units
    (``random_cnf`` itself never repeats a variable within a clause)."""
    clauses = random_cnf(rng, num_vars, num_clauses)
    for clause in clauses:
        roll = rng.random()
        if roll < 0.2:
            clause.insert(rng.randrange(len(clause) + 1), rng.choice(clause))
        elif roll < 0.3:
            clause.insert(rng.randrange(len(clause) + 1), -rng.choice(clause))
    for _ in range(rng.randint(0, 2)):
        v = rng.randint(1, num_vars)
        clauses.insert(
            rng.randrange(len(clauses) + 1), [v if rng.random() < 0.5 else -v]
        )
    return clauses


def _instances():
    rng = random.Random(FUZZ_SEED)
    for index in range(ROUNDS):
        num_vars = rng.randint(3, 12)
        num_clauses = rng.randint(1, 4 * num_vars)
        yield index, rng.randint(0, 2 ** 31), num_vars, num_clauses


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "index,seed,num_vars,num_clauses",
    list(_instances()),
    ids=lambda value: str(value),
)
class TestRandomCnf:
    def test_agrees_with_brute_force(
        self, index, seed, num_vars, num_clauses, backend
    ):
        rng = random.Random(seed)
        clauses = random_cnf(rng, num_vars, num_clauses)
        solver = SOLVERS[backend]()
        ok = True
        for clause in clauses:
            ok = solver.add_clause(clause) and ok
        expected = brute_force(clauses, num_vars)
        if not ok:
            # add_clause already proved top-level UNSAT; the oracle must
            # agree, and solve() must report it too.
            assert not expected, (FUZZ_SEED, index)
            assert not solver.solve().satisfiable
            return
        result = solver.solve()
        assert result.satisfiable == expected, (FUZZ_SEED, index)
        if result.satisfiable:
            assert check_model(clauses, result.model), (FUZZ_SEED, index)

    def test_redundant_literals_agree_with_brute_force(
        self, index, seed, num_vars, num_clauses, backend
    ):
        rng = random.Random(seed)
        clauses = messy_cnf(rng, num_vars, num_clauses)
        solver = SOLVERS[backend]()
        ok = solver.add_clauses(clauses)
        expected = brute_force(clauses, num_vars)
        if not ok:
            assert not expected, (FUZZ_SEED, index)
            assert not solver.solve().satisfiable
            return
        result = solver.solve()
        assert result.satisfiable == expected, (FUZZ_SEED, index)
        if result.satisfiable:
            assert check_model(clauses, result.model), (FUZZ_SEED, index)

    def test_assumption_queries_agree(
        self, index, seed, num_vars, num_clauses, backend
    ):
        rng = random.Random(seed)
        clauses = random_cnf(rng, num_vars, num_clauses)
        solver = SOLVERS[backend]()
        if not all(solver.add_clause(cl) for cl in clauses):
            pytest.skip("top-level UNSAT: no assumption query to make")
        for _ in range(4):
            width = rng.randint(1, min(3, num_vars))
            chosen = rng.sample(range(1, num_vars + 1), width)
            assumptions = [
                v if rng.random() < 0.5 else -v for v in chosen
            ]
            fixed = {abs(l): l > 0 for l in assumptions}
            expected = brute_force(clauses, num_vars, fixed)
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable == expected, (
                FUZZ_SEED, index, assumptions,
            )
            if result.satisfiable:
                assert check_model(clauses, result.model)
                for lit in assumptions:
                    assert result.model[abs(lit)] == (lit > 0)

    def test_reusable_after_failed_assumption_query(
        self, index, seed, num_vars, num_clauses, backend
    ):
        """An UNSAT-under-assumptions answer must leave the solver intact:
        the unconstrained query still answers correctly afterwards, and so
        does a query after adding one more clause (the incremental pattern
        the shared encoding relies on)."""
        rng = random.Random(seed)
        clauses = random_cnf(rng, num_vars, num_clauses)
        solver = SOLVERS[backend]()
        if not all(solver.add_clause(cl) for cl in clauses):
            pytest.skip("top-level UNSAT")
        baseline = brute_force(clauses, num_vars)
        # Hunt for an assumption set the formula refutes.
        refuted = None
        for _ in range(16):
            chosen = rng.sample(
                range(1, num_vars + 1), rng.randint(1, num_vars)
            )
            assumptions = [
                v if rng.random() < 0.5 else -v for v in chosen
            ]
            fixed = {abs(l): l > 0 for l in assumptions}
            if not brute_force(clauses, num_vars, fixed):
                refuted = assumptions
                break
        if refuted is None:
            pytest.skip("no refutable assumption set found")
        assert not solver.solve(assumptions=refuted).satisfiable
        # The failed query must not have poisoned the solver state.
        assert solver.solve().satisfiable == baseline, (FUZZ_SEED, index)
        extra = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 1)
        ]
        solver.add_clause(extra)
        expected = brute_force(clauses + [extra], num_vars)
        assert solver.solve().satisfiable == expected, (FUZZ_SEED, index)


def _trail_saving_sequences():
    rng = random.Random(FUZZ_SEED ^ 0x5A17)
    for index in range(min(ROUNDS, 40)):
        yield index, rng.randint(0, 2 ** 31)


@pytest.mark.parametrize(
    "index,seed", list(_trail_saving_sequences()), ids=str
)
class TestTrailSavingSequences:
    """The fast backend's saved assumption prefix vs the oracle.

    Each sequence drives one warm solver through assumption queries that
    deliberately share prefixes (the gated-enumeration pattern), with
    clause additions interleaved while a trail is saved -- every answer
    is checked against brute force, and, where satisfiable, the model
    against the clause set."""

    def test_prefix_reuse_matches_oracle(self, index, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 10)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 3 * num_vars))
        solver = FastSolver()
        if not all(solver.add_clause(cl) for cl in clauses):
            pytest.skip("top-level UNSAT")
        prefix = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 2)
        ]
        for step in range(8):
            if rng.random() < 0.3:
                # Mutate the prefix: the next query must unwind exactly
                # the divergent suffix, never stale state.
                prefix[-1] = -prefix[-1]
            tail = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 1)
            ]
            assumptions = prefix + tail
            fixed = {abs(l): l > 0 for l in assumptions}
            # Assumptions may repeat a variable with both signs; such a
            # query is vacuously UNSAT only if signs conflict.
            conflicting = any(
                fixed[abs(l)] != (l > 0) for l in assumptions
            )
            expected = not conflicting and brute_force(
                clauses, num_vars, fixed
            )
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable == expected, (
                FUZZ_SEED, index, step, assumptions,
            )
            if result.satisfiable:
                assert check_model(clauses, result.model)
            if rng.random() < 0.4:
                # Add a clause while the trail is saved: attach-live
                # paths (watch, unit, conflicting-under-prefix).
                extra = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(
                        range(1, num_vars + 1), rng.randint(1, 3)
                    )
                ]
                if rng.random() < 0.5:
                    # Lead with the negated assumptions: false under the
                    # saved prefix, so the clause must not be watched in
                    # the order it was given.
                    extra = [-lit for lit in assumptions] + extra
                if not solver.add_clause(extra):
                    return  # proved UNSAT outright; nothing left to ask
                clauses.append(extra)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBudgetContract:
    """``BudgetExhausted`` must fire at exactly ``>= budget`` conflicts,
    and the interrupted solver must stay reusable -- identically on both
    backends (the pipeline's degraded-result accounting depends on the
    exact counter values)."""

    @staticmethod
    def _hard_instance(backend):
        # Pigeonhole-flavored instance: enough conflicts to trip small
        # budgets deterministically.
        solver = SOLVERS[backend]()
        holes = 4
        var = lambda p, h: p * holes + h + 1  # noqa: E731
        for p in range(holes + 1):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        return solver

    def test_raises_at_exact_budget(self, backend):
        solver = self._hard_instance(backend)
        with pytest.raises(BudgetExhausted) as excinfo:
            solver.solve(conflict_budget=5)
        assert excinfo.value.conflicts == 5

    def test_reusable_after_exhaustion(self, backend):
        solver = self._hard_instance(backend)
        with pytest.raises(BudgetExhausted):
            solver.solve(conflict_budget=3)
        # Unbudgeted retry completes and agrees with the known answer.
        assert not solver.solve().satisfiable

    def test_generous_budget_is_not_tripped(self, backend):
        solver = SOLVERS[backend]()
        solver.add_clause([1])
        result = solver.solve(conflict_budget=10)
        assert result.satisfiable
        assert result.model[1] is True


@pytest.mark.parametrize("backend", BACKENDS)
class TestModelAssignedOnly:
    """Regression for the assigned-only :class:`Model` accessor.

    ``_finish`` must not materialize an O(num_vars) dict: variables the
    solver never assigned read as False (the historical contract) but do
    not appear in iteration, so model size tracks the trail, not the
    variable count."""

    def test_unassigned_vars_read_false_but_are_absent(self, backend):
        solver = SOLVERS[backend]()
        solver.add_clause([1, 2])
        solver.ensure_var(5000)
        result = solver.solve(assumptions=[1])
        assert result.satisfiable
        model = result.model
        assert model[1] is True
        # Variable 5000 exists in the solver; whether the search assigned
        # it or not, reads give a boolean and default to False.
        assert model.get(4999, False) is False
        assert isinstance(model[4999], bool)

    def test_model_iteration_is_assigned_only(self, backend):
        solver = SOLVERS[backend]()
        solver.add_clause([1])
        result = solver.solve()
        assert result.satisfiable
        assert set(result.model) == {1}
        assert len(result.model) == 1
        assert dict(result.model) == {1: True}


class TestSolveResultTruthiness:
    """Regression: ``SolveResult`` truthiness means *satisfiable*.

    A budget-limited or assumption query still returns a result object;
    code that wrote ``if result:`` used to read ambiguously (any object
    is truthy by default).  ``__bool__`` is pinned to ``satisfiable`` and
    documented; ``is None`` remains the way to distinguish "no answer".
    """

    def test_sat_result_is_truthy(self):
        solver = Solver()
        solver.add_clause([1])
        result = solver.solve()
        assert result.satisfiable
        assert bool(result) is True
        assert result  # idiomatic use

    def test_unsat_result_is_falsy_but_not_none(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        result = solver.solve()
        assert result is not None
        assert bool(result) is False
        assert not result

    def test_unsat_under_assumptions_is_falsy(self):
        solver = Solver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1, -2])
        assert result is not None
        assert bool(result) is False
        # and the solver still answers the unconstrained query truthily
        assert bool(solver.solve()) is True
