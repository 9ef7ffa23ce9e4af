"""Proof-checking ``FastSolver``: every answer is checked, not trusted.

:class:`CheckedSolver` records every clause passed to ``add_clause`` and
every clause ``_analyze`` learns, and checks the solver's work by
reverse unit propagation (RUP) over what it recorded:

- each learned clause, when it is learned, must follow by unit
  propagation from the clauses recorded before it (asserting its
  negation must conflict);
- each UNSAT answer must be refuted by unit propagation alone: asserting
  its assumptions must conflict;
- each model must satisfy every recorded clause and every assumption.

Clause deletions are ignored.  That is sound because every recorded
clause follows from the formula, so checking against a superset of the
solver's live clauses proves no more than the formula does.  Nothing in
the solver is instrumented: the subclass wraps ``add_clause``,
``_analyze`` and ``solve`` only.
"""

from collections import Counter

from repro.sat import FastSolver


class ProofError(AssertionError):
    """The solver made a claim its recorded clauses do not back."""


class RupChecker:
    """Unit propagation over a growing clause set of DIMACS literals.

    Root-level consequences are kept between checks; a check asserts its
    literals on top of them, propagates with two watched literals, and
    undoes its own assignments.
    """

    def __init__(self):
        self.clauses = []
        self.refuted = False  # unit propagation refutes the clauses outright
        self._true = set()
        self._trail = []
        self._watches = {}

    def add(self, clause):
        # A tautology needs no special case: one of its two complementary
        # watches is always true, so it never propagates or conflicts.
        clause = list(dict.fromkeys(clause))
        self.clauses.append(clause)
        true = self._true
        if self.refuted or not true.isdisjoint(clause):
            return  # refuted already, or satisfied at the root for good
        open_lits = [lit for lit in clause if -lit not in true]
        if len(open_lits) < 2:
            self.refuted = not open_lits or not self._propagate(open_lits)
            return
        for lit in open_lits[:2]:
            self._watches.setdefault(lit, []).append(open_lits)

    def conflicts(self, lits):
        """Whether asserting ``lits`` conflicts under unit propagation."""
        if self.refuted:
            return True
        mark = len(self._trail)
        try:
            return not self._propagate(lits)
        finally:
            self._true.difference_update(self._trail[mark:])
            del self._trail[mark:]

    def _propagate(self, lits):
        true, trail, watches = self._true, self._trail, self._watches
        head = len(trail)
        for lit in lits:
            if -lit in true:
                return False
            if lit not in true:
                true.add(lit)
                trail.append(lit)
        while head < len(trail):
            false = -trail[head]
            head += 1
            watching = watches.get(false)
            if not watching:
                continue
            kept = []
            for i, clause in enumerate(watching):
                if clause[0] == false:
                    clause[0], clause[1] = clause[1], false
                other = clause[0]
                if other not in true:
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if -lit not in true:
                            clause[1], clause[k] = lit, false
                            watches.setdefault(lit, []).append(clause)
                            break
                    else:
                        if -other in true:
                            watches[false] = kept + watching[i:]
                            return False
                        true.add(other)
                        trail.append(other)
                    if clause[1] != false:
                        continue  # now watched elsewhere
                kept.append(clause)
            watches[false] = kept
        return True


def _decode(e):
    return -(e >> 1) if e & 1 else e >> 1


class CheckedSolver(FastSolver):
    """A :class:`FastSolver` whose every answer is checked (see module).

    ``checks`` counts the checks made, by kind (``lemmas``, ``unsat``,
    ``models``); solvers given one ``Counter`` share it.
    """

    def __init__(self, checks=None):
        super().__init__()
        self.proof = RupChecker()
        self.checks = Counter() if checks is None else checks

    def add_clause(self, literals):
        literals = list(literals)
        ok = super().add_clause(literals)
        self.proof.add(literals)
        return ok

    def _analyze(self, conflict):
        learnt, back_level, lbd = super()._analyze(conflict)
        lemma = [_decode(e) for e in learnt]
        if not self.proof.conflicts([-lit for lit in lemma]):
            raise ProofError(f"learned clause {lemma} is not RUP")
        self.proof.add(lemma)
        self.checks["lemmas"] += 1
        return learnt, back_level, lbd

    def solve(self, assumptions=(), conflict_budget=None):
        assumptions = list(assumptions)
        result = super().solve(assumptions, conflict_budget)
        if not result.satisfiable:
            if not self.proof.conflicts(assumptions):
                raise ProofError(
                    f"UNSAT under {assumptions} is not refuted by unit "
                    "propagation"
                )
            self.checks["unsat"] += 1
            return result
        # The model as its readers see it: unassigned variables are false.
        model = result.model
        true = {var if value else -var for var, value in model.items()}
        unassigned = set(range(1, self.num_vars + 1)).difference(model.keys())
        true.update(-var for var in unassigned)
        if not true.issuperset(assumptions):
            raise ProofError(f"model violates assumptions {assumptions}")
        violated = next(filter(true.isdisjoint, self.proof.clauses), None)
        if violated is not None:
            raise ProofError(f"model violates clause {violated}")
        self.checks["models"] += 1
        return result
