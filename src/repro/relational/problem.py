"""The relational solving front door: solve, enumerate, minimize.

:class:`RelationalProblem` owns a formula plus bounds, translates once, and
exposes:

- :meth:`solve` -- first satisfying instance (or None);
- :meth:`solutions` -- enumeration via blocking clauses;
- :meth:`minimal_solutions` -- Aluminum-style principled scenario
  exploration: every yielded instance is *minimal* (no satisfying instance
  whose positive tuples are a strict subset exists), and later instances are
  never supersets of earlier ones.

The problem is *multi-query*: after construction, additional formula groups
can be attached under fresh selector literals (:meth:`add_gated_formula`)
and every query method accepts ``assumptions``, so many mutually exclusive
goals share one persistent solver -- its learned clauses, variable
activities, and clause database stay warm across queries (the standard
assumption-based incremental SAT technique).

Minimization is *canonical*: :meth:`_minimize` computes the unique
lexicographically-least (prefer-false) model over the primary variables in
``(relation name, tuple)`` order.  The result depends only on the formula,
never on the solver's search trajectory, so a warm shared solver and a cold
per-goal solver yield byte-identical minimal scenarios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.relational import ast as rast
from repro.relational.instance import Instance, instance_from_model
from repro.relational.translate import TranslationRecord, Translator
from repro.relational.universe import AtomTuple, Bounds, Relation
from repro.sat.fastsolver import BudgetExhausted, FastSolver


@dataclass
class SolveStats:
    """Timing and size statistics exposed for the RQ3 benchmark harness.

    ``conflicts``/``decisions``/``propagations`` accumulate the CDCL
    counters over every solver call made through this problem (including
    minimization and enumeration re-solves), feeding the pipeline run
    report."""

    translation_seconds: float = 0.0
    solving_seconds: float = 0.0
    num_vars: int = 0
    num_clauses: int = 0
    num_primary_vars: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    solver_calls: int = 0


class RelationalProblem:
    """A relational formula under bounds, ready to solve incrementally.

    ``conflict_budget`` (settable after construction) caps the *total*
    CDCL conflicts spent across every solver call made through this
    problem; once the accumulated ``stats.conflicts`` reach it, further
    solves raise :class:`~repro.sat.fastsolver.BudgetExhausted`.  The partial
    work of the interrupted call is still folded into ``stats``, so
    callers can degrade to the scenarios found so far without losing
    accounting.  Multi-query callers re-arm the budget between queries by
    setting ``conflict_budget = stats.conflicts + window``.
    """

    def __init__(
        self,
        bounds: Bounds,
        formula: rast.Formula,
    ) -> None:
        self.bounds = bounds
        self.formula = formula
        self.conflict_budget: Optional[int] = None
        self.stats = SolveStats()
        start = time.perf_counter()
        self._translator = Translator(bounds)
        ok = self._translator.assert_formula(formula)
        self._record = TranslationRecord(
            cnf=self._translator.cnf,
            primary_vars=self._translator.primary_vars,
            trivially_unsat=not ok,
        )
        self.stats.translation_seconds = time.perf_counter() - start
        self.stats.num_primary_vars = len(self._record.primary_vars)
        # The one place a solver is built, by this module-level name: the
        # tests swap in a FastSolver subclass that proof-checks every
        # learned clause, UNSAT answer and model through it.
        self._solver = FastSolver()
        self._fed_clauses = 0
        self._trivially_unsat = self._record.trivially_unsat
        self._canonical_order: Optional[List[int]] = None
        # Negated activation literals of finished minimizations, assumed
        # false on every later query (prefix-friendly retirement).
        self._retired: List[int] = []
        # assumption literal -> {primary var: value forced while that
        # literal is assumed}.  Positive keys come from gated
        # require/forbid tuples (forced while the selector holds),
        # negative keys from absent-unless clamps (forced while the
        # selector is switched off).
        self._gated_fixed: Dict[int, Dict[int, bool]] = {}
        # selectors whose gated formula folded to FALSE at translation
        self._dead_gates: set = set()
        if self._trivially_unsat:
            # Mirror the historical one-shot behaviour: a trivially
            # unsatisfiable base never feeds the solver.
            self.stats.num_vars = self._record.cnf.num_vars
            self.stats.num_clauses = self._record.cnf.num_clauses
            self._fed_clauses = self._record.cnf.num_clauses
        else:
            self._sync_solver()

    @property
    def primary_vars(self) -> Dict[Tuple[Relation, AtomTuple], int]:
        return self._record.primary_vars

    @property
    def num_learnt(self) -> int:
        """Learned clauses currently retained by the persistent solver."""
        return self._solver.num_learnt

    def reset_phases(self) -> None:
        """Restore prefer-false polarity on the persistent solver.

        Call between unrelated assumption groups: phases saved while
        enumerating one group bias the next group's witnesses toward the
        previous models, which makes minimization walk a dense tail."""
        self._solver.reset_phases()

    def _sync_solver(self) -> None:
        """Feed clauses translated since the last sync into the solver."""
        cnf = self._record.cnf
        self.stats.num_vars = cnf.num_vars
        self.stats.num_clauses = cnf.num_clauses
        if self._trivially_unsat:
            self._fed_clauses = cnf.num_clauses
            return
        if cnf.num_vars:
            self._solver.ensure_var(cnf.num_vars)
        new = cnf.clauses[self._fed_clauses :]
        self._fed_clauses = cnf.num_clauses
        if new and not self._solver.add_clauses(new):
            self._trivially_unsat = True

    # ------------------------------------------------------------------
    # Multi-query API
    # ------------------------------------------------------------------
    def add_gated_formula(self, formula: rast.Formula, mask=None) -> int:
        """Attach ``formula`` under a fresh selector literal and return it.

        The formula's clauses only bind when the selector is assumed true,
        so several goals can share this problem's translation and solver:
        pass ``[selector]`` (plus the negations of the other groups'
        selectors) as ``assumptions`` to the query methods.  Tseitin
        definitions are shared with everything translated before: nodes
        are not hash-consed, but the encoder's cache is keyed by
        structural equality, so a subcircuit built again gets the
        definition it got the first time and costs no new clauses.

        ``mask`` lists ``(relation, tuple)`` rows to fold to FALSE during
        this translation; only sound when other clauses (typing +
        ``add_gated_tuples`` forbids) already force those rows false
        whenever the selector is assumed.

        Must be called before any solving that allocates solver-side
        auxiliary variables (i.e. attach all groups first, then query).
        """
        if self._solver.num_vars > self._record.cnf.num_vars:
            raise RuntimeError(
                "add_gated_formula must precede solving: the solver has "
                "already allocated auxiliary variables past the CNF"
            )
        start = time.perf_counter()
        selector = self._record.cnf.new_var()
        ok = self._translator.assert_formula_gated(formula, selector, mask=mask)
        if not ok:
            # The emitted unit (-selector) forbids ever activating the
            # group; callers can skip its bookkeeping via dead_gates.
            self._dead_gates.add(selector)
        self.stats.translation_seconds += time.perf_counter() - start
        self._sync_solver()
        return selector

    @property
    def dead_gates(self):
        """Selectors whose gated formula folded to the FALSE constant.

        A query assuming a dead selector is unsatisfiable by the unit
        clause emitted at translation; no further per-group clauses
        (typing, membership units) are needed for it.
        """
        return frozenset(self._dead_gates)

    def add_formula(self, formula: rast.Formula) -> bool:
        """Assert an ungated formula into the shared problem.

        Returns False when the formula folds to the FALSE constant, in
        which case the whole problem becomes trivially unsatisfiable.
        Like :meth:`add_gated_formula`, must precede any solving that
        allocates solver-side auxiliary variables.
        """
        if self._solver.num_vars > self._record.cnf.num_vars:
            raise RuntimeError(
                "add_formula must precede solving: the solver has "
                "already allocated auxiliary variables past the CNF"
            )
        start = time.perf_counter()
        ok = self._translator.assert_formula(formula)
        self.stats.translation_seconds += time.perf_counter() - start
        if not ok:
            self._record.trivially_unsat = True
            self._trivially_unsat = True
        self._sync_solver()
        return ok

    def add_gated_tuples(self, selector: int, require=(), forbid=()) -> None:
        """Force tuple memberships under ``selector``.

        ``require``/``forbid`` are iterables of ``(relation, tuple)``:
        whenever the selector is assumed true, required free tuples must be
        present and forbidden ones absent.  Tuples fixed by the lower bound
        satisfy ``require`` vacuously; a forbidden lower-bound tuple is a
        caller error (it can never be absent) and raises ``ValueError``.
        """
        cnf = self._record.cnf
        fixed = self._gated_fixed.setdefault(selector, {})
        for relation, tup in require:
            var = self.primary_vars.get((relation, tuple(tup)))
            if var is not None:
                cnf.add_clause((-selector, var))
                fixed[var] = True
        for relation, tup in forbid:
            var = self.primary_vars.get((relation, tuple(tup)))
            if var is not None:
                cnf.add_clause((-selector, -var))
                fixed[var] = False
            elif tuple(tup) in self.bounds.lower(relation):
                raise ValueError(
                    f"cannot forbid lower-bound tuple {tup!r} of "
                    f"{relation.name}"
                )
        self._sync_solver()

    def add_absent_unless(self, selectors, rows) -> None:
        """Force free tuple rows absent while every selector is *false*.

        The complement of :meth:`add_gated_tuples`'s ``forbid``: each
        clause is ``(sel_1, ..., sel_m, -var)``, so once the assumptions
        negate all the selectors, every row is propagated false at the
        *last* such assumption's own trail level -- deep in a saved
        assumption prefix, where trail-saving backends keep it across
        queries.  Use it to clamp rows that only the selectors' gated
        formulas can constrain -- otherwise they are free whenever the
        owning groups are switched off, and every warm query re-decides
        them.  ``selectors`` is a single selector or a non-empty
        sequence (a row shared by several groups is absent only while
        all of them are off).  Rows fixed by the lower bound are a
        caller error (they can never be absent) and raise
        ``ValueError``.
        """
        if isinstance(selectors, int):
            selectors = (selectors,)
        else:
            selectors = tuple(selectors)
        if not selectors:
            raise ValueError("add_absent_unless needs at least one selector")
        cnf = self._record.cnf
        # Single-owner rows are semantically fixed whenever ``-selector``
        # is assumed; record them so minimization pins them unprobed.
        # Multi-owner rows would need a conjunction of assumptions to be
        # fixed, which the per-literal map cannot express -- they just
        # take the ordinary witness-false pin, which costs no probe.
        fixed = (
            self._gated_fixed.setdefault(-selectors[0], {})
            if len(selectors) == 1
            else None
        )
        for relation, tup in rows:
            var = self.primary_vars.get((relation, tuple(tup)))
            if var is not None:
                cnf.add_clause(selectors + (-var,))
                if fixed is not None:
                    fixed[var] = False
            elif tuple(tup) in self.bounds.lower(relation):
                raise ValueError(
                    f"cannot clamp lower-bound tuple {tup!r} of "
                    f"{relation.name}"
                )
        self._sync_solver()

    def referenced_vars(self, start: int = 0):
        """Variables occurring in clauses added from index ``start`` on.

        A primary variable absent from this set is unconstrained: no
        clause can ever force it true, so prefer-false minimization pins
        it false without help.  The shared encoding uses this (with
        ``start`` at the base translation's first clause) to skip typing
        clauses for rows the base never mentions.
        """
        seen = set()
        for clause in self._record.cnf.clauses[start:]:
            seen.update(abs(lit) for lit in clause)
        return seen

    def add_typing_tuples(self, member, rows) -> None:
        """Tie free ``rows`` to a free ``member`` tuple, ungated.

        For each ``(relation, tuple)`` in ``rows``, adds the clause
        ``row -> member``: the row can only be present in a model where
        the member tuple is.  Used by the shared encoding to make every
        row mentioning an anonymous atom depend on that atom's sig
        membership, so a signature group only needs to gate the handful
        of membership rows of foreign atoms rather than every row that
        mentions one.  If ``member`` is fixed by the lower bound the
        rows are vacuously typed and nothing is added.
        """
        relation, tup = member
        member_var = self.primary_vars.get((relation, tuple(tup)))
        if member_var is None:
            return
        cnf = self._record.cnf
        for rel, row in rows:
            var = self.primary_vars.get((rel, tuple(row)))
            if var is not None and var != member_var:
                cnf.add_clause((-var, member_var))
        self._sync_solver()

    def _timed_solve(self, assumptions=()):
        """Run the solver, folding wall time and CDCL counters into stats.

        Counters are folded on *every* exit path: a budget miss loses the
        answer, never the accounting.  Retired minimization activations
        are appended to every query's assumptions (see
        :meth:`_minimize`), keeping their pin clauses inert without a
        root-level unit clause.
        """
        remaining: Optional[int] = None
        if self.conflict_budget is not None:
            remaining = self.conflict_budget - self.stats.conflicts
            if remaining <= 0:
                raise BudgetExhausted(self.stats.conflicts)
        if self._retired:
            assumptions = [*assumptions, *self._retired]
        start = time.perf_counter()
        try:
            result = self._solver.solve(
                assumptions=assumptions, conflict_budget=remaining
            )
        except BudgetExhausted as exc:
            self.stats.solving_seconds += time.perf_counter() - start
            self.stats.conflicts += exc.conflicts
            self.stats.decisions += exc.decisions
            self.stats.propagations += exc.propagations
            self.stats.solver_calls += 1
            raise
        self.stats.solving_seconds += time.perf_counter() - start
        self.stats.conflicts += result.conflicts
        self.stats.decisions += result.decisions
        self.stats.propagations += result.propagations
        self.stats.solver_calls += 1
        return result

    @staticmethod
    def _gated(gate: Optional[int], literals: List[int]) -> List[int]:
        """A blocking clause, inert unless ``gate`` is assumed true."""
        return literals if gate is None else [-gate] + literals

    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Instance]:
        """Return one satisfying instance, or None if unsatisfiable."""
        if self._trivially_unsat:
            return None
        result = self._timed_solve(assumptions=assumptions)
        if not result.satisfiable:
            return None
        return instance_from_model(self.bounds, self.primary_vars, result.model)

    def solutions(
        self,
        limit: Optional[int] = None,
        assumptions: Sequence[int] = (),
        gate: Optional[int] = None,
    ) -> Iterator[Instance]:
        """Enumerate distinct instances by blocking each found model.

        Distinctness is with respect to primary variables (relation
        contents), not auxiliary Tseitin variables.  With ``gate`` set,
        blocking clauses are guarded by it, so the enumeration of one
        gated group leaves every other group's model space untouched.
        """
        if self._trivially_unsat:
            return
        count = 0
        primary = list(self.primary_vars.values())
        while limit is None or count < limit:
            result = self._timed_solve(assumptions=assumptions)
            if not result.satisfiable:
                return
            yield instance_from_model(self.bounds, self.primary_vars, result.model)
            count += 1
            if not primary:
                return  # only one instance distinguishable
            # Root-fixed variables take the same value in every model, so
            # their literals in a model-difference clause are permanently
            # false -- strip them (the clause is equivalent, and stays
            # attachable high in a saved trail).
            blocking = [
                (-v if result.model[v] else v)
                for v in primary
                if self._solver.root_value(v) is None
            ]
            if not self._solver.add_clause(self._gated(gate, blocking)):
                return

    # ------------------------------------------------------------------
    def minimal_solutions(
        self,
        limit: Optional[int] = None,
        assumptions: Sequence[int] = (),
        gate: Optional[int] = None,
    ) -> Iterator[Instance]:
        """Aluminum-style enumeration of minimal scenarios.

        Each yielded instance is the canonical minimal model (see
        :meth:`_minimize`); found minima are then blocked -- under
        ``gate`` when given -- so later scenarios never contain an
        earlier one.
        """
        if self._trivially_unsat:
            return
        primary = list(self.primary_vars.values())
        count = 0
        while limit is None or count < limit:
            result = self._timed_solve(assumptions=assumptions)
            if not result.satisfiable:
                return
            model = result.model
            model = self._minimize(model, primary, assumptions=assumptions)
            yield instance_from_model(self.bounds, self.primary_vars, model)
            count += 1
            true_vars = [v for v in primary if model[v]]
            if not true_vars:
                return  # the empty instance is minimal and subsumes everything
            # Literals already implied false whenever the clause is live
            # are stripped before adding: ``-v`` for root-fixed facts
            # (permanently true) and for rows the gate's require tuples
            # force true.  The stripped clause is logically equivalent,
            # but it no longer mentions deeply-seated trail literals, so
            # a trail-saving backend can attach it near the top of the
            # trail instead of unwinding the active selector's seating.
            forced = self._gated_fixed.get(gate, {}) if gate else {}
            free_true = [
                v
                for v in true_vars
                if not forced.get(v, False)
                and self._solver.root_value(v) is not True
            ]
            blocking = self._gated(gate, [-v for v in free_true])
            if not self._solver.add_clause(blocking):
                return

    def minimal_solution(
        self, assumptions: Sequence[int] = ()
    ) -> Optional[Instance]:
        """One satisfying instance, minimized (no enumeration blocking)."""
        if self._trivially_unsat:
            return None
        result = self._timed_solve(assumptions=assumptions)
        if not result.satisfiable:
            return None
        primary = list(self.primary_vars.values())
        model = self._minimize(result.model, primary, assumptions=assumptions)
        return instance_from_model(self.bounds, self.primary_vars, model)

    def block(self, rel_tuples, gate: Optional[int] = None) -> bool:
        """Forbid the conjunction of the given (relation, tuple) bindings.

        Used for diversity-driven enumeration: after decoding a scenario,
        block its role bindings so the next solve must change at least one
        of them.  Tuples fixed by the lower bound cannot be blocked; if all
        given tuples are fixed, enumeration is exhausted (returns False).
        With ``gate`` set, the clause only binds while that selector is
        assumed true.
        """
        literals = []
        for relation, tup in rel_tuples:
            var = self.primary_vars.get((relation, tuple(tup)))
            if var is not None:
                literals.append(-var)
        if not literals:
            return False
        return self._solver.add_clause(self._gated(gate, literals))

    # ------------------------------------------------------------------
    def _canonical_primary(self) -> List[int]:
        """Primary variables in ``(relation name, tuple)`` order.

        This ordering is a pure function of the bounds, so two problems
        over the same bounds minimize in the same order regardless of
        variable numbering or solver state.
        """
        if self._canonical_order is None:
            self._canonical_order = [
                var
                for (_, _), var in sorted(
                    (
                        ((relation.name, tup), var)
                        for (relation, tup), var in self.primary_vars.items()
                    ),
                )
            ]
        return self._canonical_order

    def _minimize(
        self,
        model: Dict[int, bool],
        primary: List[int],
        assumptions: Sequence[int] = (),
    ) -> Dict[int, bool]:
        """Compute the canonical minimal model: the lexicographically least
        (prefer-false) assignment to the primary variables in canonical
        order, among models satisfying the formula plus ``assumptions``.

        Greedy per-variable fixing: walk the canonical order; a variable
        already false in the latest witness is fixed false for free,
        otherwise one solver call decides whether it *can* be false given
        everything fixed before it.  The result is the unique lex-min
        model -- by a first-divergence argument it is also subset-minimal
        (any model with strictly fewer true tuples would have allowed an
        earlier variable to be fixed false) -- and it depends only on the
        formula, never on the incoming ``model`` or the solver trajectory.

        Two mechanics keep the call count near the (small) size of the
        minimal model rather than the variable count:

        - Decided values are pinned with clauses guarded by a throwaway
          activation literal (retired afterwards), so the assumption list
          stays short no matter how many variables the problem has.
        - When the witness tail is dense, a *sparsifying probe* first asks
          whether every remaining witness-true variable can be false
          simultaneously; a satisfying answer replaces the witness with a
          much sparser one, letting the walk skip the tail nearly for
          free.  Phase saving makes warm-solver witnesses dense in
          unconstrained variables; the probe is a pure witness improvement
          and never decides a value, so the returned model is unaffected.
        """
        activation = self._solver.num_vars + 1
        self._solver.ensure_var(activation)
        base = list(assumptions) + [activation]
        order = self._canonical_primary()
        witness = dict(model)
        fix = lambda lit: self._solver.add_clause((-activation, lit))  # noqa: E731
        # Values forced by the assumed selector literals (gated
        # require/forbid tuples under a positive selector, absent-unless
        # clamps under a negated one) are semantically determined -- pin
        # them without probing, and keep the forced-true ones out of
        # sparsifying probes, which would otherwise always come back
        # unsatisfiable.
        forced: Dict[int, bool] = {}
        for lit in assumptions:
            fixed = self._gated_fixed.get(lit)
            if fixed:
                forced.update(fixed)
        sparsify_threshold = 8
        sparsify_attempts = 4
        try:
            index, total = 0, len(order)
            while index < total:
                var = order[index]
                if var in forced:
                    fix(var if forced[var] else -var)
                    index += 1
                    continue
                if not witness.get(var, False):
                    fix(-var)
                    index += 1
                    continue
                rest_true = [
                    u
                    for u in order[index:]
                    if witness.get(u, False) and not forced.get(u, False)
                ]
                if (
                    len(rest_true) >= sparsify_threshold
                    and sparsify_attempts > 0
                ):
                    sparsify_attempts -= 1
                    result = self._timed_solve(
                        assumptions=base + [-u for u in rest_true]
                    )
                    if result.satisfiable:
                        witness = result.model
                        continue  # re-examine var against the new witness
                    # Some of the tail must stay true: probe individually,
                    # and stop re-trying the full tail.
                    sparsify_attempts = 0
                result = self._timed_solve(assumptions=base + [-var])
                if result.satisfiable:
                    witness = result.model
                    fix(-var)
                else:
                    fix(var)
                index += 1
        finally:
            # Retire the activation literal: every later query assumes it
            # false, so the pin clauses become inert.  An assumption
            # (rather than the unit clause ``(-activation,)``) is used
            # deliberately: a unit must bind at the root, which would
            # force a backend with a saved assumption trail to unwind it
            # completely after every minimization.  The two are
            # equivalent on primary-variable projections -- pin clauses
            # only bite under ``activation=True``, and flipping the
            # activation to False relaxes a model without touching
            # primary variables -- so results are unchanged.
            self._retired.append(-activation)
        return witness
