"""Conflict-driven clause-learning (CDCL) SAT solver.

The design follows MiniSat: two-watched-literal propagation, VSIDS-style
exponential variable activities with lazy rescaling, first-UIP conflict
analysis with recursive clause minimization, phase saving, Luby restarts,
and learned-clause garbage collection driven by clause activities.

The solver is incremental: clauses may be added between ``solve()`` calls and
``solve(assumptions=...)`` supports solving under temporary assumptions,
which the relational layer uses both for enumeration and for Aluminum-style
scenario minimization.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs import ProgressSnapshot, get_metrics, get_tracer

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


def _luby(i: int) -> int:
    """The reluctant-doubling (Luby) sequence, 1-indexed: 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


@dataclass
class _ClauseRec:
    lits: List[int]
    learned: bool = False
    activity: float = 0.0


class Model:
    """A satisfying assignment, stored assigned-variables-only.

    Reads preserve the historical contract that every variable maps to a
    boolean, defaulting unassigned variables to ``False`` -- so instance
    decoding and lex-greedy minimization see byte-identical values --
    without materializing an O(num_vars) dict per model.  Iteration and
    ``len`` cover only the variables the solver actually assigned;
    ``dict(model)`` therefore yields the compact assigned-only mapping
    (``.get`` on that dict keeps the same default-False reads).
    """

    __slots__ = ("_values",)

    def __init__(self, values: Dict[int, bool]) -> None:
        self._values = values

    def __getitem__(self, var: int) -> bool:
        return self._values.get(var, False)

    def get(self, var: int, default: bool = False) -> bool:
        return self._values.get(var, default)

    def __contains__(self, var: int) -> bool:
        return var in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def keys(self):
        return self._values.keys()

    def items(self):
        return self._values.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Model):
            return self._values == other._values
        if isinstance(other, dict):
            return self._values == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Model({self._values!r})"


@dataclass
class SolveResult:
    """Outcome of a :meth:`Solver.solve` call.

    ``model`` is a :class:`Model` (assigned variables only, reads
    default unassigned variables to ``False``) when satisfiable and is
    ``None`` otherwise.  ``conflicts``, ``decisions``, ``propagations``
    and ``restarts`` expose search-effort statistics for the benchmark
    harness.

    Truthiness is defined as *satisfiability*: ``bool(result)`` is True
    exactly when ``result.satisfiable`` is -- an UNSAT outcome is falsy
    even though it is a real result object carrying search statistics.
    Use an explicit ``is None`` check to distinguish "no result" from
    "UNSAT result".
    """

    satisfiable: bool
    model: Optional[Model] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0

    def __bool__(self) -> bool:
        """True iff the formula was satisfiable (see class docstring)."""
        return self.satisfiable


class Solver:
    """An incremental CDCL SAT solver over DIMACS-style integer literals.

    This is the *reference* backend: a readable object-graph
    implementation that doubles as the differential-testing oracle for
    :class:`repro.sat.fastsolver.FastSolver`, the flat-arena solver
    every synthesis runs on.  Both share one contract
    (``SolveResult``/``Model``, assumption semantics, exact
    ``BudgetExhausted`` behaviour) and must agree literally.
    """

    backend_name = "reference"

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[_ClauseRec] = []
        # Watches are indexed by literal; _watch_index maps lit -> list of
        # clause indices watching that literal.
        self._watches: Dict[int, List[int]] = {}
        # assigns[v] is True/False/None.
        self._assigns: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        # reason[v] is the clause index that implied v, or None for decisions.
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        # VSIDS order heap: a lazily-cleaned binary max-heap over variable
        # activities.  Every unassigned variable is in the heap; assigned
        # variables may linger and are dropped when popped.
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._ok = True
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._learnt = 0
        # Clauses tombstoned by _detach_clauses but not yet swept from
        # the watch lists; len(self._clauses) - self._dead is the live
        # database size, maintained incrementally so per-solve setup
        # never scans the clause list.
        self._dead = 0
        self._solve_id = 0

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def ensure_var(self, var: int) -> None:
        """Make sure variable ``var`` (and all below it) exist."""
        if var < 1:
            raise ValueError("variables are positive integers")
        while self._num_vars < var:
            self._num_vars += 1
            self._assigns.append(None)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._heap_pos.append(-1)
            self._heap_insert(self._num_vars)

    def reset_phases(self) -> None:
        """Forget saved phases, restoring the prefer-false default.

        Between unrelated incremental queries the phases saved from one
        query's models bias the next query's models toward the previous
        assignment; resetting restores cold-start polarity (learned
        clauses and activities are kept).
        """
        self._phase = [False] * len(self._phase)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula is now trivially UNSAT.

        The clause is simplified against top-level assignments: satisfied
        clauses are dropped, falsified literals removed, duplicates merged,
        and tautologies discarded.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("clauses may only be added at decision level 0")
        seen = set()
        lits: List[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.ensure_var(abs(lit))
            value = self._lit_value(lit)
            if value is True or -lit in seen:
                return True  # satisfied at top level or tautology
            if value is False or lit in seen:
                continue
            seen.add(lit)
            lits.append(lit)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        self._attach_clause(_ClauseRec(lits))
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def _attach_clause(self, rec: _ClauseRec) -> int:
        idx = len(self._clauses)
        self._clauses.append(rec)
        if rec.learned:
            self._learnt += 1
        self._watches.setdefault(rec.lits[0], []).append(idx)
        self._watches.setdefault(rec.lits[1], []).append(idx)
        return idx

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> Optional[bool]:
        value = self._assigns[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        value = self._lit_value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self._assigns[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            var = abs(lit)
            self._phase[var] = self._assigns[var]  # phase saving
            self._assigns[var] = None
            self._reason[var] = None
            self._heap_insert(var)
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self._propagations += 1
            falsified = -lit
            watch_list = self._watches.get(falsified)
            if not watch_list:
                continue
            new_list: List[int] = []
            conflict: Optional[int] = None
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                rec = self._clauses[ci]
                if rec is None:
                    continue  # tombstoned by _detach_clauses: drop lazily
                lits = rec.lits
                # Normalize: falsified literal at position 1.
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) is True:
                    new_list.append(ci)
                    continue
                # Look for a new literal to watch.
                moved = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches.setdefault(lits[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_list.append(ci)
                if not self._enqueue(first, ci):
                    conflict = ci
                    # Keep remaining watchers.
                    new_list.extend(watch_list[i:])
                    break
            self._watches[falsified] = new_list
            if conflict is not None:
                self._qhead = len(self._trail)
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple:
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        index = len(self._trail) - 1
        reason_idx: Optional[int] = conflict
        while True:
            assert reason_idx is not None
            rec = self._clauses[reason_idx]
            if rec.learned:
                self._bump_clause(reason_idx)
            start = 0 if lit is None else 1
            lits = rec.lits
            if lit is not None and lits[0] != lit:
                # Reason clause stores the implied literal first by
                # construction of learned clauses; for original clauses the
                # implied literal may sit anywhere, so locate it.
                pos = lits.index(lit)
                lits[0], lits[pos] = lits[pos], lits[0]
            for k in range(start, len(lits)):
                q = lits[k]
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= self._decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
            # Select next literal to expand.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason_idx = self._reason[var]
        learnt[0] = -lit

        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (self._level[abs(q)] & 31)
        kept = [learnt[0]]
        for q in learnt[1:]:
            if self._reason[abs(q)] is None or not self._redundant(
                q, seen, abstract_levels
            ):
                kept.append(q)
        learnt = kept

        # Compute backtrack level (second-highest level in the clause).
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for k in range(2, len(learnt)):
                if self._level[abs(learnt[k])] > self._level[abs(learnt[max_i])]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self._level[abs(learnt[1])]
        return learnt, back_level

    def _redundant(self, lit: int, seen: List[bool], abstract_levels: int) -> bool:
        """Check whether ``lit`` is implied by other clause literals."""
        stack = [lit]
        cleared: List[int] = []
        while stack:
            p = stack.pop()
            reason_idx = self._reason[abs(p)]
            if reason_idx is None:
                for var in cleared:
                    seen[var] = False
                return False
            lits = self._clauses[reason_idx].lits
            for q in lits:
                var = abs(q)
                if var == abs(p) or seen[var] or self._level[var] == 0:
                    continue
                if (
                    self._reason[var] is not None
                    and (1 << (self._level[var] & 31)) & abstract_levels
                ):
                    seen[var] = True
                    cleared.append(var)
                    stack.append(q)
                else:
                    for cvar in cleared:
                        seen[cvar] = False
                    return False
        return True

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _RESCALE_LIMIT:
            # Uniform rescaling preserves the relative order of activities,
            # so the heap needs no fixing.
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
        if self._heap_pos[var] >= 0:
            self._heap_sift_up(self._heap_pos[var])

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, idx: int) -> None:
        rec = self._clauses[idx]
        rec.activity += self._cla_inc
        if rec.activity > _RESCALE_LIMIT:
            for other in self._clauses:
                if other is not None and other.learned:
                    other.activity *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._cla_decay

    # ------------------------------------------------------------------
    # Learned-clause reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        learned = [
            (i, rec)
            for i, rec in enumerate(self._clauses)
            if rec is not None
            and rec.learned
            and len(rec.lits) > 2
            and not self._is_reason(i)
        ]
        if len(learned) < 2:
            return
        learned.sort(key=lambda pair: pair[1].activity)
        to_remove = {i for i, _ in learned[: len(learned) // 2]}
        self._detach_clauses(to_remove)

    def _is_reason(self, idx: int) -> bool:
        lits = self._clauses[idx].lits
        var = abs(lits[0])
        return self._reason[var] == idx

    def _detach_clauses(self, indices: set) -> None:
        """Remove clauses by index via lazy watcher cleanup.

        Removed slots are tombstoned (set to ``None``) rather than
        compacted: surviving clause indices, the watch lists, and every
        ``reason`` pointer stay valid as-is, so a reduction costs
        O(removed) instead of the old O(database) watch-table rebuild and
        reason remap.  Stale watch refs are dropped the next time
        propagation visits their literal (see :meth:`_propagate`).  The
        reference solver trades the unclaimed tombstone slots for
        simplicity; the flat-arena backend (:mod:`repro.sat.fastsolver`)
        is the one that compacts its memory.
        """
        for i in indices:
            rec = self._clauses[i]
            if rec is None:
                continue
            if rec.learned:
                self._learnt -= 1
            self._clauses[i] = None
            self._dead += 1

    # ------------------------------------------------------------------
    # Decisions (VSIDS order heap, MiniSat-style)
    # ------------------------------------------------------------------
    def _heap_insert(self, var: int) -> None:
        if self._heap_pos[var] >= 0:
            return
        self._heap.append(var)
        self._heap_pos[var] = len(self._heap) - 1
        self._heap_sift_up(len(self._heap) - 1)

    def _heap_sift_up(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        var = heap[i]
        key = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= key:
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _heap_sift_down(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        n = len(heap)
        var = heap[i]
        key = act[var]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            child = left
            right = left + 1
            if right < n and act[heap[right]] > act[heap[left]]:
                child = right
            cvar = heap[child]
            if key >= act[cvar]:
                break
            heap[i] = cvar
            pos[cvar] = i
            i = child
        heap[i] = var
        pos[var] = i

    def _heap_pop(self) -> int:
        heap, pos = self._heap, self._heap_pos
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_sift_down(0)
        return top

    def _pick_branch_var(self) -> Optional[int]:
        # Lazy cleaning: assigned variables linger in the heap until popped.
        while self._heap:
            var = self._heap_pop()
            if self._assigns[var] is None:
                return var
        return None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> SolveResult:
        """Solve the formula, optionally under assumptions.

        ``conflict_budget`` bounds total conflicts: the call raises
        :class:`BudgetExhausted` as soon as the conflict count reaches the
        budget, so a budgeted call never spends more than
        ``max(conflict_budget, 1)`` conflicts -- callers that accumulate
        ``exc.conflicts`` against a shared budget (e.g.
        ``RelationalProblem``) stay within it exactly, because they never
        issue a call with a non-positive remainder.  Assumption failure
        (UNSAT under the given
        assumptions) returns an unsatisfiable result without spoiling the
        solver for future calls.
        """
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._solve_id += 1
        if not self._ok:
            return SolveResult(False)
        for lit in assumptions:
            self.ensure_var(abs(lit))

        # Progress telemetry: with heartbeats off (interval 0) the loop
        # below pays one integer test per conflict and nothing else.
        tracer = get_tracer()
        sample_every = tracer.heartbeat_interval
        solve_started = time.perf_counter() if sample_every else 0.0

        # Incrementally-maintained counts: per-call setup must not scan
        # the clause database (gated queries against a large shared DB
        # used to pay O(total clauses) here before the search even began).
        live_clauses = len(self._clauses) - self._dead
        max_learnts = max(100, live_clauses // 3)
        restart_idx = 1
        conflicts_until_restart = 32 * _luby(restart_idx)
        conflicts_this_restart = 0

        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    self._conflicts += 1
                    conflicts_this_restart += 1
                    if sample_every and self._conflicts % sample_every == 0:
                        tracer.heartbeat(
                            self._progress_snapshot(
                                solve_started, conflict_budget
                            )
                        )
                    if conflict_budget is not None and self._conflicts >= conflict_budget:
                        # Publish before raising: the work done up to the
                        # budget miss (this call's conflicts/decisions/
                        # propagations) must not vanish from the metrics
                        # just because the call did not finish.
                        self._publish_metrics("budget_exhausted")
                        raise BudgetExhausted(
                            self._conflicts,
                            decisions=self._decisions,
                            propagations=self._propagations,
                        )
                    if self._decision_level() == 0:
                        self._ok = False
                        return self._finish(False)
                    learnt, back_level = self._analyze(conflict)
                    # Never backtrack past the assumption levels we have not
                    # re-validated; _cancel_until(0) is always safe because
                    # assumptions are re-enqueued below.
                    self._cancel_until(back_level)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], None):
                            self._ok = False
                            return self._finish(False)
                    else:
                        rec = _ClauseRec(list(learnt), learned=True)
                        idx = self._attach_clause(rec)
                        self._bump_clause(idx)
                        self._enqueue(learnt[0], idx)
                    self._decay_var_activity()
                    self._decay_clause_activity()
                    continue

                if self._learnt > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)

                if conflicts_this_restart >= conflicts_until_restart:
                    restart_idx += 1
                    conflicts_until_restart = 32 * _luby(restart_idx)
                    conflicts_this_restart = 0
                    self._restarts += 1
                    self._cancel_until(0)
                    continue

                # Seat any outstanding assumptions as pseudo-decisions.
                next_lit = None
                while self._decision_level() < len(assumptions):
                    lit = assumptions[self._decision_level()]
                    value = self._lit_value(lit)
                    if value is True:
                        self._new_decision_level()
                        continue
                    if value is False:
                        return self._finish(False)
                    next_lit = lit
                    break
                if next_lit is None:
                    var = self._pick_branch_var()
                    if var is None:
                        return self._finish(True)
                    next_lit = var if self._phase[var] else -var
                self._decisions += 1
                self._new_decision_level()
                self._enqueue(next_lit, None)
        finally:
            if sample_every:
                # A closing snapshot, so even an easy solve (fewer conflicts
                # than the sampling interval) heartbeats once, and watchers
                # see the final counters of a budget-exhausted call.
                tracer.heartbeat(
                    self._progress_snapshot(solve_started, conflict_budget)
                )
            # Always unwind to level 0: every exit path -- UNSAT, assumption
            # failure, and notably a BudgetExhausted raise -- must leave the
            # solver ready for further add_clause/solve calls.  (_finish has
            # already cancelled on normal returns; this is then a no-op.)
            self._cancel_until(0)

    def _progress_snapshot(
        self, solve_started: float, conflict_budget: Optional[int]
    ) -> ProgressSnapshot:
        """A point-in-time view of the running solve (for heartbeats)."""
        elapsed = time.perf_counter() - solve_started
        return ProgressSnapshot(
            ts=time.time(),
            pid=os.getpid(),
            solve_id=self._solve_id,
            conflicts=self._conflicts,
            decisions=self._decisions,
            propagations=self._propagations,
            restarts=self._restarts,
            learned=self._learnt,
            trail=len(self._trail),
            conflicts_per_sec=(
                self._conflicts / elapsed if elapsed > 0 else 0.0
            ),
            budget_remaining=(
                conflict_budget - self._conflicts
                if conflict_budget is not None
                else None
            ),
        )

    def _publish_metrics(self, outcome: str) -> None:
        """Publish this call's counters (every exit path, incl. budget)."""
        metrics = get_metrics()
        if metrics.enabled:
            # One registry round-trip per solve() call, never per conflict:
            # the counters below are already accumulated in plain ints.
            metrics.counter("sat.solver_calls").inc()
            metrics.counter(f"sat.calls.{self.backend_name}").inc()
            metrics.counter("sat.conflicts").inc(self._conflicts)
            metrics.counter("sat.decisions").inc(self._decisions)
            metrics.counter("sat.propagations").inc(self._propagations)
            metrics.counter("sat.restarts").inc(self._restarts)
            metrics.counter(f"sat.results.{outcome}").inc()

    def _finish(self, sat: bool) -> SolveResult:
        model: Optional[Model] = None
        if sat:
            # Assigned-only: the trail holds exactly the assigned
            # variables, so model construction costs O(assigned) instead
            # of O(num_vars); Model reads default the rest to False,
            # keeping instances and minimal scenarios byte-identical.
            model = Model({abs(lit): lit > 0 for lit in self._trail})
        self._cancel_until(0)
        self._publish_metrics("sat" if sat else "unsat")
        return SolveResult(
            satisfiable=sat,
            model=model,
            conflicts=self._conflicts,
            decisions=self._decisions,
            propagations=self._propagations,
            restarts=self._restarts,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses) - self._dead

    @property
    def num_learnt(self) -> int:
        """Learned (conflict-derived) clauses currently in the database."""
        return self._learnt

    @property
    def ok(self) -> bool:
        """False once the clause set is known unsatisfiable outright."""
        return self._ok

    def root_value(self, var: int) -> Optional[bool]:
        """The variable's value when fixed at decision level 0, else None.

        Root assignments only ever grow, so a returned value is permanent:
        callers may strip the corresponding falsified literal from clauses
        they are about to add (the stripped clause is equivalent).
        """
        if var < len(self._assigns) and self._level[var] == 0:
            return self._assigns[var]
        return None


class BudgetExhausted(RuntimeError):
    """Raised when a conflict budget passed to :meth:`Solver.solve` runs out.

    Carries the interrupted call's CDCL counters so callers can fold the
    partial work into their statistics (the call never reaches the
    :class:`SolveResult` that would normally deliver them).
    """

    def __init__(
        self, conflicts: int, decisions: int = 0, propagations: int = 0
    ) -> None:
        super().__init__(f"conflict budget exhausted after {conflicts} conflicts")
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations
