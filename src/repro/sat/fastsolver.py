"""Flat-arena CDCL SAT solver: the one engine every synthesis runs on.

MiniSat-style search (two-watched-literal propagation, VSIDS order heap,
first-UIP analysis with recursive clause minimization, phase saving,
Luby restarts) on a flat memory layout:

- **Clause arena**: one ``array('i')`` holds every clause as
  ``[size, flags, lbd, lit0, lit1, ...]``; clauses are addressed by
  integer arena refs, and literals are stored encoded
  (``var << 1 | sign``) so negation is ``e ^ 1`` and per-literal tables
  are plain list indexing.
- **Flat watcher table**: a list of per-literal watcher lists indexed by
  encoded literal replaces the ``Dict[int, List[int]]`` watch map; stale
  refs left behind by clause deletion are dropped lazily during
  propagation.
- **Flat assignment state**: a per-literal value ``bytearray`` (so
  literal valuation is one index, no sign branch) plus flat
  level/reason/phase arrays.
- **LBD-tagged learned clauses**: each learned clause records its glue
  (distinct decision levels at learn time); ``reduce_db`` drops the
  worst half by ``(lbd, age)``, always keeping glue clauses
  (``lbd <= 2``), binary clauses, and active reasons.  Deletion is a
  flag flip; when dead clauses exceed half the arena, the arena is
  compacted in place -- live clauses slide down, the existing watcher
  lists are remapped by slice assignment, and reasons are fixed via one
  trail walk -- instead of rebuilding the whole watch table per
  reduction.
- **Assumption-aware trail saving**: between ``solve()`` calls the trail
  is unwound only to the seated-assumption level, and the next call
  reuses the propagated prefix shared with its own assumption list.
  Successive gated queries on one shared bundle encoding (the
  minimization walk especially: hundreds of solves under ``[selector,
  -others, activation, ...]``) skip re-propagating the shared clause
  database from scratch.  Clauses added while a prefix is saved are
  attached against the live trail (backtracking just far enough when
  the new clause is unit or conflicting under it), so enumeration
  blocking and minimization pin clauses keep the prefix warm.
- **Root-level intake**: the relational layer adds its translated
  clauses before any decision exists.  There every assignment is a root
  fact, so once root-false and duplicate literals are dropped the rest
  are unassigned, and ``add_clause`` attaches the clause in its own
  literal order -- the order ``_attach_live`` would pick -- without
  going through it.  The variable tables grow only when a literal
  exceeds ``num_vars``, not through a call per literal.

No second solver checks this one.  The test suite checks its answers
instead: a ``FastSolver`` subclass under ``tests/`` records every
clause, checks each learned clause by reverse unit propagation (RUP)
against the clauses recorded before it, checks each UNSAT answer by
unit-propagating its assumptions to a conflict, and checks each model
against every recorded clause.  The solver logs nothing for that check,
so it stays free to change its restart, phase and clause-deletion
heuristics.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs import ProgressSnapshot, get_metrics, get_tracer

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100

# Per-literal truth values (indexed by encoded literal).
_UNDEF, _TRUE, _FALSE = 0, 1, 2

# Clause flag bits (arena word 1).
_LEARNED = 1
_DEAD = 2

# Arena layout: ref + _HDR is the first literal.
_HDR = 3


def _luby(i: int) -> int:
    """The reluctant-doubling (Luby) sequence, 1-indexed: 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


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
    """Outcome of a :meth:`FastSolver.solve` call.

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


class BudgetExhausted(RuntimeError):
    """Raised when a conflict budget passed to :meth:`FastSolver.solve` runs out.

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


class FastSolver:
    """Incremental CDCL over a flat clause arena (see module docstring).

    Literals are DIMACS-style non-zero integers.  Clauses may be added
    between ``solve()`` calls, and ``solve(assumptions=...)`` answers
    under temporary assumptions, which the relational layer uses for
    enumeration and for Aluminum-style scenario minimization.
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._arena = array("i")
        # Watcher lists indexed by encoded literal; refs of deleted
        # clauses linger until propagation or compaction drops them.
        self._watches: List[List[int]] = [[], []]
        # Per-encoded-literal truth value; _value[e] and _value[e ^ 1]
        # are kept complementary while the variable is assigned.
        self._value = bytearray(2)
        self._level = array("i", [0])
        self._reason: List[int] = [-1]
        self._activity: List[float] = [0.0]
        self._phase = bytearray(1)
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # Encoded assumption literals currently seated as the decision
        # prefix: _seated[i] was seated at decision level i + 1.  This is
        # the trail-saving state reused across solve() calls.
        self._seated: List[int] = []
        self._qhead = 0
        self._ok = True
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._learnt = 0
        self._num_clauses = 0
        self._garbage = 0  # arena words held by dead clauses
        self._learned_refs: List[int] = []
        self._seen = bytearray(1)
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
            self._watches.append([])
            self._watches.append([])
            self._value.extend(b"\x00\x00")
            self._level.append(0)
            self._reason.append(-1)
            self._activity.append(0.0)
            self._phase.append(0)
            self._heap_pos.append(-1)
            self._seen.append(0)
            self._heap_insert(self._num_vars)

    def reset_phases(self) -> None:
        """Forget saved phases, restoring the prefer-false default."""
        self._phase = bytearray(len(self._phase))

    @staticmethod
    def _encode(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def add_clause(self, literals) -> bool:
        """Add a clause; returns False if the formula is now root-UNSAT.

        This may be called while a saved assumption prefix is on the
        trail: the clause is simplified against *root-level* assignments
        only, then attached against the live trail, backtracking just far
        enough when it is unit or conflicting under the saved prefix (so
        trail saving survives the blocking/pin clauses the relational
        layer adds between queries).
        """
        if not self._ok:
            return False
        value = self._value
        level = self._level
        seen = set()
        lits: List[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            e = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            if e >> 1 > self._num_vars:
                self.ensure_var(e >> 1)
            val = value[e]
            rooted = val != _UNDEF and level[e >> 1] == 0
            if (rooted and val == _TRUE) or (e ^ 1) in seen:
                return True  # satisfied at root level or tautology
            if (rooted and val == _FALSE) or e in seen:
                continue
            seen.add(e)
            lits.append(e)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            # A unit binds at the root: drop any saved prefix first.
            self._cancel_until(0)
            if not self._enqueue(lits[0], -1):
                self._ok = False
                return False
            self._ok = self._propagate() < 0
            return self._ok
        if not self._trail_lim:
            # At the root every assigned literal was dropped above: the
            # clause is attached in its own order, as _attach_live would.
            self._attach(lits, learned=False)
            return True
        return self._attach_live(lits)

    def _attach_live(self, lits: List[int]) -> bool:
        """Attach a >= 2-literal clause against the current (possibly
        saved) trail, preserving the watched-literal invariant."""
        value = self._value
        level = self._level
        while True:
            nonfalse = [e for e in lits if value[e] != _FALSE]
            if len(nonfalse) >= 2:
                # Watch two non-false literals: invariant holds as-is.
                order = nonfalse[:2] + [e for e in lits if e not in nonfalse[:2]]
                self._attach(order, learned=False)
                return True
            false_lits = [e for e in lits if value[e] == _FALSE]
            max_level = max(level[e >> 1] for e in false_lits)
            if not nonfalse:
                # Conflicting under the saved trail: unwind one level
                # below the latest falsification and re-evaluate.
                self._cancel_until(max(0, max_level - 1))
                continue
            if len(self._trail_lim) > max_level:
                self._cancel_until(max_level)
                continue  # re-evaluate: the unwind may have freed literals
            w = nonfalse[0]
            max_false = max(false_lits, key=lambda e: (level[e >> 1], e))
            order = [w, max_false] + [
                e for e in lits if e != w and e != max_false
            ]
            ref = self._attach(order, learned=False)
            if value[w] == _UNDEF:
                # Unit under the saved trail: imply it here, keeping the
                # prefix; a conflict during that propagation falls back
                # to a cold root (sound -- the next solve rediscovers it).
                self._enqueue(w, ref)
                if self._propagate() >= 0:
                    self._cancel_until(0)
            return True

    def add_clauses(self, clauses) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def _attach(self, lits: List[int], learned: bool, lbd: int = 0) -> int:
        arena = self._arena
        ref = len(arena)
        arena.append(len(lits))
        arena.append(_LEARNED if learned else 0)
        arena.append(lbd)
        arena.extend(lits)
        self._watches[lits[0]].append(ref)
        self._watches[lits[1]].append(ref)
        self._num_clauses += 1
        if learned:
            self._learnt += 1
            self._learned_refs.append(ref)
        return ref

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _enqueue(self, e: int, reason: int) -> bool:
        value = self._value
        val = value[e]
        if val != _UNDEF:
            return val == _TRUE
        value[e] = _TRUE
        value[e ^ 1] = _FALSE
        var = e >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(e)
        return True

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        value = self._value
        phase = self._phase
        reason = self._reason
        trail = self._trail
        heap_insert = self._heap_insert
        for idx in range(len(trail) - 1, bound - 1, -1):
            e = trail[idx]
            var = e >> 1
            phase[var] = 1 - (e & 1)  # phase saving
            value[e] = _UNDEF
            value[e ^ 1] = _UNDEF
            reason[var] = -1
            heap_insert(var)
        del trail[bound:]
        del self._trail_lim[level:]
        del self._seated[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # Propagation (the hot loop: flat arrays, locals hoisted)
    # ------------------------------------------------------------------
    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause ref or -1."""
        arena = self._arena
        value = self._value
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        dl = len(self._trail_lim)
        qhead = self._qhead
        props = 0
        conflict = -1
        while qhead < len(trail):
            e = trail[qhead]
            qhead += 1
            props += 1
            falsified = e ^ 1
            wl = watches[falsified]
            if not wl:
                continue
            i = j = 0
            n = len(wl)
            while i < n:
                ref = wl[i]
                i += 1
                flags = arena[ref + 1]
                if flags & _DEAD:
                    continue  # lazy watcher cleanup: drop the stale ref
                base = ref + _HDR
                l0 = arena[base]
                if l0 == falsified:
                    l0 = arena[base + 1]
                    arena[base] = l0
                    arena[base + 1] = falsified
                if value[l0] == _TRUE:
                    wl[j] = ref
                    j += 1
                    continue
                size = arena[ref]
                moved = False
                for k in range(base + 2, base + size):
                    lk = arena[k]
                    if value[lk] != _FALSE:
                        arena[base + 1] = lk
                        arena[k] = falsified
                        watches[lk].append(ref)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = ref
                j += 1
                if value[l0] == _FALSE:
                    conflict = ref
                    while i < n:  # keep remaining watchers
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    break
                # Implied: assign l0 here.
                value[l0] = _TRUE
                value[l0 ^ 1] = _FALSE
                var = l0 >> 1
                level[var] = dl
                reason[var] = ref
                trail.append(l0)
            del wl[j:]
            if conflict >= 0:
                qhead = len(trail)
                break
        self._qhead = qhead
        self._propagations += props
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP + recursive minimization)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int):
        """Returns ``(learnt_encoded, back_level, lbd)``."""
        arena = self._arena
        trail = self._trail
        level = self._level
        reason = self._reason
        seen = self._seen
        touched: List[int] = []
        learnt: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        e = -1
        index = len(trail) - 1
        reason_ref = conflict
        dl = len(self._trail_lim)
        bump = self._bump_var
        while True:
            base = reason_ref + _HDR
            size = arena[reason_ref]
            if e != -1 and arena[base] != e:
                # Original clauses may hold the implied literal anywhere.
                for k in range(base + 1, base + size):
                    if arena[k] == e:
                        arena[k] = arena[base]
                        arena[base] = e
                        break
            start = base if e == -1 else base + 1
            for k in range(start, base + size):
                q = arena[k]
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    touched.append(var)
                    bump(var)
                    if level[var] >= dl:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            e = trail[index]
            index -= 1
            var = e >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason_ref = reason[var]
        learnt[0] = e ^ 1

        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (level[q >> 1] & 31)
        kept = [learnt[0]]
        for q in learnt[1:]:
            if reason[q >> 1] < 0 or not self._redundant(
                q, abstract_levels, touched
            ):
                kept.append(q)
        learnt = kept

        lbd = len({level[q >> 1] for q in learnt})
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for k in range(2, len(learnt)):
                if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        for var in touched:
            seen[var] = 0
        return learnt, back_level, lbd

    def _redundant(
        self, e: int, abstract_levels: int, touched: List[int]
    ) -> bool:
        arena = self._arena
        level = self._level
        reason = self._reason
        seen = self._seen
        stack = [e]
        cleared: List[int] = []
        while stack:
            p = stack.pop()
            reason_ref = reason[p >> 1]
            if reason_ref < 0:
                for var in cleared:
                    seen[var] = 0
                return False
            base = reason_ref + _HDR
            for k in range(base, base + arena[reason_ref]):
                q = arena[k]
                var = q >> 1
                if var == (p >> 1) or seen[var] or level[var] == 0:
                    continue
                if (
                    reason[var] >= 0
                    and (1 << (level[var] & 31)) & abstract_levels
                ):
                    seen[var] = 1
                    cleared.append(var)
                    touched.append(var)
                    stack.append(q)
                else:
                    for cvar in cleared:
                        seen[cvar] = 0
                    return False
        return True

    # ------------------------------------------------------------------
    # Activities and the VSIDS order heap
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        act = self._activity
        act[var] += self._var_inc
        if act[var] > _RESCALE_LIMIT:
            for v in range(1, self._num_vars + 1):
                act[v] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
        if self._heap_pos[var] >= 0:
            self._heap_sift_up(self._heap_pos[var])

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

    def _pick_branch_var(self) -> Optional[int]:
        heap, pos = self._heap, self._heap_pos
        value = self._value
        while heap:
            top = heap[0]
            pos[top] = -1
            last = heap.pop()
            if heap:
                heap[0] = last
                pos[last] = 0
                self._heap_sift_down(0)
            if value[top << 1] == _UNDEF:
                return top
        return None

    # ------------------------------------------------------------------
    # LBD-driven learned-clause reduction + arena compaction
    # ------------------------------------------------------------------
    def _is_reason(self, ref: int) -> bool:
        # Learned clauses keep their implied literal at position 0 while
        # they serve as a reason (it is true, so propagation never swaps
        # it out), making this an O(1) check.
        return self._reason[self._arena[ref + _HDR] >> 1] == ref

    def _reduce_db(self) -> None:
        arena = self._arena
        live = [r for r in self._learned_refs if not arena[r + 1] & _DEAD]
        candidates = [
            r
            for r in live
            if arena[r] > 2 and arena[r + 2] > 2 and not self._is_reason(r)
        ]
        if len(candidates) < 2:
            self._learned_refs = live
            return
        # Glue-aware: drop the worst half by (lbd, oldest); lbd <= 2
        # ("glue") clauses were excluded above and survive every cut.
        candidates.sort(key=lambda r: (arena[r + 2], -r))
        doomed = candidates[len(candidates) // 2 :]
        doomed_set = set(doomed)
        for ref in doomed:
            arena[ref + 1] |= _DEAD
            self._garbage += _HDR + arena[ref]
            self._learnt -= 1
            self._num_clauses -= 1
        self._learned_refs = [r for r in live if r not in doomed_set]
        if self._garbage * 2 > len(arena):
            self._compact_arena()

    def _compact_arena(self) -> None:
        """Slide live clauses down over the dead ones.

        Runs only when dead clauses hold more than half the arena, so the
        amortized cost per deleted clause is O(1) words; the existing
        watcher lists are remapped in place (stale refs fall out here)
        and reasons are fixed with a single trail walk -- no watch-table
        rebuild.
        """
        old = self._arena
        new = array("i")
        remap = {}
        i = 0
        n = len(old)
        while i < n:
            size = old[i]
            span = _HDR + size
            if not old[i + 1] & _DEAD:
                remap[i] = len(new)
                new.extend(old[i : i + span])
            i += span
        self._arena = new
        self._garbage = 0
        for wl in self._watches:
            if wl:
                wl[:] = [remap[r] for r in wl if r in remap]
        reason = self._reason
        for e in self._trail:
            var = e >> 1
            ref = reason[var]
            if ref >= 0:
                reason[var] = remap[ref]
        self._learned_refs = [remap[r] for r in self._learned_refs]

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> SolveResult:
        """Solve the formula, optionally under assumptions.

        An assumption failure returns UNSAT without spoiling the solver,
        and :class:`BudgetExhausted` raises at exactly ``>=
        conflict_budget`` conflicts.  The seated-assumption prefix shared
        with the previous call is *reused*: its propagated trail segment
        is kept instead of being re-derived, which is what makes many
        gated queries against one large shared clause DB cheap.
        """
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._solve_id += 1
        if not self._ok:
            return SolveResult(False)
        enc_assumps: List[int] = []
        for lit in assumptions:
            self.ensure_var(abs(lit))
            enc_assumps.append(
                (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            )

        # Trail saving: keep the decision levels whose seated assumptions
        # match this call's prefix; everything above is unwound.
        seated = self._seated
        keep = 0
        limit = min(len(seated), len(enc_assumps))
        while keep < limit and seated[keep] == enc_assumps[keep]:
            keep += 1
        self._cancel_until(keep)

        tracer = get_tracer()
        sample_every = tracer.heartbeat_interval
        solve_started = time.perf_counter() if sample_every else 0.0

        max_learnts = max(100, self._num_clauses // 3)
        restart_idx = 1
        conflicts_until_restart = 32 * _luby(restart_idx)
        conflicts_this_restart = 0
        value = self._value

        try:
            while True:
                conflict = self._propagate()
                if conflict >= 0:
                    self._conflicts += 1
                    conflicts_this_restart += 1
                    if sample_every and self._conflicts % sample_every == 0:
                        tracer.heartbeat(
                            self._progress_snapshot(
                                solve_started, conflict_budget
                            )
                        )
                    if (
                        conflict_budget is not None
                        and self._conflicts >= conflict_budget
                    ):
                        self._publish_metrics("budget_exhausted")
                        raise BudgetExhausted(
                            self._conflicts,
                            decisions=self._decisions,
                            propagations=self._propagations,
                        )
                    if not self._trail_lim:
                        self._ok = False
                        return self._finish(False)
                    learnt, back_level, lbd = self._analyze(conflict)
                    self._cancel_until(back_level)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], -1):
                            self._ok = False
                            return self._finish(False)
                    else:
                        ref = self._attach(learnt, learned=True, lbd=lbd)
                        self._enqueue(learnt[0], ref)
                    self._var_inc /= self._var_decay
                    continue

                if self._learnt > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)

                if conflicts_this_restart >= conflicts_until_restart:
                    restart_idx += 1
                    conflicts_until_restart = 32 * _luby(restart_idx)
                    conflicts_this_restart = 0
                    self._restarts += 1
                    # Restart to the assumption prefix, not to the root:
                    # the seated assumptions and their propagations are
                    # exactly the state worth keeping.
                    self._cancel_until(len(self._seated))
                    continue

                # Seat any outstanding assumptions as pseudo-decisions.
                next_e = -1
                is_assumption = False
                while len(self._trail_lim) < len(enc_assumps):
                    e = enc_assumps[len(self._trail_lim)]
                    val = value[e]
                    if val == _TRUE:
                        self._trail_lim.append(len(self._trail))
                        self._seated.append(e)
                        continue
                    if val == _FALSE:
                        return self._finish(False)
                    next_e = e
                    is_assumption = True
                    break
                if next_e < 0:
                    var = self._pick_branch_var()
                    if var is None:
                        return self._finish(True)
                    next_e = (var << 1) | (1 - self._phase[var])
                self._decisions += 1
                self._trail_lim.append(len(self._trail))
                if is_assumption:
                    self._seated.append(next_e)
                self._enqueue(next_e, -1)
        finally:
            if sample_every:
                tracer.heartbeat(
                    self._progress_snapshot(solve_started, conflict_budget)
                )
            # Unwind to the seated-assumption prefix (not to the root):
            # every exit path -- SAT, UNSAT, assumption failure, and a
            # BudgetExhausted raise -- leaves the solver consistent and
            # the shared prefix warm for the next query.
            self._cancel_until(len(self._seated))

    # ------------------------------------------------------------------
    def _progress_snapshot(
        self, solve_started: float, conflict_budget: Optional[int]
    ) -> ProgressSnapshot:
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
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("sat.solver_calls").inc()
            metrics.counter("sat.conflicts").inc(self._conflicts)
            metrics.counter("sat.decisions").inc(self._decisions)
            metrics.counter("sat.propagations").inc(self._propagations)
            metrics.counter("sat.restarts").inc(self._restarts)
            metrics.counter(f"sat.results.{outcome}").inc()

    def _finish(self, sat: bool) -> SolveResult:
        model: Optional[Model] = None
        if sat:
            model = Model(
                {e >> 1: not e & 1 for e in self._trail}
            )
        self._cancel_until(len(self._seated))
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
        return self._num_clauses

    @property
    def num_learnt(self) -> int:
        """Learned (conflict-derived) clauses currently in the database."""
        return self._learnt

    @property
    def ok(self) -> bool:
        """False once the clause set is known unsatisfiable outright."""
        return self._ok

    @property
    def saved_trail_depth(self) -> int:
        """Assumption levels currently kept warm between queries."""
        return len(self._seated)

    def root_value(self, var: int) -> Optional[bool]:
        """The variable's value when fixed at decision level 0, else None.

        Root assignments only ever grow, so a returned value is permanent:
        callers may strip the corresponding falsified literal from clauses
        they are about to add (the stripped clause is equivalent).
        """
        if var > self._num_vars:
            return None
        val = self._value[var << 1]
        if val != _UNDEF and self._level[var] == 0:
            return val == _TRUE
        return None
