"""Pure-Python CDCL SAT solver substrate.

SEPAR's analysis and synthesis engine (ASE) reduces relational-logic
specifications to propositional satisfiability and discharges them with an
off-the-shelf SAT solver (the paper uses Sat4J).  This package is that
substrate: a conflict-driven clause-learning solver with two-watched-literal
propagation, VSIDS-style activity heuristics, first-UIP clause learning, and
Luby restarts, plus CNF utilities (Tseitin transformation of arbitrary
boolean circuits) and DIMACS import/export.

One solver runs every synthesis: :class:`repro.sat.fastsolver.FastSolver`,
a MiniSat-style flat-arena implementation (integer clause refs,
per-literal watcher lists, LBD-tagged clause reduction,
assumption-aware trail saving).  Its answers are checked by proof in the
test suite rather than against a second solver: learned clauses and
UNSAT answers by reverse unit propagation, models against every clause.

Public API
----------
- :class:`repro.sat.fastsolver.FastSolver` -- the flat-arena CDCL solver.
- :class:`repro.sat.fastsolver.SolveResult` -- one ``solve()`` outcome.
- :class:`repro.sat.fastsolver.Model` -- assigned-only satisfying assignment.
- :class:`repro.sat.fastsolver.BudgetExhausted` -- a conflict budget ran out.
- :class:`repro.sat.cnf.CNF` -- a clause database with variable allocation.
- :mod:`repro.sat.tseitin` -- boolean circuit nodes and CNF conversion.
- :mod:`repro.sat.dimacs` -- DIMACS CNF reading and writing.
"""

from repro.sat.cnf import CNF
from repro.sat.fastsolver import BudgetExhausted, FastSolver, Model, SolveResult

__all__ = [
    "CNF",
    "FastSolver",
    "SolveResult",
    "Model",
    "BudgetExhausted",
]
