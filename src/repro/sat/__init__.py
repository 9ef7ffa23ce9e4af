"""Pure-Python CDCL SAT solver substrate.

SEPAR's analysis and synthesis engine (ASE) reduces relational-logic
specifications to propositional satisfiability and discharges them with an
off-the-shelf SAT solver (the paper uses Sat4J).  This package is that
substrate: a conflict-driven clause-learning solver with two-watched-literal
propagation, VSIDS-style activity heuristics, first-UIP clause learning, and
Luby restarts, plus CNF utilities (Tseitin transformation of arbitrary
boolean circuits) and DIMACS import/export.

Two implementations share the solver contract:

- :class:`repro.sat.fastsolver.FastSolver` -- a MiniSat-style flat-arena
  implementation (integer clause refs, per-literal watcher lists,
  LBD-tagged clause reduction, assumption-aware trail saving): the solver
  every synthesis runs on.
- :class:`repro.sat.solver.Solver` -- the readable object-graph
  reference implementation, kept as the test oracle: the fuzz suite runs
  it in lockstep with ``FastSolver``, and the differential suites swap it
  into :class:`repro.relational.problem.RelationalProblem` to check that
  relational results are byte-identical.

Public API
----------
- :class:`repro.sat.fastsolver.FastSolver` -- the flat-arena CDCL solver.
- :class:`repro.sat.solver.Solver` -- the reference CDCL solver.
- :class:`repro.sat.solver.Model` -- assigned-only satisfying assignment.
- :class:`repro.sat.cnf.CNF` -- a clause database with variable allocation.
- :mod:`repro.sat.tseitin` -- boolean circuit nodes and CNF conversion.
- :mod:`repro.sat.dimacs` -- DIMACS CNF reading and writing.
"""

from repro.sat.cnf import CNF
from repro.sat.fastsolver import FastSolver
from repro.sat.solver import BudgetExhausted, Model, Solver, SolveResult

__all__ = [
    "CNF",
    "Solver",
    "FastSolver",
    "SolveResult",
    "Model",
    "BudgetExhausted",
]
