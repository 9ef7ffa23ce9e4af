"""Fixtures shared across the test packages."""

import pytest

from repro.relational import problem
from repro.sat import FastSolver, Solver

#: The two CDCL solvers by name: the one synthesis runs on and the
#: reference oracle the differential suites compare it against.
SOLVERS = {"fast": FastSolver, "reference": Solver}


@pytest.fixture
def use_solver(monkeypatch):
    """Make every :class:`RelationalProblem` built from now on in this
    process (and in pool workers forked from it) run on the named solver.

    ``RelationalProblem`` constructs ``FastSolver`` by that one module
    name, so swapping it is the whole seam; the swap is undone when the
    test ends.  Returns the solver class.
    """

    def use(name):
        monkeypatch.setattr(problem, "FastSolver", SOLVERS[name])
        return SOLVERS[name]

    return use
