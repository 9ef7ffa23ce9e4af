"""Fixtures shared across the test packages."""

from collections import Counter
from functools import partial

import pytest

from repro.relational import problem
from tests.rup import CheckedSolver


@pytest.fixture
def checked_solver(monkeypatch):
    """Make every :class:`RelationalProblem` built from now on in this
    process run on :class:`tests.rup.CheckedSolver`, which proof-checks
    every learned clause, UNSAT answer and model and raises
    ``ProofError`` on a claim its clauses do not back.

    ``RelationalProblem`` constructs its solver through the one module
    name ``FastSolver``, so swapping it is the whole seam; the swap is
    undone when the test ends.  Returns the counts of checks those
    solvers made, by kind (``lemmas``, ``unsat``, ``models``).
    """
    checks = Counter()
    monkeypatch.setattr(problem, "FastSolver", partial(CheckedSolver, checks))
    return checks
