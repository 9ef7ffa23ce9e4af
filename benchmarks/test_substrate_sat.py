"""Substrate benchmark: the CDCL solver and the relational translator.

Not a paper table -- Table II's construction-vs-solving split rests on the
substrate's performance characteristics, so this bench pins them: the
solver handles structured UNSAT (pigeonhole) and random 3-SAT near the
phase transition at the sizes the synthesis pipeline produces, and the
translator's clause volume grows linearly in bundle size.
"""

import random

import pytest

from repro.sat import FastSolver
from repro.sat.fastsolver import _UNDEF
from repro.statics import extract_bundle
from repro.workloads import CorpusConfig, CorpusGenerator


def random_3sat(num_vars: int, ratio: float, seed: int):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(num_vars * ratio)):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def pigeonhole(holes: int):
    pigeons = holes + 1
    clauses = []

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def test_benchmark_random_3sat_under_transition(benchmark):
    """Satisfiable region (ratio 3.8): models found quickly."""
    clauses = random_3sat(120, 3.8, seed=7)

    def run():
        solver = FastSolver()
        solver.add_clauses(clauses)
        return solver.solve()

    result = benchmark(run)
    assert result.satisfiable


def test_benchmark_random_3sat_at_transition(benchmark):
    """Phase transition (ratio ~4.26): the hard regime."""
    clauses = random_3sat(80, 4.26, seed=11)

    def run():
        solver = FastSolver()
        solver.add_clauses(clauses)
        return solver.solve()

    benchmark(run)


def test_benchmark_pigeonhole_unsat(benchmark):
    """Structured UNSAT exercising clause learning."""
    clauses = pigeonhole(6)

    def run():
        solver = FastSolver()
        solver.add_clauses(clauses)
        return solver.solve()

    result = benchmark(run)
    assert not result.satisfiable


class TestDecisionLoop:
    def test_order_heap_beats_linear_scan(self):
        """Branch selection via the VSIDS order heap is O(log n) per decision
        against the O(n) scan it replaced; on synthesis-sized variable counts
        the decision loop speedup is well over an order of magnitude."""
        import time

        solver = FastSolver()
        num_vars = 20_000
        solver.add_clauses([[v, v + 1] for v in range(1, num_vars, 2)])
        rng = random.Random(5)
        for _ in range(num_vars):
            solver._bump_var(rng.randrange(1, num_vars + 1))

        def linear_pick():
            best, best_act = None, -1.0
            for var in range(1, solver._num_vars + 1):
                if (
                    solver._value[var << 1] == _UNDEF
                    and solver._activity[var] > best_act
                ):
                    best, best_act = var, solver._activity[var]
            return best

        rounds = 300
        start = time.perf_counter()
        for _ in range(rounds):
            var = solver._pick_branch_var()
            solver._heap_insert(var)
        heap_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(rounds):
            linear_pick()
        linear_seconds = time.perf_counter() - start

        # Both strategies agree on the maximum activity (ties may differ by
        # variable index, so compare the activity value, not the id).
        assert solver._activity[linear_pick()] == \
            solver._activity[solver._pick_branch_var()]
        speedup = linear_seconds / max(heap_seconds, 1e-9)
        print(f"\ndecision loop: heap {heap_seconds * 1e6 / rounds:.1f}us/pick, "
              f"linear {linear_seconds * 1e6 / rounds:.1f}us/pick "
              f"({speedup:.0f}x speedup at {num_vars} vars)")
        assert speedup > 5.0, "order heap must beat the linear scan"


class TestTranslationScaling:
    def test_clause_volume_linear_in_bundle_size(self):
        """Partial-instance pinning keeps CNF growth linear: doubling the
        bundle roughly doubles clauses, far from the quadratic blowup a
        naive encoding of component interactions would give."""
        from repro.core.app_to_spec import BundleSpec
        from repro.core.vulnerabilities import ServiceLaunchSignature

        sizes = {}
        for n_apps, scale in ((12, 0.003), (25, 0.00625)):
            generator = CorpusGenerator(CorpusConfig(scale=scale, seed=3))
            bundle = extract_bundle(generator.generate())
            spec = BundleSpec(bundle)
            inst = ServiceLaunchSignature().instantiate(spec)
            problem = spec.module.solve_problem(
                goal=inst.goal, extra=inst.extra_scopes
            )
            sizes[len(bundle.apps)] = problem.stats.num_clauses
        (small_n, small_c), (large_n, large_c) = sorted(sizes.items())
        growth = (large_c / small_c) / (large_n / small_n)
        print(f"\nclause growth factor per app-count doubling: {growth:.2f}")
        assert growth < 3.0, "clause volume must stay near-linear"
