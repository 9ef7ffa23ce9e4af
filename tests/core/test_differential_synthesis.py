"""Differential testing of the synthesis modes, on a proof-checked solver.

The shared encoding (one translation per bundle, every signature
enumerated under selector assumptions on one warm solver) is an
optimization, not a semantics change: for any bundle it must produce
byte-identical scenario payloads, the same detected-vulnerability sets,
and the same reports -- including under a conflict budget, where both
modes degrade by truncating each signature's canonical enumeration
rather than by diverging.

Every test here runs on :class:`tests.rup.CheckedSolver`, swapped in
through the ``checked_solver`` seam: each learned clause is RUP-checked
when it is learned, each UNSAT answer -- the "no further scenario" claim
that ends an enumeration -- is refuted by unit propagation from its
assumptions, and each model is checked against every clause, in both
modes and in budgeted runs.  ``TestCheckerIsPassive`` reruns one bundle
on the plain ``FastSolver`` and pins the same search, conflict for
conflict, so the checks vouch for the solver synthesis ships with.

Bundles are drawn from the injected-vulnerability corpus generator under
a fixed seed, so CI replays the exact same instances every run.
"""

import json
import random

import pytest

from repro.core.attack_generation import (
    SCALED_SIGNATURES,
    AdversarialCorpusConfig,
    AdversarialCorpusGenerator,
)
from repro.core.serialize import scenario_to_dict
from repro.core.synthesis import AnalysisAndSynthesisEngine
from repro.relational import problem
from repro.sat import FastSolver
from repro.statics import extract_bundle
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from tests.rup import CheckedSolver


SEED = 20160807

pytestmark = pytest.mark.usefixtures("checked_solver")


@pytest.fixture(scope="module")
def corpus():
    generator = CorpusGenerator(CorpusConfig(scale=0.01, seed=SEED))
    apks = generator.generate()
    ledger = generator.ledger
    flagged = set()
    for group in (
        ledger.hijack_apps,
        ledger.launch_apps,
        ledger.leak_apps,
        ledger.escalation_apps,
    ):
        flagged.update(group)
    return apks, flagged


def _payload(result):
    return json.dumps(
        [scenario_to_dict(s) for s in result.scenarios], sort_keys=True
    )


def _by_signature(result):
    grouped = {}
    for scenario in result.scenarios:
        grouped.setdefault(scenario.vulnerability, []).append(
            scenario_to_dict(scenario)
        )
    return grouped


def _run(bundle, shared, **kwargs):
    engine = AnalysisAndSynthesisEngine(
        scenarios_per_signature=4, shared_encoding=shared, **kwargs
    )
    return engine.run(bundle)


def _random_bundles(apks, flagged, count, size):
    """Seeded bundles biased toward the injected-vulnerable apps."""
    rng = random.Random(SEED)
    vulnerable = [a for a in apks if a.package in flagged]
    neutral = [a for a in apks if a.package not in flagged]
    bundles = []
    for _ in range(count):
        picked = rng.sample(vulnerable, min(2, len(vulnerable)))
        picked += rng.sample(neutral, max(0, size - len(picked)))
        bundles.append(extract_bundle(picked))
    return bundles


class TestModesAgree:
    def test_identical_scenarios_and_vulnerability_sets(
        self, corpus, checked_solver
    ):
        apks, flagged = corpus
        for bundle in _random_bundles(apks, flagged, count=3, size=3):
            per_sig = _run(bundle, shared=False)
            shared = _run(bundle, shared=True)
            assert _payload(per_sig) == _payload(shared)
            assert {s.vulnerability for s in per_sig.scenarios} == {
                s.vulnerability for s in shared.scenarios
            }
            # Reuse accounting only ever reports work the shared mode
            # actually skipped.
            assert per_sig.stats.translations == len(
                AnalysisAndSynthesisEngine().signatures
            )
            assert shared.stats.translations == 1
            assert shared.stats.translations_avoided == (
                per_sig.stats.translations - 1
            )
        assert checked_solver["unsat"] > 0
        assert checked_solver["models"] > 0

    def test_vulnerable_bundle_finds_scenarios_in_both_modes(self, corpus):
        apks, flagged = corpus
        vulnerable = [a for a in apks if a.package in flagged]
        if not vulnerable:
            pytest.skip("corpus slice contains no injected apps")
        bundle = extract_bundle(vulnerable[:3])
        per_sig = _run(bundle, shared=False)
        engine = AnalysisAndSynthesisEngine(scenarios_per_signature=4)
        shared = engine.run(bundle)
        assert per_sig.scenarios, "injected bundle should yield scenarios"
        assert _payload(per_sig) == _payload(shared)
        # The seam really put the checking solver under the synthesis.
        assert type(engine.last_problem._solver) is CheckedSolver

    def test_empty_bundle_agrees(self):
        bundle = extract_bundle([])
        per_sig = _run(bundle, shared=False)
        shared = _run(bundle, shared=True)
        assert _payload(per_sig) == _payload(shared)


def _search(result):
    stats = result.stats
    return (
        stats.num_vars,
        stats.num_clauses,
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.solver_calls,
        stats.learned_carried,
    )


class TestCheckerIsPassive:
    def test_checked_runs_replay_the_plain_solvers_search(
        self, corpus, checked_solver, monkeypatch
    ):
        """The checker only records and checks: a checked run makes the
        very search of the plain ``FastSolver`` that synthesis ships
        with, to the conflict, so what the checks vouched for is the
        product's own search (payload identity alone would not show it:
        the canonical minimizer makes payloads trajectory-independent)."""
        apks, flagged = corpus
        bundle = extract_bundle(
            [a for a in apks if a.package in flagged][:3]
        )
        checked = [_run(bundle, shared) for shared in (False, True)]
        assert checked_solver["unsat"] > 0
        monkeypatch.setattr(problem, "FastSolver", FastSolver)
        plain = [_run(bundle, shared) for shared in (False, True)]
        assert checked[0].scenarios, "injected bundle should yield scenarios"
        for mine, theirs in zip(checked, plain):
            assert _payload(mine) == _payload(theirs)
            assert _search(mine) == _search(theirs)


class TestBudgetDegradation:
    """Both modes degrade the same way: each signature's enumeration is
    cut to a prefix of its canonical (unbudgeted) scenario list and the
    result is flagged exhausted -- never a divergent scenario."""

    def _assert_prefix_degradation(self, full, budgeted):
        full_by_sig = _by_signature(full)
        cut_by_sig = _by_signature(budgeted)
        for name, scenarios in cut_by_sig.items():
            reference = full_by_sig.get(name, [])
            assert scenarios == reference[: len(scenarios)], name
        if not budgeted.stats.exhausted:
            # Budget never bit: the runs must match outright.
            assert _payload(budgeted) == _payload(full)

    def test_conflict_budget_prefix_semantics(self, corpus):
        apks, flagged = corpus
        vulnerable = [a for a in apks if a.package in flagged]
        if not vulnerable:
            pytest.skip("corpus slice contains no injected apps")
        bundle = extract_bundle(vulnerable[:3])
        full = _run(bundle, shared=False)
        for budget in (1, 25):
            per_sig = _run(bundle, shared=False, conflict_budget=budget)
            shared = _run(bundle, shared=True, conflict_budget=budget)
            self._assert_prefix_degradation(full, per_sig)
            self._assert_prefix_degradation(full, shared)
            # Exhaustion is recorded per signature in both modes.
            for result in (per_sig, shared):
                for name, entry in result.stats.per_signature.items():
                    assert "exhausted" in entry, name

    def test_generous_budget_is_exact(self, corpus):
        apks, flagged = corpus
        vulnerable = [a for a in apks if a.package in flagged]
        if not vulnerable:
            pytest.skip("corpus slice contains no injected apps")
        bundle = extract_bundle(vulnerable[:2])
        full = _run(bundle, shared=False)
        per_sig = _run(bundle, shared=False, conflict_budget=10_000_000)
        shared = _run(bundle, shared=True, conflict_budget=10_000_000)
        assert not per_sig.stats.exhausted
        assert not shared.stats.exhausted
        assert _payload(per_sig) == _payload(full)
        assert _payload(shared) == _payload(full)


@pytest.fixture(scope="module")
def scaled_bundles():
    """Adversarial bundles exercising the four PR-9 signatures: one
    planted attack plus one near-miss decoy per signature per bundle."""
    config = AdversarialCorpusConfig(seed=SEED, bundles=2, apps_per_bundle=5)
    raw, _manifest = AdversarialCorpusGenerator(config).generate()
    return [
        extract_bundle(apks, handle_dynamic_receivers=True) for apks in raw
    ]


class TestScaledSignaturesDifferential:
    """The shared-encoding identity must extend to the scaled threat
    model: re-delegation chains, provider leaks, dynamic receiver hijack
    and collusion all enumerate under gated selectors."""

    def test_modes_agree_and_all_scaled_signatures_fire(
        self, scaled_bundles, checked_solver
    ):
        for bundle in scaled_bundles:
            per_sig = _run(bundle, shared=False)
            shared = _run(bundle, shared=True)
            assert _payload(per_sig) == _payload(shared)
            found = {s.vulnerability for s in shared.scenarios}
            assert set(SCALED_SIGNATURES) <= found, (
                "every planted scaled signature must enumerate; "
                f"missing {set(SCALED_SIGNATURES) - found}"
            )
        assert checked_solver["unsat"] > 0

    def test_budget_prefix_semantics_on_scaled_bundle(self, scaled_bundles):
        bundle = scaled_bundles[0]
        full = _run(bundle, shared=False)
        full_by_sig = _by_signature(full)
        for budget in (1, 50):
            for shared in (False, True):
                cut = _run(bundle, shared=shared, conflict_budget=budget)
                cut_by_sig = _by_signature(cut)
                for name, scenarios in cut_by_sig.items():
                    reference = full_by_sig.get(name, [])
                    assert scenarios == reference[: len(scenarios)], (
                        budget,
                        shared,
                        name,
                    )
                if not cut.stats.exhausted:
                    assert _payload(cut) == _payload(full)
