"""Differential testing: synthesis modes and solvers.

The shared encoding (one translation per bundle, every signature
enumerated under selector assumptions on one warm solver) is an
optimization, not a semantics change: for any bundle it must produce
byte-identical scenario payloads, the same detected-vulnerability sets,
and the same reports -- including under a conflict budget, where both
modes degrade by truncating each signature's canonical enumeration
rather than by diverging.

The same contract holds across *solvers*: synthesis runs on the
flat-arena ``FastSolver``, and the reference solver, swapped in through
the ``use_solver`` seam, must produce byte-identical payloads in both
modes (that identity is what justifies leaving the solver out of
pipeline cache keys).  So the mode tests here run on both solvers, and
``TestBackendsAgree`` pins the full solver-by-mode matrix to a single
payload.

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
from repro.statics import extract_bundle
from repro.workloads.corpus import CorpusConfig, CorpusGenerator


SEED = 20160807

BACKENDS = ["fast", "reference"]


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


@pytest.mark.parametrize("backend", BACKENDS)
class TestModesAgree:
    def test_identical_scenarios_and_vulnerability_sets(
        self, corpus, backend, use_solver
    ):
        apks, flagged = corpus
        use_solver(backend)
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

    def test_vulnerable_bundle_finds_scenarios_in_both_modes(
        self, corpus, backend, use_solver
    ):
        apks, flagged = corpus
        vulnerable = [a for a in apks if a.package in flagged]
        if not vulnerable:
            pytest.skip("corpus slice contains no injected apps")
        bundle = extract_bundle(vulnerable[:3])
        solver = use_solver(backend)
        per_sig = _run(bundle, shared=False)
        engine = AnalysisAndSynthesisEngine(scenarios_per_signature=4)
        shared = engine.run(bundle)
        assert per_sig.scenarios, "injected bundle should yield scenarios"
        assert _payload(per_sig) == _payload(shared)
        # The seam really put the named solver under the synthesis.
        assert type(engine.last_problem._solver) is solver

    def test_empty_bundle_agrees(self, backend, use_solver):
        use_solver(backend)
        bundle = extract_bundle([])
        per_sig = _run(bundle, shared=False)
        shared = _run(bundle, shared=True)
        assert _payload(per_sig) == _payload(shared)


class TestBackendsAgree:
    """The solver-by-mode matrix must collapse to one payload.

    This is the invariant that lets the pipeline cache omit the solver
    from its keys: any (solver, mode) combination may serve a payload
    cached by any other."""

    def test_backend_mode_matrix_is_byte_identical(self, corpus, use_solver):
        apks, flagged = corpus
        vulnerable = [a for a in apks if a.package in flagged]
        if not vulnerable:
            pytest.skip("corpus slice contains no injected apps")
        bundle = extract_bundle(vulnerable[:3])
        payloads = {}
        for backend in BACKENDS:
            use_solver(backend)
            for shared in (False, True):
                payloads[backend, shared] = _payload(
                    _run(bundle, shared=shared)
                )
        assert len(set(payloads.values())) == 1, sorted(payloads)

    def test_budgeted_runs_agree_across_backends(self, corpus, use_solver):
        """Degraded (budget-exhausted) runs must also match: the exact
        ``BudgetExhausted`` contract makes both solvers truncate each
        signature's enumeration at the same point."""
        apks, flagged = corpus
        vulnerable = [a for a in apks if a.package in flagged]
        if not vulnerable:
            pytest.skip("corpus slice contains no injected apps")
        bundle = extract_bundle(vulnerable[:3])
        for budget in (1, 25):
            for shared in (False, True):
                payloads = {}
                for backend in BACKENDS:
                    use_solver(backend)
                    payloads[backend] = _payload(
                        _run(bundle, shared=shared, conflict_budget=budget)
                    )
                assert len(set(payloads.values())) == 1, (budget, shared)


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
    """The shared-encoding and solver identities must extend to the
    scaled threat model: re-delegation chains, provider leaks, dynamic
    receiver hijack and collusion all enumerate under gated selectors."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_modes_agree_and_all_scaled_signatures_fire(
        self, scaled_bundles, backend, use_solver
    ):
        use_solver(backend)
        for bundle in scaled_bundles:
            per_sig = _run(bundle, shared=False)
            shared = _run(bundle, shared=True)
            assert _payload(per_sig) == _payload(shared)
            found = {s.vulnerability for s in shared.scenarios}
            assert set(SCALED_SIGNATURES) <= found, (
                "every planted scaled signature must enumerate; "
                f"missing {set(SCALED_SIGNATURES) - found}"
            )

    def test_backend_mode_matrix_on_scaled_bundle(
        self, scaled_bundles, use_solver
    ):
        bundle = scaled_bundles[0]
        payloads = {}
        for backend in BACKENDS:
            use_solver(backend)
            for shared in (False, True):
                payloads[backend, shared] = _payload(
                    _run(bundle, shared=shared)
                )
        assert len(set(payloads.values())) == 1, sorted(payloads)

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
