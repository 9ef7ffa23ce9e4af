"""Encoding construction must produce a byte-identical CNF.

Construction avoids throwaway work in three places: the circuit
factories fold without building a ``not`` node per operand and return a
lone operand as it is (``repro.sat.tseitin._fold``), ``Translator._join``
reuses each right operand's cached leading-atom index, and
``FastSolver.add_clause`` attaches a root-level clause without the
live-trail path or a per-literal ``ensure_var`` call.  None of that may
change the encoding.

This module keeps the straightforward construction as the reference --
``_flatten``-based ``and_``/``or_``, a join that re-indexes its right
operand on every call, and ``add_clause`` as it was -- swaps it in with
``monkeypatch``, and checks that shared-encoding synthesis of the same
bundle yields the same clauses in the same order over the same
variables, the same solver counters and the same scenarios.

The at-most-one ladder is the one place the CNF changes on purpose:
``Translator._at_most_one`` builds each prefix as one binary ``or``,
where the ladder kept here as ``reference_at_most_one`` re-flattened
every prefix through ``or_`` into a fresh *k*-ary node, quadratic in
clauses.  Both encode the same constraint, and canonical minimization
returns the lex-least model over the primary variables, a function of
the formula's models alone.  So with the reference ladder swapped in,
scenarios, policies and the cache payload (its ``stats`` aside) must
stay identical, while every bundle with a live signature group costs
strictly fewer clauses on the linear ladder.

The comparison runs inside one interpreter, so it holds on any Python
version (a golden digest would pin one ``hash`` implementation).
Bundles: the paper's running example; from the CI smoke corpus, one
bundle with live signature groups and one whose groups all fold away;
and one of injected-vulnerable and neutral apps drawn with
``REPRO_FUZZ_SEED``.
"""

import json
import os
import random

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.core.policy import derive_policies
from repro.core.serialize import policy_to_dict, scenario_to_dict
from repro.core.synthesis import AnalysisAndSynthesisEngine
from repro.pipeline.synthesis_key import synthesis_payload
from repro.relational.translate import Matrix, Translator
from repro.sat import tseitin as ts
from repro.sat.fastsolver import _FALSE, _TRUE, _UNDEF, FastSolver
from repro.statics import extract_bundle
from repro.workloads import CorpusConfig, CorpusGenerator, partition_bundles


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20160807"))

STAT_FIELDS = (
    "num_vars",
    "num_clauses",
    "conflicts",
    "decisions",
    "propagations",
    "solver_calls",
)

# Indices into the CI smoke corpus's bundles (scale 0.01, seed 2016,
# four apps per bundle); the tests assert each one's shape.
LIVE_BUNDLE = 4
FOLDED_BUNDLE = 0


# ----------------------------------------------------------------------
# The reference construction
# ----------------------------------------------------------------------
def _flatten(kind, operands):
    flat = []
    for op in operands:
        if op.kind == kind:
            flat.extend(op.children)
        else:
            flat.append(op)
    return flat


def reference_and(*operands):
    ops = _flatten("and", operands)
    kept = []
    seen = set()
    for op in ops:
        if op is ts.FALSE:
            return ts.FALSE
        if op is ts.TRUE or op in seen:
            continue
        if ts.not_(op) in seen:
            return ts.FALSE
        seen.add(op)
        kept.append(op)
    if not kept:
        return ts.TRUE
    if len(kept) == 1:
        return kept[0]
    return ts.Node("and", tuple(kept))


def reference_or(*operands):
    ops = _flatten("or", operands)
    kept = []
    seen = set()
    for op in ops:
        if op is ts.TRUE:
            return ts.TRUE
        if op is ts.FALSE or op in seen:
            continue
        if ts.not_(op) in seen:
            return ts.TRUE
        seen.add(op)
        kept.append(op)
    if not kept:
        return ts.FALSE
    if len(kept) == 1:
        return kept[0]
    return ts.Node("or", tuple(kept))


def reference_join(self, left, right):
    arity = left.arity + right.arity - 2
    # Index right-hand entries by leading atom.
    by_head = {}
    for rkey, rnode in right.entries.items():
        by_head.setdefault(rkey[0], []).append((rkey[1:], rnode))
    combined = {}
    for lkey, lnode in left.entries.items():
        tail = lkey[-1]
        for rrest, rnode in by_head.get(tail, ()):
            combined.setdefault(lkey[:-1] + rrest, []).append(
                ts.and_(lnode, rnode)
            )
    return Matrix(arity, {k: ts.or_(*v) for k, v in combined.items()})


def reference_add_clause(self, literals):
    if not self._ok:
        return False
    value = self._value
    level = self._level
    seen = set()
    lits = []
    for lit in literals:
        if lit == 0:
            raise ValueError("0 is not a valid literal")
        self.ensure_var(abs(lit))
        e = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
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
    return self._attach_live(lits)


def reference_at_most_one(nodes):
    """The ladder with each prefix re-flattened by ``or_``."""
    live = [n for n in nodes if n is not ts.FALSE]
    if len(live) <= 1:
        return ts.TRUE
    constraints = []
    seen_before = live[0]
    for node in live[1:]:
        constraints.append(ts.not_(ts.and_(seen_before, node)))
        seen_before = ts.or_(seen_before, node)
    return ts.all_of(constraints)


def use_reference(monkeypatch):
    """Route construction through the reference until the patch is undone.

    Returns a dict counting the calls each reference function received,
    so a test can tell that the swap actually reached construction.
    """
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ts, "and_", counted("and_", reference_and))
    monkeypatch.setattr(ts, "or_", counted("or_", reference_or))
    monkeypatch.setattr(Translator, "_join", counted("_join", reference_join))
    monkeypatch.setattr(
        FastSolver, "add_clause", counted("add_clause", reference_add_clause)
    )
    return calls


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_bundles():
    apks = CorpusGenerator(CorpusConfig(scale=0.01, seed=2016)).generate()
    return partition_bundles(apks, bundle_size=4, seed=2016)


def _fuzz_bundle():
    """Two injected-vulnerable and two neutral apps, seeded."""
    generator = CorpusGenerator(CorpusConfig(scale=0.02, seed=FUZZ_SEED))
    apks = generator.generate()
    ledger = generator.ledger
    flagged = (
        ledger.hijack_apps
        | ledger.launch_apps
        | ledger.leak_apps
        | ledger.escalation_apps
    )
    rng = random.Random(FUZZ_SEED)
    vulnerable = [a for a in apks if a.package in flagged]
    neutral = [a for a in apks if a.package not in flagged]
    return rng.sample(vulnerable, 2) + rng.sample(neutral, 2)


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def _synthesize(apks):
    engine = AnalysisAndSynthesisEngine(scenarios_per_signature=2)
    bundle = extract_bundle(apks)
    result = engine.run_shared(bundle)
    problem = engine.last_problem
    cnf = problem._record.cnf
    payload = synthesis_payload(result)
    del payload["stats"]
    return {
        "clauses": list(cnf.clauses),
        "num_vars": cnf.num_vars,
        "stats": {name: getattr(result.stats, name) for name in STAT_FIELDS},
        "scenarios": json.dumps(
            [scenario_to_dict(s) for s in result.scenarios], sort_keys=True
        ),
        "policies": json.dumps(
            [policy_to_dict(p) for p in derive_policies(result.scenarios, bundle)],
            sort_keys=True,
        ),
        "payload": json.loads(json.dumps(payload)),
        "dead_gates": len(problem.dead_gates),
        "signatures": len(engine.signatures),
    }


def _assert_identical(monkeypatch, apks):
    built = _synthesize(apks)
    with monkeypatch.context() as patch:
        calls = use_reference(patch)
        reference = _synthesize(apks)
    assert set(calls) == {"and_", "or_", "_join", "add_clause"}
    assert built["num_vars"] == reference["num_vars"]
    assert len(built["clauses"]) == len(reference["clauses"])
    assert built["clauses"] == reference["clauses"]
    assert built["stats"] == reference["stats"]
    assert built["scenarios"] == reference["scenarios"]
    return built


def _assert_same_findings(monkeypatch, apks):
    """Synthesize on the linear ladder and on the flattened reference.

    Returns the linear side's synthesis, both sides' clause counts
    ``(linear, flattened)`` and the number of ladders the reference
    built.
    """
    built = _synthesize(apks)
    ladders = []

    def counted(nodes):
        ladders.append(len(nodes))
        return reference_at_most_one(nodes)

    with monkeypatch.context() as patch:
        patch.setattr(Translator, "_at_most_one", staticmethod(counted))
        flattened = _synthesize(apks)
    assert built["scenarios"] == flattened["scenarios"]
    assert built["policies"] == flattened["policies"]
    assert built["payload"] == flattened["payload"]
    clauses = (built["stats"]["num_clauses"], flattened["stats"]["num_clauses"])
    return built, clauses, len(ladders)


class TestEncodingIdentity:
    def test_running_example(self, monkeypatch):
        built = _assert_identical(monkeypatch, [build_app1(), build_app2()])
        assert built["scenarios"] != "[]"

    def test_smoke_corpus_live_bundle(self, monkeypatch, smoke_bundles):
        built = _assert_identical(monkeypatch, smoke_bundles[LIVE_BUNDLE])
        assert built["dead_gates"] < built["signatures"]

    def test_smoke_corpus_folded_bundle(self, monkeypatch, smoke_bundles):
        built = _assert_identical(monkeypatch, smoke_bundles[FOLDED_BUNDLE])
        assert built["dead_gates"] == built["signatures"]

    def test_injected_vulnerable_bundle(self, monkeypatch):
        built = _assert_identical(monkeypatch, _fuzz_bundle())
        assert built["dead_gates"] < built["signatures"]


class TestLinearLadderFindings:
    """The linear ladder changes the CNF, never what synthesis finds."""

    def test_running_example(self, monkeypatch):
        built, (linear, flattened), ladders = _assert_same_findings(
            monkeypatch, [build_app1(), build_app2()]
        )
        assert built["scenarios"] != "[]" and ladders > 0
        assert linear < flattened

    def test_smoke_corpus_live_bundle(self, monkeypatch, smoke_bundles):
        built, (linear, flattened), ladders = _assert_same_findings(
            monkeypatch, smoke_bundles[LIVE_BUNDLE]
        )
        assert built["dead_gates"] < built["signatures"] and ladders > 0
        assert linear < flattened

    def test_smoke_corpus_folded_bundle(self, monkeypatch, smoke_bundles):
        built, (linear, flattened), _ = _assert_same_findings(
            monkeypatch, smoke_bundles[FOLDED_BUNDLE]
        )
        assert built["dead_gates"] == built["signatures"]
        assert linear == flattened

    def test_injected_vulnerable_bundle(self, monkeypatch):
        built, (linear, flattened), ladders = _assert_same_findings(
            monkeypatch, _fuzz_bundle()
        )
        assert built["dead_gates"] < built["signatures"] and ladders > 0
        assert linear < flattened
