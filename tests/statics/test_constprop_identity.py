"""Value analysis that stops early must match the round-robin fixpoint.

``ValueAnalysis._run`` stops after the first round in which no summary
slot grew after that round read it, without running the round that would
only confirm the fixpoint (see :mod:`repro.statics.constprop`).  That may
not change what the analysis computes.

This module keeps the earlier loop as the reference -- every method
analyzed once per round, each analysis reporting whether it grew a
summary or changed a published state, until a round changes nothing or
``max_rounds`` rounds have run -- swaps it in with ``monkeypatch``, and
checks that both leave the same ``states_before`` and the same
summaries:

- on seeded random multi-class programs (``REPRO_FUZZ_SEED``) with heap
  and static flows, back edges, cross-class and recursive calls, returns
  and ``getIntent``, at ``max_rounds`` 1, 2 and 12;
- on a backward call chain long enough to hit the 12-round cap;

and that extraction of every app of the scale-0.01 corpora, DroidBench
and ICC-Bench serializes to the same bytes.
"""

import json
import os
import random
from typing import Dict

import pytest

from repro.android.apk import Apk
from repro.android.components import ComponentDecl, ComponentKind
from repro.android.manifest import Manifest
from repro.benchsuite.droidbench import droidbench_cases
from repro.benchsuite.iccbench import iccbench_cases
from repro.core import serialize
from repro.dex import DexClass, DexProgram, MethodBuilder
from repro.dex.instructions import (
    ConstString,
    IGet,
    IPut,
    Invoke,
    Move,
    NewInstance,
    Return,
    SGet,
    SPut,
)
from repro.statics import extract_app
from repro.statics.callgraph import CallGraph
from repro.statics.constprop import (
    _GET_INTENT_APIS,
    EMPTY,
    UNKNOWN,
    IntentParamVal,
    ObjVal,
    StrVal,
    ValueAnalysis,
)
from repro.workloads import CorpusConfig, CorpusGenerator


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20160807"))
PROGRAMS = 40


# ----------------------------------------------------------------------
# The reference fixpoint: whole-app rounds
# ----------------------------------------------------------------------
def reference_entry_state(self, method):
    state = {}
    for pi, param in enumerate(method.params):
        incoming = set(self._param_in.get((method.qualified_name, pi), ()))
        if pi == 0 and method.receives_intent:
            incoming.add(IntentParamVal(method.class_name))
        if not incoming:
            incoming.add(UNKNOWN)
        state[param] = frozenset(incoming)
    return state


def reference_run(self):
    methods = list(self.program.all_methods())
    for _ in range(self.max_rounds):
        changed = False
        for method in methods:
            changed |= self._analyze_method(method)
        if not changed:
            break


def reference_analyze_method(self, method):
    cfg = self.callgraph.cfgs[method.qualified_name]
    if not cfg.blocks:
        return False
    entry = self._entry_state(method)
    block_in = {0: entry}
    worklist = [0]
    visited_out = {}
    changed_global = False
    states_local = {}
    reachable = cfg.reachable_blocks()

    while worklist:
        bi = worklist.pop()
        if bi not in reachable:
            continue
        state = dict(block_in.get(bi, {}))
        block = cfg.blocks[bi]
        for ii in block.instruction_indices:
            states_local[ii] = dict(state)
            changed_global |= self._transfer(
                method, ii, method.instructions[ii], state
            )
        out = state
        prev_out = visited_out.get(bi)
        if prev_out == out:
            continue
        visited_out[bi] = out
        for succ in block.successors:
            merged = self._merge(block_in.get(succ), out)
            if merged != block_in.get(succ):
                block_in[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)

    for ii, regs in states_local.items():
        key = (method.qualified_name, ii)
        frozen = {r: vs for r, vs in regs.items()}
        if self.states_before.get(key) != frozen:
            self.states_before[key] = frozen
            changed_global = True
    return changed_global


def reference_transfer(self, method, index, instr, state):
    changed = False
    if isinstance(instr, ConstString):
        state[instr.dest] = frozenset({StrVal(instr.value)})
    elif isinstance(instr, Move):
        state[instr.dest] = state.get(instr.src, frozenset({UNKNOWN}))
    elif isinstance(instr, NewInstance):
        state[instr.dest] = frozenset(
            {ObjVal(method.qualified_name, index, instr.type_name)}
        )
    elif isinstance(instr, IGet):
        values = set()
        base = state.get(instr.obj, EMPTY)
        resolved = [v for v in base if isinstance(v, ObjVal)]
        if resolved:
            for obj in resolved:
                values |= self._heap_by_site.get(
                    (obj.site, instr.field_name), set()
                )
        values |= self._heap_by_field.get(instr.field_name, set())
        state[instr.dest] = frozenset(values) if values else frozenset({UNKNOWN})
    elif isinstance(instr, IPut):
        stored = set(state.get(instr.src, frozenset({UNKNOWN})))
        base = state.get(instr.obj, EMPTY)
        resolved = [v for v in base if isinstance(v, ObjVal)]
        if resolved:
            for obj in resolved:
                slot = self._heap_by_site.setdefault(
                    (obj.site, instr.field_name), set()
                )
                if not stored <= slot:
                    slot |= stored
                    changed = True
        else:
            slot = self._heap_by_field.setdefault(instr.field_name, set())
            if not stored <= slot:
                slot |= stored
                changed = True
    elif isinstance(instr, SGet):
        values = self._statics.get(instr.class_field, set())
        state[instr.dest] = frozenset(values) if values else frozenset({UNKNOWN})
    elif isinstance(instr, SPut):
        stored = set(state.get(instr.src, frozenset({UNKNOWN})))
        slot = self._statics.setdefault(instr.class_field, set())
        if not stored <= slot:
            slot |= stored
            changed = True
    elif isinstance(instr, Invoke):
        changed |= self._transfer_invoke(method, instr, state)
    elif isinstance(instr, Return):
        if instr.src is not None:
            returned = set(state.get(instr.src, frozenset({UNKNOWN})))
            slot = self._returns.setdefault(method.qualified_name, set())
            if not returned <= slot:
                slot |= returned
                changed = True
    return changed


def reference_transfer_invoke(self, method, instr, state):
    changed = False
    callee = self._resolve_internal(method, instr)
    if callee is not None:
        for ai, arg in enumerate(instr.args):
            passed = set(state.get(arg, frozenset({UNKNOWN})))
            slot = self._param_in.setdefault((callee.qualified_name, ai), set())
            if not passed <= slot:
                slot |= passed
                changed = True
        if instr.dest is not None:
            returned = self._returns.get(callee.qualified_name, set())
            state[instr.dest] = (
                frozenset(returned) if returned else frozenset({UNKNOWN})
            )
        return changed
    if instr.dest is not None:
        if instr.signature in _GET_INTENT_APIS:
            state[instr.dest] = frozenset({IntentParamVal(method.class_name)})
        else:
            state[instr.dest] = frozenset({UNKNOWN})
    return changed


def use_reference(monkeypatch) -> Dict[str, int]:
    """Route ``ValueAnalysis`` through the reference until the patch is
    undone; the returned dict counts the reference's ``_run`` calls and
    method analyses, so a test can tell the swap took effect."""
    calls = {"runs": 0, "analyses": 0}

    def run(self):
        calls["runs"] += 1
        reference_run(self)

    def analyze(self, method):
        calls["analyses"] += 1
        return reference_analyze_method(self, method)

    monkeypatch.setattr(ValueAnalysis, "_run", run)
    monkeypatch.setattr(ValueAnalysis, "_analyze_method", analyze)
    monkeypatch.setattr(ValueAnalysis, "_entry_state", reference_entry_state)
    monkeypatch.setattr(ValueAnalysis, "_transfer", reference_transfer)
    monkeypatch.setattr(
        ValueAnalysis, "_transfer_invoke", reference_transfer_invoke
    )
    return calls


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
REGISTERS = ("v0", "v1", "v2", "v3")
STRINGS = ("a", "b", "c", "ACTION", "content://x/y")
FIELDS = ("f", "g")
STATIC_FIELDS = ("S.s", "S.t")
TYPES = ("Intent", "Obj")


def _apk(package: str, classes) -> Apk:
    return Apk(
        Manifest(
            package=package,
            components=[ComponentDecl(classes[0].name, ComponentKind.ACTIVITY)],
        ),
        DexProgram(classes),
    )


def random_program(rng: random.Random, package: str) -> Apk:
    """A random multi-class app.  The first class is the component; its
    first method is the ``onCreate`` entry point receiving an Intent."""
    shape = {
        f"C{c}": [
            ("onCreate" if c == 0 and m == 0 else f"m{m}", rng.randint(0, 2))
            for m in range(rng.randint(1, 4))
        ]
        for c in range(rng.randint(2, 4))
    }
    shape["C0"][0] = ("onCreate", max(1, shape["C0"][0][1]))
    callees = [
        (cls, name, arity)
        for cls, methods in shape.items()
        for name, arity in methods
    ]
    classes = []
    for cls, methods in shape.items():
        built = []
        for name, arity in methods:
            params = tuple(f"p{i}" for i in range(arity))
            regs = REGISTERS + params
            b = MethodBuilder(name, params=params)
            labels = [f"L{i}" for i in range(rng.randint(1, 4))]
            for label in labels:
                b.label(label)
                for _ in range(rng.randint(1, 6)):
                    _random_instruction(rng, b, cls, regs, callees, labels)
            b.ret(rng.choice(regs) if rng.random() < 0.7 else None)
            built.append(b.build())
        classes.append(DexClass(cls, methods=built))
    return _apk(package, classes)


def _random_instruction(rng, b, cls, regs, callees, labels) -> None:
    reg = lambda: rng.choice(regs)  # noqa: E731
    kind = rng.randrange(11)
    if kind == 0:
        b.const_string(reg(), rng.choice(STRINGS))
    elif kind == 1:
        b.move(reg(), reg())
    elif kind == 2:
        b.new_instance(reg(), rng.choice(TYPES))
    elif kind == 3:
        b.iget(reg(), reg(), rng.choice(FIELDS))
    elif kind == 4:
        b.iput(reg(), rng.choice(FIELDS), reg())
    elif kind == 5:
        b.sget(reg(), rng.choice(STATIC_FIELDS))
    elif kind == 6:
        b.sput(rng.choice(STATIC_FIELDS), reg())
    elif kind in (7, 8):
        target_cls, name, arity = rng.choice(callees)
        signature = (
            f"this.{name}" if target_cls == cls and rng.random() < 0.5
            else f"{target_cls}.{name}"
        )
        b.invoke(
            signature,
            args=[reg() for _ in range(arity)],
            dest=reg() if rng.random() < 0.7 else None,
        )
    elif kind == 9:
        b.invoke(
            rng.choice(("Activity.getIntent", "Intent.getStringExtra")),
            args=[reg()],
            dest=reg(),
        )
    else:
        # Branches to any label: the earlier ones close loops.
        b.if_goto(reg(), rng.choice(labels))


def backward_chain(length: int) -> Apk:
    """``m{i}`` passes its parameter to ``m{i-1}``, which comes earlier in
    program order, so each round carries the constant one step down the
    chain: ``length`` rounds are needed to reach ``m0``."""
    methods = [
        MethodBuilder("m0", params=("p0",))
        .iput("p0", "f", "p0")
        .ret("p0")
        .build()
    ]
    for i in range(1, length - 1):
        methods.append(
            MethodBuilder(f"m{i}", params=("p0",))
            .invoke(f"C0.m{i - 1}", args=("p0",), dest="v0")
            .ret("v0")
            .build()
        )
    methods.append(
        MethodBuilder("onCreate", params=("p0",))
        .const_string("v1", "chained")
        .invoke(f"C0.m{length - 2}", args=("v1",), dest="v0")
        .ret("v0")
        .build()
    )
    return _apk("chain", [DexClass("C0", methods=methods)])


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
SUMMARIES = ("_heap_by_site", "_heap_by_field", "_statics", "_param_in", "_returns")


def _analyze(apk: Apk, max_rounds: int):
    values = ValueAnalysis(CallGraph(apk), max_rounds=max_rounds)
    return values, {name: getattr(values, name) for name in SUMMARIES}


def _assert_identical(monkeypatch, apk: Apk, max_rounds: int) -> ValueAnalysis:
    built, summaries = _analyze(apk, max_rounds)
    with monkeypatch.context() as patch:
        calls = use_reference(patch)
        reference, reference_summaries = _analyze(apk, max_rounds)
    assert calls["runs"] == 1
    assert built.states_before == reference.states_before
    assert summaries == reference_summaries
    # Stopping early runs no more rounds than the reference.
    assert built.method_analyses <= calls["analyses"]
    return built


def _extraction_bytes(apk: Apk) -> str:
    data = serialize.app_to_dict(extract_app(apk))
    data["extraction_seconds"] = 0.0  # wall clock, not analysis output
    return json.dumps(data, sort_keys=True)


def _assert_same_extraction(monkeypatch, apks) -> None:
    built = [_extraction_bytes(apk) for apk in apks]
    with monkeypatch.context() as patch:
        calls = use_reference(patch)
        reference = [_extraction_bytes(apk) for apk in apks]
    assert calls["runs"] == len(apks)
    for apk, got, want in zip(apks, built, reference):
        assert got == want, apk.package


class TestRandomPrograms:
    @pytest.mark.parametrize("max_rounds", [1, 2, 12])
    def test_states_and_summaries_match(self, monkeypatch, max_rounds):
        rng = random.Random(FUZZ_SEED)
        multi_round = 0
        for i in range(PROGRAMS):
            apk = random_program(rng, f"fuzz{i}")
            built = _assert_identical(monkeypatch, apk, max_rounds)
            methods = sum(1 for _ in apk.program.all_methods())
            multi_round += built.method_analyses > methods
        if max_rounds > 1:
            # The generator must exercise re-analysis, not only round 1.
            assert multi_round > 0, f"seed {FUZZ_SEED}: no program needed round 2"


class TestRoundCap:
    def test_backward_chain_hits_the_cap(self, monkeypatch):
        apk = backward_chain(15)
        built = _assert_identical(monkeypatch, apk, 12)
        # The constant has not reached the start of the chain.
        reached = {
            name
            for (name, _), values in built._param_in.items()
            if StrVal("chained") in values
        }
        assert "C0.m13" in reached
        assert "C0.m0" not in reached

    def test_backward_chain_converges_under_a_higher_cap(self, monkeypatch):
        built = _assert_identical(monkeypatch, backward_chain(15), 20)
        assert StrVal("chained") in built._param_in[("C0.m0", 0)]
        assert StrVal("chained") in built._heap_by_field["f"]


class TestExtractionBytes:
    @pytest.mark.parametrize("seed", [3, 2016])
    def test_corpus(self, monkeypatch, seed):
        apks = CorpusGenerator(CorpusConfig(scale=0.01, seed=seed)).generate()
        _assert_same_extraction(monkeypatch, apks)

    def test_droidbench(self, monkeypatch):
        _assert_same_extraction(
            monkeypatch, [apk for case in droidbench_cases() for apk in case.apks]
        )

    def test_iccbench(self, monkeypatch):
        _assert_same_extraction(
            monkeypatch, [apk for case in iccbench_cases() for apk in case.apks]
        )


def test_converged_program_analyzes_each_method_once():
    """A fixpoint that converges in one round analyzes every method once."""
    apk = _apk(
        "flat",
        [
            DexClass(
                "C0",
                methods=[
                    MethodBuilder("onCreate", params=("p0",))
                    .const_string("v0", "x")
                    .invoke("C0.helper", args=("v0",))
                    .ret()
                    .build(),
                    MethodBuilder("helper", params=("p0",)).ret("p0").build(),
                ],
            )
        ],
    )
    values = ValueAnalysis(CallGraph(apk))
    assert values.method_analyses == 2


def test_one_value_set_per_string_constant():
    """Every ``ConstString`` of one string shares one value set, across
    methods; the reference transfer above builds a fresh set each time."""
    apk = _apk(
        "shared",
        [
            DexClass(
                "C0",
                methods=[
                    MethodBuilder("onCreate", params=("p0",))
                    .const_string("v0", "x")
                    .const_string("v1", "x")
                    .const_string("v2", "y")
                    .invoke("C0.helper", args=("v0",))
                    .ret()
                    .build(),
                    MethodBuilder("helper", params=("p0",))
                    .const_string("v0", "x")
                    .ret("v0")
                    .build(),
                ],
            )
        ],
    )
    values = ValueAnalysis(CallGraph(apk))
    after_loads = values.values_before("C0.onCreate", 3)
    x, y = after_loads["v0"], after_loads["v2"]
    assert x == frozenset({StrVal("x")}) and y == frozenset({StrVal("y")})
    assert after_loads["v1"] is x
    assert values.values_before("C0.helper", 1)["v0"] is x
