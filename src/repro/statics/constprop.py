"""Inter-procedural value analysis: string constants and points-to.

This is the engine behind AME's Intent extraction.  It computes, for every
program point, the set of abstract values each register may hold:

- :class:`StrVal` -- a string constant (the paper's string constant
  propagation; Android code builds Intent actions, categories, and extras
  keys from constant strings by convention);
- :class:`ObjVal` -- an abstract object identified by its allocation site
  (Intent and IntentFilter tracking is points-to over these);
- :class:`IntentParamVal` -- the Intent a component entry point received
  from the framework;
- :data:`UNKNOWN` -- anything the analysis cannot resolve.

The analysis is a forward, flow-sensitive may-analysis per method (worklist
over CFG blocks, union at joins) embedded in a whole-app fixpoint that
flows values across app-internal calls (arguments to parameters, returns to
call-site destinations) and through the heap.  Heap fields are handled the
way the paper describes its on-demand alias analysis: a store to a field
makes the stored values observable at every load of that field (per
allocation site when the base object is resolved, per field name
otherwise), iterated to fixpoint.

The fixpoint runs in whole-app rounds over the methods in program order,
at most ``max_rounds`` of them.  A round notes every summary slot it reads
(a parameter's incoming values, a heap or static field, a callee's
returns).  When no slot grew after the round read it, every read saw the
slot's final value, so one more round would repeat each read and write and
publish the same states; the run stops there instead of running that
confirming round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dex.instructions import (
    ConstString,
    IGet,
    IPut,
    Instr,
    Invoke,
    Move,
    NewInstance,
    Return,
    SGet,
    SPut,
)
from repro.dex.program import DexMethod
from repro.statics.callgraph import CallGraph


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StrVal:
    value: str

    def __repr__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class ObjVal:
    """An abstract object named by its allocation site."""

    method: str  # qualified method name
    index: int  # instruction index of the NewInstance
    type_name: str

    @property
    def site(self) -> Tuple[str, int]:
        return (self.method, self.index)

    def __repr__(self) -> str:
        return f"{self.type_name}@{self.method}[{self.index}]"


@dataclass(frozen=True)
class IntentParamVal:
    """The Intent delivered by the framework to a component entry point."""

    component_class: str

    def __repr__(self) -> str:
        return f"<intent-param {self.component_class}>"


class _Unknown:
    _instance: Optional["_Unknown"] = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()

Value = object  # StrVal | ObjVal | IntentParamVal | _Unknown
ValueSet = FrozenSet[Value]
EMPTY: ValueSet = frozenset()

# Platform getters whose results carry the receiving component's Intent.
_GET_INTENT_APIS = {"Activity.getIntent", "Context.getIntent"}


class ValueAnalysis:
    """Whole-app value analysis over a :class:`CallGraph`."""

    def __init__(self, callgraph: CallGraph, max_rounds: int = 12) -> None:
        self.callgraph = callgraph
        self.program = callgraph.program
        self.max_rounds = max_rounds
        # Global (flow-insensitive) stores discovered so far.
        self._heap_by_site: Dict[Tuple[Tuple[str, int], str], Set[Value]] = {}
        self._heap_by_field: Dict[str, Set[Value]] = {}
        self._statics: Dict[str, Set[Value]] = {}
        self._param_in: Dict[Tuple[str, int], Set[Value]] = {}
        self._returns: Dict[str, Set[Value]] = {}
        # The round under way: the summary slots it has read, as
        # ``(summary tag, key)``, and whether one has grown since.
        self._read_slots: Set[Tuple[str, object]] = set()
        self._regrown = False
        # One value set per string constant, shared by every
        # ``ConstString`` that loads it: they are most of an app's
        # instructions.
        self._string_sets: Dict[str, ValueSet] = {}
        #: Method analyses run, one per method per round.
        self.method_analyses = 0
        # Final result: register states *before* each instruction.
        self.states_before: Dict[Tuple[str, int], Dict[str, ValueSet]] = {}
        self._run()

    # ------------------------------------------------------------------
    def values_before(self, method: str, index: int) -> Dict[str, ValueSet]:
        return self.states_before.get((method, index), {})

    def receiver_objects(self, method: str, index: int, register: str) -> List[ObjVal]:
        state = self.values_before(method, index)
        return [v for v in state.get(register, EMPTY) if isinstance(v, ObjVal)]

    def strings_of(self, method: str, index: int, register: str) -> List[str]:
        state = self.values_before(method, index)
        return sorted(
            v.value for v in state.get(register, EMPTY) if isinstance(v, StrVal)
        )

    # ------------------------------------------------------------------
    def _read(self, tag: str, summary: Dict, key: object) -> AbstractSet[Value]:
        """``summary[key]`` (empty when absent), noted as read this round."""
        self._read_slots.add((tag, key))
        return summary.get(key, EMPTY)

    def _grow(
        self, tag: str, summary: Dict, key: object, values: Set[Value]
    ) -> None:
        """Union ``values`` into ``summary[key]``; growing a slot this round
        has already read calls for another round."""
        slot = summary.setdefault(key, set())
        if not values <= slot:
            slot |= values
            if (tag, key) in self._read_slots:
                self._regrown = True

    def _entry_state(self, method: DexMethod) -> Dict[str, ValueSet]:
        state: Dict[str, ValueSet] = {}
        name = method.qualified_name
        for pi, param in enumerate(method.params):
            incoming = set(self._read("param", self._param_in, (name, pi)))
            if pi == 0 and method.receives_intent:
                incoming.add(IntentParamVal(method.class_name))
            if not incoming:
                incoming.add(UNKNOWN)
            state[param] = frozenset(incoming)
        return state

    def _run(self) -> None:
        methods = list(self.program.all_methods())
        for _ in range(self.max_rounds):
            self._read_slots.clear()
            self._regrown = False
            for method in methods:
                self._analyze_method(method)
            if not self._regrown:
                break

    def _analyze_method(self, method: DexMethod) -> None:
        name = method.qualified_name
        self.method_analyses += 1
        cfg = self.callgraph.cfgs[name]
        if not cfg.blocks:
            return
        entry = self._entry_state(method)
        block_in: Dict[int, Dict[str, ValueSet]] = {0: entry}
        worklist = [0]
        visited_out: Dict[int, Dict[str, ValueSet]] = {}
        states_local: Dict[int, Dict[str, ValueSet]] = {}
        reachable = cfg.reachable_blocks()

        while worklist:
            bi = worklist.pop()
            if bi not in reachable:
                continue
            state = dict(block_in.get(bi, {}))
            block = cfg.blocks[bi]
            for ii in block.instruction_indices:
                states_local[ii] = dict(state)
                self._transfer(method, ii, method.instructions[ii], state)
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

        states_before = self.states_before
        for ii, regs in states_local.items():
            states_before[(name, ii)] = regs

    @staticmethod
    def _merge(
        left: Optional[Dict[str, ValueSet]], right: Dict[str, ValueSet]
    ) -> Dict[str, ValueSet]:
        if left is None:
            return dict(right)
        merged = dict(left)
        for reg, values in right.items():
            merged[reg] = merged.get(reg, EMPTY) | values
        return merged

    # ------------------------------------------------------------------
    def _transfer(
        self,
        method: DexMethod,
        index: int,
        instr: Instr,
        state: Dict[str, ValueSet],
    ) -> None:
        """Apply one instruction to ``state``, reading and growing the
        global summaries (heap, statics, parameters, returns)."""
        if isinstance(instr, ConstString):
            string_set = self._string_sets.get(instr.value)
            if string_set is None:
                string_set = frozenset({StrVal(instr.value)})
                self._string_sets[instr.value] = string_set
            state[instr.dest] = string_set
        elif isinstance(instr, Move):
            state[instr.dest] = state.get(instr.src, frozenset({UNKNOWN}))
        elif isinstance(instr, NewInstance):
            state[instr.dest] = frozenset(
                {ObjVal(method.qualified_name, index, instr.type_name)}
            )
        elif isinstance(instr, IGet):
            values: Set[Value] = set()
            base = state.get(instr.obj, EMPTY)
            resolved = [v for v in base if isinstance(v, ObjVal)]
            if resolved:
                for obj in resolved:
                    values |= self._read(
                        "site", self._heap_by_site, (obj.site, instr.field_name)
                    )
            values |= self._read("field", self._heap_by_field, instr.field_name)
            state[instr.dest] = frozenset(values) if values else frozenset({UNKNOWN})
        elif isinstance(instr, IPut):
            stored = set(state.get(instr.src, frozenset({UNKNOWN})))
            base = state.get(instr.obj, EMPTY)
            resolved = [v for v in base if isinstance(v, ObjVal)]
            if resolved:
                for obj in resolved:
                    self._grow(
                        "site", self._heap_by_site, (obj.site, instr.field_name), stored
                    )
            else:
                self._grow("field", self._heap_by_field, instr.field_name, stored)
        elif isinstance(instr, SGet):
            values = self._read("static", self._statics, instr.class_field)
            state[instr.dest] = frozenset(values) if values else frozenset({UNKNOWN})
        elif isinstance(instr, SPut):
            stored = set(state.get(instr.src, frozenset({UNKNOWN})))
            self._grow("static", self._statics, instr.class_field, stored)
        elif isinstance(instr, Invoke):
            self._transfer_invoke(method, instr, state)
        elif isinstance(instr, Return):
            if instr.src is not None:
                returned = set(state.get(instr.src, frozenset({UNKNOWN})))
                self._grow("return", self._returns, method.qualified_name, returned)

    def _transfer_invoke(
        self, method: DexMethod, instr: Invoke, state: Dict[str, ValueSet]
    ) -> None:
        callee = self._resolve_internal(method, instr)
        if callee is not None:
            # Flow arguments into the callee's parameter summaries.
            name = callee.qualified_name
            for ai, arg in enumerate(instr.args):
                passed = set(state.get(arg, frozenset({UNKNOWN})))
                self._grow("param", self._param_in, (name, ai), passed)
            if instr.dest is not None:
                returned = self._read("return", self._returns, name)
                state[instr.dest] = (
                    frozenset(returned) if returned else frozenset({UNKNOWN})
                )
            return
        # Platform API.
        if instr.dest is not None:
            if instr.signature in _GET_INTENT_APIS:
                state[instr.dest] = frozenset({IntentParamVal(method.class_name)})
            else:
                state[instr.dest] = frozenset({UNKNOWN})

    def _resolve_internal(
        self, method: DexMethod, instr: Invoke
    ) -> Optional[DexMethod]:
        if instr.class_name == "this":
            cls = self.program.cls(method.class_name)
            if cls.has_method(instr.method_name):
                return cls.method(instr.method_name)
            return None
        return self.program.lookup(instr.signature)
