"""Spans around the program's public calls, recorded from outside ``src/``.

:func:`install` wraps the layer entry points it lists (functions are
replaced in every loaded ``repro`` module that holds them, methods on
their class).  Each call records a span: name, start, end,
parent, trace id, and a few counts read from its arguments or result.
Spans stay in memory and are appended to ``<dir>/spans-<pid>.jsonl`` by
:meth:`Recorder.flush`; forked pool workers inherit the wrappers and
flush after each task, so their spans reach the trace too.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: The recorder the wrappers write to (one per process; set by install).
R: Optional["Recorder"] = None


class Recorder:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: trace id -> when ``decode_request`` returned (queue-wait start)
        self.decoded: Dict[str, float] = {}

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict[str, Any]:
        pid = os.getpid()
        if pid != self.pid:
            # A forked pool worker: the spans inherited from the parent
            # are the parent's to write; the open stack stays as parents.
            self.pid = pid
            self.spans = []
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "name": name,
            "id": f"{pid}.{next(self._ids)}",
            "parent": parent["id"] if parent is not None else None,
            "trace": parent["trace"] if parent is not None else None,
            "ctx": f"{pid}.{threading.get_ident()}",
            "start": time.monotonic(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, trace: str, ctx: str) -> None:
        """A span measured between two recorded instants (queue wait)."""
        self.spans.append(
            {
                "name": name,
                "id": f"{os.getpid()}.{next(self._ids)}",
                "parent": None,
                "trace": trace,
                "ctx": ctx,
                "start": start,
                "end": end,
            }
        )

    @contextlib.contextmanager
    def root(self):
        """The interval the per-layer report accounts for."""
        span = self.begin("bench.root")
        try:
            yield span
        finally:
            self.end(span)

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        spans, self.spans = self.spans, []
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


def read_spans(out_dir: str) -> List[Dict[str, Any]]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ----------------------------------------------------------------------
# Wrapping

Hook = Callable[[Dict[str, Any], tuple, dict], None]
After = Callable[[Dict[str, Any], tuple, dict, Any], None]


def _wrap(fn: Callable, name: str, before: Optional[Hook] = None,
          after: Optional[After] = None, flush_in_worker: bool = False) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = R
        span = recorder.begin(name)
        if before is not None:
            before(span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            recorder.end(span)
            if flush_in_worker and os.getpid() != recorder.main_pid:
                recorder.flush()
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def patch_function(module: Any, attr: str, name: str, **hooks: Any) -> None:
    """Replace ``module.attr`` in every loaded repro module holding it."""
    original = getattr(module, attr)
    wrapped = _wrap(original, name, **hooks)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch_method(cls: type, attr: str, name: str, **hooks: Any) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(raw.__func__, name, **hooks)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(raw.__func__, name, **hooks)))
    else:
        setattr(cls, attr, _wrap(raw, name, **hooks))


# ----------------------------------------------------------------------
# Per-call facts recorded on spans

def _cache_get_after(span, args, kwargs, result):
    cache, namespace, key = args[0], args[1], args[2]
    span["hit"] = result is not None
    if result is not None:
        span["bytes"] = _entry_bytes(cache, namespace, key)


def _cache_put_before(span, args, kwargs):
    payload = args[3] if len(args) > 3 else kwargs.get("payload")
    span["rejected"] = bool(isinstance(payload, dict) and payload.get("incomplete"))


def _cache_put_after(span, args, kwargs, result):
    if not span["rejected"]:
        span["bytes"] = _entry_bytes(args[0], args[1], args[2])


def _entry_bytes(cache, namespace: str, key: str) -> int:
    entries = getattr(cache, "_entries", None)
    if entries is not None:  # MemoryCache keeps each entry as JSON text
        text = entries.get(namespace, {}).get(key)
        return len(text.encode("utf-8")) if text is not None else 0
    try:
        return os.path.getsize(cache._path(namespace, key))
    except OSError:
        return 0


def _synthesis_after(span, args, kwargs, result):
    stats = result.stats
    span["scenarios"] = len(result.scenarios)
    for field in ("conflicts", "decisions", "propagations", "num_vars", "num_clauses"):
        span[field] = int(getattr(stats, field, 0) or 0)


def _assemble_after(span, args, kwargs, result):
    span["policies"] = len(result.policies)


def _decode_after(span, args, kwargs, result):
    trace = result.get("trace_id") if isinstance(result, dict) else None
    if trace:
        span["trace"] = trace
        R.decoded[trace] = span["end"]


def _encode_before(span, args, kwargs):
    message = args[0] if args else kwargs.get("message")
    if isinstance(message, dict) and message.get("trace_id"):
        span["trace"] = message["trace_id"]


def _handle_before(span, args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    trace = request.get("trace_id")
    span["op"] = request.get("op")
    span["trace"] = trace
    decoded = R.decoded.pop(trace, None) if trace else None
    if decoded is not None:
        R.add("server.queue_wait", decoded, span["start"], trace, f"queue.{trace}")


def _charge_before(span, args, kwargs):
    key = args[1] if len(args) > 1 else kwargs.get("key")
    if span["parent"] is None and getattr(key, "trace_id", ""):
        span["trace"] = key.trace_id


def _totals_before(span, args, kwargs):
    trace = kwargs.get("trace_id", args[1] if len(args) > 1 else None)
    if span["parent"] is None and trace:
        span["trace"] = trace


def _totals_after(span, args, kwargs, result):
    span["accounts"] = len(args[0])


def _decide_before(span, args, kwargs):
    span["h0"] = getattr(args[0], "cache_hits", None)


def _decide_after(span, args, kwargs, result):
    before = span.pop("h0")
    if before is not None:
        span["hit"] = args[0].cache_hits > before


def _hook_before(span, args, kwargs):
    span["hooked"] = args[0].is_hooked(args[1].signature)


def _task_kind(kind: str) -> Hook:
    def before(span, args, kwargs):
        span["kind"] = kind
    return before


# ----------------------------------------------------------------------

def install(out_dir: str) -> Recorder:
    """Wrap every layer entry point; returns the process's recorder."""
    global R
    R = Recorder(out_dir)

    import repro.core.serialize as serialize
    import repro.pipeline.cache as cache
    import repro.pipeline.executor as executor
    import repro.service.protocol as protocol
    from repro.core.app_to_spec import BundleSpec
    from repro.core.detector import SeparDetector
    from repro.core.incremental import IncrementalAnalyzer
    import repro.core.policy as policy
    from repro.core.separ import Separ
    from repro.core.synthesis import AnalysisAndSynthesisEngine
    from repro.core.vulnerabilities.base import VulnerabilitySignature
    import repro.core.vulnerabilities  # noqa: F401 - registers every signature
    from repro.enforcement.audit import AuditLog
    from repro.enforcement.compiled import CompiledPolicySet
    from repro.enforcement.hooks import HookManager
    from repro.enforcement.pdp import PolicyDecisionPoint
    from repro.enforcement.runtime import AndroidRuntime
    from repro.obs.cost import CostLedger
    from repro.relational.problem import RelationalProblem
    from repro.sat.fastsolver import FastSolver
    from repro.sat.tseitin import TseitinEncoder
    from repro.service.session import DeviceSession
    from repro.statics.callgraph import CallGraph
    from repro.statics.constprop import ValueAnalysis
    from repro.statics.extractor import ModelExtractor
    from repro.statics.intent_extraction import IntentExtraction
    from repro.statics.permission_extraction import PermissionExtraction
    from repro.statics.taint import TaintAnalysis

    # statics
    patch_method(ModelExtractor, "extract", "statics.extract")
    patch_method(CallGraph, "__init__", "statics.callgraph")
    patch_method(ValueAnalysis, "__init__", "statics.constprop")
    patch_method(TaintAnalysis, "run", "statics.taint")
    patch_method(IntentExtraction, "run", "statics.intents")
    patch_method(PermissionExtraction, "run", "statics.permissions")
    # pipeline.cache
    patch_function(cache, "content_hash", "cache.key")
    patch_function(cache, "framework_fingerprint", "cache.fingerprint")
    for cls in (cache.PipelineCache, cache.MemoryCache):
        patch_method(cls, "get", "cache.get", after=_cache_get_after)
        patch_method(cls, "put", "cache.put", before=_cache_put_before, after=_cache_put_after)
    # core.serialize
    patch_function(serialize, "app_from_dict", "serialize.app_from_dict")
    patch_function(serialize, "app_to_dict", "serialize.app_to_dict")
    patch_function(serialize, "scenario_from_dict", "serialize.scenario")
    patch_function(serialize, "scenario_to_dict", "serialize.scenario")
    # core.app_to_spec, core.vulnerabilities
    patch_method(BundleSpec, "__init__", "spec.build")
    pending = list(VulnerabilitySignature.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "instantiate" in cls.__dict__:
            patch_method(cls, "instantiate", "spec.instantiate")
    # relational
    patch_method(RelationalProblem, "__init__", "relational.translate")
    for attr in ("add_formula", "add_gated_formula", "add_absent_unless",
                 "add_typing_tuples", "add_gated_tuples"):
        patch_method(RelationalProblem, attr, "relational.translate")
    patch_method(RelationalProblem, "minimal_solutions", "relational.minimize")
    # sat
    patch_method(TseitinEncoder, "assert_node", "sat.tseitin")
    patch_method(TseitinEncoder, "assert_node_gated", "sat.tseitin")
    patch_method(FastSolver, "solve", "sat.solve")
    # core.synthesis
    for attr in ("run", "run_shared"):
        patch_method(AnalysisAndSynthesisEngine, attr, "synthesis", after=_synthesis_after)
    # core.policy, core.detector
    patch_method(Separ, "assemble_report", "policy.assemble", after=_assemble_after)
    patch_function(policy, "derive_policies", "policy.derive")
    patch_method(SeparDetector, "detect", "detector.detect")
    # pipeline.executor
    patch_method(executor.AnalysisPipeline, "extract_apps", "executor.extract_stage")
    patch_method(executor.AnalysisPipeline, "analyze_bundles", "executor.analyze")
    for attr, kind in (("_extract_worker", "extract"),
                       ("_synthesis_worker", "synthesis"),
                       ("_shared_synthesis_worker", "synthesis")):
        patch_function(executor, attr, "executor.task",
                       before=_task_kind(kind), flush_in_worker=True)
    # service
    patch_function(protocol, "decode_request", "protocol.decode", after=_decode_after)
    patch_function(protocol, "encode_message", "protocol.encode", before=_encode_before)
    patch_method(DeviceSession, "handle", "session.handle", before=_handle_before)
    for attr in ("install", "uninstall", "grant_permission", "revoke_permission"):
        patch_method(IncrementalAnalyzer, attr, "session.mutate")
    # obs.cost
    patch_method(CostLedger, "charge", "cost.charge", before=_charge_before)
    patch_method(CostLedger, "charge_stats", "cost.charge", before=_charge_before)
    patch_method(CostLedger, "totals", "cost.totals", before=_totals_before, after=_totals_after)
    # enforcement
    patch_method(PolicyDecisionPoint, "decide", "pdp.decide", before=_decide_before, after=_decide_after)
    patch_method(CompiledPolicySet, "__init__", "pdp.compile")
    patch_method(HookManager, "run_before", "pep.hook", before=_hook_before)
    patch_method(HookManager, "run_after", "pep.hook", before=_hook_before)
    patch_method(AndroidRuntime, "start_component", "runtime.exec")
    patch_method(AndroidRuntime, "resolve_icc", "runtime.resolve")
    patch_method(AndroidRuntime, "deliver_icc", "runtime.deliver")
    patch_method(AuditLog, "append", "audit.append")
    return R
