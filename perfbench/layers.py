"""Per-layer metrics from a traced run (``--trace 1``).

Wall time is attributed by a sweep over every span of every process
inside the root interval(s): at each instant the innermost open spans --
those with no open child in any process -- share the instant equally.
For single-threaded code that is each span's self time (duration minus
the time its children cover); under a process pool it is the share of
wall clock each layer held, so the layer times plus ``trace.unattributed_s``
add up to ``trace.wall_s``.  Spans of the daemon join the client's
request spans through the trace id the client sends with each request.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List

import common
import tracing

#: Span name -> the self-time metric it feeds.
SELF_METRIC = {
    "statics.extract": "statics.extract_s",
    "statics.callgraph": "statics.callgraph_s",
    "statics.constprop": "statics.constprop_s",
    "statics.taint": "statics.taint_s",
    "statics.intents": "statics.intents_s",
    "statics.permissions": "statics.permissions_s",
    "cache.key": "cache.key_s",
    "cache.fingerprint": "cache.fingerprint_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "serialize.app_from_dict": "serialize.app_from_dict_s",
    "serialize.app_to_dict": "serialize.app_to_dict_s",
    "serialize.scenario": "serialize.scenario_s",
    "spec.build": "spec.build_s",
    "spec.instantiate": "spec.instantiate_s",
    "relational.translate": "relational.translate_s",
    "relational.minimize": "relational.minimize_s",
    "sat.tseitin": "sat.tseitin_s",
    "sat.solve": "sat.solve_s",
    "synthesis": "synthesis.s",
    "policy.assemble": "policy.derive_s",
    "policy.derive": "policy.derive_s",
    "detector.detect": "detector.detect_s",
    "executor.extract_stage": "executor.extract_stage_s",
    "executor.synthesis_stage": "executor.synthesis_stage_s",
    "executor.assemble_stage": "executor.assemble_stage_s",
    "protocol.decode": "protocol.decode_s",
    "protocol.encode": "protocol.encode_s",
    "session.handle": "session.handle_s",
    "session.mutate": "session.mutate_s",
    "cost.charge": "cost.charge_s",
    "cost.totals": "cost.totals_s",
    "pdp.decide": "pdp.decide_s",
    "pdp.compile": "pdp.compile_s",
    "pep.hook": "pep.hook_s",
    "runtime.exec": "runtime.exec_s",
    "runtime.resolve": "runtime.resolve_s",
    "runtime.deliver": "runtime.deliver_s",
    "audit.append": "audit.append_s",
}

#: Spans that frame the measurement and belong to no layer of the program.
FRAME = {"bench.root", "client.request"}
MUTATIONS = {"install", "update", "uninstall", "grant", "revoke"}


def _split_analyze(spans: List[Dict[str, Any]], by_id, children) -> None:
    """Cut each ``analyze_bundles`` span at its first ``assemble_report``
    into a synthesis stage and an assemble stage."""
    for span in [s for s in spans if s["name"] == "executor.analyze"]:
        kids = children.get(span["id"], [])
        marks = [k["start"] for k in kids if k["name"] == "policy.assemble"]
        mark = min(marks) if marks else span["end"]
        late = dict(span, name="executor.assemble_stage", id=span["id"] + "b", start=mark)
        span["name"], span["end"] = "executor.synthesis_stage", mark
        spans.append(late)
        by_id[late["id"]] = late
        for kid in kids:
            if kid["start"] >= mark:
                kid["parent"] = late["id"]
        children[late["id"]] = [k for k in kids if k["start"] >= mark]
        children[span["id"]] = [k for k in kids if k["start"] < mark]


def _sweep(spans, parent_of, lo: float, hi: float, shares: Dict[str, float]) -> None:
    events = []
    for span in spans:
        start, end = max(span["start"], lo), min(span["end"], hi)
        if start < end:
            events.append((start, 1, span["id"]))
            events.append((end, 0, span["id"]))
    events.sort()
    open_ids = set()
    open_kids: Dict[str, int] = defaultdict(int)
    leaves = set()
    prev = lo
    for t, is_start, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                shares[leaf] += share
        prev = t
        parent = parent_of.get(sid)
        if is_start:
            open_ids.add(sid)
            if parent in open_ids:
                open_kids[parent] += 1
                leaves.discard(parent)
            if not open_kids[sid]:
                leaves.add(sid)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if parent in open_ids:
                open_kids[parent] -= 1
                if not open_kids[parent]:
                    leaves.add(parent)


def analyse(spans: List[Dict[str, Any]], facts: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from every recorded span of one traced run."""
    by_id = {s["id"]: s for s in spans}
    requests = {s["trace"]: s["id"] for s in spans if s["name"] == "client.request"}
    parent_of: Dict[str, str] = {}
    for span in spans:
        parent = span["parent"] if span["parent"] in by_id else None
        if parent is None and span["name"] not in FRAME and span.get("trace"):
            parent = requests.get(span["trace"])
        span["parent"] = parent
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    _split_analyze(spans, by_id, children)
    for span in spans:
        if span["parent"] is not None:
            parent_of[span["id"]] = span["parent"]

    roots = sorted((s for s in spans if s["name"] == "bench.root"), key=lambda s: s["start"])
    if not roots:
        raise common.BenchError("traced run recorded no root span")
    # Queue waits are time a request spent waiting, not work: they are
    # reported on their own and left out of the attribution.
    busy = [s for s in spans if s["name"] != "server.queue_wait"]
    shares: Dict[str, float] = defaultdict(float)
    for root in roots:
        _sweep(busy, parent_of, root["start"], root["end"], shares)

    def in_window(span) -> bool:
        return any(r["start"] <= span["start"] < r["end"] for r in roots)

    live = [s for s in spans if in_window(s)]
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in live:
        named[span["name"]].append(span)
    m: Dict[str, float] = {name: 0.0 for name in common.manifest_units("per_layer")}
    for span in spans:
        metric = SELF_METRIC.get(span["name"])
        if span["name"] == "executor.task":
            metric = f"executor.{span['kind']}_stage_s"
        if metric:
            m[metric] += shares.get(span["id"], 0.0)

    def count(name, pred=lambda s: True) -> int:
        return sum(1 for s in named[name] if pred(s))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def descends(span, names) -> bool:
        pending = list(children.get(span["id"], ()))
        while pending:
            kid = pending.pop()
            if kid["name"] in names:
                return True
            pending.extend(children.get(kid["id"], ()))
        return False

    def ancestor(span, name) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    m["statics.apps"] = count("statics.extract")
    m["cache.keys"] = count("cache.key")
    gets = named["cache.get"]
    m["cache.gets"] = len(gets)
    m["cache.hit_ratio"] = ratio(sum(1 for s in gets if s.get("hit")), len(gets))
    m["cache.bytes_read"] = sum(s.get("bytes", 0) for s in gets)
    puts = named["cache.put"]
    m["cache.puts"] = len(puts)
    m["cache.rejected"] = sum(1 for s in puts if s.get("rejected"))
    m["cache.bytes_written"] = sum(s.get("bytes", 0) for s in puts)
    m["serialize.calls"] = sum(
        len(named[n]) for n in ("serialize.app_from_dict", "serialize.app_to_dict", "serialize.scenario")
    )
    m["spec.builds"] = count("spec.build")
    outer = [s for s in named["synthesis"] if not ancestor(s, "synthesis")]
    for field, metric in (("num_vars", "relational.vars"), ("num_clauses", "relational.clauses"),
                          ("conflicts", "sat.conflicts"), ("decisions", "sat.decisions"),
                          ("propagations", "sat.propagations"), ("scenarios", "synthesis.scenarios")):
        m[metric] = sum(s.get(field, 0) for s in outer)
    m["sat.solve_calls"] = count("sat.solve")
    m["synthesis.runs"] = len(outer)
    m["policy.policies"] = sum(s.get("policies", 0) for s in named["policy.assemble"])

    tasks = named["executor.task"]
    m["executor.tasks"] = len(tasks)
    m["executor.failures"] = facts.get("failures", 0)
    m["executor.degraded"] = facts.get("degraded", 0)
    m["executor.retries"] = max(0, sum(1 for s in tasks if s.get("error")) - m["executor.failures"])
    busy = wall = 0.0
    for stage in named["executor.extract_stage"] + named["executor.synthesis_stage"]:
        pid = stage["id"].split(".")[0]
        pooled = [k for k in children.get(stage["id"], ()) if k["name"] == "executor.task"
                  and k["id"].split(".")[0] != pid]
        if pooled:
            busy += sum(k["end"] - k["start"] for k in pooled)
            wall += stage["end"] - stage["start"]
    m["executor.parallel_efficiency"] = ratio(busy, facts.get("jobs", 1) * wall)

    m["protocol.requests"] = count("protocol.decode")
    m["protocol.errors"] = count("protocol.decode", lambda s: "error" in s)
    waits = [s["end"] - s["start"] for s in named["server.queue_wait"]]
    m["server.queue_wait_s"] = sum(waits)
    m["server.queue_wait_p90_ms"] = common.percentile(waits, 0.9) * 1e3 if waits else 0.0
    handles = named["session.handle"]
    refreshes = [s for s in handles if s.get("op") in ("analyze", "decide", "policies")
                 and descends(s, {"policy.assemble"})]
    m["session.mutations"] = sum(1 for s in handles if s.get("op") in MUTATIONS)
    m["session.refreshes"] = len(refreshes)
    m["session.syntheses"] = sum(1 for s in outer if ancestor(s, "session.handle"))
    m["session.warm_hit_ratio"] = ratio(len(refreshes) - m["session.syntheses"], len(refreshes))
    decides = [s for s in handles if s.get("op") == "decide"]
    m["session.decides"] = len(decides)
    m["session.decide_s"] = sum(shares.get(s["id"], 0.0) for s in decides)
    m["cost.charges"] = count("cost.charge")
    m["cost.totals_calls"] = count("cost.totals")
    m["cost.accounts"] = max((s.get("accounts", 0) for s in named["cost.totals"]), default=0)
    pdp = named["pdp.decide"]
    m["pdp.decides"] = len(pdp)
    cached = [s for s in pdp if "hit" in s]
    m["pdp.cache_hit_ratio"] = ratio(sum(1 for s in cached if s["hit"]), len(cached))
    m["pep.hook_calls"] = count("pep.hook", lambda s: s.get("hooked"))
    m["runtime.activations"] = count("runtime.exec")
    m["runtime.icc_sent"] = count("runtime.deliver")
    m["runtime.resolves_per_icc"] = ratio(count("runtime.resolve"), m["runtime.icc_sent"])
    m["audit.records"] = count("audit.append")

    m["trace.wall_s"] = sum(r["end"] - r["start"] for r in roots)
    m["trace.unattributed_s"] = sum(
        share for sid, share in shares.items() if by_id[sid]["name"] in FRAME
    )
    m["trace.unattributed_frac"] = ratio(m["trace.unattributed_s"], m["trace.wall_s"])
    return m


def traced(module, workload: str, seed: int, seconds: int):
    """Run ``module``'s workload untraced, then traced; report the layers."""
    trace_dir = os.path.join(common.WORK, "trace")
    facts = module.trace(workload, seed, seconds, trace_dir)
    metrics = analyse(tracing.read_spans(trace_dir), facts)
    metrics["trace.overhead_pct"] = (
        facts["traced_wall"] / facts["untraced_wall"] - 1.0
    ) * 100.0
    if workload == "audit_warm" and (metrics["statics.apps"] or metrics["synthesis.runs"]):
        raise common.GateFailure(
            f"warm re-audit extracted {metrics['statics.apps']:.0f} apps and ran "
            f"{metrics['synthesis.runs']:.0f} syntheses; both must be 0"
        )
    details = dict(facts.get("details", {}))
    details["untraced_wall_s"] = facts["untraced_wall"]
    details["traced_wall_s"] = facts["traced_wall"]
    return facts["attempted"], facts["failed"], metrics, details
