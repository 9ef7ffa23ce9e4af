"""``icc_enforce``: on-device enforcement, after the paper's RQ4 protocol.

``CHILDREN`` fresh processes each run a share of the seed's repetitions
(``child_icc.py``); each repetition boots a fresh runtime, so the
runtime's lifetime dispatch budget (a known defect, see NOTES.md) is
never reached here.  The gate: each child's audit summary and its
allowed and blocked delivery counts equal a replay of the same
activations under ``make_pdp(backend="linear")``.
"""

from __future__ import annotations

import os
import pickle
import statistics
from typing import Any, Dict, List

import common
import inputs

CHILDREN = 3
ACTIVATIONS_PER_REP = 200
#: Activations per second of ``--seconds`` on a 2-vCPU host; fixes the
#: number of repetitions so a seed always gets the same work.
NOMINAL_ACTIVATIONS_PER_SECOND = 400


def repetitions(seconds: int) -> int:
    """Repetitions per process for a run of ``seconds``."""
    total = seconds * NOMINAL_ACTIVATIONS_PER_SECOND
    return max(1, round(total / (CHILDREN * ACTIVATIONS_PER_REP)))


def prepare(seed: int, seconds: int) -> Dict[str, Any]:
    data = inputs.icc_inputs(seed, CHILDREN, repetitions(seconds), ACTIVATIONS_PER_REP)
    inputs_digest = common.digest(data)
    recorded = common.check_inputs("icc_enforce", seed, inputs_digest, seconds)
    os.makedirs(common.WORK, exist_ok=True)
    path = os.path.join(common.WORK, f"icc-{seed}.pickle")
    with open(path, "wb") as handle:
        pickle.dump(data, handle)
    return {"pickle": path, "inputs": inputs_digest, "recorded": recorded}


def run_children(prep: Dict[str, Any], trace_dir: str = "", only: int = -1) -> List[Dict[str, Any]]:
    outs = []
    for child in range(CHILDREN) if only < 0 else [only]:
        out = common.run_child(
            "child_icc.py",
            {"inputs": prep["pickle"], "child": child, "trace_dir": trace_dir},
        )
        out["setup"] = out["ready_at"] - out["launched_at"] - out["excluded_setup"]
        for rep, again in zip(out["reps"], out["replay_reps"]):
            if (rep["allowed"], rep["blocked"]) != (again["allowed"], again["blocked"]):
                raise common.GateFailure(
                    f"child {child}: deliveries allowed/blocked "
                    f"{rep['allowed']}/{rep['blocked']}, linear replay "
                    f"{again['allowed']}/{again['blocked']}"
                )
        if out["summary"] != out["replay_summary"]:
            raise common.GateFailure(
                f"child {child}: audit summary {out['summary']} differs from "
                f"the linear replay {out['replay_summary']}"
            )
        outs.append(out)
    return outs


def summarize(prep: Dict[str, Any], outs: List[Dict[str, Any]]):
    reps = [rep for out in outs for rep in out["reps"]]
    latencies = [x for out in outs for x in out["latencies_us"]]
    attempted = sum(rep["activations"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics = {
        "setup_s": common.median(out["setup"] for out in outs),
        "peak_rss_mb": max(out["peak_rss_kib"] for out in outs) / 1024.0,
        # The mean, not the median: activation times fall in two modes whose
        # mix follows the host's speed, so the median jumps between them.
        "latency_ms": statistics.fmean(latencies) / 1e3,
        "latency_p90_ms": common.percentile(latencies, 0.9) / 1e3,
    }
    details = {
        "inputs_digest": prep["inputs"],
        "inputs_recorded": prep["recorded"],
        "sends_per_s": sum(r["sends"] for r in reps) / sum(r["wall"] for r in reps),
        "activation_p50_us": common.percentile(latencies, 0.5),
        "activation_p99_us": common.percentile(latencies, 0.99),
        "repetitions": len(reps),
        "activations": attempted,
        "hooked_sends": sum(r["sends"] for r in reps),
        "deliveries_allowed": sum(r["allowed"] for r in reps),
        "deliveries_blocked": sum(r["blocked"] for r in reps),
        "audit": [out["summary"] for out in outs],
        "errors": [e for out in outs for e in out["errors"]][:5],
    }
    return attempted, failed, metrics, details


def timed(workload: str, seed: int, seconds: int):
    prep = prepare(seed, seconds)
    attempted, failed, metrics, details = summarize(prep, run_children(prep))
    return attempted, failed, metrics, details


def trace(workload: str, seed: int, seconds: int, trace_dir: str) -> Dict[str, Any]:
    """Child 0 untraced for the baseline wall, then child 0 traced."""
    prep = prepare(seed, seconds)
    untraced = run_children(prep, only=0)
    traced = run_children(prep, trace_dir=trace_dir, only=0)
    attempted, failed, _, details = summarize(prep, untraced + traced)
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced_wall": sum(r["wall"] for r in untraced[0]["reps"]),
        "traced_wall": sum(r["wall"] for r in traced[0]["reps"]),
        "details": details,
    }
