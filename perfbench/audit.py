"""``audit_cold`` and ``audit_warm``: the Table II corpus audit.

Each repetition is a fresh process (``child_audit.py``) that builds
``AnalysisPipeline(jobs=nproc, scenarios_per_signature=2)`` over an
on-disk ``PipelineCache`` and runs it on the seed's bundles:

- ``audit_cold``: every repetition gets an empty cache directory;
- ``audit_warm``: one untimed cold run of the same code fills a cache
  directory, then every repetition re-audits against it and must hit on
  every lookup.

Findings are checked against the per-signature oracle path
(``shared_encoding=False``, serial, no cache): a digest recorded in
``refs.json`` for the seed, or computed before the timed phase when the
seed is not recorded.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from typing import Any, Dict, List

import common
import inputs

#: Seconds one repetition takes on a 2-vCPU host; with ``--seconds`` it
#: fixes the number of repetitions, so a seed always gets the same work.
NOMINAL_REP_SECONDS = {"audit_cold": 3.4, "audit_warm": 1.3}


def oracle_findings(bundles: List[List[Any]]) -> str:
    from repro.pipeline.executor import AnalysisPipeline

    result = AnalysisPipeline(
        jobs=1, scenarios_per_signature=inputs.SCENARIOS, shared_encoding=False
    ).run(bundles)
    return common.text_digest(json.dumps(result.findings_dict(), sort_keys=True))


def prepare(seed: int) -> Dict[str, Any]:
    """Generate and pickle the inputs; resolve the reference findings."""
    apks, bundles = inputs.audit_inputs(seed)
    inputs_digest = common.digest(bundles)
    recorded = common.check_inputs("audit", seed, inputs_digest)
    if recorded:
        reference = common.load_refs()["audit"][str(seed)]["findings"]
    else:
        common.log(f"seed {seed} has no recorded reference; running the oracle")
        reference = oracle_findings(bundles)
    os.makedirs(common.WORK, exist_ok=True)
    path = os.path.join(common.WORK, f"bundles-{seed}.pickle")
    with open(path, "wb") as handle:
        pickle.dump(bundles, handle)
    return {
        "apps": len(apks),
        "bundles": len(bundles),
        "pickle": path,
        "inputs": inputs_digest,
        "recorded": recorded,
        "reference": reference,
    }


def _child(prep: Dict[str, Any], cache: str, trace_dir: str = "") -> Dict[str, Any]:
    out = common.run_child(
        "child_audit.py",
        {
            "inputs": prep["pickle"],
            "cache": cache,
            "jobs": common.cpu_count(),
            "scenarios": inputs.SCENARIOS,
            "trace_dir": trace_dir,
        },
    )
    out["setup"] = out["ready_at"] - out["launched_at"] - out["excluded_setup"]
    if out["findings"] != prep["reference"]:
        raise common.GateFailure(
            f"findings digest {out['findings'][:16]} differs from the "
            f"oracle's {prep['reference'][:16]}"
        )
    return out


def repetitions(workload: str, seconds: int) -> int:
    return max(2, round(seconds / NOMINAL_REP_SECONDS[workload]))


def run_reps(workload: str, prep: Dict[str, Any], reps: int, warm_cache: str,
             trace_dir: str = "") -> List[Dict[str, Any]]:
    outs = []
    for rep in range(reps):
        if workload == "audit_cold":
            cache = os.path.join(common.WORK, f"cache-cold-{rep}")
            shutil.rmtree(cache, ignore_errors=True)
            out = _child(prep, cache, trace_dir)
            shutil.rmtree(cache, ignore_errors=True)
        else:
            out = _child(prep, warm_cache, trace_dir)
            if out["cache_misses"] or out["cache_invalidations"]:
                raise common.GateFailure(
                    f"warm re-audit missed the cache {out['cache_misses']} "
                    f"times ({out['cache_invalidations']} invalidations)"
                )
        outs.append(out)
    return outs


def fill(prep: Dict[str, Any]) -> str:
    """Fill a cache with one cold run of the code under test (untimed)."""
    cache = os.path.join(common.WORK, "cache-warm")
    shutil.rmtree(cache, ignore_errors=True)
    _child(prep, cache)
    return cache


def summarize(prep: Dict[str, Any], outs: List[Dict[str, Any]]):
    attempted = sum(o["tasks"] for o in outs)
    failed = sum(len(o["failures"]) + len(o["degraded"]) for o in outs)
    walls_ms = [o["wall"] * 1e3 for o in outs]
    metrics = {
        "setup_s": common.median(o["setup"] for o in outs),
        "peak_rss_mb": max(o["peak_rss_kib"] for o in outs) / 1024.0,
        "latency_ms": common.median(walls_ms),
        "latency_p90_ms": common.percentile(walls_ms, 0.9),
    }
    details = {
        "apps_per_s": common.median(o["apps"] / o["wall"] for o in outs),
        "apps": prep["apps"],
        "bundles": prep["bundles"],
        "repetitions": len(outs),
        "inputs_digest": prep["inputs"],
        "inputs_recorded": prep["recorded"],
        "findings_digest": prep["reference"],
        "run_walls_s": [round(o["wall"], 4) for o in outs],
    }
    return attempted, failed, metrics, details


def timed(workload: str, seed: int, seconds: int):
    prep = prepare(seed)
    warm_cache = fill(prep) if workload == "audit_warm" else ""
    outs = run_reps(workload, prep, repetitions(workload, seconds), warm_cache)
    attempted, failed, metrics, details = summarize(prep, outs)
    return attempted, failed, metrics, details


def trace(workload: str, seed: int, seconds: int, trace_dir: str) -> Dict[str, Any]:
    """Untraced repetitions for the baseline wall, then one traced run."""
    prep = prepare(seed)
    warm_cache = fill(prep) if workload == "audit_warm" else ""
    untraced = run_reps(workload, prep, 3, warm_cache)
    traced = run_reps(workload, prep, 1, warm_cache, trace_dir)[0]
    outs = untraced + [traced]
    attempted, failed, _, details = summarize(prep, outs)
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced_wall": common.median(o["wall"] for o in untraced),
        "traced_wall": traced["wall"],
        "jobs": traced["jobs"],
        "failures": len(traced["failures"]),
        "degraded": len(traced["degraded"]),
        "details": details,
    }
