"""One corpus audit in a fresh process (``audit_cold`` / ``audit_warm``).

Usage: ``python3 perfbench/child_audit.py SPEC.json``.  Loads the pickled
bundles ``run.py`` generated, builds ``AnalysisPipeline`` against the
on-disk cache named in the spec, runs it once and writes timings, the
findings digest and run-report counts to ``spec["out"]``.
"""

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402


def main() -> None:
    spec = common.read_json(sys.argv[1])
    common.import_program()
    from repro.pipeline.cache import PipelineCache
    from repro.pipeline.executor import AnalysisPipeline

    excluded = 0.0
    t = common.now()
    with open(spec["inputs"], "rb") as handle:
        bundles = pickle.load(handle)  # written by run.py
    excluded += common.now() - t
    recorder = None
    if spec.get("trace_dir"):
        import tracing

        t = common.now()
        recorder = tracing.install(spec["trace_dir"])
        excluded += common.now() - t
    pipeline = AnalysisPipeline(
        jobs=spec["jobs"],
        cache=PipelineCache(spec["cache"]),
        scenarios_per_signature=spec["scenarios"],
    )
    ready = common.now()
    with recorder.root() if recorder else contextlib.nullcontext():
        t0 = common.now()
        result = pipeline.run(bundles)
        t1 = common.now()
    report = result.run_report
    findings = json.dumps(result.findings_dict(), sort_keys=True)
    out = {
        "started_at": STARTED,
        "ready_at": ready,
        "excluded_setup": excluded,
        "wall": t1 - t0,
        "t0": t0,
        "t1": t1,
        "apps": report.num_apps,
        "tasks": len(bundles) + sum(len(b) for b in bundles),
        "failures": report.failures,
        "degraded": report.degraded,
        "cache_hits": report.cache.total_hits,
        "cache_misses": sum(report.cache.misses.values()),
        "cache_invalidations": sum(report.cache.invalidations.values()),
        "findings": common.text_digest(findings),
        "jobs": spec["jobs"],
        "peak_rss_kib": common.peak_rss_kib(),
    }
    if recorder is not None:
        recorder.flush()
    common.write_json(spec["out"], out)


if __name__ == "__main__":
    main()
