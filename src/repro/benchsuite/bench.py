"""Continuous benchmark-regression harness (``repro bench``).

One command runs the paper's benchmark workloads -- Fig 5 per-app
extraction, Table II cold/warm pipeline synthesis, Table I accuracy over
DroidBench and ICC-Bench, and the sustained-throughput enforcement
workload (RQ4 extended: PDP events/sec and decision latency, compiled vs
linear backend, hooked vs unhooked runtime) -- and emits a
schema-versioned ``BENCH_<label>.json`` snapshot: per-workload wall
clock, solver counters, cache hit rates, shared-encoding reuse figures,
accuracy scores, peak RSS and an environment fingerprint.

A second invocation with ``--compare OLD NEW`` diffs two snapshots with
per-metric relative thresholds (direction-aware: ``*_seconds`` going up
is a regression, ``precision`` going down is) and reports regressions,
so a checked-in baseline turns any run into a perf gate.  The comparison
is pure data -> data, which is what the regression tests exercise.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Bump when the snapshot layout changes incompatibly; ``compare_bench``
#: refuses to diff across versions.
BENCH_SCHEMA_VERSION = 1

DEFAULT_THRESHOLD = 0.25

#: Metrics where *larger* is the good direction; everything else regresses
#: when it grows (wall clock, memory, solver effort, failure counts).
HIGHER_BETTER = frozenset(
    {
        "cache_hit_rate",
        "precision",
        "recall",
        "f_measure",
        "true_positives",
        "compiled_speedup",
        "linear_events_per_sec",
        "compiled_events_per_sec",
        "warm_speedup",
        "warm_hit_rate",
        "requests_per_sec",
    }
)

def _higher_better(metric: str) -> bool:
    """Direction tag for a metric.  Beyond the fixed set, any
    per-signature accuracy metric (``<signature>_precision`` etc., as the
    accuracy_scaled workload emits for arbitrary registered signatures)
    is better when larger."""
    return metric in HIGHER_BETTER or metric.endswith(
        ("_precision", "_recall", "_f_measure")
    )


#: Workload-configuration identity: these must match between two snapshots
#: for a perf comparison to mean anything.  A difference is reported as a
#: mismatch, never as a regression.
IDENTITY_METRICS = frozenset(
    {
        "jobs",
        "num_apps",
        "num_bundles",
        "num_scenarios",
        "num_policies",
        "cases",
        "apps",
        "bundles",
        "scenarios",
        "policies",
        "events",
        "queries",
        "socket_requests",
        "planted",
        "decoys",
    }
)


@dataclass
class BenchConfig:
    """What to run and at which scale."""

    label: str = "local"
    scale: float = 0.01  # corpus fraction (paper full scale = 1.0)
    bundle_size: int = 8
    scenarios: int = 2
    jobs: int = 1
    seed: int = 2016
    quick: bool = False
    workloads: Sequence[str] = field(
        default_factory=lambda: (
            "extraction",
            "pipeline_cold",
            "pipeline_warm",
            "accuracy",
            "accuracy_scaled",
            "enforcement",
            "service",
        )
    )

    def effective_scale(self) -> float:
        return min(self.scale, 0.005) if self.quick else self.scale

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["workloads"] = list(self.workloads)
        return data


def environment_fingerprint() -> Dict[str, Any]:
    """Where this snapshot was taken -- enough to judge comparability."""
    fingerprint: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        fingerprint["git_rev"] = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        fingerprint["git_rev"] = None
    return fingerprint


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, when the platform tells us."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return peak * 1024 if sys.platform.startswith("linux") else peak


def _percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


# ----------------------------------------------------------------------
# Workloads


def _bench_extraction(config: BenchConfig) -> Dict[str, float]:
    """Fig 5: per-app model extraction over a generated corpus."""
    from repro.statics import extract_app
    from repro.workloads import CorpusConfig, CorpusGenerator

    generator = CorpusGenerator(
        CorpusConfig(seed=config.seed, scale=config.effective_scale())
    )
    apks = generator.generate()
    per_app: List[float] = []
    t0 = time.perf_counter()
    for apk in apks:
        start = time.perf_counter()
        extract_app(apk)
        per_app.append(time.perf_counter() - start)
    return {
        "apps": float(len(apks)),
        "total_seconds": time.perf_counter() - t0,
        "mean_seconds": sum(per_app) / len(per_app) if per_app else 0.0,
        "p95_seconds": _percentile(per_app, 0.95),
        "max_seconds": max(per_app) if per_app else 0.0,
    }


def _bench_pipeline(config: BenchConfig) -> Dict[str, Dict[str, float]]:
    """Table II via the cached pipeline: a cold run then a warm rerun."""
    from repro.benchsuite.metrics import summarize_run_report
    from repro.pipeline import AnalysisPipeline, PipelineCache
    from repro.workloads import CorpusConfig, CorpusGenerator, partition_bundles

    generator = CorpusGenerator(
        CorpusConfig(seed=config.seed, scale=config.effective_scale())
    )
    apks = generator.generate()
    bundles = partition_bundles(
        apks, bundle_size=config.bundle_size, seed=config.seed
    )
    out: Dict[str, Dict[str, float]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        for phase in ("pipeline_cold", "pipeline_warm"):
            pipeline = AnalysisPipeline(
                jobs=config.jobs,
                cache=PipelineCache(cache_dir),
                scenarios_per_signature=config.scenarios,
            )
            t0 = time.perf_counter()
            result = pipeline.run(bundles)
            wall = time.perf_counter() - t0
            summary = summarize_run_report(result.run_report)
            summary["wall_seconds"] = wall
            out[phase] = summary
    return out


def _bench_accuracy(config: BenchConfig) -> Dict[str, float]:
    """Table I: SEPAR leak detection over DroidBench + ICC-Bench."""
    from repro.baselines.separ_tool import SeparTool
    from repro.benchsuite.droidbench import droidbench_cases
    from repro.benchsuite.iccbench import iccbench_cases
    from repro.benchsuite.metrics import score_tool

    cases = droidbench_cases() + iccbench_cases()
    if config.quick:
        # A representative slice: enough to catch a broken analysis or a
        # gross slowdown without paying for all 33 cases.
        cases = cases[::4]
    tool = SeparTool()
    results = {}
    t0 = time.perf_counter()
    for case in cases:
        results[case.name] = tool.find_leaks(case.apks)
    seconds = time.perf_counter() - t0
    score = score_tool("separ", cases, results)
    return {
        "cases": float(len(cases)),
        "total_seconds": seconds,
        "mean_seconds": seconds / len(cases) if cases else 0.0,
        "precision": score.precision,
        "recall": score.recall,
        "f_measure": score.f_measure,
        "true_positives": float(score.true_positives),
        "false_positives": float(score.false_positives),
        "false_negatives": float(score.false_negatives),
    }


def _bench_accuracy_scaled(config: BenchConfig) -> Dict[str, float]:
    """Scaled threat model: precision/recall of the four multi-step
    signatures against the adversarial generator's planted ground truth.

    Every metric ending in ``_precision``/``_recall``/``_f_measure`` is
    direction-tagged higher-is-better, so a comparison flags any accuracy
    drop as a regression the same way it flags a slowdown."""
    from repro.benchsuite.groundtruth import (
        findings_from_scenarios,
        score_against_manifest,
    )
    from repro.core.attack_generation import (
        AdversarialCorpusConfig,
        AdversarialCorpusGenerator,
    )
    from repro.core.synthesis import AnalysisAndSynthesisEngine
    from repro.statics import extract_bundle

    corpus_config = AdversarialCorpusConfig(
        seed=config.seed,
        bundles=2 if config.quick else 6,
        apps_per_bundle=6 if config.quick else 10,
    )
    bundles, manifest = AdversarialCorpusGenerator(corpus_config).generate()
    engine = AnalysisAndSynthesisEngine(
        scenarios_per_signature=max(config.scenarios, 4),
    )
    t0 = time.perf_counter()
    per_bundle = []
    for apks in bundles:
        bundle = extract_bundle(apks, handle_dynamic_receivers=True)
        per_bundle.append(engine.run(bundle).scenarios)
    seconds = time.perf_counter() - t0

    found = findings_from_scenarios(per_bundle)
    scores = score_against_manifest(manifest, found)
    metrics: Dict[str, float] = {
        "bundles": float(corpus_config.bundles),
        "apps": float(corpus_config.bundles * corpus_config.apps_per_bundle),
        "planted": float(len(manifest.planted)),
        "decoys": float(len(manifest.decoys)),
        "total_seconds": seconds,
        "mean_bundle_seconds": (
            seconds / corpus_config.bundles if corpus_config.bundles else 0.0
        ),
    }
    tp = fp = fn = 0
    for name, accuracy in sorted(scores.items()):
        metrics[f"{name}_precision"] = accuracy.precision
        metrics[f"{name}_recall"] = accuracy.recall
        metrics[f"{name}_f_measure"] = accuracy.f_measure
        tp += accuracy.true_positives
        fp += accuracy.false_positives
        fn += accuracy.false_negatives
    reported = tp + fp
    actual = tp + fn
    precision = tp / reported if reported else 1.0
    recall = tp / actual if actual else 1.0
    metrics["precision"] = precision
    metrics["recall"] = recall
    metrics["f_measure"] = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    metrics["true_positives"] = float(tp)
    metrics["false_positives"] = float(fp)
    metrics["false_negatives"] = float(fn)
    return metrics


def make_enforcement_workload(
    seed: int = 2016,
    num_policies: int = 192,
    num_shapes: int = 512,
    num_events: int = 24000,
):
    """Deterministic policy set + ICC event stream for enforcement benches.

    Generates policies across every condition shape the compiled PDP
    dispatches on -- exact ``(receiver, action)`` pins, receiver-only,
    sender-pinned hijack-style (``allowed_receivers``),
    permission-predicate, and endpoint-free wildcard (extras-only) rules
    -- plus a skewed event stream: a bounded pool of distinct intent
    shapes sampled with replacement, so the decision cache sees realistic
    re-occurrence, most events fall through to default-allow, and a
    policy-matching minority exercises both verdicts.  Also reused by the
    RQ4 benchmark and the backend-differential tests, so the measured
    stream and the verified stream are the same distribution.

    Returns ``(policies, stream)`` with ``stream`` a list of
    ``(PolicyEvent, IccEvent)`` pairs.
    """
    import random

    from repro.android.resources import Resource
    from repro.core.policy import ECAPolicy, IccEvent, PolicyAction, PolicyEvent

    rng = random.Random(seed)
    components = [f"app{i:03d}.pkg/Comp{i:03d}" for i in range(96)]
    actions = [f"com.bench.ACTION_{i}" for i in range(24)]
    permissions = [f"perm.P{i}" for i in range(12)]
    resources = sorted(Resource, key=lambda r: r.value)

    def some_resources() -> frozenset:
        return frozenset(rng.sample(resources, rng.randint(1, 2)))

    policies = []
    for i in range(num_policies):
        verdict = (
            PolicyAction.DENY if rng.random() < 0.75 else PolicyAction.PROMPT
        )
        shape = rng.randrange(8)
        if shape <= 2:  # exact (receiver, action) pin
            policy = ECAPolicy(
                event=PolicyEvent.ICC_RECEIVE,
                vulnerability="service_launch",
                action=verdict,
                receiver=rng.choice(components),
                intent_action=rng.choice(actions),
            )
        elif shape <= 4:  # receiver-only, payload condition
            policy = ECAPolicy(
                event=PolicyEvent.ICC_RECEIVE,
                vulnerability="information_leak",
                action=verdict,
                receiver=rng.choice(components),
                extras_any=some_resources(),
            )
        elif shape == 5:  # sender-pinned hijack shape
            policy = ECAPolicy(
                event=PolicyEvent.ICC_SEND,
                vulnerability="intent_hijack",
                action=verdict,
                sender=rng.choice(components),
                intent_action=rng.choice(actions),
                allowed_receivers=frozenset(rng.sample(components, 3)),
            )
        elif shape == 6:  # permission predicate
            policy = ECAPolicy(
                event=PolicyEvent.ICC_RECEIVE,
                vulnerability="privilege_escalation",
                action=verdict,
                receiver=rng.choice(components),
                sender_lacks_permission=rng.choice(permissions),
            )
        else:  # wildcard: no endpoint pinned, fallback-chain matcher
            policy = ECAPolicy(
                event=PolicyEvent.ICC_RECEIVE,
                vulnerability="information_leak",
                action=verdict,
                extras_any=frozenset({rng.choice(resources)}),
            )
        policies.append(policy)

    shapes = []
    for _ in range(num_shapes):
        kind = (
            PolicyEvent.ICC_SEND
            if rng.random() < 0.4
            else PolicyEvent.ICC_RECEIVE
        )
        event = IccEvent(
            sender=rng.choice(components),
            receiver=rng.choice(components) if rng.random() < 0.9 else None,
            action=rng.choice(actions) if rng.random() < 0.8 else None,
            extras=some_resources() if rng.random() < 0.3 else frozenset(),
            sender_permissions=(
                frozenset(rng.sample(permissions, 2))
                if rng.random() < 0.5
                else frozenset()
            ),
        )
        shapes.append((kind, event))
    stream = [rng.choice(shapes) for _ in range(num_events)]
    return policies, stream


def _bench_icc_heavy_apk(ops: int):
    """An app whose activation fires ``ops`` hooked startService calls."""
    from repro.android.apk import Apk
    from repro.android.components import ComponentDecl, ComponentKind
    from repro.android.intents import IntentFilter
    from repro.android.manifest import Manifest
    from repro.dex import DexClass, DexProgram, MethodBuilder

    pinger = MethodBuilder("onCreate", params=("p0",))
    for i in range(ops):
        pinger.new_instance("v0", "Intent")
        pinger.const_string("v1", "bench.PING")
        pinger.invoke("Intent.setAction", receiver="v0", args=("v1",))
        pinger.invoke("Context.startService", args=("v0",))
    pinger.ret()
    ponger = MethodBuilder("onStartCommand", params=("p0",)).ret().build()
    return Apk(
        Manifest(
            package="bench.icc",
            components=[
                ComponentDecl("Main", ComponentKind.ACTIVITY, exported=True),
                ComponentDecl(
                    "Pong",
                    ComponentKind.SERVICE,
                    intent_filters=[IntentFilter.for_action("bench.PING")],
                ),
            ],
        ),
        DexProgram(
            [
                DexClass("Main", superclass="Activity", methods=[pinger.build()]),
                DexClass("Pong", superclass="Service", methods=[ponger]),
            ]
        ),
    )


def _bench_enforcement(config: BenchConfig) -> Dict[str, float]:
    """RQ4 extended: sustained-throughput policy enforcement.

    Replays one deterministic ICC event stream through both PDP backends
    (events/sec, p50/p99 per-decision latency, decision-cache hit rate)
    and measures end-to-end hooked vs unhooked runtime dispatch on an
    ICC-heavy app under the compiled backend.  ``compiled_speedup`` > 1.0
    means the compiled backend beats the linear reference on identical
    traffic; it is direction-tagged in ``HIGHER_BETTER`` so a comparison
    flags any slide back toward linear scanning.
    """
    from repro.core.policy import PolicyAction, PolicyEvent
    from repro.enforcement import (
        AndroidRuntime,
        AuditLog,
        PolicyEnforcementPoint,
        make_pdp,
    )

    num_policies = 48 if config.quick else 192
    num_events = 4000 if config.quick else 24000
    policies, stream = make_enforcement_workload(
        seed=config.seed, num_policies=num_policies, num_events=num_events
    )

    def drive(backend: str):
        # Retention keeps the measured loop allocation-flat: bounded
        # window, fallthroughs sampled 1-in-8 (counters stay exact).
        audit = AuditLog(window=2048, sample_default_allow=8)
        pdp = make_pdp(
            policies,
            backend=backend,
            prompt_callback=lambda policy, event: True,
            audit=audit,
        )
        latencies: List[float] = []
        t0 = time.perf_counter()
        for kind, event in stream:
            start = time.perf_counter()
            pdp.decide(kind, event)
            latencies.append(time.perf_counter() - start)
        return pdp, time.perf_counter() - t0, latencies

    linear_pdp, linear_seconds, linear_lat = drive("linear")
    compiled_pdp, compiled_seconds, compiled_lat = drive("compiled")
    # Identical traffic must produce identical verdict totals; a mismatch
    # means the numbers compare different work and must not be reported.
    assert linear_pdp.audit.summary() == compiled_pdp.audit.summary(), (
        "PDP backends diverged on the benchmark stream"
    )

    apk = _bench_icc_heavy_apk(ops=10 if config.quick else 40)
    hook_policies, _ = make_enforcement_workload(
        seed=config.seed, num_policies=16, num_events=0
    )

    def dispatch(protect: bool) -> float:
        samples = []
        for _ in range(3 if config.quick else 7):
            runtime = AndroidRuntime()
            runtime.install(apk)
            if protect:
                pdp = make_pdp(
                    hook_policies,
                    backend="compiled",
                    prompt_callback=lambda policy, event: True,
                )
                PolicyEnforcementPoint(runtime, pdp).install()
            t0 = time.perf_counter()
            runtime.start_component("bench.icc/Main")
            samples.append(time.perf_counter() - t0)
        return _percentile(samples, 0.5)

    unhooked = dispatch(protect=False)
    hooked = dispatch(protect=True)

    cache_lookups = compiled_pdp.cache_hits + compiled_pdp.cache_misses
    return {
        "policies": float(num_policies),
        "events": float(num_events),
        "linear_seconds": linear_seconds,
        "compiled_seconds": compiled_seconds,
        "linear_events_per_sec": num_events / linear_seconds,
        "compiled_events_per_sec": num_events / compiled_seconds,
        "compiled_speedup": (
            linear_seconds / compiled_seconds if compiled_seconds > 0 else 0.0
        ),
        "linear_p50_us": _percentile(linear_lat, 0.5) * 1e6,
        "linear_p99_us": _percentile(linear_lat, 0.99) * 1e6,
        "compiled_p50_us": _percentile(compiled_lat, 0.5) * 1e6,
        "compiled_p99_us": _percentile(compiled_lat, 0.99) * 1e6,
        "cache_hit_rate": (
            compiled_pdp.cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "unhooked_dispatch_seconds": unhooked,
        "hooked_dispatch_seconds": hooked,
        "hook_overhead_pct": (
            (hooked - unhooked) / unhooked * 100.0 if unhooked > 0 else 0.0
        ),
    }


def _bench_service(config: BenchConfig) -> Dict[str, float]:
    """Sustained service throughput: warm sessions vs cold reruns.

    Replays a seeded install / uninstall / reinstall stream with an
    ``analyze`` re-query after every event, twice: once through one
    resident :class:`DeviceSession` (warm engine + in-memory
    content-addressed cache), once as cold full-bundle runs (a fresh
    engine per queried composition, extraction already paid on both
    sides).  Every warm answer is asserted byte-identical to its cold
    answer before any number is reported -- the measured speedup never
    compares different work.  ``warm_speedup`` > 1.0 means the resident
    session beats cold re-analysis; it is direction-tagged in
    ``HIGHER_BETTER``.  A second phase drives a ``decide`` stream
    through a live socket server for end-to-end requests/sec and
    per-request latency, then replays the stream with the service's own
    tracer switched off and on between consecutive decides, and reports
    the per-request p50/p99 of each side plus ``telemetry_overhead_pct``,
    the price of tracing on the hot decide path: the median over off/on
    pairs of the on decide's latency against the off one's (each
    session's cost account is charged in both).
    """
    import json as _json
    import random

    from repro.core import serialize
    from repro.obs import NULL_TRACER, JsonlTracer
    from repro.service import (
        PolicyService,
        ServerConfig,
        ServiceClient,
        SessionConfig,
    )
    from repro.service.session import DeviceSession, cold_analysis
    from repro.statics import extract_app
    from repro.workloads import CorpusConfig, CorpusGenerator

    generator = CorpusGenerator(
        CorpusConfig(seed=config.seed, scale=config.effective_scale())
    )
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
    rng = random.Random(config.seed)
    vulnerable = [a for a in apks if a.package in flagged]
    neutral = [a for a in apks if a.package not in flagged]
    picked = rng.sample(vulnerable, min(3, len(vulnerable)))
    picked += rng.sample(neutral, min(len(neutral), 2))
    apps = [extract_app(a) for a in picked]
    app_dicts = {a.package: serialize.app_to_dict(a) for a in apps}
    session_config = SessionConfig(
        scenarios_per_signature=config.scenarios,
    )
    flips = 2 if config.quick else 4

    # ---- warm phase: one resident session replays the event stream
    session = DeviceSession("bench", config=session_config)
    queried: List[tuple] = []  # (packages, warm answer)
    resident = []
    t0 = time.perf_counter()
    for app in apps:
        session.install(app_dicts[app.package])
        resident.append(app.package)
        queried.append((tuple(sorted(resident)), session.analyze()))
    for i in range(flips):
        victim = apps[i % len(apps)].package
        session.uninstall(victim)
        queried.append(
            (
                tuple(sorted(p for p in resident if p != victim)),
                session.analyze(),
            )
        )
        session.install(app_dicts[victim])
        queried.append((tuple(sorted(resident)), session.analyze()))
    warm_seconds = time.perf_counter() - t0

    # ---- cold phase: a fresh full-bundle run per queried composition.
    # The session analyzes the device view under current permission
    # grants (the analyzer's Marshmallow semantics), so the cold side
    # must see the same grant-effective models -- comparing against the
    # raw extracted apps would diff two different compositions whenever
    # a component exercises an undeclared permission.
    from repro.core.incremental import effective_app

    by_package = {
        a.package: effective_app(a, frozenset(a.uses_permissions))
        for a in apps
    }
    t0 = time.perf_counter()
    cold_answers = [
        cold_analysis([by_package[p] for p in packages], session_config)
        for packages, _warm in queried
    ]
    cold_seconds = time.perf_counter() - t0
    for (packages, warm), cold in zip(queried, cold_answers):
        if _json.dumps(warm, sort_keys=True) != _json.dumps(
            cold, sort_keys=True
        ):
            raise RuntimeError(
                f"service session diverged from cold run on {packages}"
            )

    # ---- socket phase: sustained decide throughput on a live server
    num_requests = 200 if config.quick else 1000
    components = [
        f"{c.app}/{c.name}"
        for a in apps
        for c in a.components
    ] or ["bench.app/Main"]
    service = PolicyService(
        ServerConfig(port=0, session=session_config, heartbeat_seconds=0.5)
    )
    latencies: List[float] = []
    off_latencies: List[float] = []
    on_latencies: List[float] = []
    overheads: List[float] = []
    with service.background():
        host, port = service.address
        with ServiceClient(host, port) as client:

            def decide_seconds(i: int) -> float:
                event = {
                    "sender": components[i % len(components)],
                    "receiver": components[(i * 7 + 1) % len(components)],
                }
                start = time.perf_counter()
                client.decide("bench", "icc_receive", event)
                return time.perf_counter() - start

            for app in apps:
                client.install("bench", app_dicts[app.package])
            client.analyze("bench")  # pay the one synthesis up front
            t0 = time.perf_counter()
            latencies = [decide_seconds(i) for i in range(num_requests)]
            socket_seconds = time.perf_counter() - t0

            # ---- telemetry-overhead phase: the same decide stream, each
            # decide twice in a row, with the service's own tracer off and
            # then on (each batch reads ``service.tracer``).  A pair runs
            # back to back on the same event, so a drift in the host's
            # speed reaches both sides; the median pair is the reading.
            # Blocks of several decides per side spread more from run to
            # run.
            fd, trace_path = tempfile.mkstemp(
                prefix="repro-bench-trace-", suffix=".jsonl"
            )
            os.close(fd)
            tracer = JsonlTracer(trace_path)
            try:
                for i in range(max(1, num_requests // 2)):
                    service.tracer = NULL_TRACER
                    off = decide_seconds(i)
                    service.tracer = tracer
                    on = decide_seconds(i)
                    off_latencies.append(off)
                    on_latencies.append(on)
                    overheads.append((on - off) / off * 100.0)
            finally:
                service.tracer = NULL_TRACER
                tracer.close()
                try:
                    os.unlink(trace_path)
                except OSError:
                    pass

    return {
        "apps": float(len(apps)),
        "events": float(len(apps) + 2 * flips),
        "queries": float(len(queried)),
        "warm_seconds": warm_seconds,
        "cold_seconds": cold_seconds,
        "warm_speedup": (
            cold_seconds / warm_seconds if warm_seconds > 0 else 0.0
        ),
        "warm_hit_rate": session.warm_hit_rate,
        "syntheses": float(session.syntheses),
        "socket_requests": float(num_requests),
        "socket_seconds": socket_seconds,
        "requests_per_sec": (
            num_requests / socket_seconds if socket_seconds > 0 else 0.0
        ),
        "request_p50_us": _percentile(latencies, 0.5) * 1e6,
        "request_p99_us": _percentile(latencies, 0.99) * 1e6,
        "telemetry_off_p50_us": _percentile(off_latencies, 0.5) * 1e6,
        "telemetry_off_p99_us": _percentile(off_latencies, 0.99) * 1e6,
        "telemetry_on_p50_us": _percentile(on_latencies, 0.5) * 1e6,
        "telemetry_on_p99_us": _percentile(on_latencies, 0.99) * 1e6,
        "telemetry_overhead_pct": statistics.median(overheads),
    }


_WORKLOADS: Dict[str, Callable[[BenchConfig], Any]] = {
    "extraction": _bench_extraction,
    "accuracy": _bench_accuracy,
    "accuracy_scaled": _bench_accuracy_scaled,
    "enforcement": _bench_enforcement,
    "service": _bench_service,
}


def known_workloads() -> Tuple[str, ...]:
    """Every workload name ``run_bench`` understands (the pipeline pair
    is produced by a single shared runner, so it lives outside the
    registry)."""
    return tuple(sorted(set(_WORKLOADS) | {"pipeline_cold", "pipeline_warm"}))


def run_bench(
    config: BenchConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the configured workloads; returns the snapshot dict."""
    emit = progress or (lambda message: None)
    workloads: Dict[str, Dict[str, float]] = {}
    wanted = list(config.workloads)
    started = time.time()
    if "pipeline_cold" in wanted or "pipeline_warm" in wanted:
        emit("running pipeline_cold + pipeline_warm ...")
        pair = _bench_pipeline(config)
        for phase, summary in pair.items():
            if phase in wanted:
                workloads[phase] = summary
    for name in wanted:
        runner = _WORKLOADS.get(name)
        if runner is None:
            continue
        emit(f"running {name} ...")
        workloads[name] = runner(config)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": config.label,
        "created": started,
        "config": config.to_dict(),
        "environment": environment_fingerprint(),
        "peak_rss_bytes": peak_rss_bytes(),
        "workloads": workloads,
    }


def bench_filename(label: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    return f"BENCH_{safe or 'local'}.json"


def write_bench(result: Dict[str, Any], out_dir: str) -> str:
    """Write the snapshot as ``BENCH_<label>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(str(result.get("label", "local"))))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Comparison


def _noise_floor(metric: str) -> float:
    """Absolute change below which a metric difference is treated as noise
    (scaled-down workloads finish in milliseconds; relative thresholds
    alone would turn scheduler jitter into regressions)."""
    if metric.endswith("_seconds"):
        return 0.02
    if metric.endswith("_us"):
        return 2.0  # single-decision latencies sit near timer resolution
    if metric.endswith("_pct"):
        return 5.0  # hook-overhead percentages on millisecond dispatches
    if "rss" in metric:
        return 32 * 1024 * 1024
    if metric in (
        "cache_hit_rate",
        "warm_hit_rate",
        "precision",
        "recall",
        "f_measure",
    ) or metric.endswith(("_precision", "_recall", "_f_measure")):
        return 0.01
    if metric in ("compiled_speedup", "warm_speedup"):
        return 0.1
    return 1.0


@dataclass
class MetricDelta:
    workload: str
    metric: str
    old: float
    new: float
    change: float  # signed relative change vs old (new/old - 1)
    threshold: float

    def describe(self) -> str:
        return (
            f"{self.workload}.{self.metric}: {self.old:.4g} -> "
            f"{self.new:.4g} ({self.change:+.1%}, threshold "
            f"{self.threshold:.0%})"
        )


@dataclass
class BenchComparison:
    regressions: List[MetricDelta] = field(default_factory=list)
    improvements: List[MetricDelta] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    def ok(self, strict: bool = False) -> bool:
        if self.regressions:
            return False
        if strict and (self.mismatches or self.missing):
            return False
        return True


def _threshold_for(
    metric: str, thresholds: Dict[str, float], default: float
) -> float:
    """Per-metric threshold: exact name first, then the longest key that
    is an underscore-separated suffix (``"recall"`` covers every
    per-signature ``<name>_recall``)."""
    if metric in thresholds:
        return thresholds[metric]
    for key in sorted(thresholds, key=len, reverse=True):
        if metric.endswith("_" + key):
            return thresholds[key]
    return default


def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    thresholds: Optional[Dict[str, float]] = None,
) -> BenchComparison:
    """Diff two snapshots; direction-aware, noise-floored, total.

    ``thresholds`` overrides the relative threshold per metric name
    (matching on the bare metric, e.g. ``"wall_seconds"``; a key also
    matches any metric carrying it as an underscore-separated suffix, so
    ``"recall"`` covers every per-signature ``<name>_recall``, longest
    key winning).  Workloads or
    metrics present in ``old`` but absent in ``new`` land in ``missing``
    (a strict-mode failure: the benchmark got narrower).  Identity
    metrics (app counts, job counts) that differ land in ``mismatches``.
    """
    old_version = old.get("schema_version")
    new_version = new.get("schema_version")
    if old_version != BENCH_SCHEMA_VERSION or new_version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench schema mismatch: old={old_version} new={new_version} "
            f"expected={BENCH_SCHEMA_VERSION}"
        )
    thresholds = thresholds or {}
    comparison = BenchComparison()
    old_workloads = old.get("workloads", {})
    new_workloads = new.get("workloads", {})

    flat_old: Dict[str, Dict[str, float]] = dict(old_workloads)
    flat_new: Dict[str, Dict[str, float]] = dict(new_workloads)
    if old.get("peak_rss_bytes") is not None and new.get("peak_rss_bytes") is not None:
        flat_old["process"] = {"peak_rss_bytes": float(old["peak_rss_bytes"])}
        flat_new["process"] = {"peak_rss_bytes": float(new["peak_rss_bytes"])}

    for workload, old_metrics in sorted(flat_old.items()):
        new_metrics = flat_new.get(workload)
        if new_metrics is None:
            comparison.missing.append(f"workload {workload!r} absent in new")
            continue
        for metric, old_value in sorted(old_metrics.items()):
            if not isinstance(old_value, (int, float)):
                continue
            if metric not in new_metrics:
                comparison.missing.append(
                    f"metric {workload}.{metric} absent in new"
                )
                continue
            new_value = float(new_metrics[metric])
            old_value = float(old_value)
            if metric in IDENTITY_METRICS:
                if old_value != new_value:
                    comparison.mismatches.append(
                        f"{workload}.{metric}: {old_value:g} vs "
                        f"{new_value:g} (configs not comparable)"
                    )
                continue
            delta = new_value - old_value
            if abs(delta) < _noise_floor(metric):
                continue
            relative = (
                delta / abs(old_value) if old_value else math.inf * (
                    1 if delta > 0 else -1
                )
            )
            limit = _threshold_for(metric, thresholds, threshold)
            worse = (
                relative < -limit
                if _higher_better(metric)
                else relative > limit
            )
            better = (
                relative > limit
                if _higher_better(metric)
                else relative < -limit
            )
            record = MetricDelta(
                workload=workload,
                metric=metric,
                old=old_value,
                new=new_value,
                change=relative,
                threshold=limit,
            )
            if worse:
                comparison.regressions.append(record)
            elif better:
                comparison.improvements.append(record)
    return comparison


def render_comparison(comparison: BenchComparison, strict: bool = False) -> str:
    lines: List[str] = []
    for item in comparison.regressions:
        lines.append(f"REGRESSION  {item.describe()}")
    for item in comparison.improvements:
        lines.append(f"improvement {item.describe()}")
    for text in comparison.mismatches:
        lines.append(f"mismatch    {text}")
    for text in comparison.missing:
        lines.append(f"missing     {text}")
    verdict = "OK" if comparison.ok(strict=strict) else "FAIL"
    lines.append(
        f"{verdict}: {len(comparison.regressions)} regression(s), "
        f"{len(comparison.improvements)} improvement(s), "
        f"{len(comparison.mismatches)} mismatch(es), "
        f"{len(comparison.missing)} missing"
    )
    return "\n".join(lines)
