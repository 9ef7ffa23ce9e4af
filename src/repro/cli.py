"""Command-line interface.

Usage (``python -m repro <command>``):

- ``demo``                      -- run the paper's running example end to end.
- ``corpus --scale S -o DIR``   -- generate the synthetic market corpus and
  save each app's extracted model as JSON into DIR.
- ``analyze MODEL.json ...``    -- analyze a bundle of saved app models:
  print scenarios and policies; ``--alloy FILE`` additionally exports the
  bundle's Alloy specification.
- ``pipeline``                  -- generate a corpus, partition it into
  bundles, and run the parallel cached analysis pipeline end to end;
  ``--jobs N`` controls the process pool, ``--cache-dir`` the persistent
  cache, ``--report``/``--findings`` write machine-readable outputs, and
  ``--trace FILE`` records a JSONL span trace of the whole run.
- ``simulate``                  -- synthesize policies for the running
  example, enforce them on the simulated device (compiled PDP) while the
  malicious app attacks, and print (or save with ``--audit``) the
  enforcement audit log; ``--consent`` answers every prompt with allow.
  The linear reference PDP stays reachable as
  ``repro.enforcement.make_pdp(backend="linear")``.
- ``trace FILE``                -- render the span tree and top-k hotspots
  of a JSONL trace produced by ``pipeline --trace`` or ``REPRO_TRACE``;
  spans whose process died before completion render as ``[UNFINISHED]``.
- ``export-trace FILE -o OUT``  -- convert a JSONL trace (spans plus solver
  heartbeats) to Chrome trace-event JSON, loadable in Perfetto or
  ``chrome://tracing``: one track per worker pid, counter tracks for the
  solver's live counters.
- ``export-metrics REPORT``     -- render the metrics snapshot inside a
  pipeline run report as Prometheus text exposition format.
- ``serve``                     -- run the long-lived policy service: one
  warm analysis session per device over line-delimited JSON (TCP, or a
  UNIX socket with ``--socket``); install/uninstall streams are answered
  by warm incremental re-synthesis, byte-identical to cold runs, with
  Prometheus telemetry on ``--metrics-port``.  See ``docs/SERVICE.md``.
- ``top``                       -- live view of a running service: per-device
  sessions, queue depths, in-flight request ages, warm-hit rates, and the
  costliest device accounts; ``--once`` prints a single frame.
- ``adversarial``               -- generate the seeded adversarial corpus
  (power-law ICC background plus planted multi-step attacks and near-miss
  decoys), optionally write the ground-truth manifest JSON, and score the
  analysis per signature (precision/recall/F1 against the planted truth).
- ``bench``                     -- run the paper-corpus benchmark workloads
  and write a schema-versioned ``BENCH_<label>.json`` snapshot;
  ``bench --compare OLD NEW`` diffs two snapshots with per-metric
  thresholds and exits 2 on regression.

``repro --version`` prints the package version.  ``repro --log-level
LEVEL`` (or ``REPRO_LOG=LEVEL``) routes diagnostic chatter -- heartbeat
lines from ``pipeline --watch``, HTTP access logs -- through stdlib
logging; without it, logging stays unconfigured and default output is
unchanged.  :func:`main` runs each command under at most one tracer,
which it opens before the command and closes after it: ``pipeline
--trace``/``--watch`` name its file, otherwise ``REPRO_TRACE=FILE``
does (with solver heartbeats every ``REPRO_PROGRESS`` conflicts).
Every subcommand documents its flags via ``repro <command> --help``.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import pathlib
import sys
from typing import Callable, Iterator, List, Optional

from repro import __version__
from repro.core import serialize
from repro.core.model import BundleModel
from repro.core.separ import Separ


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type for counts that must be at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


#: Environment variables :func:`main` reads once per command: a trace
#: file, the one way to trace commands that install no tracer themselves
#: (``serve``, ``demo``, ``analyze``), and its solver heartbeat interval
#: in conflicts (a non-numeric or non-positive value means the default;
#: unset means no heartbeats).
TRACE_ENV = "REPRO_TRACE"
PROGRESS_ENV = "REPRO_PROGRESS"


@contextlib.contextmanager
def _command_tracing(args: argparse.Namespace) -> Iterator[None]:
    """Run the command under the one tracer it owns, if any, and close
    that tracer when the command ends, normally or by an exception.

    ``pipeline --trace``/``--watch`` name its file, truncated because
    tasks append to it; ``--watch`` alone gets a throwaway one, since
    heartbeats travel over the trace file.  Otherwise ``REPRO_TRACE``
    names the file, or nothing traces.
    """
    from repro.obs import DEFAULT_INTERVAL, JsonlTracer, tracing

    path, interval = os.environ.get(TRACE_ENV), 0
    throwaway = args.command == "pipeline" and args.watch and not args.trace
    if args.command == "pipeline" and (args.trace or args.watch):
        path = args.trace
        interval = max(1, args.progress_interval) if args.watch else 0
        if throwaway:
            import tempfile

            fd, path = tempfile.mkstemp(prefix="repro-watch-", suffix=".jsonl")
            os.close(fd)
        pathlib.Path(path).write_text("")
    elif os.environ.get(PROGRESS_ENV):
        try:
            interval = int(os.environ[PROGRESS_ENV])
        except ValueError:
            pass
        interval = interval if interval > 0 else DEFAULT_INTERVAL
    if not path:
        yield
        return
    tracer = JsonlTracer(path, heartbeat_interval=interval)
    try:
        with tracing(tracer):
            yield
    finally:
        tracer.close()
        if throwaway:
            with contextlib.suppress(OSError):
                os.unlink(path)


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_seconds(text: str) -> float:
    """argparse type for durations that must be a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {value}"
        )
    return value


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.benchsuite.running_example import build_app1, build_app2

    report = Separ(
        scenarios_per_signature=args.scenarios
    ).analyze_apks([build_app1(), build_app2()])
    print(report.summary())
    print()
    for scenario in report.scenarios:
        print(f"[{scenario.vulnerability}] {scenario.description}")
    print()
    for policy in report.policies:
        print(f"policy ({policy.vulnerability}): {policy.description}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.statics import extract_app
    from repro.workloads import CorpusConfig, CorpusGenerator

    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = CorpusGenerator(CorpusConfig(scale=args.scale, seed=args.seed))
    apks = generator.generate()
    for apk in apks:
        model = extract_app(apk)
        path = out_dir / f"{model.package}.json"
        path.write_text(serialize.dumps_app(model))
    counts = generator.ledger.counts()
    print(f"wrote {len(apks)} app models to {out_dir}")
    print(f"injected vulnerabilities: {counts}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    apps = []
    for path in args.models:
        text = pathlib.Path(path).read_text()
        apps.append(serialize.loads_app(text))
    bundle = BundleModel(apps=apps)
    report = Separ(scenarios_per_signature=args.scenarios).analyze_bundle(
        bundle
    )
    print(report.summary())
    for scenario in report.scenarios:
        print(f"\n[{scenario.vulnerability}] {scenario.description}")
    print()
    for policy in report.policies:
        print(f"policy ({policy.vulnerability}): {policy.description}")
    if args.alloy:
        from repro.core import alloy_export

        pathlib.Path(args.alloy).write_text(alloy_export.render_bundle(bundle))
        print(f"\nAlloy specification written to {args.alloy}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline import (
        AnalysisPipeline,
        FaultPolicy,
        NullCache,
        PipelineCache,
    )
    from repro.workloads import CorpusConfig, CorpusGenerator
    from repro.workloads.bundles import partition_bundles

    monitor = None
    if args.watch:
        from repro.obs import HeartbeatMonitor, current_tracer

        watch_logger = logging.getLogger("repro.watch")
        if not logging.getLogger().handlers and not watch_logger.handlers:
            # --watch implies visible heartbeats even when --log-level was
            # not given; scope the handler to the watch logger so nothing
            # else starts chattering.
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(
                logging.Formatter("[watch %(asctime)s] %(message)s", "%H:%M:%S")
            )
            watch_logger.addHandler(handler)
            watch_logger.setLevel(logging.INFO)
        # main opened this command's tracer on the watched file.
        monitor = HeartbeatMonitor(
            current_tracer().path,
            stall_after=args.stall_after,
            logger=watch_logger,
        ).start()

    generator = CorpusGenerator(CorpusConfig(scale=args.scale, seed=args.seed))
    apks = generator.generate()
    bundles = partition_bundles(
        apks, bundle_size=args.bundle_size, seed=args.seed
    )
    if args.no_cache:
        cache = NullCache()
    else:
        cache_dir = pathlib.Path(args.cache_dir) if args.cache_dir else None
        cache = PipelineCache(cache_dir)
    pipeline = AnalysisPipeline(
        jobs=args.jobs,
        cache=cache,
        scenarios_per_signature=args.scenarios,
        faults=FaultPolicy(
            task_timeout=args.task_timeout,
            max_retries=args.task_retries,
        ),
        conflict_budget=args.conflict_budget,
        time_budget_seconds=args.time_budget,
    )
    try:
        result = pipeline.run(bundles)
    finally:
        if monitor is not None:
            monitor.stop()
    report = result.run_report
    print(
        f"pipeline: {report.num_apps} apps in {report.num_bundles} bundles, "
        f"jobs={report.jobs}"
    )
    print(
        f"  scenarios: {report.num_scenarios}, "
        f"policies: {report.num_policies}"
    )
    for timing in report.stages:
        print(f"  {timing.name}: {timing.seconds:.2f}s")
    print(
        f"  cache: {report.cache.total_hits} hits, "
        f"{report.cache.total_misses} misses, "
        f"{report.cache.total_invalidations} invalidations"
    )
    solver = report.solver
    print(
        f"  solver: {solver.solver_calls} calls, "
        f"{solver.conflicts} conflicts, {solver.decisions} decisions, "
        f"{solver.propagations} propagations"
    )
    print(
        f"  encoding: {solver.translations} translations "
        f"({solver.translations_avoided} avoided), "
        f"{solver.clauses_shared} clauses shared, "
        f"{solver.learned_carried} learned clauses carried"
    )
    if report.failures:
        print(f"  failures: {len(report.failures)} task(s)")
        for failure in report.failures:
            print(
                f"    [{failure['kind']}] {failure['stage']}"
                f" {failure['task']} after {failure['attempts']} attempt(s):"
                f" {failure['error']}"
            )
    if report.degraded:
        print(f"  degraded: {len(report.degraded)} task(s)")
        for entry in report.degraded:
            print(
                f"    [{entry['reason']}] {entry['stage']} {entry['task']}"
                f" ({entry['scenarios']} scenario(s) found before the "
                "budget ran out)"
            )
    if report.cost:
        top = sorted(
            report.cost,
            key=lambda e: e.get("conflicts", 0),
            reverse=True,
        )[:3]
        print(f"  cost ledger: {len(report.cost)} account(s); top by conflicts:")
        for entry in top:
            label = entry.get("bundle") or entry.get("device") or "?"
            signature = entry.get("signature") or "-"
            print(
                f"    {label} [{signature}]: "
                f"{int(entry.get('conflicts', 0))} conflicts, "
                f"{entry.get('wall_seconds', 0.0):.2f}s"
            )
    if args.trace:
        span_count = int(sum(e["count"] for e in report.spans.values()))
        print(f"  trace: {span_count} spans written to {args.trace}")
    if args.report:
        pathlib.Path(args.report).write_text(report.dumps())
        print(f"run report written to {args.report}")
    if args.findings:
        import json

        pathlib.Path(args.findings).write_text(
            json.dumps(result.findings_dict(), indent=2, sort_keys=True)
        )
        print(f"findings written to {args.findings}")
    # Fault tolerance is the default contract: a run that completed with
    # isolated failures or degraded tasks still exits 0 (the report carries
    # the details).  --strict turns those conditions into exit codes.
    if args.strict:
        if report.failures:
            return 3
        if report.degraded:
            return 2
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.benchsuite.running_example import (
        build_app1,
        build_app2,
        build_malicious_app,
    )
    from repro.enforcement import (
        AndroidRuntime,
        PolicyEnforcementPoint,
        deny_all_prompts,
        make_pdp,
    )

    print("synthesizing policies for the benign bundle (app1 + app2)...")
    report = Separ(
        scenarios_per_signature=args.scenarios
    ).analyze_apks([build_app1(), build_app2()])
    print(
        f"  {len(report.scenarios)} exploit scenarios, "
        f"{len(report.policies)} policies"
    )

    runtime = AndroidRuntime()
    for apk in (build_app1(), build_app2(), build_malicious_app()):
        runtime.install(apk)
    prompt = (
        (lambda policy, event: True) if args.consent else deny_all_prompts
    )
    pdp = make_pdp(report.policies, prompt_callback=prompt)
    pep = PolicyEnforcementPoint(runtime, pdp)
    pep.install()
    runtime.start_component(args.entry)

    audit = pdp.audit
    summary = audit.summary()
    print(
        f"\naudit log: {summary['decisions']} decisions "
        f"({summary['allowed']} allowed, {summary['denied']} denied, "
        f"{summary['prompted']} prompted)"
    )
    for record in audit:
        policy = record.policy_vulnerability or "-"
        print(
            f"  [{record.seq:3d}] {record.verdict:5s} {record.event_kind:12s}"
            f" {record.sender} -> {record.receiver or '(unresolved)'}"
            f"  policy={policy}"
        )
    exfiltrated = bool(runtime.effects_of_kind("sms_sent"))
    print(
        "\n=> "
        + ("LOCATION EXFILTRATED" if exfiltrated else "no exfiltration")
        + f" ({pep.blocked_deliveries} deliveries blocked)"
    )
    if args.audit:
        audit.write(args.audit)
        print(f"audit log written to {args.audit}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, render_hotspots, render_span_tree

    try:
        records = read_trace(args.trace_file)
    except OSError as exc:
        print(f"repro trace: cannot read {args.trace_file}: {exc}", file=sys.stderr)
        return 1
    print(f"{len(records)} spans in {args.trace_file}")
    open_count = sum(1 for r in records if r.open)
    if open_count:
        print(
            f"({open_count} span(s) never completed -- process killed or "
            "crashed mid-span)"
        )
    print()
    print(render_span_tree(records, max_depth=args.max_depth))
    print()
    print(render_hotspots(records, top=args.top))
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_events, write_chrome_trace

    try:
        spans, events = read_events(args.trace_file)
    except OSError as exc:
        print(
            f"repro export-trace: cannot read {args.trace_file}: {exc}",
            file=sys.stderr,
        )
        return 1
    count = write_chrome_trace(args.output, spans, events)
    heartbeats = sum(1 for e in events if e.get("event") == "progress")
    print(
        f"wrote {count} trace events ({len(spans)} spans, "
        f"{heartbeats} heartbeats) to {args.output}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _load_metrics_snapshot(report_path: str) -> dict:
    import json

    from repro.obs import cost_metrics_snapshot

    data = json.loads(pathlib.Path(report_path).read_text())
    # Accept either a full run report or a bare metrics snapshot.
    snapshot = data.get("metrics", data) if isinstance(data, dict) else {}
    if not snapshot:
        raise ValueError(
            "no metrics in report (write one with `repro pipeline "
            "--report`, whose run always counts its own)"
        )
    snapshot = dict(snapshot)
    if isinstance(data, dict) and "metrics" in data and data.get("cost"):
        # Fold the run's cost-ledger accounts in as labeled series
        # (repro_cost_* counters keyed by trace/device/bundle/signature).
        snapshot.update(cost_metrics_snapshot(data["cost"]))
    return snapshot


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs import render_prometheus

    try:
        snapshot = _load_metrics_snapshot(args.report)
    except (OSError, ValueError) as exc:
        print(f"repro export-metrics: {exc}", file=sys.stderr)
        return 1
    text = render_prometheus(snapshot)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {len(text.splitlines())} exposition lines to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import PolicyService, ServerConfig, SessionConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        metrics_port=args.metrics_port,
        workers=args.workers,
        batch_max=args.batch_max,
        request_timeout_seconds=args.request_timeout,
        ready_file=args.ready_file,
        session=SessionConfig(
            scenarios_per_signature=args.scenarios,
            conflict_budget=args.conflict_budget,
            time_budget_seconds=args.time_budget,
            cache_entries=args.cache_entries,
        ),
    )
    service = PolicyService(config)

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal-handler support
        task = asyncio.ensure_future(service.run())
        # Wait for the bind (or an early failure) before printing where
        # the server can be reached.
        while not service._started.is_set() and not task.done():
            await asyncio.sleep(0.01)
        if config.socket_path:
            print(f"repro serve: listening on {config.socket_path}")
        elif service.address:
            host, port = service.address
            print(f"repro serve: listening on {host}:{port}")
        if service.metrics_address:
            mhost, mport = service.metrics_address
            print(f"repro serve: metrics on http://{mhost}:{mport}/metrics")
        print("(Ctrl-C or the 'shutdown' op to stop)")
        await task

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _render_top(health: dict, status: dict) -> str:
    """One `repro top` frame: liveness line, device table, cost leaders."""
    lines = [
        "repro top -- up {:.0f}s, {} session(s), queue depth {}, "
        "{} request(s) in flight".format(
            health.get("uptime_seconds", 0.0),
            health.get("sessions", 0),
            health.get("queue_depth", 0),
            health.get("inflight", 0),
        )
    ]
    stalled = health.get("stalled_devices") or []
    if stalled:
        lines.append(f"  STALLED: {', '.join(stalled)}")
    sessions = status.get("sessions", {})
    queue_depths = status.get("queue_depths", {})
    inflight_ages = status.get("inflight_ages", {})
    if sessions:
        lines.append("")
        lines.append(
            f"  {'DEVICE':<16} {'APPS':>4} {'REQS':>6} {'QUEUE':>5} "
            f"{'INFLIGHT':>8} {'WARM%':>6} {'CACHE':>5}"
        )
        for device, info in sessions.items():
            age = inflight_ages.get(device)
            rate = info.get("warm_hit_rate")
            lines.append(
                "  {:<16} {:>4} {:>6} {:>5} {:>8} {:>6} {:>5}".format(
                    device,
                    len(info.get("installed", ())),
                    info.get("requests", 0),
                    queue_depths.get(device, 0),
                    "-" if age is None else f"{age:.1f}s",
                    "-" if rate is None else f"{rate * 100.0:.0f}",
                    info.get("cache_entries") or 0,
                )
            )
    top_costs = status.get("top_costs") or []
    if top_costs:
        lines.append("")
        lines.append("  top cost accounts (by conflicts):")
        for entry in top_costs:
            lines.append(
                "    {}: {} conflicts, {} propagations, {:.2f}s".format(
                    entry.get("device") or "?",
                    int(entry.get("conflicts", 0)),
                    int(entry.get("propagations", 0)),
                    entry.get("wall_seconds", 0.0),
                )
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.service import ServiceClient, ServiceError

    try:
        client = ServiceClient(
            host=args.host, port=args.port, socket_path=args.socket
        )
    except OSError as exc:
        print(f"repro top: cannot connect: {exc}", file=sys.stderr)
        return 1
    try:
        with client:
            while True:
                frame = _render_top(client.healthz(), client.status())
                print(frame, flush=True)
                if args.once:
                    return 0
                time.sleep(args.interval)
                print()
    except ServiceError as exc:
        print(f"repro top: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, BrokenPipeError, ConnectionError):
        return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchsuite.bench import (
        BenchConfig,
        compare_bench,
        known_workloads,
        load_bench,
        render_comparison,
        run_bench,
        write_bench,
    )

    per_metric: dict = {}
    for item in args.metric_threshold or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            print(
                f"repro bench: --metric-threshold expects METRIC=REL, "
                f"got {item!r}",
                file=sys.stderr,
            )
            return 1
        try:
            per_metric[name] = float(value)
        except ValueError:
            print(
                f"repro bench: --metric-threshold {item!r}: "
                f"{value!r} is not a number",
                file=sys.stderr,
            )
            return 1

    if args.compare:
        old_path, new_path = args.compare
        try:
            old = load_bench(old_path)
            new = load_bench(new_path)
            comparison = compare_bench(
                old, new, threshold=args.threshold, thresholds=per_metric
            )
        except (OSError, ValueError) as exc:
            print(f"repro bench: {exc}", file=sys.stderr)
            return 1
        print(
            f"comparing {old.get('label')} ({old_path}) -> "
            f"{new.get('label')} ({new_path})"
        )
        print(render_comparison(comparison, strict=args.strict))
        if comparison.ok(strict=args.strict):
            return 0
        return 0 if args.warn_only else 2

    extra = {}
    if args.workloads:
        wanted = tuple(
            name.strip() for name in args.workloads.split(",") if name.strip()
        )
        unknown = sorted(set(wanted) - set(known_workloads()))
        if unknown:
            print(
                f"repro bench: unknown workload(s) {', '.join(unknown)}; "
                f"choose from {', '.join(known_workloads())}",
                file=sys.stderr,
            )
            return 1
        extra["workloads"] = wanted
    config = BenchConfig(
        label=args.label,
        scale=args.scale,
        bundle_size=args.bundle_size,
        scenarios=args.scenarios,
        jobs=args.jobs,
        seed=args.seed,
        quick=args.quick,
        **extra,
    )
    result = run_bench(config, progress=print)
    path = write_bench(result, args.output)
    print(f"benchmark snapshot written to {path}")
    for workload, metrics in sorted(result["workloads"].items()):
        wall = metrics.get("wall_seconds", metrics.get("total_seconds", 0.0))
        print(f"  {workload}: {wall:.3f}s")
    rss = result.get("peak_rss_bytes")
    if rss:
        print(f"  peak RSS: {rss / (1024 * 1024):.1f} MiB")
    return 0


def _cmd_adversarial(args: argparse.Namespace) -> int:
    import json

    from repro.core.attack_generation import (
        AdversarialCorpusConfig,
        AdversarialCorpusGenerator,
    )

    try:
        config = AdversarialCorpusConfig(
            seed=args.seed,
            bundles=args.bundles,
            apps_per_bundle=args.apps_per_bundle,
            plants_per_signature=args.plants,
            decoys_per_signature=args.decoys,
        )
        bundles, manifest = AdversarialCorpusGenerator(config).generate()
    except ValueError as exc:
        print(f"repro adversarial: {exc}", file=sys.stderr)
        return 1

    apps = sum(len(apks) for apks in bundles)
    print(
        f"adversarial corpus: {len(bundles)} bundle(s), {apps} apps, "
        f"{len(manifest.planted)} planted attack(s), "
        f"{len(manifest.decoys)} decoy(s) [seed {config.seed}]"
    )
    if args.manifest:
        path = pathlib.Path(args.manifest)
        path.write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"ground-truth manifest written to {path}")
    if args.no_analyze:
        return 0

    from repro.benchsuite.groundtruth import (
        findings_from_scenarios,
        score_against_manifest,
    )
    from repro.core.synthesis import AnalysisAndSynthesisEngine
    from repro.statics import extract_bundle

    engine = AnalysisAndSynthesisEngine(scenarios_per_signature=args.scenarios)
    per_bundle = []
    for apks in bundles:
        model = extract_bundle(apks, handle_dynamic_receivers=True)
        per_bundle.append(engine.run(model).scenarios)
    scores = score_against_manifest(
        manifest, findings_from_scenarios(per_bundle)
    )
    failed = False
    for name in sorted(scores):
        acc = scores[name]
        flag = ""
        if min(acc.precision, acc.recall) < args.min_accuracy:
            failed = True
            flag = "  <-- below --min-accuracy"
        print(
            f"  {name}: precision {acc.precision:.3f} "
            f"recall {acc.recall:.3f} F1 {acc.f_measure:.3f} "
            f"(tp {acc.true_positives} fp {acc.false_positives} "
            f"fn {acc.false_negatives}){flag}"
        )
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SEPAR reproduction: formal synthesis and automatic enforcement "
            "of Android security policies (DSN 2016)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="route diagnostic logging (heartbeats, HTTP access) to stderr "
        "at this level; also settable via REPRO_LOG (default: logging "
        "unconfigured, output unchanged)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo",
        help="run the paper's running example",
        description=(
            "Extract, synthesize and derive policies for the paper's "
            "two-app running example, printing every scenario and policy."
        ),
    )
    demo.add_argument(
        "--scenarios",
        type=_positive_int,
        default=8,
        help="max scenarios to enumerate per vulnerability signature "
        "(default: %(default)s)",
    )
    demo.set_defaults(func=_cmd_demo)

    corpus = sub.add_parser(
        "corpus",
        help="generate the synthetic market corpus",
        description=(
            "Generate the seeded synthetic market corpus, extract each "
            "app, and save the models as JSON (one file per app)."
        ),
    )
    corpus.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="corpus fraction of the paper's 4,000 apps "
        "(default: %(default)s)",
    )
    corpus.add_argument(
        "--seed",
        type=int,
        default=2016,
        help="corpus generator seed (default: %(default)s)",
    )
    corpus.add_argument(
        "-o",
        "--output",
        required=True,
        help="directory receiving one <package>.json model per app",
    )
    corpus.set_defaults(func=_cmd_corpus)

    analyze = sub.add_parser(
        "analyze",
        help="analyze a bundle of saved app models",
        description=(
            "Load saved app models as one bundle, synthesize exploit "
            "scenarios and preventive policies, and print them."
        ),
    )
    analyze.add_argument(
        "models", nargs="+", help="app-model JSON files (from `repro corpus`)"
    )
    analyze.add_argument(
        "--scenarios",
        type=_positive_int,
        default=8,
        help="max scenarios per signature (default: %(default)s)",
    )
    analyze.add_argument(
        "--alloy", help="also export the bundle's Alloy specification here"
    )
    analyze.set_defaults(func=_cmd_analyze)

    pipeline = sub.add_parser(
        "pipeline",
        help="run the parallel cached analysis pipeline over a corpus",
        description=(
            "Generate a corpus, partition it into bundles, and run the "
            "parallel cached analysis pipeline end to end, with optional "
            "JSONL span tracing and a machine-readable run report."
        ),
    )
    pipeline.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="corpus fraction (default: %(default)s)",
    )
    pipeline.add_argument(
        "--seed",
        type=int,
        default=2016,
        help="corpus/partition seed (default: %(default)s)",
    )
    pipeline.add_argument(
        "--bundle-size",
        type=_positive_int,
        default=8,
        help="apps per bundle (default: %(default)s)",
    )
    pipeline.add_argument(
        "--scenarios",
        type=_positive_int,
        default=4,
        help="max scenarios per signature (default: %(default)s)",
    )
    pipeline.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default: %(default)s = serial; any value "
        "produces byte-identical findings)",
    )
    pipeline.add_argument(
        "--cache-dir",
        help="persistent cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-pipeline)",
    )
    pipeline.add_argument(
        "--no-cache", action="store_true", help="disable the persistent cache"
    )
    pipeline.add_argument(
        "--trace",
        help="record a JSONL span trace here (render with `repro trace`, "
        "export with `repro export-trace`)",
    )
    pipeline.add_argument(
        "--watch",
        action="store_true",
        help="tail live solver heartbeats (conflicts/sec, restarts, "
        "learned clauses, budget headroom) from every worker while the "
        "pipeline runs, and flag workers that go silent",
    )
    pipeline.add_argument(
        "--progress-interval",
        type=int,
        default=256,
        help="with --watch: publish a solver progress snapshot every N "
        "conflicts (default: %(default)s)",
    )
    pipeline.add_argument(
        "--stall-after",
        type=float,
        default=10.0,
        help="with --watch: warn when a previously heartbeating worker "
        "goes silent for this many seconds (default: %(default)s)",
    )
    pipeline.add_argument("--report", help="write the JSON run report here")
    pipeline.add_argument(
        "--findings", help="write canonical JSON findings here"
    )
    pipeline.add_argument(
        "--task-timeout",
        type=_positive_seconds,
        default=None,
        help="per-task timeout in seconds on the process-pool path "
        "(default: none)",
    )
    pipeline.add_argument(
        "--task-retries",
        type=_non_negative_int,
        default=2,
        help="retries per task after its first attempt "
        "(default: %(default)s)",
    )
    pipeline.add_argument(
        "--conflict-budget",
        type=int,
        default=None,
        help="max CDCL conflicts per synthesis task; exhausting it "
        "degrades the task to a partial result (default: unlimited)",
    )
    pipeline.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock seconds per synthesis task before it degrades "
        "to a partial result (default: unlimited)",
    )
    pipeline.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if any task failed and 2 if any task degraded "
        "(default: exit 0 whenever the run completes)",
    )
    pipeline.set_defaults(func=_cmd_pipeline)

    simulate = sub.add_parser(
        "simulate",
        help="enforce synthesized policies against the Figure 1 attack",
        description=(
            "Synthesize policies for the running example, install the two "
            "benign apps plus the malicious app on the simulated device, "
            "run the attack under PEP/PDP enforcement, and print the "
            "enforcement audit log (every decision, in order)."
        ),
    )
    simulate.add_argument(
        "--scenarios",
        type=_positive_int,
        default=8,
        help="max scenarios per signature during synthesis "
        "(default: %(default)s)",
    )
    simulate.add_argument(
        "--entry",
        default="com.example.navigation/LocationFinder",
        help="component the framework starts to trigger the attack "
        "(default: %(default)s)",
    )
    simulate.add_argument(
        "--consent",
        action="store_true",
        help="answer every security prompt with 'allow' "
        "(default: the cautious user denies)",
    )
    simulate.add_argument(
        "--audit", help="write the audit log here as JSONL"
    )
    simulate.set_defaults(func=_cmd_simulate)

    trace = sub.add_parser(
        "trace",
        help="render a JSONL span trace: tree + top-k hotspots",
        description=(
            "Read a JSONL trace file (from `pipeline --trace` or "
            "REPRO_TRACE) and print the nested span tree "
            "followed by the top-k span names by self time."
        ),
    )
    trace.add_argument("trace_file", help="JSONL trace file to render")
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="hotspot rows to show (default: %(default)s)",
    )
    trace.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="limit the rendered tree depth (default: unlimited)",
    )
    trace.set_defaults(func=_cmd_trace)

    export_trace = sub.add_parser(
        "export-trace",
        help="convert a JSONL trace to Chrome trace-event JSON (Perfetto)",
        description=(
            "Read a JSONL span trace (spans, begin events, solver progress "
            "heartbeats) and write Chrome trace-event JSON: one process "
            "track per pid, counter tracks for the solver's live counters, "
            "unfinished spans as open slices.  Load the result in "
            "https://ui.perfetto.dev or chrome://tracing."
        ),
    )
    export_trace.add_argument("trace_file", help="JSONL trace file to convert")
    export_trace.add_argument(
        "-o",
        "--output",
        required=True,
        help="write the Chrome trace-event JSON here",
    )
    export_trace.set_defaults(func=_cmd_export_trace)

    export_metrics = sub.add_parser(
        "export-metrics",
        help="render a run report's metrics as Prometheus text exposition",
        description=(
            "Read the metrics snapshot inside a pipeline run report (from "
            "`repro pipeline --report`) -- or a bare snapshot JSON -- and "
            "render it as Prometheus text exposition format 0.0.4."
        ),
    )
    export_metrics.add_argument(
        "report", help="run-report JSON (or bare metrics snapshot JSON)"
    )
    export_metrics.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the exposition here (default: stdout)",
    )
    export_metrics.set_defaults(func=_cmd_export_metrics)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived policy service (warm incremental state)",
        description=(
            "Start the repro policy daemon: line-delimited JSON requests "
            "over TCP (or a UNIX socket with --socket), one warm analysis "
            "session per device.  install/uninstall/update/grant/revoke "
            "answer with detection deltas; analyze/policies/decide pay at "
            "most one warm re-synthesis per composition and are byte-"
            "identical to cold runs.  --metrics-port exposes Prometheus "
            "gauges for sessions, queue depth, warm-hit rate and request "
            "latency.  See docs/SERVICE.md for the protocol."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=7461,
        help="bind port (default: %(default)s; 0 picks a free port)",
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="listen on a UNIX socket at PATH instead of TCP",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve Prometheus metrics on this port "
        "(0 picks a free port; default: no metrics endpoint)",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write a JSON line with the bound address to PATH once "
        "accepting (lets scripts wait for startup)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="analysis worker threads (default: %(default)s)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=32,
        help="max queued requests drained per device batch "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock bound per request (default: none; synthesis is "
        "bounded by --conflict-budget/--time-budget degradation instead)",
    )
    serve.add_argument(
        "--scenarios",
        type=_positive_int,
        default=2,
        help="max scenarios per signature (default: %(default)s)",
    )
    serve.add_argument(
        "--conflict-budget",
        type=int,
        default=None,
        help="per-signature solver conflict budget; over-budget synthesis "
        "degrades to a partial result (default: unbounded)",
    )
    serve.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-signature synthesis time budget with the same "
        "degradation semantics (default: unbounded)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="per-session warm result cache bound, 0 = unbounded "
        "(default: %(default)s)",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live view of a running policy service (sessions, queues, cost)",
        description=(
            "Poll a running `repro serve` daemon's healthz and status verbs "
            "and render a per-device table (installed apps, requests, queue "
            "depth, in-flight age, warm-hit rate, cache occupancy) plus the "
            "costliest device accounts by solver conflicts."
        ),
    )
    top.add_argument(
        "--host", default="127.0.0.1", help="service address (default: %(default)s)"
    )
    top.add_argument(
        "--port",
        type=int,
        default=7461,
        help="service port (default: %(default)s)",
    )
    top.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="connect over a UNIX socket at PATH instead of TCP",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: %(default)s)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (scripting / tests)",
    )
    top.set_defaults(func=_cmd_top)

    adversarial = sub.add_parser(
        "adversarial",
        help="generate the seeded adversarial corpus and score detection",
        description=(
            "Generate power-law ICC bundles with planted multi-step "
            "attacks (permission re-delegation chains, provider leaks, "
            "dynamic-receiver hijacks, app collusion) plus near-miss "
            "decoys, optionally write the machine-readable ground-truth "
            "manifest, run the analysis and print per-signature "
            "precision/recall against the planted truth."
        ),
    )
    adversarial.add_argument(
        "--seed",
        type=int,
        default=2016,
        help="corpus seed; same seed reproduces the corpus byte-for-byte "
        "(default: %(default)s)",
    )
    adversarial.add_argument(
        "--bundles",
        type=int,
        default=4,
        help="number of independent app bundles (default: %(default)s)",
    )
    adversarial.add_argument(
        "--apps-per-bundle",
        type=int,
        default=10,
        help="background apps per bundle, minimum 4 (default: %(default)s)",
    )
    adversarial.add_argument(
        "--plants",
        type=int,
        default=1,
        help="planted attacks per signature per bundle "
        "(default: %(default)s)",
    )
    adversarial.add_argument(
        "--decoys",
        type=int,
        default=1,
        help="near-miss decoys per signature per bundle "
        "(default: %(default)s)",
    )
    adversarial.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the ground-truth manifest as JSON to PATH",
    )
    adversarial.add_argument(
        "--no-analyze",
        action="store_true",
        help="only generate (and optionally write the manifest); skip the "
        "synthesis run and scoring",
    )
    adversarial.add_argument(
        "--scenarios",
        type=_positive_int,
        default=4,
        help="max scenarios per signature during analysis "
        "(default: %(default)s)",
    )
    adversarial.add_argument(
        "--min-accuracy",
        type=float,
        default=0.0,
        help="exit 2 if any signature's precision or recall falls below "
        "this bound (default: %(default)s)",
    )
    adversarial.set_defaults(func=_cmd_adversarial)

    bench = sub.add_parser(
        "bench",
        help="run the benchmark workloads / compare two BENCH snapshots",
        description=(
            "Run the paper-corpus benchmark workloads (Fig 5 extraction, "
            "Table II cold/warm pipeline, Table I accuracy) and write a "
            "schema-versioned BENCH_<label>.json snapshot; or, with "
            "--compare OLD NEW, diff two snapshots with per-metric "
            "relative thresholds and exit 2 on regression."
        ),
    )
    bench.add_argument(
        "--label",
        default="local",
        help="snapshot label; the output file is BENCH_<label>.json "
        "(default: %(default)s)",
    )
    bench.add_argument(
        "-o",
        "--output",
        default=".",
        help="directory receiving the snapshot (default: %(default)s)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: tiny corpus, a slice of the accuracy suites",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="corpus fraction for the workloads (default: %(default)s)",
    )
    bench.add_argument(
        "--bundle-size",
        type=_positive_int,
        default=8,
        help="apps per pipeline bundle (default: %(default)s)",
    )
    bench.add_argument(
        "--scenarios",
        type=_positive_int,
        default=2,
        help="max scenarios per signature (default: %(default)s)",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="pipeline worker processes (default: %(default)s)",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=2016,
        help="corpus/partition seed (default: %(default)s)",
    )
    bench.add_argument(
        "--workloads",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated subset of workloads to run (default: all); "
        "e.g. --workloads accuracy_scaled for the adversarial-corpus "
        "precision/recall run alone",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="compare two BENCH snapshots instead of running workloads",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="with --compare: relative change tolerated per metric "
        "(default: %(default)s)",
    )
    bench.add_argument(
        "--metric-threshold",
        action="append",
        default=[],
        metavar="METRIC=REL",
        help="with --compare: override the relative threshold for one "
        "metric (repeatable); e.g. --metric-threshold recall=0.0 fails "
        "on any recall drop beyond the noise floor",
    )
    bench.add_argument(
        "--strict",
        action="store_true",
        help="with --compare: also fail on missing metrics or "
        "non-comparable workload configs",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help="with --compare: report regressions but always exit 0 "
        "(CI smoke mode)",
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level_name = args.log_level or os.environ.get("REPRO_LOG")
    if level_name:
        logging.basicConfig(
            level=getattr(logging, level_name.upper(), logging.INFO),
            stream=sys.stderr,
            format="[%(asctime)s %(levelname)s %(name)s] %(message)s",
            datefmt="%H:%M:%S",
        )
    with _command_tracing(args):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
