"""Observability through the pipeline: run-report round-trips carrying
spans/metrics/cost, the spans a run folds in from its tracer, traced
end-to-end runs, each run's own metrics and cost accounts, and
cross-process propagation of spans and heartbeats under both pool start
methods."""

import importlib.util
import multiprocessing
import os
import pathlib

import pytest

from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.core.synthesis import SynthesisStats
from repro.obs import (
    COST_FIELDS,
    NULL_TRACER,
    InMemoryTracer,
    JsonlTracer,
    ProgressSnapshot,
    TraceContext,
    aggregate_spans,
    current_trace_id,
    current_tracer,
    read_events,
    render_prometheus,
    tracing,
)
from repro.obs.trace import read_trace
from repro.pipeline import (
    AnalysisPipeline,
    NullCache,
    PipelineCache,
    RunReport,
)
from repro.pipeline.executor import _run_task
from repro.statics.callgraph import CallGraph
from repro.statics.constprop import ValueAnalysis


def check_trace_integrity(path, expect_roots=1):
    """Run the CI trace checker (tools/check_trace_integrity.py) in-process."""
    tool = (
        pathlib.Path(__file__).resolve().parents[2]
        / "tools"
        / "check_trace_integrity.py"
    )
    spec = importlib.util.spec_from_file_location("check_trace_integrity", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_trace(str(path), expect_roots=expect_roots)


def assert_worker_spans_join_dispatch(records):
    """Work crossed a process boundary, and every worker span resolves
    to the orchestrator's dispatch stage span under the run's one trace
    id, below a single ``pipeline.run`` root."""
    by_id = {r.span_id: r for r in records}
    roots = [r for r in records if r.parent_id is None]
    assert [r.name for r in roots] == ["pipeline.run"]
    assert roots[0].pid == os.getpid()
    worker_spans = [r for r in records if r.pid != os.getpid()]
    assert worker_spans, "no spans from worker processes"
    trace_id = roots[0].trace_id
    assert trace_id
    for record in worker_spans:
        assert record.trace_id == trace_id
        top = record
        while by_id[top.parent_id].pid != os.getpid():
            top = by_id[top.parent_id]
        dispatch = by_id[top.parent_id]
        assert dispatch.name in ("pipeline.extract", "pipeline.synthesis")


@pytest.fixture
def observed():
    """Run the test under a collecting tracer."""
    with tracing(InMemoryTracer()) as tracer:
        yield tracer


def assert_books_the_payload_stats(result):
    """A run that computed every payload holds, in its registry, exactly
    the work its bundles' payload stats carry, and its ledger's conflicts
    equal ``sat.conflicts``.  Returns the merged stats."""
    stats = SynthesisStats()
    for report in result.reports:
        stats.merge(report.stats)
    metrics = result.run_report.metrics
    for name, field in (
        ("sat.solver_calls", "solver_calls"),
        ("sat.conflicts", "conflicts"),
        ("sat.decisions", "decisions"),
        ("sat.propagations", "propagations"),
        ("ase.translations", "translations"),
        ("ase.translations_avoided", "translations_avoided"),
        ("ase.clauses_shared", "clauses_shared"),
        ("ase.learned_carried", "learned_carried"),
    ):
        assert metrics[name]["value"] == getattr(stats, field), name
    for field in (
        "num_vars", "num_clauses", "construction_seconds", "solving_seconds"
    ):
        assert metrics[f"ase.{field}"]["sum"] == pytest.approx(
            getattr(stats, field)
        ), field
    conflicts = sum(row["conflicts"] for row in result.run_report.cost)
    assert conflicts == metrics["sat.conflicts"]["value"]
    return stats


def comparable(metrics):
    """Counters by value; histograms by observation count (timing sums
    are wall-clock and legitimately vary)."""
    return {
        name: value["count"] if value["type"] == "histogram" else value["value"]
        for name, value in metrics.items()
    }


class TestRunReportRoundTrip:
    def test_spans_and_metrics_survive_serialization(self):
        report = RunReport(jobs=2)
        report.add_stage("extract", 1.5)
        report.spans = {
            "pipeline.extract": {
                "count": 1, "total_seconds": 1.5,
                "self_seconds": 0.2, "max_seconds": 1.5,
            }
        }
        report.metrics = {
            "sat.conflicts": {"type": "counter", "value": 7},
            "ame.cfg_count": {
                "type": "histogram", "count": 2, "sum": 10.0,
                "min": 3, "max": 7, "mean": 5.0,
            },
        }
        restored = RunReport.loads(report.dumps())
        assert restored.spans == report.spans
        assert restored.metrics == report.metrics
        assert restored.to_dict() == report.to_dict()

    def test_cache_follows_from_the_metrics(self):
        # A loaded report's cache block is read from its counters; a
        # written ``cache`` block is not a second source.
        data = RunReport(
            metrics={
                "cache.extract.hits": {"type": "counter", "value": 2},
                "cache.synthesis.misses": {"type": "counter", "value": 1},
            }
        ).to_dict()
        assert data["cache"]["total_hits"] == 2
        data["cache"] = {"hits": {"extract": 9}, "total_hits": 9}
        restored = RunReport.from_dict(data)
        assert restored.cache.hits == {"extract": 2}
        assert restored.cache.misses == {"synthesis": 1}

    def test_fields_default_empty_for_old_reports(self):
        # Reports written before observability existed must still load.
        # Their cache traffic is not restored: with no ``cache.*``
        # metrics, the loaded report's cache is empty.
        report = RunReport(jobs=1)
        data = report.to_dict()
        del data["spans"], data["metrics"]
        data["cache"] = {"hits": {"extract": 3}, "misses": {"synthesis": 1}}
        import json

        restored = RunReport.loads(json.dumps(data))
        assert restored.spans == {} and restored.metrics == {}
        assert restored.cache.total_hits == 0
        assert restored.cache.misses == {}


class TestRunFoldsSpans:
    """After ``pipeline.run`` closes, a run folds the spans of the tracer
    it ran under into its report: from the file a tracer appends to,
    from an in-memory tracer's records, and none under the no-op
    tracer."""

    @staticmethod
    def _run():
        return AnalysisPipeline(
            jobs=1, scenarios_per_signature=2
        ).run([[build_app1(), build_app2()]]).run_report

    def test_folds_in_memory_records_and_keeps_the_runs_account(
        self, observed
    ):
        report = self._run()
        names = {r.name for r in observed.records}
        assert "pipeline.run" in names and set(report.spans) == names
        # Folding spans leaves the run's metrics and cost as an untraced
        # run counts them.
        with tracing(NULL_TRACER):
            plain = self._run()
        assert comparable(report.metrics) == comparable(plain.metrics)

        def meters(rows):
            drop = ("trace_id", "wall_seconds")
            return [{k: v for k, v in r.items() if k not in drop} for r in rows]

        assert meters(report.cost) == meters(plain.cost)

    def test_noop_tracer_folds_nothing(self):
        with tracing(NULL_TRACER):
            report = self._run()
        assert report.spans == {} and report.metrics

    def test_reads_the_trace_file_the_tracer_appends_to(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        try:
            with tracing(tracer):
                with tracer.span("before"):
                    pass
                report = self._run()
        finally:
            tracer.close()
        # The file holds what the tracer wrote before the run, too.
        assert report.spans["before"]["count"] == 1
        assert report.spans["pipeline.run"]["count"] == 1


class TestTracedPipelineRun:
    def test_spans_cover_every_stage_and_synthesis_call(self, observed):
        # Per-signature mode: this test pins the per-(bundle, signature)
        # span topology; the shared-encoding worker span
        # (pipeline.synthesize_bundle) is covered by the CLI trace test.
        tracer = observed
        apks = [build_app1(), build_app2()]
        pipeline = AnalysisPipeline(
            jobs=1, scenarios_per_signature=2, shared_encoding=False
        )
        result = pipeline.run([apks])
        names = {r.name for r in tracer.records}
        # Every stage...
        for stage in (
            "pipeline.run", "pipeline.extract", "pipeline.synthesis",
            "pipeline.assemble",
        ):
            assert stage in names
        # ...every per-app extraction and per-(bundle, signature) call.
        per_app = [r for r in tracer.records if r.name == "pipeline.extract_app"]
        per_sig = [r for r in tracer.records if r.name == "pipeline.synthesize"]
        assert len(per_app) == 2
        assert len(per_sig) == len(pipeline.signature_names)
        # The engine's inner spans nest under the worker span.
        sig_ids = {r.span_id for r in per_sig}
        inner = [r for r in tracer.records if r.name == "ase.signature"]
        assert inner and all(r.parent_id in sig_ids for r in inner)
        # Aggregates landed in the run report, metrics included.
        report = result.run_report
        assert report.spans["pipeline.synthesize"]["count"] == len(per_sig)
        assert report.metrics["ame.apps_extracted"]["value"] == 2
        assert report.metrics["ase.signature_runs"]["value"] == len(per_sig)
        # Each analysis's size rides on the span that times it.
        analyses = sum(
            ValueAnalysis(CallGraph(apk)).method_analyses for apk in apks
        )
        assert analyses > 0
        constprop = [r for r in tracer.records if r.name == "ame.constprop"]
        assert len(constprop) == 2
        assert sum(r.attrs["method_analyses"] for r in constprop) == analyses
        for name, attr in (
            ("ame.callgraph", "cfg_count"),
            ("ame.callgraph", "callgraph_edges"),
            ("ame.taint", "taint_paths"),
            ("ame.intents", "intents"),
        ):
            spans = [r for r in tracer.records if r.name == name]
            assert len(spans) == 2 and all(attr in r.attrs for r in spans)

    def test_observability_does_not_change_findings(self, observed):
        """Byte-identity guard: tracing must not change analysis output
        at all, next to the metrics and cost every run counts."""
        import json

        apks = [build_app1(), build_app2()]
        observed_result = AnalysisPipeline(
            jobs=1, scenarios_per_signature=2
        ).run([apks])
        with tracing(NULL_TRACER):
            plain_result = AnalysisPipeline(
                jobs=1, scenarios_per_signature=2
            ).run([apks])
        assert plain_result.run_report.spans == {}
        assert json.dumps(
            observed_result.findings_dict(), sort_keys=True
        ) == json.dumps(plain_result.findings_dict(), sort_keys=True)
        # Attribution actually happened -- identity wasn't vacuous.
        cost = observed_result.run_report.cost
        assert sum(entry["cache_misses"] for entry in cost) > 0


class TestRunCostLedger:
    """Each run charges a ledger of its own, and serial and pooled runs
    attribute identically."""

    @staticmethod
    def _run(jobs, cache_dir):
        bundles = [[build_app1(), build_app2()], [build_malicious_app()]]
        return AnalysisPipeline(
            jobs=jobs,
            cache=PipelineCache(cache_dir),
            scenarios_per_signature=2,
        ).run(bundles).run_report.cost

    @staticmethod
    def _split(rows):
        """(account keys in order, every meter but wall_seconds)."""
        keys = [
            (r["trace_id"], r["device"], r["bundle"], r["signature"])
            for r in rows
        ]
        meters = [
            {m: r[m] for m in COST_FIELDS if m != "wall_seconds"}
            for r in rows
        ]
        return keys, meters

    def test_serial_and_pooled_ledgers_agree_then_warm_run_only_hits(
        self, tmp_path
    ):
        serial = self._run(1, tmp_path / "serial")
        pooled = self._run(2, tmp_path / "pooled")
        assert self._split(serial) == self._split(pooled)
        # Three extraction accounts, then one per bundle (signature "*").
        assert [r["signature"] for r in serial] == ["", "", "", "*", "*"]
        assert all(r["cache_misses"] == 1 for r in serial)
        assert sum(r["clauses_added"] for r in serial) > 0
        assert sum(r["decisions"] for r in serial) > 0

        # A warm rerun's ledger is its own: the same accounts, each
        # charged one cache hit and nothing else.
        warm = self._run(2, tmp_path / "pooled")
        assert self._split(warm)[0] == self._split(serial)[0]
        for row in warm:
            charged = {m for m in COST_FIELDS if row[m]}
            assert charged == {"cache_hits"} and row["cache_hits"] == 1


    def test_extract_apps_alone_charges_a_ledger_of_its_own(self, tmp_path):
        apks = [build_app1(), build_app2()]
        pipeline = AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path), scenarios_per_signature=2
        )
        cold, warm = RunReport(), RunReport()
        pipeline.extract_apps(apks, report=cold)
        pipeline.extract_apps(apks, report=warm)
        packages = [apk.package for apk in apks]
        assert [r["bundle"] for r in cold.cost] == packages
        assert [r["bundle"] for r in warm.cost] == packages
        # The warm call's ledger does not carry the cold call's misses.
        assert [r["cache_misses"] for r in cold.cost] == [1, 1]
        assert [r["cache_hits"] for r in cold.cost] == [0, 0]
        assert [r["cache_misses"] for r in warm.cost] == [0, 0]
        assert [r["cache_hits"] for r in warm.cost] == [1, 1]

    def test_analyze_bundles_alone_charges_a_ledger_of_its_own(self):
        from repro.core.model import BundleModel

        pipeline = AnalysisPipeline(jobs=1, scenarios_per_signature=2)
        extraction = RunReport()
        models = pipeline.extract_apps(
            [build_app1(), build_app2()], report=extraction
        )
        result = pipeline.analyze_bundles([BundleModel(apps=models)])
        cost = result.run_report.cost
        # Synthesis accounts only: the extraction charged its own ledger.
        assert [r["signature"] for r in cost] == ["*"]
        assert cost[0]["cache_misses"] == 1
        assert cost[0]["clauses_added"] > 0
        assert [r["signature"] for r in extraction.cost] == ["", ""]


class TestRunMetrics:
    """Each run counts into a registry of its own, booked from the
    objects that keep each count: the cache's accounting, the payloads
    the run computed, and the extraction outcomes."""

    @staticmethod
    def _run(cache_dir):
        bundles = [[build_app1(), build_app2()], [build_malicious_app()]]
        return AnalysisPipeline(
            jobs=1, cache=PipelineCache(cache_dir), scenarios_per_signature=2
        ).run(bundles)

    def test_cold_run_books_its_work_and_warm_run_only_cache_hits(
        self, tmp_path
    ):
        result = self._run(tmp_path)
        cold = result.run_report
        counts = comparable(cold.metrics)
        assert counts["ame.apps_extracted"] == cold.num_apps == 3
        assert counts["cache.extract.misses"] == 3
        assert counts["cache.synthesis.misses"] == 2
        assert counts["ase.num_vars"] == 2  # one observation per payload
        assert counts["ase.scenarios"] == cold.num_scenarios
        # The registry and the ledger hold the payload stats the bundles
        # carry.
        assert_books_the_payload_stats(result)

        warm = self._run(tmp_path).run_report
        assert comparable(warm.metrics) == {
            "cache.extract.hits": 3,
            "cache.synthesis.hits": 2,
        }

    def test_a_reused_pipeline_counts_each_call_on_its_own(self, tmp_path):
        apks = [build_app1(), build_app2()]
        pipeline = AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path), scenarios_per_signature=2
        )
        cold, warm = RunReport(), RunReport()
        pipeline.extract_apps(apks, report=cold)
        pipeline.extract_apps(apks, report=warm)
        assert comparable(cold.metrics) == {
            "ame.apps_extracted": 2,
            "cache.extract.misses": 2,
        }
        assert comparable(warm.metrics) == {"cache.extract.hits": 2}

    def test_uncached_run_records_exactly_the_owned_names(self):
        """A clean uncached run writes the run-owned series and nothing
        else: the extractor's size counts ride on spans, and no solver,
        PDP, PEP, runtime or audit counter leaks in from library code."""
        report = AnalysisPipeline(
            jobs=1, cache=NullCache(), scenarios_per_signature=2
        ).run([[build_app1(), build_app2()]]).run_report
        assert set(report.metrics) == {
            "ame.apps_extracted",
            "ase.clauses_shared",
            "ase.construction_seconds",
            "ase.learned_carried",
            "ase.num_clauses",
            "ase.num_vars",
            "ase.scenarios",
            "ase.signature_runs",
            "ase.solving_seconds",
            "ase.translations",
            "ase.translations_avoided",
            "cache.extract.misses",
            "cache.synthesis.misses",
            "sat.conflicts",
            "sat.decisions",
            "sat.propagations",
            "sat.solver_calls",
        }

    def test_exposition_reads_the_same_payload_stats_as_the_ledger(self):
        """The exported solver series and the run's cost accounts are
        booked from the same payload stats, so they agree exactly."""
        bundles = [[build_app1(), build_app2()], [build_malicious_app()]]
        report = AnalysisPipeline(
            jobs=1, cache=NullCache(), scenarios_per_signature=2
        ).run(bundles).run_report
        text = render_prometheus(report.metrics)
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        conflicts = sum(e["conflicts"] for e in report.cost)
        clauses = sum(e["clauses_added"] for e in report.cost)
        assert clauses > 0
        assert float(samples["repro_sat_conflicts_total"]) == conflicts
        assert float(samples["repro_ase_num_clauses_sum"]) == clauses

    def test_a_task_returns_its_bare_payload_under_the_envelope(self):
        """Workers count nothing: a task's result is its payload as the
        task function built it, run under the envelope's trace context."""
        payload = {"apps": []}
        envelope = {
            "trace": TraceContext(trace_id="t-envelope"),
            "trace_path": None,
            "heartbeat_interval": 0,
        }
        seen = []

        def task(item):
            seen.append((item, current_trace_id()))
            return payload

        assert _run_task(task, envelope, 7) is payload
        assert seen == [(7, "t-envelope")]
        assert current_trace_id() is None


class TestOwnedTracers:
    """A run reads the tracer its caller installed and folds its spans in
    once; a task runs under a tracer writing to the envelope's file."""

    def test_run_folds_its_spans_once_after_the_run_span_closes(
        self, observed, monkeypatch
    ):
        from repro.pipeline import executor

        folded = []

        def counting(records):
            folded.append(sorted({r.name for r in records}))
            return aggregate_spans(records)

        monkeypatch.setattr(executor, "aggregate_spans", counting)
        report = AnalysisPipeline(
            jobs=1, scenarios_per_signature=2
        ).run([[build_app1(), build_app2()]]).run_report
        # The run span is recorded when it closes, so it is folded in
        # only if the spans were read after it.
        assert len(folded) == 1 and "pipeline.run" in folded[0]
        assert report.spans["pipeline.run"]["count"] == 1
        assert report.spans == aggregate_spans(observed.records)

    def test_task_opens_and_closes_a_tracer_on_the_envelope_file(
        self, tmp_path
    ):
        path = str(tmp_path / "t.jsonl")
        envelope = {
            "trace": TraceContext(trace_id="t-task", span_id="1-1"),
            "trace_path": path,
            "heartbeat_interval": 8,
        }
        seen = []

        def task(item):
            seen.append(current_tracer())
            with current_tracer().span("task.work"):
                pass
            return item

        assert _run_task(task, envelope, 3) == 3
        (tracer,) = seen
        assert isinstance(tracer, JsonlTracer)
        assert (tracer.path, tracer.heartbeat_interval) == (path, 8)
        assert tracer._fd == -1  # closed when the task ended
        assert current_tracer() is NULL_TRACER
        (record,) = read_trace(path)
        assert (record.name, record.parent_id, record.trace_id) == (
            "task.work", "1-1", "t-task"
        )

    def test_task_reuses_a_current_tracer_on_the_envelope_file(
        self, tmp_path
    ):
        path = str(tmp_path / "t.jsonl")
        envelope = {"trace": None, "trace_path": path, "heartbeat_interval": 0}
        tracer = JsonlTracer(path)
        try:
            with tracing(tracer):
                assert _run_task(lambda _: current_tracer(), envelope, 0) is (
                    tracer
                )
            assert tracer._fd >= 0  # the task did not close its owner's
        finally:
            tracer.close()


class TestTraceIntegrityHeartbeats:
    def test_untagged_or_dangling_heartbeats_are_flagged(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        snapshot = ProgressSnapshot(
            ts=0.0, pid=7, solve_id=1, conflicts=0, decisions=0,
            propagations=0, restarts=0, learned=0, trail=0,
            conflicts_per_sec=0.0,
        )
        try:
            with tracer.span("pipeline.run") as root:
                tracer.heartbeat(snapshot)  # tagged with the open span
            assert check_trace_integrity(path) == []
            tracer.emit_event({"event": "progress", "pid": 8})
            tracer.emit_event(
                {
                    "event": "progress",
                    "pid": 9,
                    "trace_id": root.trace_id,
                    "span_id": "9-999",
                }
            )
        finally:
            tracer.close()
        problems = check_trace_integrity(path)
        assert len(problems) == 3
        assert all("heartbeat from pid" in p for p in problems)
        assert sum("pid 8" in p for p in problems) == 2  # no id, no span
        assert sum("'9-999'" in p for p in problems) == 1


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestCrossProcessPropagation:
    """Worker spans must join the orchestrator's trace whether workers
    inherit state (fork) or start from a fresh interpreter (spawn)."""

    def _traced_parallel_run(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable")
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        try:
            with tracing(tracer):
                AnalysisPipeline(
                    jobs=2,
                    cache=NullCache(),
                    scenarios_per_signature=2,
                    start_method=start_method,
                ).run([[build_app1(), build_app2()]])
        finally:
            tracer.close()
        return read_trace(str(path))

    def test_worker_spans_parent_under_dispatch_span(
        self, tmp_path, start_method
    ):
        records = self._traced_parallel_run(tmp_path, start_method)
        assert_worker_spans_join_dispatch(records)
        # The CI checker agrees: no orphans, one root, one trace.
        assert check_trace_integrity(tmp_path / "t.jsonl") == []

    def test_every_span_carries_the_single_trace_id(
        self, tmp_path, start_method
    ):
        records = self._traced_parallel_run(tmp_path, start_method)
        trace_ids = {r.trace_id for r in records}
        assert len(trace_ids) == 1
        assert None not in trace_ids

    def test_telemetry_reaches_workers_without_env(
        self, tmp_path, monkeypatch, start_method
    ):
        """The task envelope is the only telemetry channel into workers:
        with no REPRO_* variable set, a tracer installed in the parent
        reaches forked and spawned workers alike, and the pooled run
        counts exactly what a serial run counts.  Two bundles, so
        synthesis is pooled as well as extraction."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable")
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        bundles = [[build_app1(), build_app2()], [build_app1(), build_app2()]]

        serial = AnalysisPipeline(
            jobs=1, cache=NullCache(), scenarios_per_signature=2
        ).run(bundles).run_report
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), heartbeat_interval=1)
        try:
            with tracing(tracer):
                pooled = AnalysisPipeline(
                    jobs=2,
                    cache=NullCache(),
                    scenarios_per_signature=2,
                    start_method=start_method,
                ).run(bundles).run_report
        finally:
            tracer.close()

        records, events = read_events(str(path))
        assert_worker_spans_join_dispatch(records)
        # Clean, heartbeat tagging included.
        assert check_trace_integrity(path) == []
        beat_pids = {e["pid"] for e in events if e.get("event") == "progress"}
        assert beat_pids - {os.getpid()}, "no heartbeats from workers"
        expected = comparable(serial.metrics)
        assert expected["sat.solver_calls"] > 0
        assert comparable(pooled.metrics) == expected
