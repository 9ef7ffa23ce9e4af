"""Observability through the pipeline: run-report round-trips carrying
spans/metrics/cost, attach_observability, traced end-to-end runs, and
cross-process propagation of spans, heartbeats and metrics under both
pool start methods."""

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
from repro.obs import (
    COST_FIELDS,
    NULL_METRICS,
    NULL_TRACER,
    InMemoryTracer,
    JsonlTracer,
    MetricsRegistry,
    ProgressSnapshot,
    enable_tracing,
    read_events,
    set_metrics,
    set_tracer,
)
from repro.obs.trace import read_trace
from repro.pipeline import (
    AnalysisPipeline,
    NullCache,
    PipelineCache,
    RunReport,
    attach_observability,
)
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
    """Install a collecting tracer+registry; restore the no-ops after."""
    tracer = InMemoryTracer()
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    yield tracer, registry
    set_tracer(prev_tracer)
    set_metrics(prev_metrics)


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

    def test_fields_default_empty_for_old_reports(self):
        # Reports written before observability existed must still load.
        report = RunReport(jobs=1)
        data = report.to_dict()
        del data["spans"], data["metrics"]
        import json

        restored = RunReport.loads(json.dumps(data))
        assert restored.spans == {} and restored.metrics == {}


class TestAttachObservability:
    def test_folds_tracer_and_registry_into_report(self, observed):
        tracer, registry = observed
        with tracer.span("work"):
            pass
        registry.counter("sat.solver_calls").inc(3)
        report = attach_observability(RunReport(jobs=1))
        assert report.spans["work"]["count"] == 1
        assert report.metrics["sat.solver_calls"]["value"] == 3

    def test_noop_when_disabled(self):
        # Default no-op tracer/registry: the report stays untouched.
        report = attach_observability(RunReport(jobs=1))
        assert report.spans == {} and report.metrics == {}

    def test_reads_trace_file_when_given(self, tmp_path, observed):
        tracer, _ = observed
        with tracer.span("recorded"):
            pass
        from repro.obs.trace import write_trace

        path = tmp_path / "t.jsonl"
        write_trace(str(path), tracer.records)
        report = attach_observability(RunReport(jobs=1), trace_path=str(path))
        assert "recorded" in report.spans


class TestTracedPipelineRun:
    def test_spans_cover_every_stage_and_synthesis_call(self, observed):
        # Per-signature mode: this test pins the per-(bundle, signature)
        # span topology; the shared-encoding worker span
        # (pipeline.synthesize_bundle) is covered by the CLI trace test.
        tracer, registry = observed
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
        analyses = sum(
            ValueAnalysis(CallGraph(apk)).method_analyses for apk in apks
        )
        assert analyses > 0
        assert (
            report.metrics["ame.constprop_method_analyses"]["value"]
            == analyses
        )
        assert registry.counter("ase.signature_runs").value == len(per_sig)

    def test_observability_does_not_change_findings(self, observed):
        """Byte-identity guard: tracing, metrics, AND cost attribution all
        enabled must not change analysis output at all."""
        import json

        apks = [build_app1(), build_app2()]
        observed_result = AnalysisPipeline(
            jobs=1, scenarios_per_signature=2
        ).run([apks])
        set_tracer(NULL_TRACER)
        set_metrics(NULL_METRICS)
        plain_result = AnalysisPipeline(
            jobs=1, scenarios_per_signature=2
        ).run([apks])
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

    def test_attach_observability_keeps_the_runs_cost(self):
        rows = [{"trace_id": "t", "bundle": "b", "conflicts": 3.0}]
        report = RunReport(cost=list(rows))
        attach_observability(report)
        assert report.cost == rows


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
        tracer = enable_tracing(str(path))
        try:
            AnalysisPipeline(
                jobs=2,
                cache=NullCache(),
                scenarios_per_signature=2,
                start_method=start_method,
            ).run([[build_app1(), build_app2()]])
        finally:
            set_tracer(NULL_TRACER)
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
        with no REPRO_* variable set, a tracer and registry installed in
        the parent reach forked and spawned workers alike.  Two bundles,
        so synthesis is pooled as well as extraction."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable")
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        bundles = [[build_app1(), build_app2()], [build_app1(), build_app2()]]

        def comparable(snapshot):
            # Counters compare by value; timing histograms by observation
            # count (their sums are wall-clock and legitimately vary).
            return {
                name: value.get("count")
                if value.get("type") == "histogram"
                else value.get("value")
                for name, value in snapshot.items()
                if name.startswith(("sat.", "ame.", "ase."))
            }

        serial = MetricsRegistry()
        pooled = MetricsRegistry()
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), heartbeat_interval=1)
        prev_metrics = set_metrics(serial)
        try:
            AnalysisPipeline(
                jobs=1, cache=NullCache(), scenarios_per_signature=2
            ).run(bundles)
            set_metrics(pooled)
            prev_tracer = set_tracer(tracer)
            try:
                AnalysisPipeline(
                    jobs=2,
                    cache=NullCache(),
                    scenarios_per_signature=2,
                    start_method=start_method,
                ).run(bundles)
            finally:
                set_tracer(prev_tracer)
                tracer.close()
        finally:
            set_metrics(prev_metrics)

        records, events = read_events(str(path))
        assert_worker_spans_join_dispatch(records)
        # Clean, heartbeat tagging included.
        assert check_trace_integrity(path) == []
        beat_pids = {e["pid"] for e in events if e.get("event") == "progress"}
        assert beat_pids - {os.getpid()}, "no heartbeats from workers"
        expected = comparable(serial.snapshot())
        assert any(name.startswith("sat.") for name in expected)
        assert comparable(pooled.snapshot()) == expected
