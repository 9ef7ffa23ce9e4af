"""Fault-tolerance tests for the pipeline executor.

Every failure path the executor promises to survive is exercised here via
the deterministic ``REPRO_FAULT`` injection hook: worker crashes (pool
breaks), task exceptions, hangs (per-task timeouts), retry-then-succeed
recovery, and budget-exhausted degraded synthesis.  The load-bearing
invariants: a fault never aborts the run, never double-counts metrics,
never poisons the cache, and never perturbs the findings of unaffected
tasks.

Task granularity matters here: the default shared-encoding mode issues
one synthesis task per *bundle*, while per-signature mode issues one per
(bundle, signature) pair.  Tests that pin signature-level fault
isolation construct their pipelines with ``shared_encoding=False``;
recovery tests whose assertions are granularity-independent run on the
shared default, and ``TestSharedModeFaults`` covers the bundle-level
failure unit explicitly."""

import errno
import gc
import json
import multiprocessing
import os

import pytest

from repro.benchsuite.metrics import summarize_run_report
from repro.benchsuite.running_example import build_app1, build_app2
from repro.core import serialize
from repro.core.detector import SeparDetector
from repro.core.synthesis import AnalysisAndSynthesisEngine, SynthesisStats
from repro.core.vulnerabilities import default_signatures
from repro.pipeline import (
    AnalysisPipeline,
    FaultPolicy,
    PipelineCache,
    RunReport,
    TaskFailure,
)
from repro.pipeline.faults import (
    FAULT_ENV,
    FAULT_PARENT_ENV,
    FAULT_STATE_ENV,
    FaultSpec,
    InjectedFault,
    maybe_inject,
    parse_fault_spec,
)
from repro.statics import extract_bundle
from tests.pipeline.test_observability import assert_books_the_payload_stats


@pytest.fixture(autouse=True)
def _clean_parent_marker():
    """``mark_parent_process`` writes ``REPRO_FAULT_PARENT`` directly into
    the environment during faulted runs; scrub it between tests."""
    yield
    os.environ.pop(FAULT_PARENT_ENV, None)


@pytest.fixture
def arm_fault(monkeypatch, tmp_path):
    """Arm a ``REPRO_FAULT`` spec (and a fresh ``once`` state dir)."""

    def arm(spec):
        monkeypatch.setenv(FAULT_ENV, spec)
        state = tmp_path / "fault-state"
        state.mkdir(exist_ok=True)
        monkeypatch.setenv(FAULT_STATE_ENV, str(state))

    return arm


def _apks():
    return [build_app1(), build_app2()]


def _scenarios_by_vuln(result):
    grouped = {}
    for report in result.reports:
        for scenario in report.scenarios:
            grouped.setdefault(scenario.vulnerability, []).append(
                serialize.scenario_to_dict(scenario)
            )
    return grouped


def _findings_bytes(result):
    return json.dumps(result.findings_dict(), sort_keys=True).encode()


class TestFaultSpecParsing:
    def test_full_spec_round_trip(self):
        spec = parse_fault_spec(
            "synthesis:crash:0.5:once:seed=7:match=intent_hijack"
        )
        assert spec == FaultSpec(
            stage="synthesis",
            kind="crash",
            rate=0.5,
            once=True,
            seed=7,
            match="intent_hijack",
        )

    def test_hang_secs_option(self):
        spec = parse_fault_spec("synthesis:hang:1.0:secs=0.25")
        assert spec == FaultSpec(
            stage="synthesis", kind="hang", rate=1.0, secs=0.25
        )

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("synthesis:crash")  # no rate
        with pytest.raises(ValueError):
            parse_fault_spec("synthesis:explode:1.0")  # unknown kind
        with pytest.raises(ValueError):
            parse_fault_spec("synthesis:crash:1.0:sometimes")  # bad option

    def test_applies_filters_stage_and_match(self):
        spec = FaultSpec(stage="synthesis", kind="error", rate=1.0,
                         match="hijack")
        assert spec.applies("synthesis", "intent_hijack|a,b")
        assert not spec.applies("extract", "intent_hijack|a,b")
        assert not spec.applies("synthesis", "service_launch|a,b")

    def test_rate_selection_is_deterministic(self):
        spec = FaultSpec(stage="*", kind="error", rate=0.5)
        keys = [f"task-{i}" for i in range(64)]
        first = [spec.applies("synthesis", k) for k in keys]
        second = [spec.applies("synthesis", k) for k in keys]
        assert first == second
        assert any(first) and not all(first)
        assert not any(
            FaultSpec(stage="*", kind="error", rate=0.0).applies(
                "synthesis", k
            )
            for k in keys
        )

    def test_error_fault_raises(self, arm_fault):
        arm_fault("synthesis:error:1.0:match=hijack")
        with pytest.raises(InjectedFault):
            maybe_inject("synthesis", "intent_hijack|a,b")
        maybe_inject("synthesis", "service_launch|a,b")  # unmatched: no-op

    def test_crash_and_hang_never_fire_in_parent(self, arm_fault):
        """The orchestrator itself must never be crashed or stalled; the
        test passing at all is the assertion."""
        arm_fault("synthesis:crash:1.0,extract:hang:1.0")
        os.environ[FAULT_PARENT_ENV] = str(os.getpid())
        maybe_inject("synthesis", "any-task")
        maybe_inject("extract", "any-app")


class TestFaultPolicy:
    def test_exponential_backoff(self):
        policy = FaultPolicy(backoff_seconds=0.1, backoff_factor=3.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.3)
        assert policy.delay(3) == pytest.approx(0.9)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_above_zero(self, timeout):
        # A timeout of 0 or less would time out every pooled task.
        with pytest.raises(
            ValueError, match="task_timeout must be a finite number above 0"
        ):
            FaultPolicy(task_timeout=timeout)

    def test_retries_must_not_be_negative(self):
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(max_retries=-1)

    def test_no_timeout_and_no_retries_are_valid(self):
        policy = FaultPolicy(task_timeout=None, max_retries=0)
        assert policy.task_timeout is None and policy.max_retries == 0
        assert FaultPolicy(task_timeout=0.001).task_timeout == 0.001


class TestTaskFailure:
    def test_round_trip(self):
        failure = TaskFailure(
            stage="synthesis",
            task="intent_hijack|a,b",
            kind="crash",
            error="worker exited",
            attempts=3,
            elapsed_seconds=1.25,
        )
        assert TaskFailure.from_dict(failure.to_dict()) == failure


class TestSerialFaultPaths:
    def test_retry_then_succeed(self, arm_fault):
        """A transient error costs a retry but not the result."""
        arm_fault("synthesis:error:1.0:once:match=privilege_escalation")
        clean = AnalysisPipeline(jobs=1, scenarios_per_signature=3).run(
            [_apks()]
        )
        os.environ.pop(FAULT_PARENT_ENV, None)
        faulted = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=2, backoff_seconds=0.0),
        ).run([_apks()])
        assert faulted.run_report.failures == []
        assert faulted.run_report.clean
        assert _findings_bytes(faulted) == _findings_bytes(clean)

    def test_persistent_error_becomes_structured_failure(self, arm_fault):
        # Signature-level fault isolation exists only in per-signature
        # mode; a shared bundle task would take every signature with it.
        arm_fault("synthesis:error:1.0:match=intent_hijack")
        result = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=1, backoff_seconds=0.0),
            shared_encoding=False,
        ).run([_apks()])
        report = result.run_report
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure["stage"] == "synthesis"
        assert failure["kind"] == "error"
        assert failure["attempts"] == 2  # first try + one retry
        assert "InjectedFault" in failure["error"]
        assert "intent_hijack" in failure["task"]
        # Every other signature still produced its scenarios.
        grouped = _scenarios_by_vuln(result)
        assert "intent_hijack" not in grouped
        assert "service_launch" in grouped and "information_leak" in grouped

    def test_extract_failure_drops_app_not_run(self, arm_fault):
        arm_fault("extract:error:1.0:match=com.example.messenger")
        result = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=0, backoff_seconds=0.0),
        ).run([_apks()])
        report = result.run_report
        assert [f["stage"] for f in report.failures] == ["extract"]
        assert report.failures[0]["task"] == "com.example.messenger"
        # The surviving app was still analyzed (as a singleton bundle).
        assert [a.package for a in result.reports[0].bundle.apps] == [
            "com.example.navigation"
        ]


class TestWorkerCrashIsolation:
    def test_persistent_crash_is_attributed_and_isolated(self, arm_fault):
        """A worker that keeps dying takes down only its own task: the
        crash is attributed to it via isolation re-runs, and every other
        (bundle, signature) pair's findings are byte-identical to a clean
        serial run."""
        clean = AnalysisPipeline(
            jobs=1, scenarios_per_signature=3, shared_encoding=False
        ).run([_apks()])
        arm_fault("synthesis:crash:1.0:match=intent_hijack")
        faulted = AnalysisPipeline(
            jobs=2,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=1, backoff_seconds=0.0),
            shared_encoding=False,
        ).run([_apks()])
        report = faulted.run_report
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure["kind"] == "crash"
        assert failure["attempts"] == 2
        assert "intent_hijack" in failure["task"]
        assert not report.clean

        clean_grouped = _scenarios_by_vuln(clean)
        faulted_grouped = _scenarios_by_vuln(faulted)
        assert "intent_hijack" not in faulted_grouped
        clean_grouped.pop("intent_hijack", None)
        assert faulted_grouped == clean_grouped

    def test_crash_once_recovers_exactly(self, arm_fault):
        """One crash breaks the pool; the respawned pool re-runs the task
        and the final findings are byte-identical to a clean run.

        Per-signature mode: crashes only fire in subprocess workers, and
        one bundle is a single (in-process) task under the shared
        encoding."""
        clean = AnalysisPipeline(
            jobs=2, scenarios_per_signature=3, shared_encoding=False
        ).run([_apks()])
        arm_fault("synthesis:crash:1.0:once:match=service_launch")
        faulted = AnalysisPipeline(
            jobs=2,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=2, backoff_seconds=0.0),
            shared_encoding=False,
        ).run([_apks()])
        assert faulted.run_report.failures == []
        assert _findings_bytes(faulted) == _findings_bytes(clean)


class TestPerTaskTimeout:
    def test_hanging_task_times_out(self, arm_fault):
        arm_fault("synthesis:hang:1.0:match=information_leak")
        result = AnalysisPipeline(
            jobs=2,
            scenarios_per_signature=3,
            faults=FaultPolicy(
                task_timeout=1.0, max_retries=0, backoff_seconds=0.0
            ),
            shared_encoding=False,
        ).run([_apks()])
        report = result.run_report
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure["kind"] == "timeout"
        assert "information_leak" in failure["task"]
        assert failure["attempts"] == 1
        grouped = _scenarios_by_vuln(result)
        assert "information_leak" not in grouped
        assert "intent_hijack" in grouped

    def test_timeout_kill_spares_healthy_inflight_peer(self, arm_fault):
        """Regression: a timeout kills the whole pool generation, and the
        healthy tasks still in flight used to be dropped on the floor
        (returned as ``interrupted`` with ``broke=False`` and never
        requeued), surfacing as bogus 'never completed' failures.  Only
        the timeout victim may be charged; delayed-but-healthy peers must
        rejoin the batch and complete.

        Choreography (jobs=2, timeout=2.5s): ``intent_hijack`` hangs
        forever and ``service_launch`` sleeps 1s, so both workers are
        busy from t=0; ``service_launch`` finishes and frees its worker
        for ``information_leak`` (sleeps 1.5s), which is therefore still
        mid-flight -- and nowhere near its own timeout -- when the hang
        victim's deadline tears the generation down at t=2.5."""
        arm_fault(
            "synthesis:hang:1.0:match=intent_hijack,"
            "synthesis:hang:1.0:secs=1.0:match=service_launch,"
            "synthesis:hang:1.0:secs=1.5:match=information_leak"
        )
        result = AnalysisPipeline(
            jobs=2,
            signature_names=[
                "intent_hijack", "service_launch", "information_leak"
            ],
            scenarios_per_signature=3,
            faults=FaultPolicy(
                task_timeout=2.5, max_retries=0, backoff_seconds=0.0
            ),
            shared_encoding=False,
        ).run([_apks()])
        report = result.run_report
        assert [f["kind"] for f in report.failures] == ["timeout"]
        assert "intent_hijack" in report.failures[0]["task"]
        grouped = _scenarios_by_vuln(result)
        assert "service_launch" in grouped
        assert "information_leak" in grouped


class TestNoProcessSupport:
    """``ProcessPoolExecutor`` starts its workers inside ``submit``; when
    process creation fails there (fork's EAGAIN), the run still finishes,
    in-process, with the findings of a ``jobs=1`` run."""

    def _starts(self, monkeypatch, real_starts):
        import multiprocessing.process

        original = multiprocessing.process.BaseProcess.start
        calls = []

        def start(process):
            calls.append(process)
            if len(calls) > real_starts:
                raise BlockingIOError(
                    errno.EAGAIN, "Resource temporarily unavailable"
                )
            original(process)

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", start
        )
        return calls

    def test_workers_that_cannot_start_finish_in_process(
        self, monkeypatch
    ):
        bundles = [_apks(), _apks()]
        serial = AnalysisPipeline(jobs=1, scenarios_per_signature=3).run(
            bundles
        )
        calls = self._starts(monkeypatch, real_starts=0)
        result = AnalysisPipeline(jobs=2, scenarios_per_signature=3).run(
            bundles
        )
        assert calls, "the pool never tried to start a worker"
        assert multiprocessing.active_children() == []
        assert result.run_report.failures == []
        assert _findings_bytes(result) == _findings_bytes(serial)

    def test_manager_thread_that_cannot_start_finishes_in_process(
        self, monkeypatch
    ):
        """With no threads left, ``submit`` raises ``RuntimeError`` when
        it starts the pool's manager thread; that too means no pool
        support, not a round to requeue forever."""
        from concurrent.futures import process as futures_process

        bundles = [_apks(), _apks()]
        serial = AnalysisPipeline(jobs=1, scenarios_per_signature=3).run(
            bundles
        )
        original = futures_process._ExecutorManagerThread.start
        calls = []

        def start(thread):
            calls.append(thread)
            if len(calls) > 20:
                # Let an executor that keeps retrying finish, so this
                # test fails on the count below instead of hanging.
                return original(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(
            futures_process._ExecutorManagerThread, "start", start
        )
        result = AnalysisPipeline(jobs=2, scenarios_per_signature=3).run(
            bundles
        )
        # One pool attempt for each of the two maps (extraction and
        # synthesis), after which each finishes in-process.
        assert len(calls) == 2
        assert multiprocessing.active_children() == []
        assert result.run_report.failures == []
        assert _findings_bytes(result) == _findings_bytes(serial)

    def test_start_failure_with_a_task_in_flight_breaks_the_pool(
        self, monkeypatch
    ):
        """Under spawn each ``submit`` starts one worker: the second one
        failing, with the first task in flight, is a pool break, not a
        missing pool -- the in-flight task is re-run in isolation."""
        bundles = [_apks(), _apks()]
        serial = AnalysisPipeline(jobs=1, scenarios_per_signature=3).run(
            bundles
        )
        self._starts(monkeypatch, real_starts=1)
        result = AnalysisPipeline(
            jobs=2, scenarios_per_signature=3, start_method="spawn"
        ).run(bundles)
        metrics = result.run_report.metrics
        assert metrics["pipeline.pool_breaks"]["value"] == 1
        assert result.run_report.failures == []
        assert _findings_bytes(result) == _findings_bytes(serial)


class TestBudgetDegradation:
    def test_engine_conflict_budget_degrades(self):
        bundle = extract_bundle(_apks())
        bounded = AnalysisAndSynthesisEngine(
            scenarios_per_signature=3, conflict_budget=0
        ).run(bundle)
        assert bounded.stats.exhausted
        unbounded = AnalysisAndSynthesisEngine(
            scenarios_per_signature=3
        ).run(bundle)
        assert not unbounded.stats.exhausted
        assert len(bounded.scenarios) < len(unbounded.scenarios)

    def test_engine_time_budget_degrades(self):
        bundle = extract_bundle(_apks())
        result = AnalysisAndSynthesisEngine(
            scenarios_per_signature=3, time_budget_seconds=0.0
        ).run(bundle)
        assert result.stats.exhausted

    def test_degraded_round_trip_and_never_cached(self, tmp_path):
        # Per-signature mode: each degraded task is its own cache entry,
        # so rejections and misses count 1:1 with degraded entries.
        cache_dir = tmp_path / "cache"
        pipe = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            cache=PipelineCache(cache_dir),
            conflict_budget=0,
            shared_encoding=False,
        )
        report = pipe.run([_apks()]).run_report
        assert report.degraded
        for entry in report.degraded:
            assert entry["stage"] == "synthesis"
            assert entry["reason"] == "budget_exhausted"
        assert not report.clean
        # The cache refused every degraded payload and counted it, and
        # the run's metrics read that count.
        assert report.cache.rejections.get("synthesis") == len(
            report.degraded
        )
        assert report.metrics["cache.synthesis.rejections"]["value"] == len(
            report.degraded
        )
        # A rerun must redo the degraded work: only complete payloads hit.
        warm = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            cache=PipelineCache(cache_dir),
            conflict_budget=0,
            shared_encoding=False,
        ).run([_apks()]).run_report
        assert warm.cache.misses.get("synthesis") == len(report.degraded)
        # Failures/degraded/rejections survive serialization.
        restored = RunReport.loads(report.dumps())
        assert restored.degraded == report.degraded
        assert restored.failures == report.failures
        assert restored.cache.rejections == report.cache.rejections

    def test_summary_counts_failures_and_degraded(self, arm_fault):
        arm_fault("synthesis:error:1.0:match=intent_hijack")
        report = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=2,
            conflict_budget=0,
            faults=FaultPolicy(max_retries=0, backoff_seconds=0.0),
            shared_encoding=False,
        ).run([_apks()]).run_report
        summary = summarize_run_report(report)
        assert summary["num_failures"] == 1.0
        assert summary["num_degraded"] == float(len(report.degraded))
        assert summary["num_degraded"] > 0


class TestSharedModeFaults:
    """Shared-encoding mode's failure unit is the whole bundle task."""

    def test_shared_bundle_task_is_the_failure_unit(self, arm_fault):
        """A fault matching any signature name hits the bundle task (its
        key lists every signature), and the failure takes the bundle's
        entire synthesis with it -- the documented granularity tradeoff
        of the shared encoding."""
        arm_fault("synthesis:error:1.0:match=intent_hijack")
        result = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=1, backoff_seconds=0.0),
        ).run([_apks()])
        report = result.run_report
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure["stage"] == "synthesis"
        assert failure["kind"] == "error"
        assert failure["task"].startswith("shared[")
        assert "intent_hijack" in failure["task"]
        assert _scenarios_by_vuln(result) == {}

    def test_shared_degraded_records_per_signature(self, tmp_path):
        """One incomplete bundle payload still reports degradation at
        signature granularity (same boundary as per-signature mode), and
        the cache refuses it as the single entry it is."""
        cache_dir = tmp_path / "cache"
        report = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            cache=PipelineCache(cache_dir),
            conflict_budget=0,
        ).run([_apks()]).run_report
        assert report.degraded
        for entry in report.degraded:
            assert entry["stage"] == "synthesis"
            assert entry["reason"] == "budget_exhausted"
            # Signature-granular task labels, not the bundle task key.
            name = entry["task"].split("|", 1)[0]
            assert name in {
                sig.name for sig in default_signatures()
            }
        # One bundle task, one rejected cache entry, one warm-run miss.
        assert report.cache.rejections.get("synthesis") == 1
        warm = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            cache=PipelineCache(cache_dir),
            conflict_budget=0,
        ).run([_apks()]).run_report
        assert warm.cache.misses.get("synthesis") == 1


def _solver_metrics(metrics):
    """The solver/engine series of a run's metrics: counters by value,
    timing histograms by observation count (their sums are wall-clock
    and legitimately vary)."""
    out = {}
    for name, value in metrics.items():
        if not name.startswith(("sat.", "ase.")):
            continue
        if value.get("type") == "histogram":
            out[name] = value.get("count")
        else:
            out[name] = value.get("value")
    return out


class TestMetricsNoDoubleCount:
    def test_pool_break_counts_each_task_once(self, arm_fault):
        """The double-count regression: a broken pool must not count the
        work of completed tasks twice nor double-run unaffected ones.
        All solver/engine counters match a clean serial run exactly
        (timing histograms keep their counts; their sums are wall-clock).

        Per-signature mode: a pool break needs several tasks in flight,
        and one bundle is a single task under the shared encoding."""
        comparable = _solver_metrics
        serial = comparable(
            AnalysisPipeline(
                jobs=1, scenarios_per_signature=3, shared_encoding=False
            ).run([_apks()]).run_report.metrics
        )

        os.environ.pop(FAULT_PARENT_ENV, None)
        arm_fault("synthesis:crash:1.0:once:match=service_launch")
        result = AnalysisPipeline(
            jobs=2,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=2, backoff_seconds=0.0),
            shared_encoding=False,
        ).run([_apks()])
        metrics = result.run_report.metrics

        assert result.run_report.failures == []
        assert metrics.get("pipeline.pool_breaks", {}).get("value", 0) >= 1
        assert serial and comparable(metrics) == serial

    def test_retried_task_books_only_its_successful_payload(
        self, arm_fault
    ):
        """A task that fails once and succeeds on retry counts the retry,
        and the run books the one payload it received: the solver and
        engine series match a clean run exactly."""
        clean = AnalysisPipeline(
            jobs=1, scenarios_per_signature=3, shared_encoding=False
        ).run([_apks()]).run_report.metrics

        os.environ.pop(FAULT_PARENT_ENV, None)
        arm_fault("synthesis:error:1.0:once:match=privilege_escalation")
        report = AnalysisPipeline(
            jobs=1,
            scenarios_per_signature=3,
            faults=FaultPolicy(max_retries=2, backoff_seconds=0.0),
            shared_encoding=False,
        ).run([_apks()]).run_report

        assert report.failures == []
        assert report.metrics["pipeline.task_retries"]["value"] == 1
        assert "pipeline.task_retries" not in clean
        expected = _solver_metrics(clean)
        assert expected["sat.solver_calls"] > 0
        assert _solver_metrics(report.metrics) == expected


class TestHeapFreeze:
    """Each stage unfreezes the heap it froze however it ends, so a run
    leaves nothing frozen, and it leaves a freeze already in force on
    entry alone."""

    @pytest.mark.parametrize(
        "jobs, spec, timeout, failures",
        [
            (2, None, None, []),
            (1, "synthesis:error:1.0:match=intent_hijack", None, ["error"]),
            (2, "synthesis:crash:1.0:match=intent_hijack", None, ["crash"]),
            (2, "synthesis:hang:1.0:match=intent_hijack", 1.0, ["timeout"]),
        ],
        ids=["clean", "task-error", "pool-break", "timeout-kill"],
    )
    def test_run_leaves_no_freeze_behind(
        self, arm_fault, jobs, spec, timeout, failures
    ):
        if spec is not None:
            arm_fault(spec)
        result = AnalysisPipeline(
            jobs=jobs,
            signature_names=["intent_hijack", "service_launch"],
            scenarios_per_signature=2,
            faults=FaultPolicy(
                task_timeout=timeout, max_retries=0, backoff_seconds=0.0
            ),
            shared_encoding=False,
        ).run([_apks()])
        assert gc.get_freeze_count() == 0
        assert [f["kind"] for f in result.run_report.failures] == failures

    def test_a_stage_that_raises_unfreezes(self, monkeypatch):
        def broken(self, bundle):
            raise RuntimeError("detector bug")

        monkeypatch.setattr(SeparDetector, "detect", broken)
        with pytest.raises(RuntimeError, match="detector bug"):
            AnalysisPipeline(jobs=1, scenarios_per_signature=2).run([_apks()])
        assert gc.get_freeze_count() == 0

    def test_a_freeze_in_force_on_entry_survives(self):
        gc.freeze()
        try:
            AnalysisPipeline(jobs=1, scenarios_per_signature=2).run([_apks()])
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


class TestSynthesisStatsMerge:
    def test_per_signature_accumulates_instead_of_clobbering(self):
        first = SynthesisStats(
            solver_calls=2,
            per_signature={
                "intent_hijack": {
                    "construction_seconds": 0.5,
                    "solving_seconds": 1.0,
                    "scenarios": 2.0,
                }
            },
        )
        second = SynthesisStats(
            solver_calls=3,
            exhausted=True,
            per_signature={
                "intent_hijack": {
                    "construction_seconds": 0.25,
                    "solving_seconds": 0.5,
                    "scenarios": 1.0,
                },
                "service_launch": {"scenarios": 4.0},
            },
        )
        first.merge(second)
        assert first.solver_calls == 5
        assert first.exhausted
        assert first.per_signature["intent_hijack"] == {
            "construction_seconds": 0.75,
            "solving_seconds": 1.5,
            "scenarios": 3.0,
        }
        assert first.per_signature["service_launch"] == {"scenarios": 4.0}
        # merge must not alias the other block's dicts.
        second.per_signature["service_launch"]["scenarios"] = 99.0
        assert first.per_signature["service_launch"] == {"scenarios": 4.0}

    def test_round_trip_preserves_exhausted(self):
        stats = SynthesisStats(
            exhausted=True, per_signature={"x": {"scenarios": 1.0}}
        )
        restored = SynthesisStats.from_dict(stats.to_dict())
        assert restored.exhausted
        assert restored.per_signature == stats.per_signature


class TestSolverBudgetMetrics:
    def test_budget_miss_still_books_counters(self):
        """The interrupted calls' work reaches the run's metrics: the
        problem books a budget miss's counters into the payload stats,
        and the run counts them with the degraded payload.  A budget of
        one conflict interrupts calls mid-search (zero would stop every
        signature before its first call)."""
        result = AnalysisPipeline(
            jobs=1, scenarios_per_signature=3, conflict_budget=1
        ).run([_apks()])
        report = result.run_report
        metrics = report.metrics
        assert report.degraded
        assert metrics["ase.budget_exhausted"]["value"] == 1
        assert metrics["pipeline.degraded_tasks"]["value"] == len(
            report.degraded
        )
        assert metrics["sat.conflicts"]["value"] >= 1
        assert metrics["sat.solver_calls"]["value"] >= 1
        assert_books_the_payload_stats(result)
