"""The parallel, cached, fault-tolerant analysis/synthesis pipeline.

Extraction is fanned out across apps and synthesis across bundles: one
task per bundle translates the framework spec once and enumerates every
signature under selector assumptions on one warm solver.  The reference
path (``shared_encoding=False``) runs one task per (bundle,
vulnerability-signature) pair instead, each on its own translation; tests
and the benchmark's findings oracle compare against it.  Results flow
through the content-addressed :class:`~repro.pipeline.cache.PipelineCache`
under the keys of :mod:`repro.pipeline.synthesis_key`, so a rerun over
unchanged inputs skips extraction and SAT solving entirely; the two paths
use disjoint cache keys but produce byte-identical findings.

Determinism: workers communicate via the canonical JSON forms in
``repro.core.serialize`` and results are reassembled in (bundle, signature)
index order, so serial (``jobs=1``) and parallel runs produce byte-identical
findings and policies.  Synthesis tasks are dispatched largest first, by
their bundle's detector findings, but only the dispatch order moves: cache
writes, cost charges, metrics and the report still follow index order.
Signatures are addressed by registry name
(``repro.core.vulnerabilities.lookup``) to stay picklable.

Memory: each stage runs with the heap it starts with frozen
(``gc.freeze``), so neither the orchestrator's collections nor those of
the forked workers that inherit it traverse the modules, APKs and models
the stage was handed.

Fault tolerance: every task is dispatched individually under a
:class:`FaultPolicy` -- a configurable per-task timeout, bounded retries
with exponential backoff, and crash isolation -- by one round-based
loop, whether a round runs in a process pool (``submit`` + futures) or
in-process (``jobs <= 1``, a single task, or no process support).  A
worker crash (``BrokenProcessPool``) kills only that pool generation:
completed results are kept, unstarted tasks are resubmitted at no
attempt cost, and the tasks that were in flight are re-run one at a time
so a repeat crash is attributed to the task that caused it.  A per-task timeout likewise kills only the
generation: the victims are charged an attempt, while healthy in-flight
peers are resubmitted for free.  A task that keeps failing becomes a
structured :class:`TaskFailure` in ``RunReport.failures`` instead of
aborting the run; a budget-exhausted synthesis degrades to a partial
payload recorded in ``RunReport.degraded`` (and is never cached).

Telemetry: every task runs through :func:`_run_task` under a telemetry
envelope the parent builds once per map -- the dispatch span's trace
context, the trace file and the heartbeat interval -- and returns its
payload, under a tracer writing to that file (the current one if it
does, else one the task opens and closes).  The envelope is the only
telemetry channel into workers, so forked and spawned pools trace
alike.  Workers count nothing: the run's
:class:`~repro.obs.MetricsRegistry` lives in the orchestrator, which
books each metric from its one owner -- the cache's accounting, the
stats inside each payload it received, the extraction outcomes and its
own retry loop -- exactly once, so a pool break cannot double-count.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.android.apk import Apk
from repro.core import serialize
from repro.core.detector import DetectionReport, SeparDetector
from repro.core.model import AppModel, BundleModel
from repro.core.separ import Separ, SeparReport
from repro.core.synthesis import AnalysisAndSynthesisEngine
from repro.core.vulnerabilities import default_signatures, lookup
from repro.obs import (
    CostKey,
    CostLedger,
    JsonlTracer,
    MetricsRegistry,
    adopt_trace_context,
    aggregate_spans,
    current_trace_context,
    current_trace_id,
    current_tracer,
    read_trace,
    tracing,
)
from repro.pipeline.cache import (
    NullCache,
    PipelineCache,
    content_hash,
    framework_fingerprint,
)
from repro.pipeline.faults import maybe_inject, mark_parent_process
from repro.pipeline.stats import RunReport, TaskFailure
from repro.pipeline.synthesis_key import (
    app_content_key,
    engine_params,
    synthesis_key,
    synthesis_payload,
    synthesis_result,
)

T = TypeVar("T")
R = TypeVar("R")


# ----------------------------------------------------------------------
# Fault-tolerance policy

@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout knobs governing every pipeline task.

    ``task_timeout`` is enforced on the process-pool path only (a task
    running in the orchestrator itself cannot be preempted safely); a
    timed-out task's pool generation is killed, so the stall never
    outlives ``task_timeout`` by more than the respawn cost.  A task is
    attempted ``1 + max_retries`` times in total; between attempts the
    executor backs off ``backoff_seconds * backoff_factor**(attempt-1)``.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        # A timeout of 0 or less would time out every pooled task.
        timeout = self.task_timeout
        if timeout is not None and not (0 < timeout < math.inf):
            raise ValueError(
                f"task_timeout must be a finite number above 0, got {timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be at least 0, got {self.max_retries}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * (
            self.backoff_factor ** max(0, attempt - 1)
        )


@dataclass
class _TaskOutcome:
    """What one task ultimately produced: a payload or a failure."""

    payload: Any = None
    failure: Optional[TaskFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class _RoundResult:
    """What one round (a pool generation, or an in-process pass) did.

    ``completed`` maps task index to ``("ok", result)`` or
    ``("error", message)`` -- a genuine exception raised *by the task
    function*, as opposed to pool infrastructure failure.
    ``interrupted`` tasks were in flight when the pool died (fate
    unknown); ``unstarted`` tasks never ran at all.  An in-process round
    only ever completes tasks.
    """

    completed: Dict[int, Tuple[str, Any]]
    interrupted: List[int] = field(default_factory=list)
    unstarted: List[int] = field(default_factory=list)
    timed_out: List[int] = field(default_factory=list)
    broke: bool = False


# ----------------------------------------------------------------------
# Worker functions: module-level (picklable), plain-data in and out.

def _extract_worker(task: Tuple[Any, bool]) -> Dict[str, Any]:
    from repro.statics import extract_app

    apk, handle_dynamic_receivers = task
    maybe_inject("extract", apk.package)
    with current_tracer().span("pipeline.extract_app", package=apk.package):
        model = extract_app(
            apk, handle_dynamic_receivers=handle_dynamic_receivers
        )
    return serialize.app_to_dict(model)


def _synthesis_task_key(task: Dict[str, Any]) -> str:
    packages = ",".join(sorted(a["package"] for a in task["apps"]))
    return f"{task['signature']}|{packages}"


def _synthesis_worker(task: Dict[str, Any]) -> Dict[str, Any]:
    maybe_inject("synthesis", _synthesis_task_key(task))
    with current_tracer().span(
        "pipeline.synthesize",
        signature=task["signature"],
        apps=len(task["apps"]),
    ):
        bundle = BundleModel(
            apps=[serialize.app_from_dict(a) for a in task["apps"]]
        )
        signature = lookup(task["signature"])()
        engine = AnalysisAndSynthesisEngine(
            signatures=[signature], **task["params"]
        )
        result = engine.run_signature(bundle, signature)
    return synthesis_payload(result)


def _shared_task_key(task: Dict[str, Any]) -> str:
    packages = ",".join(sorted(a["package"] for a in task["apps"]))
    return f"shared[{','.join(task['signatures'])}]|{packages}"


def _shared_synthesis_worker(task: Dict[str, Any]) -> Dict[str, Any]:
    """One whole bundle under the shared encoding: translate once,
    enumerate every signature under its selector on the one warm solver."""
    maybe_inject("synthesis", _shared_task_key(task))
    with current_tracer().span(
        "pipeline.synthesize_bundle",
        signatures=len(task["signatures"]),
        apps=len(task["apps"]),
    ):
        bundle = BundleModel(
            apps=[serialize.app_from_dict(a) for a in task["apps"]]
        )
        signatures = [lookup(name)() for name in task["signatures"]]
        engine = AnalysisAndSynthesisEngine(
            signatures=signatures, **task["params"]
        )
        result = engine.run_shared(bundle)
    return synthesis_payload(result)


def _run_task(fn: Callable[[T], R], telemetry: Dict[str, Any], task: T) -> R:
    """Run one pipeline task under the dispatching run's telemetry.

    Every task runs through here, in a pool worker or in-process alike.
    ``telemetry`` is the envelope :meth:`AnalysisPipeline._map` builds
    once per map: the dispatch span's :class:`~repro.obs.TraceContext`
    (worker spans parent under it and carry the run's trace id), the
    trace file and the heartbeat interval.  A task whose current tracer
    does not write to that file -- in a spawned worker -- opens one for
    itself and closes it when it ends.
    """
    path = telemetry["trace_path"]
    if path is None or getattr(current_tracer(), "path", None) == path:
        with adopt_trace_context(telemetry["trace"]):
            return fn(task)
    tracer = JsonlTracer(
        path, heartbeat_interval=telemetry["heartbeat_interval"]
    )
    try:
        with tracing(tracer), adopt_trace_context(telemetry["trace"]):
            return fn(task)
    finally:
        tracer.close()


#: The ``(fn, items)`` of the pool round a forked worker was started
#: for; set by :func:`_adopt_round` in pool workers only, never in the
#: orchestrator.
_ROUND: Optional[Tuple[Callable[[Any], Any], Sequence[Any]]] = None


def _adopt_round(fn: Callable[[Any], Any], items: Sequence[Any]) -> None:
    """Pool initializer: under fork its arguments are inherited, not
    pickled, so every item of the round reaches the worker for free."""
    global _ROUND
    _ROUND = (fn, items)


def _run_adopted(idx: int) -> Any:
    fn, items = _ROUND
    return fn(items[idx])


#: The collector's permanent generation as the interpreter starts it:
#: Python 3.12 keeps a few hundred of its own objects there, other
#: versions none.  More than that on a stage's entry is a freeze in force.
_INTERPRETER_FREEZE_COUNT = gc.get_freeze_count()


@contextlib.contextmanager
def _frozen_heap() -> Iterator[None]:
    """Keep what a stage starts with out of the cycle collector's way.

    Every object alive on entry -- the orchestrator's modules, APKs and
    models -- moves to the collector's permanent generation
    (``gc.freeze``) until the stage ends (``gc.unfreeze``).  Forked pool
    workers inherit that state, so their collections neither traverse
    those objects nor write to them (which would copy their pages), and
    the orchestrator's own collections skip them too.  Reference
    counting still frees them; a freeze already in force on entry is
    left alone.
    """
    if gc.get_freeze_count() > _INTERPRETER_FREEZE_COUNT:
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _finding_count(detection: DetectionReport) -> int:
    """A bundle's synthesis cost estimate: its detector findings.

    A bundle with none folds every signature group away at translation,
    so its synthesis is a small fraction of one that has some.
    """
    return sum(len(components) for components in detection.findings.values())


# ----------------------------------------------------------------------
# The run's metrics, booked from the objects that count them

#: Counters booked from a computed synthesis payload's ``stats``.
_STATS_COUNTERS = (
    ("sat.solver_calls", "solver_calls"),
    ("sat.conflicts", "conflicts"),
    ("sat.decisions", "decisions"),
    ("sat.propagations", "propagations"),
    ("ase.translations", "translations"),
    ("ase.translations_avoided", "translations_avoided"),
    ("ase.clauses_shared", "clauses_shared"),
    ("ase.learned_carried", "learned_carried"),
)

#: ``stats`` fields observed once per computed payload as ``ase.<field>``.
_STATS_HISTOGRAMS = (
    "num_vars",
    "num_clauses",
    "construction_seconds",
    "solving_seconds",
)


def _book_synthesis(
    metrics: MetricsRegistry, payload: Dict[str, Any]
) -> None:
    """Count the solver and engine work of one payload this run computed."""
    stats = payload.get("stats", {})
    for name, field in _STATS_COUNTERS:
        metrics.counter(name).inc(stats.get(field, 0))
    metrics.counter("ase.signature_runs").inc(
        len(stats.get("per_signature", {}))
    )
    metrics.counter("ase.scenarios").inc(len(payload.get("scenarios", ())))
    if stats.get("exhausted"):
        metrics.counter("ase.budget_exhausted").inc()
    for field in _STATS_HISTOGRAMS:
        metrics.histogram(f"ase.{field}").observe(stats.get(field, 0))


def _book_cache(
    metrics: MetricsRegistry,
    namespace: str,
    before: Dict[str, int],
    after: Dict[str, int],
) -> None:
    """Count what one stage's cache traffic added to the cache's
    accounting (``CacheAccounting.counts`` before and after the stage)."""
    for kind, count in after.items():
        if count > before[kind]:
            metrics.counter(f"cache.{namespace}.{kind}").inc(
                count - before[kind]
            )


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    reports: List[SeparReport]
    run_report: RunReport

    def findings_dict(self) -> Dict[str, Any]:
        """Canonical findings across all bundles (for files and diffing)."""
        return {"bundles": [report.findings() for report in self.reports]}


class AnalysisPipeline:
    """Fan-out + cache orchestration for multi-bundle SEPAR analysis.

    ``jobs <= 1`` runs everything in-process; higher values use a
    :class:`~concurrent.futures.ProcessPoolExecutor`, finishing the run
    in-process when worker processes cannot be started at all.  Both
    execute the same worker functions through the same retry loop, so
    outputs are identical byte for byte.  ``faults`` governs per-task
    retries/timeouts (see :class:`FaultPolicy`); ``conflict_budget`` /
    ``time_budget_seconds`` bound each synthesis task, degrading it to a
    partial result instead of letting a SAT blow-up sink the run.
    ``shared_encoding=False`` selects the per-(bundle, signature)
    reference path, whose findings are byte-identical and whose tasks
    fail and degrade one signature at a time.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[PipelineCache] = None,
        signature_names: Optional[Sequence[str]] = None,
        scenarios_per_signature: int = 8,
        minimal: bool = True,
        handle_dynamic_receivers: bool = False,
        faults: Optional[FaultPolicy] = None,
        conflict_budget: Optional[int] = None,
        time_budget_seconds: Optional[float] = None,
        shared_encoding: bool = True,
        start_method: Optional[str] = None,
    ) -> None:
        if scenarios_per_signature < 1:
            # Checked here too: the engine is only built inside synthesis
            # tasks, after extraction, where this would fail per bundle.
            raise ValueError("scenarios_per_signature must be at least 1")
        self.jobs = max(1, jobs)
        #: Pool start method ("fork", "spawn", ...); ``None`` = platform
        #: default.  Telemetry rides in each task's envelope, so
        #: observability and results are identical under either method.
        self.start_method = start_method
        self.cache = cache if cache is not None else NullCache()
        self.signature_names = (
            list(signature_names)
            if signature_names is not None
            else [s.name for s in default_signatures()]
        )
        self.scenarios_per_signature = scenarios_per_signature
        self.minimal = minimal
        self.handle_dynamic_receivers = handle_dynamic_receivers
        self.faults = faults if faults is not None else FaultPolicy()
        self.conflict_budget = conflict_budget
        self.time_budget_seconds = time_budget_seconds
        self.shared_encoding = shared_encoding

    # ------------------------------------------------------------------
    # Fault-tolerant task dispatch
    # ------------------------------------------------------------------
    def _map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        stage: str,
        labels: Sequence[str],
        metrics: MetricsRegistry,
    ) -> List[_TaskOutcome]:
        """Order-preserving fault-tolerant map, parallel when jobs > 1.

        Returns one :class:`_TaskOutcome` per item, in item order: the
        task's payload, or the :class:`TaskFailure` it ended in after
        exhausting its retries.  The telemetry envelope is captured here,
        while the dispatching stage span is current, and every task runs
        as ``_run_task(fn, telemetry, task)``; a partial of module-level
        functions stays picklable under both fork and spawn.  Retries,
        timeouts, pool breaks and failures are counted into ``metrics``.
        """
        if not items:
            return []
        mark_parent_process()
        tracer = current_tracer()
        telemetry = {
            "trace": current_trace_context(),
            "trace_path": getattr(tracer, "path", None),
            "heartbeat_interval": tracer.heartbeat_interval,
        }
        return self._run_pooled(
            functools.partial(_run_task, fn, telemetry),
            items,
            labels,
            stage,
            metrics,
        )

    def _run_pooled(
        self,
        fn: Callable[[T], Any],
        items: Sequence[T],
        labels: Sequence[str],
        stage: str,
        metrics: MetricsRegistry,
    ) -> List[_TaskOutcome]:
        """Per-task dispatch over successive rounds.

        A round is a pool generation, or an in-process pass when
        ``jobs <= 1``, when there is a single task, or once a pool cannot
        start (restricted environments) -- the rest of the map then runs
        in-process.  A pool round ends when its pool breaks (worker crash)
        or a task overruns the timeout, killing only that generation.
        Completed tasks keep their results; unstarted tasks and healthy
        tasks in flight when a peer's timeout killed the generation are
        requeued at no attempt cost; tasks in flight at a crash are re-run
        one per pool so a repeat crash is attributed to the task that
        caused it (crash isolation).
        """
        policy = self.faults
        n = len(items)
        outcomes: List[Optional[_TaskOutcome]] = [None] * n
        attempts = [0] * n
        first_try: Dict[int, float] = {}
        queue: Deque[int] = deque(range(n))
        isolate: Deque[int] = deque()
        retry_sleep = 0.0
        in_process = self.jobs <= 1 or n <= 1

        def record_failure(idx: int, kind: str, message: str) -> None:
            metrics.counter("pipeline.task_failures").inc()
            outcomes[idx] = _TaskOutcome(
                failure=TaskFailure(
                    stage=stage,
                    task=labels[idx],
                    kind=kind,
                    error=message,
                    attempts=attempts[idx],
                    elapsed_seconds=time.perf_counter()
                    - first_try.get(idx, time.perf_counter()),
                )
            )

        def consume_attempt(idx: int, kind: str, message: str) -> None:
            nonlocal retry_sleep
            attempts[idx] += 1
            if attempts[idx] > policy.max_retries:
                record_failure(idx, kind, message)
                return
            metrics.counter("pipeline.task_retries").inc()
            retry_sleep = max(retry_sleep, policy.delay(attempts[idx]))
            # Crash suspects go back through isolation so a repeat crash
            # stays attributable; errors and timeouts rejoin the batch.
            (isolate if kind == "crash" else queue).append(idx)

        while queue or isolate:
            if retry_sleep > 0:
                time.sleep(retry_sleep)
                retry_sleep = 0.0
            if isolate:
                round_ids = [isolate.popleft()]
                workers = 1
            else:
                round_ids = list(queue)
                queue.clear()
                workers = min(self.jobs, len(round_ids))
            now = time.perf_counter()
            for idx in round_ids:
                first_try.setdefault(idx, now)
            round_result = (
                None
                if in_process
                else self._pool_round(fn, items, round_ids, workers)
            )
            if round_result is None:
                # jobs <= 1, a single task, or no process support: this
                # round and the rest of the map run in-process.
                in_process = True
                round_result = self._in_process_round(fn, items, round_ids)
            for idx, (status, value) in round_result.completed.items():
                if status == "ok":
                    outcomes[idx] = _TaskOutcome(payload=value)
                else:
                    consume_attempt(idx, "error", value)
            for idx in round_result.timed_out:
                metrics.counter("pipeline.task_timeouts").inc()
                consume_attempt(
                    idx,
                    "timeout",
                    f"task exceeded the {policy.task_timeout:.6g}s "
                    "per-task timeout",
                )
            if round_result.broke:
                metrics.counter("pipeline.pool_breaks").inc()
                if len(round_ids) == 1:
                    # Isolation round: this task is the proven culprit.
                    consume_attempt(
                        round_ids[0],
                        "crash",
                        "worker process crashed while running this task",
                    )
                else:
                    # Fate unknown: re-run each in-flight task alone so a
                    # repeat crash is attributed, at no attempt cost.
                    isolate.extend(round_result.interrupted)
            else:
                # Timeout force-kill: the generation died to stop the
                # victims, so in-flight peers were healthy when torn
                # down -- they rejoin the batch at no attempt cost.
                queue.extend(round_result.interrupted)
            queue.extend(round_result.unstarted)

        return [
            outcome
            if outcome is not None
            else _TaskOutcome(
                failure=TaskFailure(
                    stage=stage,
                    task=labels[idx],
                    kind="error",
                    error="task was never completed (executor invariant)",
                    attempts=attempts[idx],
                    elapsed_seconds=0.0,
                )
            )
            for idx, outcome in enumerate(outcomes)
        ]

    @staticmethod
    def _in_process_round(
        fn: Callable[[T], Any], items: Sequence[T], round_ids: Sequence[int]
    ) -> _RoundResult:
        """Run one round in the orchestrator itself.

        Only genuine task exceptions occur here: there is no pool to
        break, and a task running in-process cannot be preempted, so the
        per-task timeout does not apply.
        """
        completed: Dict[int, Tuple[str, Any]] = {}
        for idx in round_ids:
            try:
                completed[idx] = ("ok", fn(items[idx]))
            except Exception as exc:  # noqa: BLE001 -- task isolation
                completed[idx] = ("error", f"{type(exc).__name__}: {exc}")
        return _RoundResult(completed=completed)

    def _pool_round(
        self,
        fn: Callable[[T], Any],
        items: Sequence[T],
        round_ids: Sequence[int],
        workers: int,
    ) -> Optional[_RoundResult]:
        """Run one pool generation; never raises on task or pool failure.

        Returns ``None`` when this process has no pool support: the pool
        cannot be created, or its workers (or its manager thread) cannot
        be started before any task of the round is in flight
        (``ProcessPoolExecutor`` starts them inside ``submit``).  The
        caller then runs the round in-process.  Keeps at most ``workers``
        tasks in flight so the per-task timeout measures *running* time,
        not queueing time.

        Under fork the workers inherit the round's ``(fn, items)`` through
        the pool initializer and each task is just its index; other start
        methods pickle a worker's arguments, so there each task carries
        its own item rather than every worker a copy of the round.
        """
        try:
            mp_context = multiprocessing.get_context(self.start_method)
            inherit = mp_context.get_start_method() == "fork"
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=mp_context,
                initializer=_adopt_round if inherit else None,
                initargs=(fn, items) if inherit else (),
            )
        except (OSError, NotImplementedError, PermissionError, ValueError):
            return None
        completed: Dict[int, Tuple[str, Any]] = {}
        interrupted: List[int] = []
        timed_out: List[int] = []
        pending: Deque[int] = deque(round_ids)
        inflight: Dict[Any, int] = {}
        started: Dict[int, float] = {}
        timeout = self.faults.task_timeout
        broke = False
        force_kill = False
        no_pool_support = False
        try:
            while pending or inflight:
                while pending and len(inflight) < workers:
                    idx = pending.popleft()
                    try:
                        future = (
                            pool.submit(_run_adopted, idx)
                            if inherit
                            else pool.submit(fn, items[idx])
                        )
                    except (OSError, RuntimeError):
                        # Pool infrastructure failure (already broken or
                        # shut down, or a worker or the pool's manager
                        # thread that cannot start) -- NOT a task error:
                        # the task never ran, so it goes back unstarted.
                        # A failure before any task of the round was
                        # submitted means this process cannot run a pool.
                        pending.appendleft(idx)
                        broke = True
                        no_pool_support = not started
                        break
                    inflight[future] = idx
                    started[idx] = time.monotonic()
                if broke or not inflight:
                    break
                wait_for = None
                if timeout is not None:
                    earliest = min(started[i] for i in inflight.values())
                    wait_for = max(
                        0.0, earliest + timeout - time.monotonic()
                    )
                done, _ = futures_wait(
                    set(inflight),
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    idx = inflight.pop(future)
                    try:
                        completed[idx] = ("ok", future.result())
                    except BrokenProcessPool:
                        # Pool infrastructure failure -- fate of this
                        # task is unknown (it may have crashed the worker).
                        interrupted.append(idx)
                        broke = True
                    except Exception as exc:  # noqa: BLE001
                        # A genuine exception raised by the task function
                        # and pickled back across the future.
                        completed[idx] = (
                            "error", f"{type(exc).__name__}: {exc}"
                        )
                if broke:
                    break
                if timeout is not None:
                    now = time.monotonic()
                    victims = [
                        future
                        for future, idx in inflight.items()
                        if now - started[idx] >= timeout
                    ]
                    if victims:
                        for future in victims:
                            timed_out.append(inflight.pop(future))
                        force_kill = True
                        break
        finally:
            if broke or force_kill:
                interrupted.extend(inflight.values())
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=True)
        if no_pool_support:
            return None
        return _RoundResult(
            completed=completed,
            interrupted=interrupted,
            unstarted=list(pending),
            timed_out=timed_out,
            broke=broke,
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear down a pool whose workers may be hung or dead.

        ``shutdown(wait=True)`` would block behind a hung worker, so the
        worker processes are terminated outright; the abandoned
        generation's management thread observes the dead pipes and exits.
        """
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if procs else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in processes:
            try:
                proc.join(timeout=2.0)
            except Exception:
                pass

    # ------------------------------------------------------------------
    @staticmethod
    def _record_degraded(
        run_report: RunReport,
        payload_task: Dict[str, Any],
        payload: Dict[str, Any],
        metrics: MetricsRegistry,
    ) -> None:
        """Record budget-exhausted synthesis at signature granularity.

        A per-signature task degrades as a whole; a shared-encoding
        bundle task records one entry per signature whose enumeration
        hit the budget (the rest of the bundle's signatures completed),
        so both modes report the same degradation boundary.
        """
        packages = ",".join(
            sorted(a["package"] for a in payload_task["apps"])
        )
        if "signatures" in payload_task:
            per_signature = payload.get("stats", {}).get("per_signature", {})
            for name in payload_task["signatures"]:
                entry = per_signature.get(name, {})
                if not entry.get("exhausted"):
                    continue
                metrics.counter("pipeline.degraded_tasks").inc()
                run_report.degraded.append(
                    {
                        "stage": "synthesis",
                        "task": f"{name}|{packages}",
                        "reason": "budget_exhausted",
                        "scenarios": int(entry.get("scenarios", 0)),
                    }
                )
        else:
            metrics.counter("pipeline.degraded_tasks").inc()
            run_report.degraded.append(
                {
                    "stage": "synthesis",
                    "task": _synthesis_task_key(payload_task),
                    "reason": "budget_exhausted",
                    "scenarios": len(payload.get("scenarios", [])),
                }
            )

    # ------------------------------------------------------------------
    @_frozen_heap()
    def extract_apps(
        self,
        apks: Sequence[Apk],
        report: Optional[RunReport] = None,
        ledger: Optional[CostLedger] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> List[Optional[AppModel]]:
        """Extract app models, fanning cache misses out across processes.

        Returns a list aligned with ``apks``; an entry is ``None`` when
        that app's extraction ultimately failed (the failure is recorded
        in ``report.failures`` and the app is excluded from its bundle).
        Each app's cache hit or miss is charged to ``ledger``, and the
        stage's cache traffic, extracted apps and task retries are
        counted into ``metrics`` (fresh ones unless :meth:`run` passes
        its own); their entries and snapshot become ``report.cost`` and
        ``report.metrics``.
        """
        ledger = ledger if ledger is not None else CostLedger()
        metrics = metrics if metrics is not None else MetricsRegistry()
        cache_before = self.cache.accounting.counts("extract")
        start = time.perf_counter()
        tracer = current_tracer()
        with tracer.span("pipeline.extract", apps=len(apks)) as stage:
            fingerprint = framework_fingerprint()
            keys = [
                content_hash(
                    {
                        "task": "extract",
                        "apk": apk,
                        "handle_dynamic_receivers": self.handle_dynamic_receivers,
                        "fingerprint": fingerprint,
                    }
                )
                for apk in apks
            ]
            dicts: List[Optional[Dict[str, Any]]] = [
                self.cache.get("extract", key) for key in keys
            ]
            miss_indices = [i for i, d in enumerate(dicts) if d is None]
            stage.set(cache_misses=len(miss_indices))
            outcomes = self._map(
                _extract_worker,
                [
                    (apks[i], self.handle_dynamic_receivers)
                    for i in miss_indices
                ],
                stage="extract",
                labels=[apks[i].package for i in miss_indices],
                metrics=metrics,
            )
            failures: List[TaskFailure] = []
            tid = current_trace_id() or ""
            missed = set(miss_indices)
            for i, apk in enumerate(apks):
                if i not in missed:
                    ledger.charge(
                        CostKey(trace_id=tid, bundle=apk.package),
                        cache_hits=1,
                    )
            for index, outcome in zip(miss_indices, outcomes):
                if outcome.ok:
                    self.cache.put("extract", keys[index], outcome.payload)
                    dicts[index] = outcome.payload
                    metrics.counter("ame.apps_extracted").inc()
                    ledger.charge(
                        CostKey(trace_id=tid, bundle=apks[index].package),
                        cache_misses=1,
                        wall_seconds=float(
                            outcome.payload.get("extraction_seconds", 0.0)
                        ),
                    )
                else:
                    failures.append(outcome.failure)
            if failures:
                stage.set(failures=len(failures))
            models = [
                serialize.app_from_dict(d) if d is not None else None
                for d in dicts
            ]
        _book_cache(
            metrics,
            "extract",
            cache_before,
            self.cache.accounting.counts("extract"),
        )
        if report is not None:
            report.add_stage("extract", time.perf_counter() - start)
            report.num_apps += sum(1 for m in models if m is not None)
            report.failures.extend(f.to_dict() for f in failures)
            report.cost = ledger.entries()
            report.metrics = metrics.snapshot()
        return models

    # ------------------------------------------------------------------
    def run(self, bundles: Sequence[Sequence[Apk]]) -> PipelineResult:
        """Analyze every bundle: extraction, synthesis, policies, detection.

        Both stages charge one ledger and count into one metrics registry
        created for this run, so ``run_report.cost`` lists the run's
        accounts in charge order and ``run_report.metrics`` holds the
        run's counts and nothing else.  Once ``pipeline.run`` has closed,
        the spans of the tracer it ran under -- from the file it appends
        to, worker lines included, else from its in-memory records -- are
        aggregated into ``run_report.spans``.
        """
        run_report = RunReport(jobs=self.jobs)
        ledger = CostLedger()
        metrics = MetricsRegistry()
        tracer = current_tracer()
        with tracer.span(
            "pipeline.run", jobs=self.jobs, bundles=len(bundles)
        ):
            all_apks = [apk for bundle in bundles for apk in bundle]
            models = self.extract_apps(
                all_apks, report=run_report, ledger=ledger, metrics=metrics
            )
            bundle_models: List[BundleModel] = []
            cursor = 0
            for bundle in bundles:
                size = len(bundle)
                # Apps whose extraction failed are dropped from their
                # bundle (already recorded in run_report.failures); the
                # rest of the bundle is still analyzed.
                bundle_models.append(
                    BundleModel(
                        apps=[
                            m
                            for m in models[cursor:cursor + size]
                            if m is not None
                        ]
                    )
                )
                cursor += size
            result = self.analyze_bundles(
                bundle_models,
                run_report=run_report,
                ledger=ledger,
                metrics=metrics,
            )
        path = getattr(tracer, "path", None)
        records = read_trace(path) if path else getattr(tracer, "records", None)
        if records:
            run_report.spans = aggregate_spans(records)
        return result

    @_frozen_heap()
    def analyze_bundles(
        self,
        bundle_models: Sequence[BundleModel],
        run_report: Optional[RunReport] = None,
        ledger: Optional[CostLedger] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> PipelineResult:
        """Synthesis + policy derivation + detection over extracted bundles.

        Each task's cache hit, or miss plus solver stats, is charged to
        ``ledger``; the stage's cache traffic, the solver and engine work
        of every payload it computed and its task retries are counted
        into ``metrics`` (fresh ones unless :meth:`run` passes its own).
        Their entries and snapshot become ``run_report.cost`` and
        ``run_report.metrics``; a cached payload adds a cache hit only.

        Each bundle's detection runs once, before dispatch: cache misses
        are dispatched in descending order of their bundle's findings
        (ties in index order), so the longest syntheses start first and
        no worker is left alone on a large bundle at the end.  Assembly
        reuses the detection.
        """
        run_report = run_report if run_report is not None else RunReport(jobs=self.jobs)
        ledger = ledger if ledger is not None else CostLedger()
        metrics = metrics if metrics is not None else MetricsRegistry()
        cache_before = self.cache.accounting.counts("synthesis")
        run_report.num_bundles += len(bundle_models)
        tracer = current_tracer()
        params = engine_params(
            self.scenarios_per_signature,
            self.minimal,
            self.conflict_budget,
            self.time_budget_seconds,
        )

        start = time.perf_counter()
        with tracer.span(
            "pipeline.synthesis", bundles=len(bundle_models)
        ) as stage:
            bundle_apps: List[List[Dict[str, Any]]] = [
                [serialize.app_to_dict(a) for a in bundle.apps]
                for bundle in bundle_models
            ]
            app_keys = [
                [app_content_key(d) for d in apps] for apps in bundle_apps
            ]
            # (bundle index, signature name): one whole-bundle task (name
            # None) per bundle, or one task per signature on the
            # reference path.
            tasks: List[Tuple[int, Optional[str]]] = [
                (b, name)
                for b in range(len(bundle_models))
                for name in (
                    [None] if self.shared_encoding else self.signature_names
                )
            ]
            keys = [
                synthesis_key(
                    app_keys[b], params, self.signature_names, signature=name
                )
                for b, name in tasks
            ]
            cached: List[Optional[Dict[str, Any]]] = [
                self.cache.get("synthesis", key) for key in keys
            ]
            miss_indices = [i for i, c in enumerate(cached) if c is None]
            stage.set(tasks=len(tasks), cache_misses=len(miss_indices))
            detections = [
                SeparDetector().detect(bundle) for bundle in bundle_models
            ]
            findings = [_finding_count(d) for d in detections]
            dispatch = sorted(
                miss_indices, key=lambda i: (-findings[tasks[i][0]], i)
            )
            if self.shared_encoding:
                task_payloads = [
                    {
                        "apps": bundle_apps[tasks[i][0]],
                        "signatures": list(self.signature_names),
                        "params": params,
                    }
                    for i in dispatch
                ]
                worker, label = _shared_synthesis_worker, _shared_task_key
            else:
                task_payloads = [
                    {
                        "apps": bundle_apps[tasks[i][0]],
                        "signature": tasks[i][1],
                        "params": params,
                    }
                    for i in dispatch
                ]
                worker, label = _synthesis_worker, _synthesis_task_key
            outcomes = self._map(
                worker,
                task_payloads,
                stage="synthesis",
                labels=[label(t) for t in task_payloads],
                metrics=metrics,
            )
            tid = current_trace_id() or ""

            def account(i: int) -> CostKey:
                # A shared-encoding task covers every signature on one
                # solver, whose counters cannot be split per signature:
                # the whole bundle is one account, signature ``*``.
                b, name = tasks[i]
                packages = ",".join(
                    sorted(a["package"] for a in bundle_apps[b])
                )
                return CostKey(
                    trace_id=tid, bundle=packages, signature=name or "*"
                )

            missed = set(miss_indices)
            for i in range(len(tasks)):
                if i not in missed:
                    ledger.charge(account(i), cache_hits=1)
            computed = dict(zip(dispatch, zip(task_payloads, outcomes)))
            for index in miss_indices:
                payload_task, outcome = computed[index]
                if not outcome.ok:
                    run_report.failures.append(outcome.failure.to_dict())
                    continue
                payload = outcome.payload
                cached[index] = payload
                key = account(index)
                ledger.charge(key, cache_misses=1)
                ledger.charge_stats(key, payload.get("stats", {}))
                _book_synthesis(metrics, payload)
                if payload.get("incomplete"):
                    # Budget-exhausted: keep the partial scenarios and
                    # report the degradation.  The cache refuses incomplete
                    # payloads (recording a rejection), so a later run with
                    # more budget must redo the work.
                    self._record_degraded(
                        run_report, payload_task, payload, metrics
                    )
                self.cache.put("synthesis", keys[index], payload)
        _book_cache(
            metrics,
            "synthesis",
            cache_before,
            self.cache.accounting.counts("synthesis"),
        )
        run_report.add_stage("synthesis", time.perf_counter() - start)

        # Reassemble in (bundle, signature) index order: exactly the order
        # the serial engine would have produced.  Failed tasks are simply
        # absent -- every other (bundle, signature) pair is unaffected.
        start = time.perf_counter()
        reports: List[SeparReport] = []
        with tracer.span("pipeline.assemble", bundles=len(bundle_models)):
            for b, bundle in enumerate(bundle_models):
                result = synthesis_result(
                    payload
                    for (tb, _), payload in zip(tasks, cached)
                    if tb == b and payload is not None
                )
                report = Separ.assemble_report(
                    bundle, result, detection=detections[b]
                )
                reports.append(report)
                run_report.num_scenarios += len(report.scenarios)
                run_report.num_policies += len(report.policies)
                run_report.per_bundle.append(
                    {
                        "apps": len(bundle.apps),
                        "scenarios": len(report.scenarios),
                        "policies": len(report.policies),
                    }
                )
        run_report.add_stage("assemble", time.perf_counter() - start)
        run_report.cost = ledger.entries()
        run_report.metrics = metrics.snapshot()
        return PipelineResult(reports=reports, run_report=run_report)
