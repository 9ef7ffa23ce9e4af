"""Solver progress telemetry: solver publication through the tracer,
heartbeat transport over the trace file, the --watch monitor, and the
zero-cost / byte-identity guarantee when telemetry is disabled."""

import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import PROGRESS_ENV, TRACE_ENV
from repro.cli import main as cli_main
from repro.obs import (
    DEFAULT_INTERVAL,
    NULL_TRACER,
    HeartbeatMonitor,
    JsonlTracer,
    ProgressSnapshot,
    current_tracer,
    read_events,
    tracing,
)
from repro.sat import BudgetExhausted, FastSolver


def _snap(i, pid=1):
    return ProgressSnapshot(
        ts=float(i),
        pid=pid,
        solve_id=1,
        conflicts=i,
        decisions=2 * i,
        propagations=3 * i,
        restarts=0,
        learned=i,
        trail=5,
        conflicts_per_sec=100.0,
    )


def _beats(path):
    return [
        ProgressSnapshot.from_dict(event)
        for event in read_events(str(path))[1]
        if event.get("event") == "progress"
    ]


@pytest.fixture
def heartbeats(tmp_path):
    """Run the test under a tracer heartbeating every conflict; yields a
    function returning the snapshots it has written so far."""
    path = tmp_path / "t.jsonl"
    tracer = JsonlTracer(str(path), heartbeat_interval=1)
    with tracing(tracer):
        yield lambda: _beats(path)
    tracer.close()


def _pigeonhole(n):
    """PHP(n+1, n): n+1 pigeons in n holes -- UNSAT with real conflicts."""
    clauses = []
    var = lambda p, h: p * n + h + 1  # noqa: E731
    for p in range(n + 1):
        clauses.append([var(p, h) for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestSnapshotRoundTrip:
    def test_dict_round_trip(self):
        snap = _snap(7)
        data = snap.to_dict()
        assert data["event"] == "progress"
        assert ProgressSnapshot.from_dict(data) == snap

    def test_budget_remaining_survives(self):
        snap = _snap(3)
        snap.budget_remaining = 42
        assert ProgressSnapshot.from_dict(snap.to_dict()).budget_remaining == 42


class TestSolverPublishes:
    def test_conflicty_solve_emits_snapshots(self, heartbeats):
        solver = FastSolver()
        for clause in _pigeonhole(5):
            solver.add_clause(clause)
        result = solver.solve()
        assert not result.satisfiable
        beats = heartbeats()
        assert len(beats) > 1  # periodic samples plus the closing one
        last = beats[-1]
        assert last.conflicts > 0
        assert last.decisions > 0
        assert last.solve_id == 1
        assert last.budget_remaining is None

    def test_budget_remaining_counts_down(self, heartbeats):
        solver = FastSolver()
        for clause in _pigeonhole(6):
            solver.add_clause(clause)
        with pytest.raises(BudgetExhausted):
            solver.solve(conflict_budget=10)
        last = heartbeats()[-1]
        assert last.budget_remaining == 0  # closing snapshot at the miss

    def test_easy_solve_heartbeats_once(self, heartbeats):
        solver = FastSolver()
        solver.add_clause([1, 2])
        assert solver.solve().satisfiable
        assert len(heartbeats()) == 1  # no conflicts, one closing snapshot

    def test_null_tracer_publishes_nothing(self):
        with tracing(NULL_TRACER):
            assert current_tracer().heartbeat_interval == 0
            solver = FastSolver()
            for clause in _pigeonhole(4):
                solver.add_clause(clause)
            assert not solver.solve().satisfiable  # must not raise


class TestHeartbeatTransport:
    def test_snapshots_land_in_trace_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), heartbeat_interval=1)
        try:
            with tracing(tracer):
                solver = FastSolver()
                for clause in _pigeonhole(5):
                    solver.add_clause(clause)
                solver.solve()
        finally:
            tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        beats = [d for d in lines if d.get("event") == "progress"]
        assert beats
        assert all(d["pid"] > 0 for d in beats)
        assert beats[-1]["conflicts"] >= beats[0]["conflicts"]

    def test_heartbeats_carry_the_enclosing_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), heartbeat_interval=1)
        try:
            with tracing(tracer), tracer.span("solve") as span:
                solver = FastSolver()
                for clause in _pigeonhole(4):
                    solver.add_clause(clause)
                solver.solve()
        finally:
            tracer.close()
        events = read_events(str(path))[1]
        assert events
        assert {(e["trace_id"], e["span_id"]) for e in events} == {
            (span.trace_id, span.span_id)
        }

    def test_emit_event_requires_event_key(self, tmp_path):
        tracer = JsonlTracer(str(tmp_path / "t.jsonl"))
        try:
            with pytest.raises(ValueError):
                tracer.emit_event({"no": "kind"})
        finally:
            tracer.close()

    def test_env_sets_the_cli_tracers_interval(self, tmp_path, monkeypatch):
        """The CLI reads REPRO_TRACE / REPRO_PROGRESS once per command:
        the command runs under a tracer heartbeating at the given
        interval (the default for a non-numeric value, none without
        REPRO_PROGRESS), which is closed once the command returns."""
        import repro.cli

        trace = tmp_path / "env.jsonl"
        missing = str(tmp_path / "missing.jsonl")
        seen = []
        command = repro.cli._cmd_trace

        def recording_command(args):
            seen.append(current_tracer())
            return command(args)

        monkeypatch.setattr(repro.cli, "_cmd_trace", recording_command)
        for progress, want in (("64", 64), ("yes", DEFAULT_INTERVAL),
                               ("0", DEFAULT_INTERVAL), (None, 0)):
            monkeypatch.setenv(TRACE_ENV, str(trace))
            if progress is None:
                monkeypatch.delenv(PROGRESS_ENV, raising=False)
            else:
                monkeypatch.setenv(PROGRESS_ENV, progress)
            # A command that fails fast still runs under the env tracer.
            assert cli_main(["trace", missing]) != 0
            tracer = seen.pop()
            assert isinstance(tracer, JsonlTracer)
            assert tracer.path == str(trace)
            assert tracer.heartbeat_interval == want
            assert tracer._fd == -1  # closed by main
            assert current_tracer() is NULL_TRACER

    def test_import_with_env_installs_no_tracer(self, tmp_path):
        """Importing the package reads no environment: with REPRO_TRACE
        set, the tracer stays the no-op and no file is opened."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        trace = tmp_path / "env.jsonl"
        probe = (
            "from repro.obs import NULL_TRACER, current_tracer; "
            "import repro.cli, repro.pipeline, repro.service; "
            "print(current_tracer() is NULL_TRACER)"
        )
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env.update(
            {"PYTHONPATH": src, TRACE_ENV: str(trace), PROGRESS_ENV: "64"}
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
            timeout=60,
        ).stdout
        assert out.strip() == "True"
        assert not trace.exists()


class TestHeartbeatMonitor:
    def _write_beat(self, path, i, pid=101):
        with open(path, "a") as handle:
            handle.write(json.dumps(_snap(i, pid=pid).to_dict()) + "\n")

    def test_poll_picks_up_appended_beats(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        monitor = HeartbeatMonitor(str(path), stall_after=100.0)
        assert monitor.poll(now=0.0) == []
        self._write_beat(path, 1)
        self._write_beat(path, 2, pid=202)
        fresh = monitor.poll(now=1.0)
        assert [s.pid for s in fresh] == [101, 202]
        assert monitor.pids() == [101, 202]
        assert monitor.latest(101).conflicts == 1
        self._write_beat(path, 9)
        assert [s.conflicts for s in monitor.poll(now=2.0)] == [9]
        assert monitor.latest(101).conflicts == 9

    def test_partial_line_buffered_until_complete(self, tmp_path):
        path = tmp_path / "t.jsonl"
        full = json.dumps(_snap(1).to_dict()) + "\n"
        path.write_text(full[:20])  # a write landed mid-line
        monitor = HeartbeatMonitor(str(path))
        assert monitor.poll(now=0.0) == []
        with open(path, "a") as handle:
            handle.write(full[20:])
        assert [s.conflicts for s in monitor.poll(now=1.0)] == [1]

    def test_stall_flagged_once(self, tmp_path, caplog):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        logger = logging.getLogger("repro.test-watch")
        monitor = HeartbeatMonitor(str(path), stall_after=5.0, logger=logger)
        self._write_beat(path, 1)
        with caplog.at_level(logging.INFO, logger=logger.name):
            monitor.poll(now=0.0)
            monitor.poll(now=10.0)  # silent past the threshold
            monitor.poll(now=20.0)  # still silent: no second warning
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert monitor.stalled_pids(now=10.0) == [101]
        # A fresh heartbeat clears the stall latch.
        self._write_beat(path, 2)
        with caplog.at_level(logging.INFO, logger=logger.name):
            monitor.poll(now=21.0)
            monitor.poll(now=40.0)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2

    def test_stall_recover_stall_warns_per_episode(self, tmp_path, caplog):
        """The warning re-arms after recovery: stall -> recover -> stall
        produces exactly two warnings, one resumed notice per recovery,
        and a per-pid episode count of two."""
        path = tmp_path / "t.jsonl"
        path.write_text("")
        logger = logging.getLogger("repro.test-watch-episodes")
        monitor = HeartbeatMonitor(str(path), stall_after=5.0, logger=logger)
        with caplog.at_level(logging.INFO, logger=logger.name):
            self._write_beat(path, 1)
            monitor.poll(now=0.0)
            assert monitor.stall_count(101) == 0
            monitor.poll(now=10.0)  # first stall episode
            assert monitor.stall_count(101) == 1
            self._write_beat(path, 2)
            monitor.poll(now=11.0)  # recovery
            monitor.poll(now=12.0)  # healthy: no spurious logs
            monitor.poll(now=30.0)  # second stall episode
            assert monitor.stall_count(101) == 2
            self._write_beat(path, 3)
            monitor.poll(now=31.0)  # second recovery
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        resumed = [
            r
            for r in caplog.records
            if r.levelno == logging.INFO and "resumed" in r.getMessage()
        ]
        assert len(warnings) == 2
        assert all("101" in r.getMessage() for r in warnings)
        assert len(resumed) == 2
        # Recovered and beating: not currently stalled.
        assert monitor.stalled_pids(now=32.0) == []

    def test_missing_file_is_not_an_error(self, tmp_path):
        monitor = HeartbeatMonitor(str(tmp_path / "absent.jsonl"))
        assert monitor.poll() == []

    def test_start_stop_background_thread(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        monitor = HeartbeatMonitor(
            str(path), poll_interval=0.01, stall_after=100.0
        )
        monitor.start()
        try:
            self._write_beat(path, 1)
            for _ in range(200):
                if monitor.pids():
                    break
                import time

                time.sleep(0.005)
        finally:
            monitor.stop()
        assert monitor.pids() == [101]


class TestZeroCostIdentity:
    def test_default_tracer_never_heartbeats(self):
        assert NULL_TRACER.heartbeat_interval == 0
        assert current_tracer().heartbeat_interval == 0

    def test_findings_identical_with_telemetry_on_and_off(self, tmp_path):
        """The observability acceptance bar: enabling every telemetry layer
        must not change analysis output by a single byte."""
        import json as json_module

        from repro.benchsuite.running_example import build_app1, build_app2
        from repro.pipeline import AnalysisPipeline, NullCache

        apks = [build_app1(), build_app2()]

        def run():
            result = AnalysisPipeline(
                jobs=1, cache=NullCache(), scenarios_per_signature=4
            ).run([apks])
            return json_module.dumps(result.findings_dict(), sort_keys=True)

        plain = run()

        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), heartbeat_interval=1)
        try:
            with tracing(tracer):
                telemetered = run()
        finally:
            tracer.close()

        assert telemetered == plain
        assert _beats(path)  # telemetry actually ran
