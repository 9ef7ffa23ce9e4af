"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--scenarios", "2"]) == 0
        out = capsys.readouterr().out
        assert "bundle: 2 apps" in out
        assert "policy (" in out


class TestCorpusAndAnalyze:
    def test_corpus_then_analyze(self, tmp_path, capsys):
        out_dir = tmp_path / "models"
        assert main(["corpus", "--scale", "0.005", "-o", str(out_dir)]) == 0
        models = sorted(out_dir.glob("*.json"))
        assert models
        capsys.readouterr()

        subset = [str(p) for p in models[:10]]
        alloy_path = tmp_path / "bundle.als"
        assert main(
            ["analyze", *subset, "--scenarios", "2", "--alloy", str(alloy_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bundle:" in out
        assert alloy_path.exists()
        assert "abstract sig Component" in alloy_path.read_text()

    def test_analyze_roundtrip_consistency(self, tmp_path, capsys):
        """Saved models analyzed via the CLI agree with in-memory analysis."""
        from repro.benchsuite.running_example import build_app1, build_app2
        from repro.core import serialize
        from repro.statics import extract_bundle

        bundle = extract_bundle([build_app1(), build_app2()])
        paths = []
        for app in bundle.apps:
            path = tmp_path / f"{app.package}.json"
            path.write_text(serialize.dumps_app(app))
            paths.append(str(path))
        assert main(["analyze", *paths, "--scenarios", "4"]) == 0
        out = capsys.readouterr().out
        assert "intent_hijack" in out
        assert "service_launch" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_every_subcommand_has_help(self, capsys):
        for sub in ("demo", "corpus", "analyze", "pipeline", "simulate", "trace"):
            with pytest.raises(SystemExit) as excinfo:
                main([sub, "--help"])
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: repro {sub}")
            assert "-h, --help" in out

    def test_synthesis_runs_one_way(self, capsys):
        """No subcommand offers a synthesis mode or a solver, and analyze
        has no worker pool to size."""
        removed = ("--per-signature", "--shared-encoding", "--solver-backend")
        for sub in ("analyze", "pipeline", "serve", "adversarial", "bench"):
            with pytest.raises(SystemExit):
                main([sub, "--help"])
            out = capsys.readouterr().out
            assert not [flag for flag in removed if flag in out], sub
            if sub == "analyze":
                assert "--jobs" not in out


class TestCountFlags:
    """``--scenarios`` and ``--bundle-size`` take counts of at least 1.

    With zero scenarios per signature the enumeration never runs, so a
    vulnerable corpus used to come back clean with exit 0; a bad count is
    now a usage error (exit 2) before any work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--scenarios", "0"],
            ["pipeline", "--scenarios", "-1"],
            ["pipeline", "--bundle-size", "0"],
            ["demo", "--scenarios", "0"],
            ["analyze", "app.json", "--scenarios", "0"],
            ["simulate", "--scenarios", "0"],
            ["serve", "--scenarios", "0"],
            ["adversarial", "--scenarios", "0"],
            ["bench", "--scenarios", "0"],
            ["bench", "--bundle-size", "0"],
        ],
        ids=" ".join,
    )
    def test_nonpositive_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_non_integer_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--scenarios", "two"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err


class TestFaultFlags:
    """``--task-timeout`` takes a finite number of seconds above 0 and
    ``--task-retries`` a count of at least 0.

    A timeout of 0 or less timed out every pooled task, killing one pool
    per task, and the run still exited 0 with no findings; a negative
    retry count was accepted.  Both are usage errors (exit 2) now."""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_timeout_must_be_finite_and_above_zero(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--scale", "0.005", "--no-cache", "--jobs", "2",
                  "--task-timeout", value])
        assert excinfo.value.code == 2
        assert "must be a finite number above 0" in capsys.readouterr().err

    def test_retries_must_not_be_negative(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--scale", "0.005", "--no-cache",
                  "--task-retries", "-1"])
        assert excinfo.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_non_numeric_values_are_usage_errors(self, capsys):
        for argv in (["--task-timeout", "soon"], ["--task-retries", "1.5"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["pipeline", *argv])
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid float value: 'soon'" in err
        assert "invalid int value: '1.5'" in err


class TestPipelineSummary:
    def test_warm_run_prints_its_own_work(self, tmp_path, capsys):
        """The "solver:" and "encoding:" lines read the run's own
        metrics, so a rerun on a filled cache prints no solver work."""
        argv = ["pipeline", "--scale", "0.002", "--bundle-size", "4",
                "--scenarios", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "  solver: 0 calls" not in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert " 0 misses, 0 invalidations" in warm
        assert "  solver: 0 calls, 0 conflicts" in warm
        assert "  encoding: 0 translations (0 avoided)" in warm


class TestSimulate:
    def test_attack_denied_and_audited(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.jsonl"
        assert main(
            ["simulate", "--scenarios", "2", "--audit", str(audit_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "denied" in out
        assert "no exfiltration" in out

        from repro.enforcement import AuditLog

        log = AuditLog.load(str(audit_path))
        assert len(log) > 0
        assert [r.seq for r in log] == list(range(len(log)))
        assert log.denials()

    def test_consenting_user_lets_data_flow(self, capsys):
        assert main(["simulate", "--scenarios", "2", "--consent"]) == 0
        out = capsys.readouterr().out
        assert "EXFILTRATED" in out or "allowed" in out

    @pytest.mark.parametrize("command", ["simulate", "serve"])
    def test_pdp_backend_flag_is_gone(self, command, capsys):
        """The product always runs the compiled PDP; the linear reference
        is reachable only through ``make_pdp(backend=...)``."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--pdp-backend", "linear"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --pdp-backend" in (
            capsys.readouterr().err
        )


class TestTraceCommands:
    def test_pipeline_trace_then_render(self, tmp_path, capsys):
        trace_path = tmp_path / "out.jsonl"
        report_path = tmp_path / "rr.json"
        assert main(
            [
                "pipeline", "--scale", "0.002", "--bundle-size", "4",
                "--scenarios", "2", "--no-cache",
                "--trace", str(trace_path), "--report", str(report_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "spans written" in out
        assert "cost ledger:" in out

        import json

        report = json.loads(report_path.read_text())
        # The default shared-encoding mode synthesizes whole bundles.
        for stage in (
            "pipeline.run",
            "pipeline.extract",
            "pipeline.synthesize_bundle",
        ):
            assert stage in report["spans"]
        assert "ame.apps_extracted" in report["metrics"]
        # Every span carries the run's single trace id...
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        trace_ids = {r.get("trace_id") for r in records if "span_id" in r}
        assert len(trace_ids) == 1 and None not in trace_ids
        # ...and the ledger attributed the run's work per bundle.
        assert report["cost"]
        assert all(e["trace_id"] in trace_ids for e in report["cost"])
        assert sum(e["cache_misses"] for e in report["cost"]) > 0

        assert main(["trace", str(trace_path), "--top", "5"]) == 0
        rendered = capsys.readouterr().out
        assert "pipeline.run" in rendered
        assert "span" in rendered  # hotspot table header

        # The exposition carries the same accounts as labeled series.
        assert main(["export-metrics", str(report_path)]) == 0
        exposition = capsys.readouterr().out
        assert "repro_cost_cache_misses_total{" in exposition
        assert 'trace_id="' in exposition

    def test_watch_heartbeats_at_any_progress_interval(self, tmp_path):
        """``--watch`` always gives the tracer a positive heartbeat
        interval; ``--progress-interval 0`` must not leave it blind."""
        import json
        import logging

        trace_path = tmp_path / "out.jsonl"
        watch_logger = logging.getLogger("repro.watch")
        handlers, level = list(watch_logger.handlers), watch_logger.level
        try:
            assert main(
                [
                    "pipeline", "--scale", "0.002", "--bundle-size", "4",
                    "--scenarios", "2", "--no-cache",
                    "--trace", str(trace_path),
                    "--watch", "--progress-interval", "0",
                ]
            ) == 0
        finally:
            watch_logger.handlers[:] = handlers
            watch_logger.setLevel(level)
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert any(e.get("event") == "progress" for e in events)

    def test_untraced_report_exports_the_runs_own_metrics(
        self, tmp_path, capsys, monkeypatch
    ):
        """Nothing is switched on: an untraced ``pipeline --report`` run
        writes its metrics, and the exported solver series equal the
        report's summed cost accounts, which read the same payloads."""
        import json

        from repro.cli import TRACE_ENV
        from repro.obs import NULL_TRACER, current_tracer

        monkeypatch.delenv(TRACE_ENV, raising=False)
        report_path = tmp_path / "rr.json"
        assert main(
            [
                "pipeline", "--scale", "0.002", "--bundle-size", "4",
                "--scenarios", "2", "--no-cache",
                "--report", str(report_path),
            ]
        ) == 0
        assert current_tracer() is NULL_TRACER
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["spans"] == {}
        assert report["metrics"]["sat.solver_calls"]["value"] > 0

        assert main(["export-metrics", str(report_path)]) == 0
        samples = dict(
            line.rsplit(" ", 1)
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")
        )
        cost = report["cost"]
        assert float(samples["repro_sat_conflicts_total"]) == sum(
            e["conflicts"] for e in cost
        )
        assert float(samples["repro_ase_num_clauses_sum"]) == sum(
            e["clauses_added"] for e in cost
        ) > 0

    def test_command_owns_one_tracer_and_closes_it(
        self, tmp_path, capsys, monkeypatch
    ):
        """``pipeline --trace`` takes precedence over ``REPRO_TRACE``: the
        env file is never created.  The command runs under the one tracer
        main opened, and once main returns, normally or by an exception,
        that tracer is closed and none is current."""
        import json

        from repro.cli import TRACE_ENV
        from repro.obs import NULL_TRACER, JsonlTracer, current_tracer
        from repro.pipeline import AnalysisPipeline

        env_path = tmp_path / "a.jsonl"
        flag_path = tmp_path / "b.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(env_path))
        seen = []
        run = AnalysisPipeline.run

        def recording_run(self, bundles):
            seen.append(current_tracer())
            return run(self, bundles)

        monkeypatch.setattr(AnalysisPipeline, "run", recording_run)
        argv = [
            "pipeline", "--scale", "0.002", "--bundle-size", "4",
            "--scenarios", "2", "--no-cache", "--trace", str(flag_path),
        ]
        assert main(argv) == 0
        assert not env_path.exists()
        (tracer,) = seen
        assert isinstance(tracer, JsonlTracer)
        assert tracer.path == str(flag_path)
        assert tracer._fd == -1
        assert current_tracer() is NULL_TRACER
        spans = [
            json.loads(line)
            for line in flag_path.read_text().splitlines()
        ]
        assert any(s.get("name") == "pipeline.run" for s in spans)

        def failing_run(self, bundles):
            seen.append(current_tracer())
            raise RuntimeError("boom")

        monkeypatch.setattr(AnalysisPipeline, "run", failing_run)
        with pytest.raises(RuntimeError, match="boom"):
            main(argv)
        (tracer,) = seen[1:]
        assert tracer.path == str(flag_path)
        assert tracer._fd == -1
        assert current_tracer() is NULL_TRACER
        assert not env_path.exists()
        capsys.readouterr()

    def test_trace_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", str(missing)]) != 0
        assert "no such" in capsys.readouterr().err.lower()


class TestTop:
    def test_top_once_renders_device_table_and_costs(self, capsys):
        from repro.benchsuite.running_example import build_app1
        from repro.core import serialize
        from repro.service import (
            PolicyService,
            ServerConfig,
            ServiceClient,
            SessionConfig,
        )
        from repro.statics import extract_app

        service = PolicyService(
            ServerConfig(session=SessionConfig(scenarios_per_signature=2))
        )
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                app = extract_app(build_app1())
                client.install("cli-dev", serialize.app_to_dict(app))
            assert main(
                ["top", "--once", "--host", host, "--port", str(port)]
            ) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "cli-dev" in out
        assert "top cost accounts" in out

    def test_top_unreachable_service_exits_one(self, capsys):
        assert main(["top", "--once", "--host", "127.0.0.1", "--port", "1"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestPipelineFaultHandling:
    def test_degraded_run_exits_zero_unless_strict(self, capsys):
        # The default scale (0.01) is the smallest corpus whose synthesis
        # actually reaches the SAT solver; smaller ones are trivially
        # unsat and have no budget to exhaust.
        argv = [
            "pipeline", "--scale", "0.01", "--scenarios", "2",
            "--no-cache", "--conflict-budget", "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "degraded:" in out
        assert "budget_exhausted" in out
        assert main(argv + ["--strict"]) == 2

    def test_failed_tasks_reported_and_strict_exits_three(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_FAULT", "synthesis:error:1.0")
        report_path = tmp_path / "report.json"
        try:
            assert main(
                [
                    "pipeline", "--scale", "0.002", "--bundle-size", "4",
                    "--scenarios", "2", "--no-cache",
                    "--task-retries", "0", "--report", str(report_path),
                ]
            ) == 0
            out = capsys.readouterr().out
            assert "failures:" in out
            assert "[error]" in out

            import json

            report = json.loads(report_path.read_text())
            assert report["failures"]
            assert all(
                f["kind"] == "error" for f in report["failures"]
            )

            assert main(
                [
                    "pipeline", "--scale", "0.002", "--bundle-size", "4",
                    "--scenarios", "2", "--no-cache",
                    "--task-retries", "0", "--strict",
                ]
            ) == 3
        finally:
            import os

            os.environ.pop("REPRO_FAULT_PARENT", None)
