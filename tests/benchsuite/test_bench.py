"""The benchmark-regression harness: snapshot schema, write/load round
trip, direction-aware comparison (the injected-slowdown detection the CI
gate relies on), and the CLI exit codes."""

import copy
import json
import pathlib

import pytest

from repro.benchsuite.bench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    bench_filename,
    compare_bench,
    environment_fingerprint,
    known_workloads,
    load_bench,
    peak_rss_bytes,
    run_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def snapshot():
    """One real (tiny) bench run shared by the schema tests."""
    config = BenchConfig(
        label="unit",
        scale=0.0025,
        bundle_size=4,
        scenarios=2,
        quick=True,
    )
    return run_bench(config)


def _baseline():
    """A hand-built snapshot with values comfortably above noise floors."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": "base",
        "created": 0.0,
        "config": {},
        "environment": {},
        "peak_rss_bytes": 100 * 1024 * 1024,
        "workloads": {
            "pipeline_cold": {
                "num_apps": 20.0,
                "wall_seconds": 10.0,
                "solving_seconds": 2.0,
                "conflicts": 5000.0,
                "cache_hit_rate": 0.0,
            },
            "pipeline_warm": {
                "num_apps": 20.0,
                "wall_seconds": 1.0,
                "cache_hit_rate": 1.0,
            },
            "accuracy": {
                "cases": 33.0,
                "precision": 1.0,
                "recall": 0.95,
                "f_measure": 0.97,
                "total_seconds": 3.0,
            },
        },
    }


class TestSnapshot:
    def test_schema_fields(self, snapshot):
        assert snapshot["schema_version"] == BENCH_SCHEMA_VERSION
        assert snapshot["label"] == "unit"
        assert snapshot["config"]["quick"] is True
        env = snapshot["environment"]
        assert env["python"] and env["platform"]
        assert snapshot["peak_rss_bytes"] is None or snapshot["peak_rss_bytes"] > 0
        assert set(snapshot["workloads"]) == {
            "extraction",
            "pipeline_cold",
            "pipeline_warm",
            "accuracy",
            "accuracy_scaled",
            "enforcement",
            "service",
        }

    def test_workload_metrics(self, snapshot):
        extraction = snapshot["workloads"]["extraction"]
        assert extraction["apps"] >= 1
        assert extraction["total_seconds"] > 0
        assert extraction["p95_seconds"] >= extraction["mean_seconds"] * 0.5
        cold = snapshot["workloads"]["pipeline_cold"]
        warm = snapshot["workloads"]["pipeline_warm"]
        assert cold["cache_hit_rate"] == 0.0
        assert warm["cache_hit_rate"] == 1.0
        assert cold["solver_calls"] > 0
        accuracy = snapshot["workloads"]["accuracy"]
        assert 0.0 <= accuracy["precision"] <= 1.0
        assert accuracy["cases"] > 0
        enforcement = snapshot["workloads"]["enforcement"]
        assert enforcement["events"] > 0
        assert enforcement["linear_events_per_sec"] > 0
        assert enforcement["compiled_events_per_sec"] > 0
        assert 0.0 <= enforcement["cache_hit_rate"] <= 1.0
        assert enforcement["compiled_p99_us"] >= enforcement["compiled_p50_us"]
        service = snapshot["workloads"]["service"]
        assert service["queries"] > 0 and service["events"] > 0
        assert service["warm_seconds"] > 0 and service["cold_seconds"] > 0
        assert 0.0 <= service["warm_hit_rate"] <= 1.0
        assert service["socket_requests"] > 0
        assert service["request_p99_us"] >= service["request_p50_us"]
        # The workload itself raises on warm/cold divergence, so its
        # presence here implies the byte-identity assertion ran.
        assert service["warm_speedup"] > 0

    def test_write_load_round_trip(self, snapshot, tmp_path):
        path = write_bench(snapshot, str(tmp_path))
        assert path.endswith("BENCH_unit.json")
        assert load_bench(path) == json.loads(json.dumps(snapshot))

    def test_filename_sanitized(self):
        assert bench_filename("a/b c") == "BENCH_a_b_c.json"
        assert bench_filename("") == "BENCH_local.json"

    def test_environment_fingerprint_is_json_ready(self):
        json.dumps(environment_fingerprint())

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 1024 * 1024

    def test_checked_in_baseline_holds_the_default_workloads(self):
        """The CI baseline lists exactly the workloads a default run
        writes: a retired workload left in it would be a metric no run
        produces, and a new one would have nothing to compare against."""
        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "baselines"
            / "BENCH_ci-baseline.json"
        )
        baseline = load_bench(str(path))
        defaults = set(BenchConfig().workloads)
        assert set(baseline["workloads"]) == defaults
        assert defaults <= set(known_workloads())


class TestCompare:
    def test_identical_snapshots_ok(self):
        base = _baseline()
        comparison = compare_bench(base, copy.deepcopy(base))
        assert comparison.ok()
        assert comparison.regressions == []
        assert comparison.mismatches == []

    def test_injected_slowdown_detected(self):
        """The core regression-gate property: a synthetic 2x slowdown on
        one metric must fail the comparison."""
        base = _baseline()
        slow = copy.deepcopy(base)
        slow["workloads"]["pipeline_cold"]["wall_seconds"] *= 2.0
        comparison = compare_bench(base, slow, threshold=0.25)
        assert not comparison.ok()
        assert [r.metric for r in comparison.regressions] == ["wall_seconds"]
        assert comparison.regressions[0].workload == "pipeline_cold"
        assert comparison.regressions[0].change == pytest.approx(1.0)

    def test_speedup_is_improvement_not_regression(self):
        base = _baseline()
        fast = copy.deepcopy(base)
        fast["workloads"]["pipeline_cold"]["wall_seconds"] /= 2.0
        comparison = compare_bench(base, fast)
        assert comparison.ok()
        assert [r.metric for r in comparison.improvements] == ["wall_seconds"]

    def test_higher_better_drop_is_regression(self):
        base = _baseline()
        worse = copy.deepcopy(base)
        worse["workloads"]["accuracy"]["recall"] = 0.5
        worse["workloads"]["pipeline_warm"]["cache_hit_rate"] = 0.2
        comparison = compare_bench(base, worse)
        assert not comparison.ok()
        assert {(r.workload, r.metric) for r in comparison.regressions} == {
            ("accuracy", "recall"),
            ("pipeline_warm", "cache_hit_rate"),
        }

    def test_noise_floor_swallows_tiny_seconds(self):
        base = _baseline()
        base["workloads"]["pipeline_warm"]["wall_seconds"] = 0.004
        jitter = copy.deepcopy(base)
        jitter["workloads"]["pipeline_warm"]["wall_seconds"] = 0.012  # 3x!
        comparison = compare_bench(base, jitter)
        assert comparison.ok()

    def test_rss_growth_is_a_regression(self):
        base = _baseline()
        fat = copy.deepcopy(base)
        fat["peak_rss_bytes"] = base["peak_rss_bytes"] * 2
        comparison = compare_bench(base, fat)
        assert [r.metric for r in comparison.regressions] == ["peak_rss_bytes"]

    def test_identity_mismatch_not_a_regression(self):
        base = _baseline()
        other = copy.deepcopy(base)
        other["workloads"]["pipeline_cold"]["num_apps"] = 40.0
        comparison = compare_bench(base, other)
        assert comparison.regressions == []
        assert len(comparison.mismatches) == 1
        assert comparison.ok(strict=False)
        assert not comparison.ok(strict=True)

    def test_missing_metric_flagged(self):
        base = _baseline()
        narrower = copy.deepcopy(base)
        del narrower["workloads"]["accuracy"]
        del narrower["workloads"]["pipeline_cold"]["conflicts"]
        comparison = compare_bench(base, narrower)
        assert len(comparison.missing) == 2
        assert comparison.ok(strict=False)
        assert not comparison.ok(strict=True)

    def test_per_metric_threshold_override(self):
        base = _baseline()
        slower = copy.deepcopy(base)
        slower["workloads"]["pipeline_cold"]["wall_seconds"] *= 1.5
        assert not compare_bench(base, slower, threshold=0.25).ok()
        assert compare_bench(
            base, slower, thresholds={"wall_seconds": 1.0}
        ).ok()

    def test_schema_version_mismatch_raises(self):
        base = _baseline()
        alien = copy.deepcopy(base)
        alien["schema_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            compare_bench(base, alien)

    def test_suffix_threshold_covers_per_signature_metrics(self):
        """``recall=0.0`` must gate every ``<signature>_recall`` (the CI
        accuracy-smoke contract), exact keys winning over suffixes."""
        base = _baseline()
        base["workloads"]["accuracy_scaled"] = {
            "provider_leak_recall": 1.0,
            "recall": 1.0,
        }
        worse = copy.deepcopy(base)
        worse["workloads"]["accuracy_scaled"]["provider_leak_recall"] = 0.5
        assert compare_bench(base, worse, threshold=3.0).ok()
        gated = compare_bench(
            base, worse, threshold=3.0, thresholds={"recall": 0.0}
        )
        assert not gated.ok()
        assert any(
            delta.metric == "provider_leak_recall"
            for delta in gated.regressions
        )
        # An exact key beats the suffix fallback.
        lenient = compare_bench(
            base,
            worse,
            threshold=3.0,
            thresholds={"recall": 0.0, "provider_leak_recall": 1.0},
        )
        assert lenient.ok()

    def test_accuracy_suffix_metrics_are_direction_tagged(self):
        """A per-signature precision *drop* regresses; a rise improves."""
        base = _baseline()
        base["workloads"]["accuracy_scaled"] = {"app_collusion_precision": 0.5}
        better = copy.deepcopy(base)
        better["workloads"]["accuracy_scaled"]["app_collusion_precision"] = 1.0
        up = compare_bench(base, better, threshold=0.25)
        assert up.ok() and up.improvements
        down = compare_bench(better, base, threshold=0.25)
        assert not down.ok()


class TestCli:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        base = self._write(tmp_path, "old.json", _baseline())
        slow_data = _baseline()
        slow_data["workloads"]["pipeline_cold"]["wall_seconds"] *= 2
        slow = self._write(tmp_path, "new.json", slow_data)

        assert main(["bench", "--compare", base, base]) == 0
        assert main(["bench", "--compare", base, slow]) == 2
        assert main(["bench", "--compare", base, slow, "--warn-only"]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "wall_seconds" in out

    def test_compare_strict_fails_on_missing(self, tmp_path):
        from repro.cli import main

        base = self._write(tmp_path, "old.json", _baseline())
        narrower_data = _baseline()
        del narrower_data["workloads"]["accuracy"]
        narrower = self._write(tmp_path, "new.json", narrower_data)

        assert main(["bench", "--compare", base, narrower]) == 0
        assert main(["bench", "--compare", base, narrower, "--strict"]) == 2

    def test_compare_unreadable_file_exits_1(self, tmp_path):
        from repro.cli import main

        base = self._write(tmp_path, "old.json", _baseline())
        assert main(["bench", "--compare", base, str(tmp_path / "nope")]) == 1
