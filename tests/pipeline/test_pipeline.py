"""End-to-end tests for the parallel, cached analysis pipeline.

The load-bearing properties: (1) the pipeline reproduces exactly what the
serial Separ facade computes; (2) parallel (jobs > 1) output is
byte-identical to serial; (3) cached reruns are identical to uncached
runs, report their hits, and spend measurably less wall time in the
synthesis stage."""

import json

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.core import serialize
from repro.core.detector import SeparDetector
from repro.core.separ import Separ
from repro.pipeline import AnalysisPipeline, PipelineCache, RunReport, executor
from repro.workloads import CorpusConfig, CorpusGenerator
from repro.workloads.bundles import partition_bundles


def _corpus_bundles(scale=0.005, bundle_size=7):
    apks = CorpusGenerator(CorpusConfig(scale=scale, seed=2016)).generate()
    return partition_bundles(apks, bundle_size=bundle_size, seed=2016)


def _findings_bytes(result):
    return json.dumps(result.findings_dict(), sort_keys=True).encode()


class TestEquivalenceWithSepar:
    def test_pipeline_matches_direct_analysis(self):
        apks = [build_app1(), build_app2()]
        direct = Separ(scenarios_per_signature=4).analyze_apks(apks)
        piped = AnalysisPipeline(jobs=1, scenarios_per_signature=4).run(
            [apks]
        ).reports[0]

        direct_scenarios = [
            serialize.scenario_to_dict(s) for s in direct.scenarios
        ]
        piped_scenarios = [
            serialize.scenario_to_dict(s) for s in piped.scenarios
        ]
        assert direct_scenarios == piped_scenarios
        assert [serialize.policy_to_dict(p) for p in direct.policies] == [
            serialize.policy_to_dict(p) for p in piped.policies
        ]
        assert direct.detection.to_dict() == piped.detection.to_dict()
        # Solver work is reproduced exactly, not just the findings.
        assert direct.stats.conflicts == piped.stats.conflicts
        assert direct.stats.decisions == piped.stats.decisions
        assert direct.stats.solver_calls == piped.stats.solver_calls


class TestSerialParallelIdentical:
    def test_byte_identical_findings(self):
        bundles = _corpus_bundles()
        serial = AnalysisPipeline(jobs=1, scenarios_per_signature=3).run(
            bundles
        )
        parallel = AnalysisPipeline(jobs=3, scenarios_per_signature=3).run(
            bundles
        )
        assert _findings_bytes(serial) == _findings_bytes(parallel)
        assert parallel.run_report.jobs == 3


class TestDispatchOrder:
    """Synthesis is dispatched largest bundle first, by detector findings
    (2, 4 and 6 for these bundles); only the dispatch order moves."""

    BUNDLES = (
        (build_app2,),
        (build_app1,),
        (build_app1, build_app2),
    )

    def _run(self, monkeypatch, by_findings):
        dispatched, detected = [], []
        worker = executor._shared_synthesis_worker
        detect = SeparDetector.detect

        def recording_worker(task):
            dispatched.append(sorted(a["package"] for a in task["apps"]))
            return worker(task)

        def counting_detect(self, bundle):
            detected.append(sorted(a.package for a in bundle.apps))
            return detect(self, bundle)

        bundles = [[build() for build in bundle] for bundle in self.BUNDLES]
        with monkeypatch.context() as patch:
            patch.setattr(executor, "_shared_synthesis_worker", recording_worker)
            patch.setattr(SeparDetector, "detect", counting_detect)
            if not by_findings:
                # Every bundle ties, so ties decide: index order.
                patch.setattr(executor, "_finding_count", lambda detection: 0)
            result = AnalysisPipeline(jobs=1, scenarios_per_signature=2).run(
                bundles
            )
        packages = [sorted(a.package for a in b) for b in bundles]
        assert sorted(detected) == sorted(packages)
        return result, dispatched, packages

    @staticmethod
    def _report_view(result):
        report = result.run_report
        cost = [
            {k: v for k, v in entry.items() if k not in ("trace_id", "wall_seconds")}
            for entry in report.cost
        ]
        counters = {
            name: metric["value"]
            for name, metric in report.metrics.items()
            if metric["type"] == "counter"
        }
        return cost, report.per_bundle, counters, _findings_bytes(result)

    def test_largest_first_and_the_report_stays_in_bundle_order(
        self, monkeypatch
    ):
        largest, dispatched, packages = self._run(monkeypatch, True)
        assert dispatched == packages[::-1]
        indexed, dispatched, packages = self._run(monkeypatch, False)
        assert dispatched == packages
        assert self._report_view(largest) == self._report_view(indexed)


class TestCaching:
    def test_warm_run_identical_and_faster(self, tmp_path):
        bundles = _corpus_bundles()
        uncached = AnalysisPipeline(jobs=1, scenarios_per_signature=3).run(
            bundles
        )
        cold = AnalysisPipeline(
            jobs=1,
            cache=PipelineCache(tmp_path),
            scenarios_per_signature=3,
        ).run(bundles)
        warm = AnalysisPipeline(
            jobs=1,
            cache=PipelineCache(tmp_path),
            scenarios_per_signature=3,
        ).run(bundles)

        # Cached results == uncached results, byte for byte.
        assert _findings_bytes(uncached) == _findings_bytes(cold)
        assert _findings_bytes(cold) == _findings_bytes(warm)

        assert cold.run_report.cache.total_hits == 0
        assert cold.run_report.cache.total_misses > 0
        assert warm.run_report.cache.total_misses == 0
        assert warm.run_report.cache.total_hits == (
            cold.run_report.cache.total_misses
        )
        # The warm synthesis stage skips SAT entirely.
        cold_synth = cold.run_report.stage("synthesis").seconds
        warm_synth = warm.run_report.stage("synthesis").seconds
        assert warm_synth < cold_synth

    def test_engine_params_partition_the_cache(self, tmp_path):
        apks = [build_app1(), build_app2()]
        AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path), scenarios_per_signature=2
        ).run([apks])
        other = AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path), scenarios_per_signature=3
        ).run([apks])
        # Different engine parameters must never reuse synthesis entries;
        # extraction is parameter-independent, so it may (and should) hit.
        assert other.run_report.cache.hits.get("synthesis", 0) == 0
        assert other.run_report.cache.misses.get("synthesis", 0) > 0
        assert other.run_report.cache.hits.get("extract", 0) == 2

    def test_synthesis_key_ignores_extraction_timing(self, tmp_path):
        """Re-extracting an app changes its wall-clock extraction_seconds
        but not its content; the synthesis cache must still hit."""
        from repro.statics import extract_bundle

        apks = [build_app1(), build_app2()]
        AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path)
        ).analyze_bundles([extract_bundle(apks)])
        warm = AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path)
        ).analyze_bundles([extract_bundle(apks)])
        assert warm.run_report.cache.misses.get("synthesis", 0) == 0
        assert warm.run_report.cache.hits.get("synthesis", 0) > 0

    def test_changed_app_misses(self, tmp_path):
        AnalysisPipeline(jobs=1, cache=PipelineCache(tmp_path)).run(
            [[build_app1(), build_app2()]]
        )
        changed = AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path)
        ).run([[build_app1()]])
        assert changed.run_report.cache.misses.get("synthesis", 0) > 0


class TestRunReport:
    def test_report_shape_and_roundtrip(self):
        bundles = _corpus_bundles()
        result = AnalysisPipeline(jobs=1, scenarios_per_signature=2).run(
            bundles
        )
        report = result.run_report
        assert report.num_apps == sum(len(b) for b in bundles)
        assert report.num_bundles == len(bundles)
        assert {t.name for t in report.stages} == {
            "extract",
            "synthesis",
            "assemble",
        }
        assert report.total_seconds > 0
        assert len(report.per_bundle) == len(bundles)

        restored = RunReport.loads(report.dumps())
        assert restored.to_dict() == report.to_dict()

    def test_solver_counters_populated(self):
        result = AnalysisPipeline(jobs=1, scenarios_per_signature=4).run(
            [[build_app1(), build_app2()]]
        )
        solver = result.run_report.solver
        assert solver.solver_calls > 0
        assert solver.decisions > 0
        assert solver.num_vars > 0


class TestSerializationRoundtrip:
    def test_scenarios_and_policies_lossless(self):
        report = Separ(scenarios_per_signature=4).analyze_apks(
            [build_app1(), build_app2()]
        )
        assert report.scenarios
        for scenario in report.scenarios:
            data = json.loads(
                json.dumps(serialize.scenario_to_dict(scenario))
            )
            restored = serialize.scenario_from_dict(data)
            assert restored == scenario
        assert report.policies
        for policy in report.policies:
            data = json.loads(json.dumps(serialize.policy_to_dict(policy)))
            assert serialize.policy_from_dict(data) == policy
        detection = report.detection
        restored = type(detection).from_dict(
            json.loads(json.dumps(detection.to_dict()))
        )
        assert restored.findings == detection.findings
        assert restored.leak_pairs == detection.leak_pairs


class TestCli:
    def test_pipeline_subcommand_smoke(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        findings_path = tmp_path / "findings.json"
        assert main(
            [
                "pipeline",
                "--scale", "0.005",
                "--bundle-size", "7",
                "--scenarios", "2",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--report", str(report_path),
                "--findings", str(findings_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "solver:" in out
        report = RunReport.loads(report_path.read_text())
        assert report.jobs == 2
        assert report.num_bundles > 0
        findings = json.loads(findings_path.read_text())
        assert len(findings["bundles"]) == report.num_bundles


def test_pipeline_rejects_zero_scenarios():
    """Checked at construction: the engine is only built inside synthesis
    tasks, after extraction, where the error would fail every bundle."""
    with pytest.raises(ValueError, match="at least 1"):
        AnalysisPipeline(scenarios_per_signature=0)
