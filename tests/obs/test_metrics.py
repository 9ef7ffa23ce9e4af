"""The metrics registry: instruments, bucketed histograms, snapshots,
and ownership (no process-global registry)."""

import json
import threading

import pytest

import repro.obs
import repro.obs.metrics
from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter(self, registry):
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5

    def test_gauge_last_write_wins(self, registry):
        registry.gauge("g").set(3.0)
        registry.gauge("g").set(1.5)
        assert registry.gauge("g").value == 1.5

    def test_histogram_summary(self, registry):
        for v in (2.0, 8.0, 5.0):
            registry.histogram("h").observe(v)
        h = registry.histogram("h")
        assert (h.count, h.total, h.min, h.max, h.mean) == (3, 15.0, 2.0, 8.0, 5.0)

    def test_same_name_same_instrument(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_snapshot_is_sorted_and_json_ready(self, registry):
        registry.counter("z.count").inc()
        registry.gauge("a.level").set(2.0)
        registry.histogram("m.sizes").observe(7)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must not raise
        assert snap["z.count"] == {"type": "counter", "value": 1}
        assert snap["m.sizes"]["mean"] == 7

    def test_concurrent_first_use_shares_one_instrument(self, registry):
        """Threads racing to create the same name all get one instrument
        (creation is locked), so no thread counts into a lost copy."""
        threads = 8
        barrier = threading.Barrier(threads)
        seen = []

        def first_use():
            barrier.wait()
            seen.append(registry.counter("raced"))

        workers = [threading.Thread(target=first_use) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert len(seen) == threads
        assert all(instrument is seen[0] for instrument in seen)
        assert list(registry.snapshot()) == ["raced"]


class TestBucketedHistogram:
    def test_observe_le_semantics(self, registry):
        h = registry.histogram("h", bounds=[1.0, 10.0])
        for v in (0.5, 1.0, 5.0, 10.0, 100.0):
            h.observe(v)
        # le semantics: boundary values land in the bucket they bound.
        assert h.bucket_counts == [2, 2, 1]
        assert h.cumulative_buckets() == [
            (1.0, 2),
            (10.0, 4),
            (float("inf"), 5),
        ]

    def test_bounds_normalized(self, registry):
        h = registry.histogram("h", bounds=[10, 1, 1.0])
        assert h.bounds == (1.0, 10.0)

    def test_snapshot_keys_only_when_bucketed(self, registry):
        registry.histogram("plain").observe(1.0)
        registry.histogram("bucketed", bounds=[1.0]).observe(1.0)
        snap = registry.snapshot()
        assert "bounds" not in snap["plain"]
        assert "buckets" not in snap["plain"]
        assert snap["bucketed"]["bounds"] == [1.0]
        assert snap["bucketed"]["buckets"] == [1, 0]

    def test_rerequest_with_different_bounds_raises(self, registry):
        registry.histogram("h", bounds=[1.0, 2.0])
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=[1.0, 3.0])
        # Omitting bounds returns the existing instrument unchanged.
        assert registry.histogram("h").bounds == (1.0, 2.0)


class TestOwnership:
    def test_no_process_global_registry(self):
        """There is nothing to install or fetch: a registry is an object
        its owner creates, and it neither merges snapshots nor switches
        off."""
        for retired in ("get_metrics", "set_metrics", "enable_metrics",
                        "NULL_METRICS", "NullMetricsRegistry"):
            assert not hasattr(repro.obs, retired), retired
            assert not hasattr(repro.obs.metrics, retired), retired
        for retired in ("enabled", "merge", "reset"):
            assert not hasattr(MetricsRegistry, retired), retired

    def test_registries_count_independently(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("c").inc(2)
        first.histogram("h", bounds=[1.0]).observe(0.5)
        second.counter("c").inc()
        assert first.counter("c") is not second.counter("c")
        assert first.counter("c").value == 2
        assert second.counter("c").value == 1
        assert "h" not in second.snapshot()
