"""The metrics registry: instruments, snapshots, cross-process merging,
and the no-op registry's zero-cost guarantee."""

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    enable_metrics,
    get_metrics,
    set_metrics,
)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    previous = set_metrics(reg)
    yield reg
    set_metrics(previous)


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

    def test_reset_clears(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestMerge:
    def test_counters_add(self, registry):
        registry.counter("c").inc(2)
        other = MetricsRegistry()
        other.counter("c").inc(3)
        other.counter("new").inc()
        registry.merge(other.snapshot())
        assert registry.counter("c").value == 5
        assert registry.counter("new").value == 1

    def test_gauges_take_incoming(self, registry):
        registry.gauge("g").set(1.0)
        other = MetricsRegistry()
        other.gauge("g").set(9.0)
        registry.merge(other.snapshot())
        assert registry.gauge("g").value == 9.0

    def test_histograms_widen(self, registry):
        registry.histogram("h").observe(5.0)
        other = MetricsRegistry()
        other.histogram("h").observe(1.0)
        other.histogram("h").observe(10.0)
        registry.merge(other.snapshot())
        h = registry.histogram("h")
        assert (h.count, h.total, h.min, h.max) == (3, 16.0, 1.0, 10.0)

    def test_merge_into_empty_equals_source(self, registry):
        other = MetricsRegistry()
        other.counter("c").inc(2)
        other.histogram("h").observe(4.0)
        registry.merge(other.snapshot())
        assert registry.snapshot() == other.snapshot()


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


class TestBucketedMerge:
    def test_identical_bounds_add_elementwise(self, registry):
        registry.histogram("h", bounds=[1.0, 10.0]).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", bounds=[1.0, 10.0]).observe(5.0)
        other.histogram("h").observe(50.0)
        registry.merge(other.snapshot())
        h = registry.histogram("h")
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3

    def test_fresh_local_adopts_incoming_bounds(self, registry):
        """The worker-snapshot path: the parent has never seen the metric,
        so it must take the worker's buckets wholesale, not degrade them."""
        other = MetricsRegistry()
        other.histogram("h", bounds=[1.0, 2.0]).observe(1.5)
        registry.merge(other.snapshot())
        h = registry.histogram("h")
        assert h.bounds == (1.0, 2.0)
        assert h.bucket_counts == [0, 1, 0]

    def test_disjoint_bounds_widen_to_summary(self, registry):
        registry.histogram("h", bounds=[1.0]).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", bounds=[99.0]).observe(5.0)
        registry.merge(other.snapshot())
        h = registry.histogram("h")
        assert h.bounds == ()
        assert h.bucket_counts == []
        # The streaming summary survives the widening intact.
        assert (h.count, h.total, h.min, h.max) == (2, 5.5, 0.5, 5.0)

    def test_only_a_fresh_local_adopts_bounds(self, registry):
        """An unbucketed local histogram that has observations widens
        rather than adopting the incoming bounds, and a bucketed one
        widens when the incoming side has no bounds."""
        registry.histogram("observed").observe(0.5)
        registry.histogram("bucketed", bounds=[1.0]).observe(0.5)
        other = MetricsRegistry()
        other.histogram("observed", bounds=[1.0]).observe(2.0)
        other.histogram("bucketed").observe(2.0)
        registry.merge(other.snapshot())
        for name in ("observed", "bucketed"):
            h = registry.histogram(name)
            assert (h.bounds, h.bucket_counts) == ((), []), name
            assert (h.count, h.total, h.min, h.max) == (2, 2.5, 0.5, 2.0)

    def test_merge_never_raises_on_any_bounds_combination(self, registry):
        """Totality: merging any pairing of bucketed/unbucketed histograms
        must succeed and preserve count/sum."""
        combos = [(), (1.0,), (1.0, 2.0), (3.0,)]
        for i, mine in enumerate(combos):
            for j, theirs in enumerate(combos):
                name = f"h{i}_{j}"
                registry.histogram(name, bounds=mine or None).observe(1.0)
                other = MetricsRegistry()
                other.histogram(name, bounds=theirs or None).observe(2.0)
                registry.merge(other.snapshot())
                h = registry.histogram(name)
                assert (h.count, h.total) == (2, 3.0)
                if h.bounds:
                    assert sum(h.bucket_counts) == h.count


class TestDisabled:
    def test_null_registry_hands_out_shared_noop(self):
        reg = NullMetricsRegistry()
        c = reg.counter("a")
        assert c is reg.counter("b") is reg.gauge("g") is reg.histogram("h")
        c.inc(100)
        c.observe(5.0)
        c.set(3.0)
        assert c.value == 0 and c.count == 0
        assert reg.snapshot() == {}
        assert reg.enabled is False

    def test_null_merge_is_inert(self):
        reg = NullMetricsRegistry()
        reg.merge({"c": {"type": "counter", "value": 5}})
        assert reg.snapshot() == {}

    def test_enable_metrics_installs_without_touching_env(self):
        import os

        environ = dict(os.environ)
        previous = get_metrics()
        try:
            reg = enable_metrics()
            assert get_metrics() is reg
            assert reg.enabled
            assert dict(os.environ) == environ
        finally:
            set_metrics(previous)

    def test_default_is_null(self):
        assert isinstance(NULL_METRICS, NullMetricsRegistry)
