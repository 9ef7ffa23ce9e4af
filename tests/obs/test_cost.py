"""Cost ledger: attribution accounts, totals, stats charging, and
thread safety."""

import threading

import pytest

from repro.obs import COST_FIELDS, CostKey, CostLedger


def _key(trace="t1", **kwargs):
    return CostKey(trace_id=trace, **kwargs)


class TestCharging:
    def test_charge_accumulates_per_key(self):
        ledger = CostLedger()
        ledger.charge(_key(), conflicts=3, wall_seconds=0.5)
        ledger.charge(_key(), conflicts=2)
        ledger.charge(_key(bundle="b"), conflicts=10)
        (first, second) = ledger.entries()
        assert first["conflicts"] == 5 and first["wall_seconds"] == 0.5
        assert second["conflicts"] == 10 and second["bundle"] == "b"
        assert len(ledger) == 2

    def test_unknown_field_raises(self):
        ledger = CostLedger()
        with pytest.raises(KeyError):
            ledger.charge(_key(), confilcts=1)  # typo must not vanish

    def test_entries_carry_every_meter_and_the_key(self):
        ledger = CostLedger()
        ledger.charge(
            _key(device="phone", bundle="a,b", signature="collusion"),
            pdp_cache_hits=4,
        )
        (entry,) = ledger.entries()
        for field in COST_FIELDS:
            assert field in entry
        assert entry["trace_id"] == "t1"
        assert entry["device"] == "phone"
        assert entry["signature"] == "collusion"
        assert entry["pdp_cache_hits"] == 4

    def test_charge_stats_maps_solver_counters(self):
        ledger = CostLedger()
        ledger.charge_stats(
            _key(),
            {
                "conflicts": 7,
                "decisions": 20,
                "propagations": 100,
                "num_clauses": 50,
                "translations_avoided": 3,
                "construction_seconds": 0.25,
                "solving_seconds": 0.75,
            },
        )
        (entry,) = ledger.entries()
        assert entry["conflicts"] == 7
        assert entry["clauses_added"] == 50
        assert entry["translations_avoided"] == 3
        assert entry["wall_seconds"] == pytest.approx(1.0)


class TestTotals:
    def test_totals_sum_every_account(self):
        ledger = CostLedger()
        assert ledger.totals() == dict.fromkeys(COST_FIELDS, 0.0)
        ledger.charge(_key("t1", device="a"), conflicts=1)
        ledger.charge(_key("t2", device="b"), conflicts=2, cache_hits=1)
        totals = ledger.totals()
        assert totals["conflicts"] == 3
        assert totals["cache_hits"] == 1


class TestThreadSafety:
    def test_concurrent_charges_lose_nothing(self):
        ledger = CostLedger()
        per_thread = 500

        def work(i):
            for _ in range(per_thread):
                ledger.charge(_key(f"t{i % 2}"), conflicts=1)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.totals()["conflicts"] == 4 * per_thread
