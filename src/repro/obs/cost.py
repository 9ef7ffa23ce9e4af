"""Cost ledger: metered work attributed to who asked for it.

A run's metrics registry answers "how much work did this run do"; the
ledger answers "on whose behalf".  Both are booked from the same
per-task stats payloads.  Every charge lands on a
``(trace_id, device, bundle, signature)`` key, so a pipeline run's
bundles and signatures, or a served device, each have an auditable
account of the solver conflicts, propagations, decisions, clauses, cache
traffic, PDP cache hits, and wall-clock they consumed.

A ledger has exactly one owner, and there is no process-wide one:

- :meth:`repro.pipeline.AnalysisPipeline.run` charges a fresh ledger per
  run, next to the run's metrics registry, keyed
  ``(trace_id, bundle[, signature])``; its :meth:`entries` become the run
  report's ``cost`` list.
- Each :class:`repro.service.DeviceSession` charges one
  ``CostKey(device=...)`` account; a request's reply cost is what that
  account grew by while the request ran.

Charges are posted by the *orchestrator* (pipeline parent process,
service batch thread) from per-task stats payloads -- worker processes
never touch a ledger, so serial and pooled runs attribute identically and
nothing here can perturb analysis output or cache keys (see
``docs/OBSERVABILITY.md``: instrumentation never feeds cache keys).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Every meter the ledger tracks, in stable (rendering) order.
COST_FIELDS: Tuple[str, ...] = (
    "conflicts",
    "decisions",
    "propagations",
    "clauses_added",
    "translations_avoided",
    "cache_hits",
    "cache_misses",
    "pdp_cache_hits",
    "wall_seconds",
)

#: SynthesisStats field -> ledger field, for :meth:`CostLedger.charge_stats`.
_STATS_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("conflicts", "conflicts"),
    ("decisions", "decisions"),
    ("propagations", "propagations"),
    ("num_clauses", "clauses_added"),
    ("translations_avoided", "translations_avoided"),
)


@dataclass(frozen=True)
class CostKey:
    """Attribution coordinates for one account in the ledger.

    Empty strings mean "not applicable at this grain": a pipeline run has
    no device, an extraction task has no signature, a whole-bundle charge
    uses ``signature='*'`` when per-signature split is unavailable, and a
    device session's one account carries only its device.
    """

    trace_id: str = ""
    device: str = ""
    bundle: str = ""
    signature: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {
            "trace_id": self.trace_id,
            "device": self.device,
            "bundle": self.bundle,
            "signature": self.signature,
        }


class CostLedger:
    """Thread-safe accumulator of charges keyed by :class:`CostKey`.

    The lock matters for the service: the global ``status`` and the
    metrics scrape thread read a session's account while that device's
    batch thread charges it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # dict preserves insertion order: entries() lists charge order.
        self._entries: Dict[CostKey, Dict[str, float]] = {}

    def charge(self, key: CostKey, **amounts: float) -> None:
        """Add ``amounts`` (field=value) to ``key``'s account.

        Unknown fields raise: a typo'd meter name silently dropping
        charges would corrupt reconciliation invisibly.
        """
        for name in amounts:
            if name not in COST_FIELDS:
                raise KeyError(f"unknown cost field: {name!r}")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = dict.fromkeys(COST_FIELDS, 0.0)
            for name, value in amounts.items():
                entry[name] += float(value)

    def charge_stats(self, key: CostKey, stats: Dict[str, Any]) -> None:
        """Charge solver work from a ``SynthesisStats.to_dict()`` payload."""
        amounts = {
            ledger_field: float(stats.get(stats_field, 0) or 0)
            for stats_field, ledger_field in _STATS_FIELDS
        }
        amounts["wall_seconds"] = float(
            stats.get("construction_seconds", 0) or 0
        ) + float(stats.get("solving_seconds", 0) or 0)
        self.charge(key, **amounts)

    def entries(self) -> List[Dict[str, Any]]:
        """Every account as ``{**key, **meters}`` dicts, charge order."""
        with self._lock:
            return [
                {**key.to_dict(), **meters}
                for key, meters in self._entries.items()
            ]

    def totals(self) -> Dict[str, float]:
        """Sum of every meter over all accounts."""
        totals = dict.fromkeys(COST_FIELDS, 0.0)
        with self._lock:
            for meters in self._entries.values():
                for field in COST_FIELDS:
                    totals[field] += meters[field]
        return totals

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
