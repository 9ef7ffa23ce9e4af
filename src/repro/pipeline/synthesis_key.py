"""Synthesis cache entries: how they are keyed and what they hold.

:class:`~repro.pipeline.executor.AnalysisPipeline` and the service's
:class:`~repro.service.session.DeviceSession` both address synthesis
results through this module, so an entry either one writes answers the
other.  A key covers the bundle's app content, the signatures enumerated,
the engine parameters that shape results and the framework fingerprint;
the payload is the result in its canonical serialized form.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core import serialize
from repro.core.synthesis import SynthesisResult, SynthesisStats
from repro.pipeline.cache import content_hash, framework_fingerprint


def app_content_key(app_dict: Dict[str, Any]) -> str:
    """Hash of an app's *analysis-relevant* content.

    ``extraction_seconds`` is a wall-clock measurement that changes on
    every fresh extraction; hashing it would give re-extracted apps new
    synthesis keys and spuriously miss otherwise-valid cache entries.
    """
    return content_hash(
        {k: v for k, v in app_dict.items() if k != "extraction_seconds"}
    )


def engine_params(
    scenarios_per_signature: int,
    minimal: bool,
    conflict_budget: Optional[int],
    time_budget_seconds: Optional[float],
) -> Dict[str, Any]:
    """The engine parameters that shape results, and so cache keys.

    The block doubles as the keyword arguments of
    :class:`~repro.core.synthesis.AnalysisAndSynthesisEngine`.
    """
    return {
        "scenarios_per_signature": scenarios_per_signature,
        "minimal": minimal,
        "conflict_budget": conflict_budget,
        "time_budget_seconds": time_budget_seconds,
    }


def synthesis_key(
    app_keys: Sequence[str],
    params: Dict[str, Any],
    signatures: Sequence[str],
    signature: Optional[str] = None,
) -> str:
    """Cache key of one synthesis task over apps with these content keys.

    A bundle task enumerates every one of ``signatures`` on the shared
    encoding.  A task of the per-signature reference path runs only
    ``signature``, and its key names that one; its entries are disjoint
    from bundle entries.
    """
    body: Dict[str, Any] = {
        "task": "synthesis",
        "apps": sorted(app_keys),
        "params": params,
        "fingerprint": framework_fingerprint(),
    }
    if signature is None:
        body["mode"] = "shared"
        body["signatures"] = list(signatures)
    else:
        body["signature"] = signature
    return content_hash(body)


def synthesis_payload(result: SynthesisResult) -> Dict[str, Any]:
    """A synthesis result as a cache payload.

    ``incomplete`` marks a budget-exhausted result, which caches refuse
    to store.
    """
    return {
        "scenarios": [serialize.scenario_to_dict(s) for s in result.scenarios],
        "stats": result.stats.to_dict(),
        "incomplete": bool(result.stats.exhausted),
    }


def synthesis_result(payloads: Iterable[Dict[str, Any]]) -> SynthesisResult:
    """The result of one bundle from its payloads, concatenated in order."""
    scenarios: List[Any] = []
    stats = SynthesisStats()
    for payload in payloads:
        scenarios.extend(
            serialize.scenario_from_dict(s) for s in payload["scenarios"]
        )
        stats.merge(SynthesisStats.from_dict(payload["stats"]))
    return SynthesisResult(scenarios=scenarios, stats=stats)
