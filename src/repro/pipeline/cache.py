"""Content-addressed persistent cache for extraction and synthesis results.

Keys are SHA-256 digests over *canonical JSON* of everything the cached
computation depends on: the app/bundle content, the engine parameters, the
vulnerability signature, and a fingerprint of the analysis code itself
(framework meta-model, translator, solver).  Any change to the inputs or
to the analysis semantics therefore changes the key and the stale entry is
simply never addressed again; entries whose on-disk envelope predates the
current format version are discarded and counted as invalidations.

Canonical JSON matters: ``frozenset`` iteration order varies across
interpreter runs under hash randomization, so every set is sorted (by its
own canonical encoding) before hashing.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import importlib
import inspect
import json
import os
import pathlib
import tempfile
import threading
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.obs import get_metrics
from repro.pipeline.stats import CacheAccounting

#: Bump to invalidate every persisted entry (envelope format change).
CACHE_FORMAT_VERSION = 1

#: Environment variable consulted for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def canonical(obj: Any) -> Any:
    """Reduce an object tree to deterministic JSON-encodable data.

    Handles dataclasses, enums, sets/frozensets (sorted by their canonical
    encoding), mappings (sorted keys), and sequences.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if isinstance(obj, (set, frozenset)):
        return sorted(
            (canonical(item) for item in obj),
            key=lambda c: json.dumps(c, sort_keys=True),
        )
    if isinstance(obj, dict):
        # Plain form only when every key is a genuine str: stringifying
        # other key types would collide 1 with "1" (and True with "True"),
        # letting two different inputs share one cache key.  Mixed or
        # non-str keys get an explicit pair-list form that preserves each
        # key's canonical encoding (and therefore its type).
        if all(type(k) is str for k in obj):
            return {k: canonical(v) for k, v in sorted(obj.items())}
        return {
            "__map__": sorted(
                ([canonical(k), canonical(v)] for k, v in obj.items()),
                key=lambda kv: json.dumps(kv[0], sort_keys=True),
            )
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


#: Every module whose source can change a cached extraction or synthesis
#: result: the ``repro.*`` import closure of the extraction and synthesis
#: entry points (``repro.statics``, ``repro.core.synthesis``; instrumentation
#: in ``repro.obs`` excluded), which ``tests/pipeline/test_cache.py``
#: recomputes and checks against this list, plus the modules that define
#: the cached payloads.  Kept as a list because computing the closure at
#: run time costs far more than hashing it.
FINGERPRINT_MODULES = (
    "repro.android.apk",
    "repro.android.components",
    "repro.android.intents",
    "repro.android.manifest",
    "repro.android.permissions",
    "repro.android.resources",
    "repro.core.app_to_spec",
    "repro.core.framework_spec",
    "repro.core.icc_graph",
    "repro.core.model",
    "repro.core.serialize",
    "repro.core.synthesis",
    "repro.core.vulnerabilities",
    "repro.core.vulnerabilities.base",
    "repro.core.vulnerabilities.collusion",
    "repro.core.vulnerabilities.dynamic_receiver",
    "repro.core.vulnerabilities.escalation",
    "repro.core.vulnerabilities.hijack",
    "repro.core.vulnerabilities.launch",
    "repro.core.vulnerabilities.leak",
    "repro.core.vulnerabilities.provider_leak",
    "repro.core.vulnerabilities.redelegation",
    "repro.dex.instructions",
    "repro.dex.program",
    "repro.pipeline.synthesis_key",
    "repro.relational",
    "repro.relational.ast",
    "repro.relational.instance",
    "repro.relational.problem",
    "repro.relational.sigs",
    "repro.relational.translate",
    "repro.relational.universe",
    "repro.sat",
    "repro.sat.cnf",
    "repro.sat.fastsolver",
    "repro.sat.solver",
    "repro.sat.tseitin",
    "repro.statics",
    "repro.statics.callgraph",
    "repro.statics.cfg",
    "repro.statics.constprop",
    "repro.statics.extractor",
    "repro.statics.intent_extraction",
    "repro.statics.permission_extraction",
    "repro.statics.taint",
)


@lru_cache(maxsize=1)
def framework_fingerprint() -> str:
    """Digest of the analysis code a cached result depends on.

    Hashes the source of every module in :data:`FINGERPRINT_MODULES`:
    editing any of them changes every cache key, which is exactly the
    invalidation the correctness argument needs.
    """
    digest = hashlib.sha256()
    for name in FINGERPRINT_MODULES:
        module = importlib.import_module(name)
        digest.update(name.encode("utf-8"))
        try:
            digest.update(inspect.getsource(module).encode("utf-8"))
        except (OSError, TypeError):  # no source (frozen/zipped): name only
            pass
    return digest.hexdigest()


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-pipeline"


class PipelineCache:
    """A directory of JSON entries addressed by content hash.

    Layout: ``<root>/<namespace>/<hash[:2]>/<hash>.json``.  Entries carry a
    format-version envelope; a version mismatch counts as an invalidation
    (the file is removed) plus a miss.
    """

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.accounting = CacheAccounting()

    def _path(self, namespace: str, key: str) -> pathlib.Path:
        return self.root / namespace / key[:2] / f"{key}.json"

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(namespace, key)
        metrics = get_metrics()
        try:
            envelope = json.loads(path.read_text())
        except (OSError, ValueError):
            self.accounting.record_miss(namespace)
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.misses").inc()
            return None
        if envelope.get("version") != CACHE_FORMAT_VERSION:
            self.accounting.record_invalidation(namespace)
            self.accounting.record_miss(namespace)
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.invalidations").inc()
                metrics.counter(f"cache.{namespace}.misses").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.accounting.record_hit(namespace)
        if metrics.enabled:
            metrics.counter(f"cache.{namespace}.hits").inc()
        return envelope["payload"]

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        # Degraded (budget-exhausted) payloads are partial results: caching
        # one would freeze the degradation -- a later run with more budget
        # could never improve on it.  Refuse the write and count it.
        if isinstance(payload, dict) and payload.get("incomplete"):
            self.accounting.record_rejection(namespace)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.rejections").inc()
            return
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"version": CACHE_FORMAT_VERSION, "payload": payload}
        # Unique per-process/per-attempt tmp name in the entry's own
        # directory (same filesystem, so the final rename is atomic).  A
        # fixed tmp name would be shared by every concurrent writer of
        # this key: two pool workers could interleave truncate/write and
        # ``os.replace`` a torn file.  ``get`` only ever reads
        # ``<key>.json``, so a half-written tmp is never visible.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class MemoryCache(PipelineCache):
    """In-process content-addressed cache with the PipelineCache contract.

    Used by the long-running policy service (`repro serve`): warm session
    state must survive across requests without disk I/O on the hot path.
    Entries are kept per namespace in insertion order and evicted LRU once
    ``max_entries`` is exceeded (0 disables the bound).  Payloads are
    round-tripped through JSON on ``put`` so a cached result is exactly as
    isolated from caller mutation as a disk entry would be, and the same
    degraded-payload rejection applies.  Thread-safe: the service's worker
    threads share one instance.
    """

    def __init__(self, max_entries: int = 0) -> None:
        self.root = None  # type: ignore[assignment]
        self.accounting = CacheAccounting()
        self.max_entries = max_entries
        self._entries: Dict[str, "collections.OrderedDict[str, str]"] = {}
        self._lock = threading.Lock()

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        metrics = get_metrics()
        with self._lock:
            bucket = self._entries.get(namespace)
            text = bucket.get(key) if bucket is not None else None
            if text is not None:
                bucket.move_to_end(key)
        if text is None:
            self.accounting.record_miss(namespace)
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.misses").inc()
            return None
        self.accounting.record_hit(namespace)
        if metrics.enabled:
            metrics.counter(f"cache.{namespace}.hits").inc()
        return json.loads(text)

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        if isinstance(payload, dict) and payload.get("incomplete"):
            self.accounting.record_rejection(namespace)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.rejections").inc()
            return
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            bucket = self._entries.setdefault(
                namespace, collections.OrderedDict()
            )
            bucket[key] = text
            bucket.move_to_end(key)
            if self.max_entries > 0:
                while len(bucket) > self.max_entries:
                    bucket.popitem(last=False)

    def clear(self) -> int:
        with self._lock:
            removed = sum(len(bucket) for bucket in self._entries.values())
            self._entries.clear()
        return removed

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._entries.values())


class NullCache(PipelineCache):
    """Cache-shaped no-op for cacheless runs; still counts misses."""

    def __init__(self) -> None:  # no root directory at all
        self.root = None  # type: ignore[assignment]
        self.accounting = CacheAccounting()

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        self.accounting.record_miss(namespace)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(f"cache.{namespace}.misses").inc()
        return None

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        pass

    def clear(self) -> int:
        return 0
