"""Content-addressed persistent cache for extraction and synthesis results.

Keys are SHA-256 digests over *canonical JSON* of everything the cached
computation depends on: the app/bundle content, the engine parameters, the
vulnerability signature, and a fingerprint of the analysis code itself
(framework meta-model, translator, solver).  Any change to the inputs or
to the analysis semantics therefore changes the key and the stale entry is
simply never addressed again.  An entry that is not a current-version
envelope -- an older format version, or valid JSON of another shape -- is
discarded and counted as an invalidation.

Canonical JSON matters: ``frozenset`` iteration order varies across
interpreter runs under hash randomization, so every set is sorted (by its
members' canonical encodings) before hashing.  :func:`canonical_json`
writes the encoding in one pass over the object tree, appending compact
fragments to one list; its bytes equal those of every earlier build, so
caches filled before stay addressable (``TestKeyStability`` in
``tests/pipeline/test_cache.py`` pins them).
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
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.pipeline.stats import CacheAccounting

#: Bump to invalidate every persisted entry (envelope format change).
CACHE_FORMAT_VERSION = 1

#: Environment variable consulted for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


_INFINITY = float("inf")

#: Key types of a dict that encodes as a plain JSON object.
_STR_ONLY = frozenset({str})

_Plan = Tuple[str, Tuple[Tuple[str, str], ...]]
_Append = Callable[[str], None]

#: Dataclass class -> its plan: the ``{"__dataclass__":...,"fields":{``
#: head, then each field name (sorted) with its encoded ``"name":``
#: prefix.  A memo of a pure function of the class, bounded by the number
#: of dataclass types; never keyed per instance.
_DATACLASS_PLANS: Dict[type, _Plan] = {}


def _dataclass_plan(cls: type) -> _Plan:
    names = sorted(f.name for f in dataclasses.fields(cls))
    head = '{"__dataclass__":' + _encode_str(cls.__name__) + ',"fields":{'
    fields = tuple(
        (name, ("," if i else "") + _encode_str(name) + ":")
        for i, name in enumerate(names)
    )
    return head, fields


def _encode_float(obj: float) -> str:
    # ``json.dumps`` spelling: repr, or its non-finite literals.
    if obj != obj:
        return "NaN"
    if obj == _INFINITY:
        return "Infinity"
    if obj == -_INFINITY:
        return "-Infinity"
    return float.__repr__(obj)


def _encode_sequence(obj: Any, append: _Append) -> None:
    sep = "["  # becomes "," once the first item is out
    for item in obj:
        if type(item) is str:
            append(sep + _encode_str(item))
        else:
            append(sep)
            _encode(item, append)
        sep = ","
    append("]" if sep == "," else "[]")


def _encode_set(obj: Any, append: _Append) -> None:
    # Members in the order of their encodings.  Sorting compact encodings
    # orders exactly as sorting ``json.dumps`` output with its default
    # ", " and ": " separators: the structural space never decides a
    # comparison.
    append("[" + ",".join(sorted(map(canonical_json, obj))) + "]")


def _encode_mapping(obj: Dict[Any, Any], append: _Append) -> None:
    # Plain form only when every key is a genuine str: stringifying other
    # key types would collide 1 with "1" (and True with "True"), letting
    # two different inputs share one cache key.  Other dicts get a pair
    # list ordered by each key's encoding (stable on ties), which keeps
    # every key's type.
    if _STR_ONLY.issuperset(map(type, obj)):
        sep = "{"
        for key, value in sorted(obj.items()):
            append(sep + _encode_str(key) + ":")
            sep = ","
            _encode(value, append)
        append("}" if sep == "," else "{}")
        return
    pairs = sorted(
        ((canonical_json(k), v) for k, v in obj.items()),
        key=itemgetter(0),
    )
    append('{"__map__":[')
    sep = "["
    for key, value in pairs:
        append(sep + key + ",")
        sep = ",["
        _encode(value, append)
        append("]")
    append("]}")


def _encode(obj: Any, append: _Append) -> None:
    """Append the canonical JSON of ``obj`` as fragments.

    Exact builtin types and dataclasses with a plan take the fast paths.
    Anything else is classified by ``isinstance`` in the order the
    encoding is defined in -- dataclass, enum, set, dict, list or tuple,
    primitive -- so subclasses (``OrderedDict``, ``str``-mixin enums)
    encode as their base form dictates.
    """
    cls = type(obj)
    if cls is str:
        append(_encode_str(obj))
    elif obj is None:
        append("null")
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif cls is int:
        append(int.__repr__(obj))
    elif cls is float:
        append(_encode_float(obj))
    elif cls is list or cls is tuple:
        _encode_sequence(obj, append)
    elif cls is dict:
        _encode_mapping(obj, append)
    elif cls is frozenset or cls is set:
        _encode_set(obj, append)
    else:
        plan = _DATACLASS_PLANS.get(cls)
        if plan is None:
            if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
                _encode_by_isinstance(obj, append)
                return
            plan = _DATACLASS_PLANS[cls] = _dataclass_plan(cls)
        head, fields = plan
        append(head)
        for name, prefix in fields:
            value = getattr(obj, name)
            if type(value) is str:
                append(prefix + _encode_str(value))
            else:
                append(prefix)
                _encode(value, append)
        append("}}")


def _encode_by_isinstance(obj: Any, append: _Append) -> None:
    if isinstance(obj, enum.Enum):
        append(
            '{"__enum__":' + _encode_str(type(obj).__name__)
            + ',"name":' + _encode_str(obj.name) + "}"
        )
    elif isinstance(obj, (set, frozenset)):
        _encode_set(obj, append)
    elif isinstance(obj, dict):
        _encode_mapping(obj, append)
    elif isinstance(obj, (list, tuple)):
        _encode_sequence(obj, append)
    elif isinstance(obj, str):
        append(_encode_str(obj))
    elif isinstance(obj, int):  # never a bool: ``_encode`` wrote those
        append(int.__repr__(obj))
    elif isinstance(obj, float):
        append(_encode_float(obj))
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic compact JSON of an object tree, built in one pass.

    Dataclasses encode as ``{"__dataclass__":<class name>,"fields":{...}}``,
    enums as ``{"__enum__":<class name>,"name":<member>}``, sets and
    frozensets as lists sorted by member encoding, dicts with only ``str``
    keys as objects with sorted keys, other dicts as
    ``{"__map__":[[key,value],...]}`` ordered by key encoding, and tuples
    as lists; strings are ASCII-escaped and floats use ``json.dumps``
    spelling.  The bytes equal ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` over the equivalent tree of plain data, so
    keys match every cache an earlier build filled.
    """
    if type(obj) is str:  # most set members and map keys
        return _encode_str(obj)
    parts: List[str] = []
    _encode(obj, parts.append)
    return "".join(parts)


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
    format-version envelope, ``{"version": ..., "payload": {...}}``.  A
    version mismatch, or a file that parses as JSON but is not such an
    envelope, counts as an invalidation (the file is removed) plus a miss;
    a file that cannot be read or parsed is a plain miss.
    """

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.accounting = CacheAccounting()

    def _path(self, namespace: str, key: str) -> pathlib.Path:
        return self.root / namespace / key[:2] / f"{key}.json"

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(namespace, key)
        try:
            envelope = json.loads(path.read_text())
        except (OSError, ValueError):
            self.accounting.record_miss(namespace)
            return None
        if not (
            isinstance(envelope, dict)
            and envelope.get("version") == CACHE_FORMAT_VERSION
            and isinstance(envelope.get("payload"), dict)
        ):
            # A stale format version, or valid JSON that is no envelope.
            self.accounting.record_invalidation(namespace)
            self.accounting.record_miss(namespace)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.accounting.record_hit(namespace)
        return envelope["payload"]

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        # Degraded (budget-exhausted) payloads are partial results: caching
        # one would freeze the degradation -- a later run with more budget
        # could never improve on it.  Refuse the write and count it.
        if isinstance(payload, dict) and payload.get("incomplete"):
            self.accounting.record_rejection(namespace)
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
        with self._lock:
            bucket = self._entries.get(namespace)
            text = bucket.get(key) if bucket is not None else None
            if text is not None:
                bucket.move_to_end(key)
        if text is None:
            self.accounting.record_miss(namespace)
            return None
        self.accounting.record_hit(namespace)
        return json.loads(text)

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        if isinstance(payload, dict) and payload.get("incomplete"):
            self.accounting.record_rejection(namespace)
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
        return None

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        pass

    def clear(self) -> int:
        return 0
