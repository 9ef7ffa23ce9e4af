"""Tests for the content-addressed pipeline cache."""

import ast
import collections
import dataclasses
import enum
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.benchsuite.running_example import build_app1, build_app2
from repro.core import serialize
from repro.pipeline import AnalysisPipeline
from repro.pipeline import cache as cache_mod
from repro.pipeline.cache import (
    NullCache,
    PipelineCache,
    canonical_json,
    content_hash,
    framework_fingerprint,
)
from repro.statics import extract_app
from repro.workloads import CorpusConfig, CorpusGenerator


def reference(obj):
    """The tree-building canonical form cache keys were first defined by.

    The oracle for :func:`canonical_json`, which must write exactly
    ``json.dumps(reference(obj), sort_keys=True, separators=(",", ":"))``
    for every input, so every key an earlier build derived stays valid.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: reference(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if isinstance(obj, (set, frozenset)):
        return sorted(
            (reference(item) for item in obj),
            key=lambda c: json.dumps(c, sort_keys=True),
        )
    if isinstance(obj, dict):
        if all(type(k) is str for k in obj):
            return {k: reference(v) for k, v in sorted(obj.items())}
        return {
            "__map__": sorted(
                ([reference(k), reference(v)] for k, v in obj.items()),
                key=lambda kv: json.dumps(kv[0], sort_keys=True),
            )
        }
    if isinstance(obj, (list, tuple)):
        return [reference(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def reference_json(obj):
    return json.dumps(reference(obj), sort_keys=True, separators=(",", ":"))


class Colour(enum.Enum):
    RED = 1
    GREEN = "g"


class Mode(str, enum.Enum):
    FAST = "fast"


class Level(enum.IntEnum):
    LOW = 1


@dataclasses.dataclass(frozen=True)
class Leaf:
    name: str
    weight: float
    tags: frozenset = frozenset()


@dataclasses.dataclass(frozen=True)
class Node:
    label: str
    children: tuple
    colour: Colour


def extract_key_body(apk, fingerprint):
    """The body ``AnalysisPipeline.extract_apps`` hashes into an APK's key."""
    return {
        "task": "extract",
        "apk": apk,
        "handle_dynamic_receivers": False,
        "fingerprint": fingerprint,
    }


def every_kind_tree():
    """One value of every kind the encoder handles.  Its sets hold "a",
    "a!" and "a b", which sort one way as text and another way encoded."""
    leaf = Leaf("caf\u00e9", 0.25, frozenset({"a", "a!", "a b"}))
    return {
        "text": [
            "plain",
            'quote"back\\slash',
            "tab\tnewline\n\x00\x1f",
            "caf\u00e9 \u2603 \U0001f600",
            "",
        ],
        "numbers": (
            0, -7, 2**70, 1.5, -0.0, 1e300,
            float("nan"), float("inf"), float("-inf"),
        ),
        "flags": [True, False, None],
        "set": frozenset({"a", "a!", "a b"}),
        "mutable_set": {"a", "a!", "a b", ""},
        "mixed_set": frozenset(
            {
                frozenset({1, 2}), frozenset({"x"}), (3, "y"), leaf,
                Colour.GREEN, -1, 2.5, None,
            }
        ),
        "map": {
            1: "int", "1": "str", False: "bool", 2.5: "float",
            None: "none", (1, 2): "tuple", frozenset({"k"}): "set",
            Colour.RED: "enum", "a!": 1, "a b": 2, "a": 3,
        },
        "enums": [Colour.RED, Colour.GREEN, Mode.FAST, Level.LOW],
        "ordered": collections.OrderedDict([("z", 1), ("a", [])]),
        "empty": [[], (), {}, frozenset(), set()],
        "node": Node(
            "root", (leaf, Node("child", (), Colour.GREEN)), Colour.RED
        ),
    }


class TestCanonical:
    def test_primitives_pass_through(self):
        assert canonical_json(3) == "3"
        assert canonical_json("x") == '"x"'
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"

    def test_sets_sorted(self):
        assert canonical_json(frozenset({"b", "a", "c"})) == '["a","b","c"]'

    def test_dict_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_dataclass_fields_covered(self):
        apk = build_app1()
        encoded = canonical_json(apk)
        assert apk.package in encoded
        assert '"__dataclass__":"Apk"' in encoded

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_hash_differs_on_content(self):
        assert content_hash(build_app1()) != content_hash(build_app2())

    def test_hash_stable_for_equal_content(self):
        assert content_hash(build_app1()) == content_hash(build_app1())

    def test_fingerprint_is_hex_digest(self):
        fp = framework_fingerprint()
        assert len(fp) == 64
        int(fp, 16)


_texts = st.text(max_size=6) | st.sampled_from(
    ["a", "a!", "a b", '"', "\\", "\x00\x1f", "\u00e9", "\U0001f600"]
)
_floats = st.floats(allow_nan=True, allow_infinity=True)
_colours = st.sampled_from(list(Colour))
_scalars = (
    st.none() | st.booleans() | st.integers() | _floats | _texts | _colours
)
#: Values a set can hold: scalars, tuples, frozensets, frozen dataclasses.
_hashables = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=3).map(tuple)
        | st.frozensets(inner, max_size=4)
        | st.builds(Leaf, _texts, _floats, st.frozensets(_texts, max_size=3))
        | st.builds(
            Node, _texts, st.lists(inner, max_size=3).map(tuple), _colours
        )
    ),
    max_leaves=8,
)
_values = st.recursive(
    _hashables,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_texts, inner, max_size=4)
        | st.dictionaries(
            st.integers() | st.booleans() | _floats, inner, max_size=4
        )
        | st.dictionaries(_texts | st.integers(), inner, max_size=4)
        | st.frozensets(_hashables, max_size=4)
        | st.builds(
            Node, _texts, st.lists(inner, max_size=3).map(tuple), _colours
        )
    ),
    max_leaves=20,
)


class TestCanonicalMatchesReference:
    """``canonical_json`` writes the reference tree's JSON byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_any_value(self, value):
        assert canonical_json(value) == reference_json(value)

    def test_every_kind_tree(self):
        assert canonical_json(every_kind_tree()) == reference_json(
            every_kind_tree()
        )

    @pytest.mark.parametrize("seed", [3, 2016])
    def test_corpus_keys_and_app_dicts(self, seed):
        fingerprint = framework_fingerprint()
        apks = CorpusGenerator(CorpusConfig(seed=seed, scale=0.01)).generate()
        assert apks
        for apk in apks:
            body = extract_key_body(apk, fingerprint)
            assert canonical_json(body) == reference_json(body)
            app_dict = serialize.app_to_dict(extract_app(apk))
            assert canonical_json(app_dict) == reference_json(app_dict)

    def test_subclasses_take_their_base_form(self):
        value = {
            "ordered": collections.OrderedDict([("b", 1), ("a", 2)]),
            "enums": [Mode.FAST, Level.LOW],
            "named": collections.namedtuple("Pair", "x y")(1, "y"),
            "str_enum_keys": {Mode.FAST: 1},
            "enum_keys": {Mode.FAST: 1, Level.LOW: 2},
        }
        assert canonical_json(value) == reference_json(value)

    def test_map_keys_encoding_alike_keep_insertion_order(self):
        # Distinct NaN keys both encode as NaN; the pair order is then
        # the dict's own, never decided by the values.
        value = {float("nan"): "b", float("nan"): "a"}
        assert canonical_json(value) == '{"__map__":[[NaN,"b"],[NaN,"a"]]}'
        assert canonical_json(value) == reference_json(value)


class TestKeyStability:
    """Golden digests, computed with the tree-building encoder before the
    one-pass one replaced it.  Every cache a user has filled stays
    addressable only while these hold."""

    FINGERPRINT = "0123456789abcdef" * 4

    def test_extract_key_body_digest(self):
        body = extract_key_body(build_app1(), self.FINGERPRINT)
        assert content_hash(body) == (
            "50550eed1fa0eb23dc74f96a68cd1d0b4601d8d244c623c2a151d34f7fe5f140"
        )

    def test_every_kind_tree_digest(self):
        assert content_hash(every_kind_tree()) == (
            "c5a1bb55142712e4d295a3af0fbd3bf6fe008dd749a02dfcb3ac9f96dd90610b"
        )


class TestPipelineCache:
    def test_miss_then_hit(self, tmp_path):
        cache = PipelineCache(tmp_path)
        assert cache.get("ns", "k" * 64) is None
        cache.put("ns", "k" * 64, {"value": 1})
        assert cache.get("ns", "k" * 64) == {"value": 1}
        assert cache.accounting.misses["ns"] == 1
        assert cache.accounting.hits["ns"] == 1

    def test_persists_across_instances(self, tmp_path):
        PipelineCache(tmp_path).put("ns", "a" * 64, {"x": [1, 2]})
        fresh = PipelineCache(tmp_path)
        assert fresh.get("ns", "a" * 64) == {"x": [1, 2]}

    def test_stale_version_invalidated(self, tmp_path):
        cache = PipelineCache(tmp_path)
        key = "b" * 64
        cache.put("ns", key, {"x": 1})
        path = cache._path("ns", key)
        envelope = json.loads(path.read_text())
        envelope["version"] = cache_mod.CACHE_FORMAT_VERSION - 1
        path.write_text(json.dumps(envelope))
        assert cache.get("ns", key) is None
        assert cache.accounting.invalidations["ns"] == 1
        assert cache.accounting.misses["ns"] == 1
        assert not path.exists()  # stale entry removed

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = PipelineCache(tmp_path)
        key = "c" * 64
        path = cache._path("ns", key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get("ns", key) is None
        assert cache.accounting.misses["ns"] == 1

    @pytest.mark.parametrize(
        "body",
        [
            "[]",
            '"x"',
            "3",
            "null",
            json.dumps({"version": cache_mod.CACHE_FORMAT_VERSION}),
            json.dumps(
                {"version": cache_mod.CACHE_FORMAT_VERSION, "payload": []}
            ),
        ],
    )
    def test_non_envelope_entry_invalidated(self, tmp_path, body):
        # Regression: valid JSON that is no envelope raised AttributeError
        # or KeyError, or came back as a payload the caller choked on.
        cache = PipelineCache(tmp_path)
        key = "c" * 64
        path = cache._path("ns", key)
        path.parent.mkdir(parents=True)
        path.write_text(body)
        assert cache.get("ns", key) is None
        assert cache.accounting.invalidations["ns"] == 1
        assert cache.accounting.misses["ns"] == 1
        assert not path.exists()

    def test_non_envelope_extract_entry_does_not_abort_a_run(self, tmp_path):
        apks = [build_app1(), build_app2()]
        cache = PipelineCache(tmp_path)
        key = content_hash(extract_key_body(apks[0], framework_fingerprint()))
        path = cache._path("extract", key)
        path.parent.mkdir(parents=True)
        path.write_text("[]")
        result = AnalysisPipeline(
            jobs=1, cache=cache, scenarios_per_signature=2
        ).run([apks])
        uncached = AnalysisPipeline(
            jobs=1, cache=NullCache(), scenarios_per_signature=2
        ).run([apks])
        assert cache.accounting.invalidations["extract"] == 1
        assert json.dumps(result.findings_dict(), sort_keys=True) == (
            json.dumps(uncached.findings_dict(), sort_keys=True)
        )

    def test_clear_removes_entries(self, tmp_path):
        cache = PipelineCache(tmp_path)
        cache.put("ns", "d" * 64, {"x": 1})
        cache.put("other", "e" * 64, {"y": 2})
        assert cache.clear() == 2
        assert cache.get("ns", "d" * 64) is None

    def test_env_var_controls_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(tmp_path / "env"))
        assert cache_mod.default_cache_dir() == tmp_path / "env"


class TestNullCache:
    def test_never_stores(self):
        cache = NullCache()
        cache.put("ns", "f" * 64, {"x": 1})
        assert cache.get("ns", "f" * 64) is None
        assert cache.accounting.misses["ns"] == 1
        assert cache.clear() == 0


class TestCanonicalKeyTypes:
    """Regression: dict keys used to be stringified (``str(k)``), so the
    distinct inputs ``{1: v}`` and ``{"1": v}`` collided onto one cache
    key -- two different computations sharing one entry."""

    def test_int_and_str_keys_do_not_collide(self):
        assert content_hash({1: "a"}) != content_hash({"1": "a"})

    def test_bool_and_str_keys_do_not_collide(self):
        assert content_hash({True: "a"}) != content_hash({"True": "a"})

    def test_bool_and_int_keys_do_not_collide(self):
        # bool is an int subclass; type identity must still separate them.
        assert content_hash({True: "a"}) != content_hash({1: "a"})

    def test_str_key_dicts_keep_plain_form(self):
        # Persisted caches were keyed under the plain representation;
        # all-str dicts (every real key in the pipeline) must not change.
        assert canonical_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'

    def test_non_str_key_order_is_canonical(self):
        assert canonical_json({2: "x", 1: "y"}) == canonical_json(
            {1: "y", 2: "x"}
        )

    def test_distinct_key_types_hash_distinctly(self):
        seen = {
            content_hash({1: 0}),
            content_hash({"1": 0}),
            content_hash({1.5: 0}),
            content_hash({2: 0}),
        }
        assert len(seen) == 4


def _import_closure(*roots):
    """The ``repro.*`` modules ``roots`` import, transitively.

    Read from source with ``ast``, so lazy imports inside functions count
    too.  ``from pkg import name`` counts ``pkg`` (its ``__init__`` runs)
    and ``pkg.name`` when that is a module.  ``repro.obs`` is left out:
    instrumentation never feeds cached outputs.
    """
    src = pathlib.Path(repro.__file__).parent.parent

    def source(name):
        path = src.joinpath(*name.split("."))
        for candidate in (path / "__init__.py", path.with_suffix(".py")):
            if candidate.exists():
                return candidate
        return None

    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse(source(name).read_text())):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            todo.extend(
                module
                for module in found
                if module.startswith("repro.")
                and module.split(".")[1] != "obs"
                and source(module) is not None
            )
    return sorted(seen)


class TestFrameworkFingerprintCoverage:
    """Every module the extraction and synthesis workers import must
    rotate the fingerprint when its source changes.  A hand list used to
    drift: it missed the SAT substrate, then the meta-model, most of
    ``repro.statics`` and the newer signatures, and editing any of them
    silently served stale entries."""

    REQUIRED = _import_closure("repro.statics", "repro.core.synthesis")

    @pytest.mark.parametrize("module_name", REQUIRED)
    def test_fingerprint_changes_when_module_source_changes(
        self, module_name, monkeypatch
    ):
        import inspect
        import sys

        framework_fingerprint.cache_clear()
        baseline = framework_fingerprint()

        real_getsource = inspect.getsource

        def patched(obj):
            if getattr(obj, "__name__", None) == module_name:
                return real_getsource(obj) + "\n# edited\n"
            return real_getsource(obj)

        monkeypatch.setattr(inspect, "getsource", patched)
        framework_fingerprint.cache_clear()
        try:
            assert framework_fingerprint() != baseline, (
                f"{module_name} is not covered by framework_fingerprint()"
            )
        finally:
            framework_fingerprint.cache_clear()

    def test_fingerprint_stable_without_edits(self):
        framework_fingerprint.cache_clear()
        first = framework_fingerprint()
        framework_fingerprint.cache_clear()
        assert framework_fingerprint() == first


class TestAtomicPut:
    """Regression: ``put`` wrote through a fixed ``<key>.tmp`` path shared
    by every concurrent writer of the key, so two workers could interleave
    truncate/write and rename a torn file into place."""

    def test_tmp_names_are_unique_per_attempt(self, tmp_path, monkeypatch):
        import os as _os

        cache = PipelineCache(tmp_path)
        key = "a" * 64

        def exploding_replace(src, dst):
            raise OSError("injected: keep the tmp visible")

        monkeypatch.setattr(cache_mod.os, "replace", exploding_replace)
        # Interrupt the unlink cleanup too, so both writers' tmp files
        # survive for inspection -- with a shared fixed name the second
        # attempt would have reused (and clobbered) the first.
        monkeypatch.setattr(
            cache_mod.os, "unlink", lambda p: (_ for _ in ()).throw(OSError())
        )
        for _ in range(2):
            with pytest.raises(OSError):
                cache.put("ns", key, {"value": 1})
        tmp_files = list(cache._path("ns", key).parent.glob("*.tmp"))
        assert len(tmp_files) == 2
        assert len({p.name for p in tmp_files}) == 2

    def test_interrupted_write_never_visible_via_get(
        self, tmp_path, monkeypatch
    ):
        cache = PipelineCache(tmp_path)
        key = "b" * 64

        monkeypatch.setattr(
            cache_mod.os,
            "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("torn")),
        )
        with pytest.raises(OSError):
            cache.put("ns", key, {"value": 1})
        monkeypatch.undo()
        # The half-written attempt must be invisible: a reader addressing
        # the key sees a miss, never a partial payload.
        assert cache.get("ns", key) is None
        # And the failed attempt's tmp file was cleaned up.
        assert list(cache._path("ns", key).parent.glob("*.tmp")) == []

    def test_concurrent_writers_never_expose_torn_entries(self, tmp_path):
        import threading

        cache = PipelineCache(tmp_path)
        key = "c" * 64
        payload = {"value": "x" * 4096}
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                cache.put("ns", key, payload)

        def reader():
            while not stop.is_set():
                got = cache.get("ns", key)
                if got is not None and got != payload:
                    errors.append(got)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []


class TestMemoryCache:
    def test_round_trip_and_metrics(self):
        cache = cache_mod.MemoryCache()
        assert cache.get("ns", "k") is None
        cache.put("ns", "k", {"value": 1})
        assert cache.get("ns", "k") == {"value": 1}
        assert cache.accounting.misses["ns"] == 1
        assert cache.accounting.hits["ns"] == 1

    def test_payload_isolated_from_caller_mutation(self):
        cache = cache_mod.MemoryCache()
        payload = {"scenarios": [1, 2]}
        cache.put("ns", "k", payload)
        payload["scenarios"].append(3)
        assert cache.get("ns", "k") == {"scenarios": [1, 2]}
        got = cache.get("ns", "k")
        got["scenarios"].append(4)
        assert cache.get("ns", "k") == {"scenarios": [1, 2]}

    def test_lru_eviction(self):
        cache = cache_mod.MemoryCache(max_entries=2)
        cache.put("ns", "a", {"v": 1})
        cache.put("ns", "b", {"v": 2})
        assert cache.get("ns", "a") == {"v": 1}  # refresh a
        cache.put("ns", "c", {"v": 3})  # evicts b (least recent)
        assert cache.get("ns", "b") is None
        assert cache.get("ns", "a") == {"v": 1}
        assert cache.get("ns", "c") == {"v": 3}
        assert len(cache) == 2

    def test_rejects_degraded_payloads(self):
        cache = cache_mod.MemoryCache()
        cache.put("ns", "k", {"value": 1, "incomplete": True})
        assert cache.get("ns", "k") is None
        assert cache.accounting.rejections["ns"] == 1

    def test_clear(self):
        cache = cache_mod.MemoryCache()
        cache.put("ns", "a", {"v": 1})
        cache.put("other", "b", {"v": 2})
        assert cache.clear() == 2
        assert len(cache) == 0
