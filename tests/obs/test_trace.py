"""Tracing spans: nesting, round-trip serialization, concurrency, the
scoped active tracer, and the zero-cost-when-disabled guarantee."""

import asyncio
import json
import os
import threading
import time

import pytest

import repro.obs
from repro.obs import (
    NULL_TRACER,
    InMemoryTracer,
    JsonlTracer,
    NullTracer,
    SpanRecord,
    TraceContext,
    Tracer,
    adopt_trace_context,
    current_trace_context,
    current_trace_id,
    current_tracer,
    tracing,
)
from repro.obs import trace
from repro.obs.trace import read_trace, write_trace


@pytest.fixture
def tracer():
    """Run the test under an in-memory tracer."""
    with tracing(InMemoryTracer()) as t:
        yield t


class TestNesting:
    def test_parent_child(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_children_close_before_parents(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [r.name for r in tracer.records] == ["b", "c", "a"]

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.span("root"):
            with tracer.span("x"):
                pass
            with tracer.span("y"):
                pass
        root = next(r for r in tracer.records if r.name == "root")
        kids = [r for r in tracer.records if r.name in ("x", "y")]
        assert all(k.parent_id == root.span_id for k in kids)

    def test_attributes_at_open_and_via_set(self, tracer):
        with tracer.span("s", static="yes") as span:
            span.set(discovered=3)
        (record,) = tracer.records
        assert record.attrs == {"static": "yes", "discovered": 3}

    def test_duration_measured(self, tracer):
        with tracer.span("timed"):
            time.sleep(0.01)
        (record,) = tracer.records
        assert record.seconds >= 0.005
        assert record.pid == os.getpid()

    def test_span_ids_unique(self, tracer):
        for _ in range(50):
            with tracer.span("s"):
                pass
        ids = [r.span_id for r in tracer.records]
        assert len(set(ids)) == len(ids)


class TestThreadSafety:
    def test_nesting_is_per_thread(self, tracer):
        """Concurrent threads never adopt each other's spans as parents."""
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            with tracer.span(f"outer-{i}"):
                with tracer.span(f"inner-{i}"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {r.name: r for r in tracer.records}
        assert len(tracer.records) == 8
        for i in range(4):
            assert (
                by_name[f"inner-{i}"].parent_id
                == by_name[f"outer-{i}"].span_id
            )


class TestRoundTrip:
    def test_record_dict_round_trip(self):
        record = SpanRecord(
            name="n", span_id="1-1", parent_id=None, start=1.5,
            seconds=0.25, attrs={"k": "v"}, pid=42,
        )
        assert SpanRecord.from_dict(record.to_dict()) == record

    def test_write_then_read(self, tmp_path, tracer):
        with tracer.span("outer", apps=2):
            with tracer.span("inner"):
                pass
        path = tmp_path / "t.jsonl"
        write_trace(str(path), tracer.records)
        assert read_trace(str(path)) == tracer.records

    def test_jsonl_tracer_emits_parseable_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = JsonlTracer(str(path))
        try:
            with tracing(t):
                with current_tracer().span("a"):
                    with current_tracer().span("b"):
                        pass
        finally:
            t.close()
        lines = path.read_text().splitlines()
        # Two spans, each as a begin event plus a completion line.
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        begins = [p for p in parsed if p.get("event") == "span_begin"]
        completions = [p for p in parsed if "event" not in p]
        assert {p["name"] for p in begins} == {"a", "b"}
        assert {p["name"] for p in completions} == {"a", "b"}
        assert {p["span_id"] for p in begins} == {
            p["span_id"] for p in completions
        }
        records = read_trace(str(path))
        assert len(records) == 2
        by_name = {r.name: r for r in records}
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert not any(r.open for r in records)

    def test_read_trace_recovers_open_span_for_killed_worker(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = JsonlTracer(str(path))
        try:
            with t.span("survivor"):
                pass
            # Simulate a worker killed mid-span: begin event written, the
            # process dies before __exit__ ever runs.
            doomed = t.span("doomed", task=7)
            doomed.__enter__()
            # Undo the contextvar mutations without emitting a completion
            # (a real kill takes the whole process, contextvars included).
            trace._current_span_id.reset(doomed._token)
            if doomed._trace_token is not None:
                trace._current_trace_id.reset(doomed._trace_token)
        finally:
            t.close()
        records = read_trace(str(path))
        by_name = {r.name: r for r in records}
        assert not by_name["survivor"].open
        assert by_name["doomed"].open
        assert by_name["doomed"].seconds == 0.0
        # Open spans come from begin events, which carry start + pid.
        assert by_name["doomed"].start > 0
        assert by_name["doomed"].pid == os.getpid()


class TestTraceContext:
    def test_root_span_mints_trace_id_children_inherit(self, tracer):
        assert current_trace_id() is None
        with tracer.span("root"):
            minted = current_trace_id()
            assert minted
            with tracer.span("child"):
                assert current_trace_id() == minted
        # The root resets the trace id on exit: the next root starts fresh.
        assert current_trace_id() is None
        by_name = {r.name: r for r in tracer.records}
        assert by_name["root"].trace_id == minted
        assert by_name["child"].trace_id == minted

    def test_consecutive_roots_get_distinct_trace_ids(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        ids = {r.trace_id for r in tracer.records}
        assert len(ids) == 2 and None not in ids

    def test_adopted_context_parents_and_propagates(self, tracer):
        """The cross-process handshake: a worker adopting the
        orchestrator's context attaches its spans under the dispatch span
        and stamps them with the orchestrator's trace id."""
        ctx = TraceContext(trace_id="feedfacefeedface", span_id="999-1")
        with adopt_trace_context(ctx):
            assert current_trace_id() == "feedfacefeedface"
            with tracer.span("worker.task"):
                pass
        (record,) = tracer.records
        assert record.parent_id == "999-1"
        assert record.trace_id == "feedfacefeedface"
        # Adoption is scoped: nothing leaks once the context manager exits.
        assert current_trace_id() is None

    def test_adoption_restores_previous_context(self, tracer):
        """Pool workers are reused across tasks: each adoption must undo
        itself completely, even when contexts nest."""
        outer = TraceContext(trace_id="aaaa", span_id="1-1")
        inner = TraceContext(trace_id="bbbb", span_id="2-2")
        with adopt_trace_context(outer):
            with adopt_trace_context(inner):
                assert current_trace_id() == "bbbb"
            assert current_trace_id() == "aaaa"
            assert current_trace_context().span_id == "1-1"
        assert current_trace_context() is None

    def test_adopting_none_is_a_noop(self, tracer):
        with adopt_trace_context(None):
            with tracer.span("untraced-context"):
                pass
        (record,) = tracer.records
        assert record.parent_id is None
        assert record.trace_id  # still mints its own as a root

    def test_current_context_prefers_local_span(self, tracer):
        ctx = TraceContext(trace_id="cccc", span_id="3-3")
        with adopt_trace_context(ctx):
            with tracer.span("local") as span:
                captured = current_trace_context()
                assert captured.trace_id == "cccc"
                assert captured.span_id == span.span_id
            # No local span open: falls back to the remote parent.
            assert current_trace_context().span_id == "3-3"

    def test_new_context_has_trace_id_and_no_span(self):
        fresh = TraceContext.new()
        assert fresh.trace_id and fresh.span_id is None

    def test_record_round_trip_keeps_trace_id(self):
        record = SpanRecord(
            name="n", span_id="1-1", parent_id=None, start=1.0,
            seconds=0.5, attrs={}, pid=7, trace_id="abcd",
        )
        assert SpanRecord.from_dict(record.to_dict()) == record
        # Pre-trace-context records load with trace_id None.
        data = record.to_dict()
        del data["trace_id"]
        assert SpanRecord.from_dict(data).trace_id is None


class TestDisabled:
    def test_null_tracer_returns_shared_singleton(self):
        t = NullTracer()
        s1 = t.span("anything", big_attr="x" * 100)
        s2 = t.span("other")
        assert s1 is s2  # no per-span allocation at all

    def test_null_span_protocol_is_inert(self):
        t = NullTracer()
        with t.span("s") as span:
            span.set(k=1)  # swallowed, not stored
        assert not hasattr(span, "attrs")

    def test_default_tracer_is_null(self):
        # The context's default is the no-op, whatever the environment.
        assert isinstance(NULL_TRACER, NullTracer)
        assert current_tracer() is NULL_TRACER

    def test_noop_overhead_guard(self):
        """Disabled tracing must stay within noise of a bare loop.

        Generous absolute bound: 20k no-op spans in well under a second on
        any machine -- a regression that allocates or serializes per span
        blows straight through it.
        """
        t = NullTracer()
        start = time.perf_counter()
        for _ in range(20_000):
            with t.span("hot", a=1):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


class TestScope:
    """The active tracer is scoped like the trace id: a ``tracing`` block
    installs one in its own context, and nothing outlives the block."""

    def test_scope_restores_the_previous_tracer_on_exit(self):
        """Nested scopes unwind in order, an exception included."""
        outer, inner = InMemoryTracer(), InMemoryTracer()
        with tracing(outer) as installed:
            assert installed is outer and current_tracer() is outer
            with tracing(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
            with pytest.raises(RuntimeError):
                with tracing(inner):
                    raise RuntimeError("boom")
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_threads_record_only_their_own_spans(self):
        """Two threads, each under its own scope, started while a third
        tracer is current here: each records only the spans opened in it,
        and the third none."""
        tracers = [InMemoryTracer(), InMemoryTracer()]
        barrier = threading.Barrier(2)

        def work(i):
            with tracing(tracers[i]):
                barrier.wait()
                for _ in range(20):
                    with current_tracer().span(f"t{i}"):
                        pass
                barrier.wait()

        with tracing(InMemoryTracer()) as here:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert here.records == []
        for i, t in enumerate(tracers):
            assert [r.name for r in t.records] == [f"t{i}"] * 20

    def test_asyncio_tasks_record_only_their_own_spans(self):
        tracers = [InMemoryTracer(), InMemoryTracer()]

        async def work(i):
            with tracing(tracers[i]):
                for _ in range(5):
                    with current_tracer().span(f"a{i}"):
                        await asyncio.sleep(0)  # interleave the tasks

        async def main():
            await asyncio.gather(work(0), work(1))
            return current_tracer()

        assert asyncio.run(main()) is NULL_TRACER
        for i, t in enumerate(tracers):
            assert [r.name for r in t.records] == [f"a{i}"] * 5
            assert all(r.parent_id is None for r in t.records)

    def test_span_ids_stay_unique_across_tracers(self):
        """Ids come from one per-process counter: a fresh tracer does not
        restart it, so tracers appending to one file never collide, even
        when eight threads (more than the cores) draw ids at once."""
        import sys

        tracers = [InMemoryTracer() for _ in range(8)]

        def work(t):
            for _ in range(300):
                with t.span("s"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,)) for t in tracers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [r.span_id for t in tracers for r in t.records]
        assert len(ids) == 8 * 300 and len(set(ids)) == len(ids)

    def test_no_process_global_tracer(self):
        """There is nothing to install globally or switch off: no global
        accessor (get/set/enable), no module-level ``span()``, and the
        only module-level tracer is the no-op default."""
        for module in (repro.obs, trace):
            names = set(vars(module))
            assert {"span", "_tracer"}.isdisjoint(names), module
            accessors = [
                name
                for name in names
                if name.split("_")[0] in ("get", "set", "enable")
            ]
            assert accessors == [], accessors
        for cls in (Tracer, NullTracer, InMemoryTracer, JsonlTracer):
            assert not hasattr(cls, "enabled"), cls
        tracers = [
            name
            for name, value in vars(trace).items()
            if isinstance(value, Tracer)
        ]
        assert tracers == ["NULL_TRACER"]
