"""Protocol + daemon tests: framing, sharding, metrics, shutdown."""

import json
import pathlib
import re
import socket
import urllib.request

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.core import serialize
from repro.obs import COST_FIELDS
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import ProtocolError
from repro.service.server import PolicyService, ServerConfig
from repro.service.session import SessionConfig
from repro.statics import extract_app

SESSION = SessionConfig(scenarios_per_signature=2)


@pytest.fixture(scope="module")
def app_dicts():
    apps = [extract_app(a) for a in (build_app1(), build_app2())]
    return {a.package: serialize.app_to_dict(a) for a in apps}


def make_config(**overrides):
    overrides.setdefault("session", SESSION)
    overrides.setdefault("heartbeat_seconds", 0.1)
    return ServerConfig(**overrides)


class TestDecodeRequest:
    def test_valid_request_passes_through(self):
        request = protocol.decode_request(
            b'{"id": 1, "op": "analyze", "device": "d"}\n'
        )
        assert request["op"] == "analyze"

    def test_invalid_json_is_bad_request(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(b"{nope\n")
        assert exc.value.kind == "bad_request"

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(b"[1, 2]\n")
        assert exc.value.kind == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(b'{"op": "explode"}\n')
        assert exc.value.kind == "unknown_op"

    def test_device_op_requires_device(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(b'{"op": "analyze"}\n')
        assert exc.value.kind == "bad_request"

    def test_oversized_line_rejected(self):
        line = b'{"op": "ping", "pad": "' + b"x" * protocol.MAX_LINE_BYTES
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(line)
        assert exc.value.kind == "line_too_long"

    def test_unknown_error_kind_coerced_to_internal(self):
        assert ProtocolError("made_up", "m").kind == "internal"
        assert (
            protocol.error_response(None, "made_up", "m")["error"]["kind"]
            == "internal"
        )


def documented_series(devices):
    """The series families in docs/SERVICE.md's telemetry table, for a
    daemon serving ``devices``: ``(service families, cost families)``,
    the latter one per cost meter."""
    doc = pathlib.Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"
    rows = re.findall(r"^\| `(repro_[^`{]+)", doc.read_text(), re.MULTILINE)
    service, cost = set(), set()
    for row in rows:
        if "<meter>" in row:
            cost.update(row.replace("<meter>", m) for m in COST_FIELDS)
        else:
            service.update(row.replace("<device>", d) for d in devices)
    return service, cost


class TestDaemonTcp:
    def test_request_cycle_and_shutdown(self, app_dicts, tmp_path):
        ready = tmp_path / "ready.json"
        service = PolicyService(
            make_config(metrics_port=0, ready_file=str(ready))
        )
        with service.background():
            host, port = service.address
            # Ready file announces the bound address before we connect.
            announced = json.loads(ready.read_text())
            assert announced["address"] == [host, port]
            with ServiceClient(host, port) as client:
                pong = client.ping()
                assert pong == {
                    "pong": True,
                    "version": protocol.PROTOCOL_VERSION,
                }
                for app in app_dicts.values():
                    client.install("dev1", app)
                findings = client.analyze("dev1")
                assert sorted(app_dicts) == findings["apps"]
                assert client.policies("dev1")

                # Per-device sharding: a second device has its own state.
                first = next(iter(app_dicts.values()))
                client.install("dev2", first)
                assert client.analyze("dev2")["apps"] == [first["package"]]
                status = client.status()
                assert sorted(status["sessions"]) == ["dev1", "dev2"]
                assert status["sessions"]["dev1"]["syntheses"] >= 1

                # Metrics endpoint serves Prometheus text for the daemon.
                url = "http://{}:{}/metrics".format(*service.metrics_address)
                body = urllib.request.urlopen(url).read().decode("utf-8")
                # Every series SERVICE.md documents, and no other: the
                # scrape is the daemon's registry plus its cost accounts
                # (histograms add _min/_max companions).
                families = set(
                    re.findall(r"^# TYPE (\S+) ", body, re.MULTILINE)
                )
                service_series, cost_series = documented_series(
                    ["dev1", "dev2"]
                )
                assert service_series <= families, service_series - families
                assert families & cost_series
                extra = families - service_series - cost_series
                assert {
                    re.sub(r"_(min|max)$", "", name) for name in extra
                } <= service_series, extra

                assert client.shutdown() == {"stopping": True}
        # Context manager returned: thread joined, files removed.
        assert service._thread is None
        assert not ready.exists()

    def test_stopping_after_a_client_shutdown_is_a_no_op(self):
        """Leaving ``background()`` after the daemon already stopped on a
        client's ``shutdown`` op must not touch the closed loop."""
        service = PolicyService(make_config())
        with service.background():
            with ServiceClient(*service.address) as client:
                assert client.shutdown() == {"stopping": True}
            service._thread.join(timeout=30)
            assert not service._thread.is_alive()
        assert service._thread is None

    def test_error_responses_keep_connection_open(self, app_dicts):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as exc:
                    client.uninstall("dev1", "no.such.app")
                assert exc.value.kind == "not_found"
                with pytest.raises(ServiceError) as exc:
                    client.request("install", device="dev1")
                assert exc.value.kind == "bad_request"
                # The connection survived both errors.
                assert client.ping()["pong"] is True

    def test_malformed_json_answered_with_null_id(self):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with socket.create_connection((host, port), timeout=30) as sock:
                handle = sock.makefile("rwb")
                handle.write(b"{broken\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["id"] is None
                assert response["error"]["kind"] == "bad_request"
                # Blank lines are skipped, connection still serves.
                handle.write(b"\n")
                handle.write(b'{"id": 7, "op": "ping"}\n')
                handle.flush()
                response = json.loads(handle.readline())
                assert response["id"] == 7
                assert response["result"]["pong"] is True

    def test_mutation_burst_batches_into_one_synthesis(self, app_dicts):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                for app in app_dicts.values():
                    result = client.install("dev1", app)
                    assert result["synthesis"] == "deferred"
                client.analyze("dev1")
                assert client.status("dev1")["syntheses"] == 1


class TestServiceRegistry:
    def test_each_service_counts_into_its_own_registry(self):
        first = PolicyService(make_config())
        second = PolicyService(make_config())
        assert first.metrics is not second.metrics
        with first.background(), second.background():
            with ServiceClient(*first.address) as one:
                for _ in range(3):
                    one.ping()
            with ServiceClient(*second.address) as other:
                other.ping()
                with pytest.raises(ServiceError):
                    other.uninstall("dev1", "no.such.app")
        for service, requests, errors in ((first, 3, 0), (second, 2, 1)):
            snapshot = service.metrics.snapshot()
            assert snapshot["service.requests"]["value"] == requests
            assert snapshot["service.errors"]["value"] == errors
            assert snapshot["service.request_seconds"]["count"] == requests

    def test_counts_without_a_scrape_endpoint(self, app_dicts):
        """Nothing switches the daemon's series on: with no metrics port,
        each batch still refreshes its device's gauges, and session work
        adds no series of the solver, cache, PDP or audit log."""
        service = PolicyService(make_config())
        assert service.config.metrics_port is None
        with service.background():
            with ServiceClient(*service.address) as client:
                for app in app_dicts.values():
                    client.install("dev1", app)
                client.analyze("dev1")
                syntheses = client.status("dev1")["syntheses"]
            snapshot = service.metrics.snapshot()
        assert snapshot["service.session.dev1.apps"]["value"] == len(app_dicts)
        assert syntheses >= 1
        assert snapshot["service.session.dev1.syntheses"]["value"] == syntheses
        assert all(name.startswith("service.") for name in snapshot), sorted(
            snapshot
        )


class TestTracingAndCost:
    def test_trace_id_minted_when_absent_echoed_when_given(self, app_dicts):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                client.ping()
                minted = client.last_trace_id
                assert minted  # server minted one for the bare request
                client.ping()
                assert client.last_trace_id != minted  # fresh per request
                client.request("ping", trace_id="deadbeef00000001")
                assert client.last_trace_id == "deadbeef00000001"
                # Non-device ops carry no cost object.
                assert client.last_cost is None

    def test_blank_trace_id_is_bad_request(self, app_dicts):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as exc:
                    client.request("ping", trace_id="")
                assert exc.value.kind == "bad_request"

    def test_reused_trace_id_reports_each_requests_own_cost(self, app_dicts):
        """A reply's cost is what its own request charged, even when the
        client sends several requests under one trace id."""
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                tid = "feedc0de00000001"
                for app in app_dicts.values():
                    client.request(
                        "install", device="dev1", app=app, trace_id=tid
                    )
                    assert client.last_trace_id == tid
                    assert client.last_cost["wall_seconds"] > 0
                    assert client.last_cost["cache_misses"] == 0
                client.request("analyze", device="dev1", trace_id=tid)
                first = client.last_cost
                assert first["cache_misses"] == 1  # the cold synthesis
                assert first["clauses_added"] > 0
                client.request("analyze", device="dev1", trace_id=tid)
                second = client.last_cost
                # Nothing changed, so the repeat pays only its wall clock.
                assert second["wall_seconds"] > 0
                for meter in COST_FIELDS:
                    if meter != "wall_seconds":
                        assert second[meter] == 0, meter

    def test_device_reply_costs_sum_to_status_and_scrape(self, app_dicts):
        """Replies, ``status`` and ``/metrics`` are three views of one
        device account: over a stream in which every request succeeds,
        the replies' costs add up to the other two."""
        service = PolicyService(make_config(metrics_port=0))
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                summed = dict.fromkeys(COST_FIELDS, 0.0)

                def device_op(op, **operands):
                    client.request(op, device="dev1", **operands)
                    for meter in COST_FIELDS:
                        summed[meter] += client.last_cost[meter]

                packages = list(app_dicts)
                for app in app_dicts.values():
                    device_op("install", app=app)
                device_op("analyze")
                device_op("uninstall", package=packages[1])
                device_op("analyze")
                device_op("install", app=app_dicts[packages[1]])
                device_op("analyze")  # a warm hit
                probe = {"sender": "probe.app/Main"}
                device_op("decide", kind="icc_send", event=probe)
                device_op("decide", kind="icc_send", event=probe)
                # Another device's traffic stays out of dev1's account.
                client.install("dev2", app_dicts[packages[0]])
                assert summed["cache_misses"] == 2
                assert summed["cache_hits"] == 1
                assert summed["pdp_cache_hits"] == 1
                assert summed["clauses_added"] > 0

                status = client.status()
                account = status["sessions"]["dev1"]["cost"]
                url = "http://{}:{}/metrics".format(*service.metrics_address)
                body = urllib.request.urlopen(url).read().decode("utf-8")
        for meter in COST_FIELDS:
            scraped = [
                float(line.rsplit(" ", 1)[1])
                for line in body.splitlines()
                if line.startswith(f"repro_cost_{meter}_total{{")
                and 'device="dev1"' in line
            ]
            if meter == "wall_seconds":
                assert account[meter] == pytest.approx(summed[meter])
                assert scraped == [pytest.approx(summed[meter])]
            else:  # integer meters reconcile exactly
                assert account[meter] == summed[meter], meter
                assert sum(scraped) == summed[meter], meter

    def test_warm_repeat_charges_cache_hit_not_solver_work(self, app_dicts):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                packages = list(app_dicts)
                for app in app_dicts.values():
                    client.install("dev1", app)
                client.analyze("dev1")
                # Leave the composition and come back: the warm cache
                # answers the re-analysis without any solver work.
                client.uninstall("dev1", packages[1])
                client.analyze("dev1")
                client.install("dev1", app_dicts[packages[1]])
                client.request("analyze", device="dev1", trace_id="aa01")
                warm = client.last_cost
                assert warm["cache_hits"] >= 1
                assert warm["clauses_added"] == 0  # no re-synthesis

    def test_healthz_and_extended_status(self, app_dicts):
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                health = client.healthz()
                assert health["healthy"] is True
                assert health["sessions"] == 0
                assert health["version"] == protocol.PROTOCOL_VERSION

                first = next(iter(app_dicts.values()))
                client.install("dev1", first)
                health = client.healthz()
                assert health["sessions"] == 1
                assert health["uptime_seconds"] > 0
                assert health["queue_depth"] == 0
                assert health["inflight"] == 0
                assert health["stalled_devices"] == []

                status = client.status()
                assert status["queue_depths"] == {"dev1": 0}
                assert status["inflight_ages"]["dev1"] is None  # idle
                assert status["cache_entries"] >= 0
                # The install request itself was charged to the ledger.
                top = status["top_costs"]
                assert top and top[0]["device"] == "dev1"
                assert top[0]["wall_seconds"] > 0
                assert status["sessions"]["dev1"]["cost"] == {
                    meter: top[0][meter] for meter in COST_FIELDS
                }

    def test_healthz_is_false_while_a_batch_is_stalled(
        self, app_dicts, monkeypatch
    ):
        """``healthy`` follows the stall flags: a device's batch held past
        the stall threshold makes the daemon unhealthy and lists the
        device; once the batch finishes, the daemon is healthy again."""
        import threading
        import time

        from repro.service.session import DeviceSession

        entered, release = threading.Event(), threading.Event()
        original = DeviceSession.handle

        def blocking_handle(self, request):
            entered.set()
            release.wait(timeout=30)
            return original(self, request)

        monkeypatch.setattr(DeviceSession, "handle", blocking_handle)
        first = next(iter(app_dicts.values()))
        replies = []
        service = PolicyService(
            make_config(stall_seconds=0.05, heartbeat_seconds=0.05)
        )
        with service.background():
            host, port = service.address

            def install():
                with ServiceClient(host, port) as client:
                    replies.append(client.install("dev1", first))

            with ServiceClient(host, port) as probe:
                assert probe.healthz()["healthy"] is True
                blocked = threading.Thread(target=install)
                blocked.start()
                try:
                    assert entered.wait(timeout=30)
                    deadline = time.monotonic() + 30
                    health = probe.healthz()
                    while health["healthy"] and time.monotonic() < deadline:
                        time.sleep(0.01)
                        health = probe.healthz()
                    assert health["healthy"] is False
                    assert health["stalled_devices"] == ["dev1"]
                finally:
                    release.set()
                    blocked.join(timeout=30)
                assert replies[0]["installed"] == [first["package"]]
                health = probe.healthz()
                assert health["healthy"] is True
                assert health["stalled_devices"] == []


    def test_global_status_does_not_wait_on_a_busy_session(
        self, app_dicts, monkeypatch
    ):
        """A server-wide ``status`` runs on the event loop and must not
        wait for a session lock that a device's batch thread holds: while
        a handler sits on the lock, a global ``status`` and a ``ping`` on
        other connections answer at once, the busy device reporting the
        status it took at creation."""
        import threading
        import time

        from repro.service.session import DeviceSession

        entered, release = threading.Event(), threading.Event()
        original = DeviceSession.handle

        def locked_handle(self, request):
            with self._lock:
                entered.set()
                release.wait(timeout=10)
                return original(self, request)

        monkeypatch.setattr(DeviceSession, "handle", locked_handle)
        first = next(iter(app_dicts.values()))
        replies = []
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address

            def install():
                with ServiceClient(host, port) as client:
                    replies.append(client.install("dev1", first))

            blocked = threading.Thread(target=install)
            blocked.start()
            try:
                assert entered.wait(timeout=30)
                with ServiceClient(host, port) as status_client, ServiceClient(
                    host, port
                ) as ping_client:
                    started = time.monotonic()
                    status = status_client.status()
                    status_s = time.monotonic() - started
                    started = time.monotonic()
                    pong = ping_client.ping()
                    ping_s = time.monotonic() - started
                assert not release.is_set()
            finally:
                release.set()
                blocked.join(timeout=30)
        assert status_s < 0.5 and ping_s < 0.5, (status_s, ping_s)
        assert pong["pong"] is True
        assert status["sessions"]["dev1"]["installed"] == []
        assert status["sessions"]["dev1"]["requests"] == 0
        assert replies[0]["installed"] == [first["package"]]

    def test_healthz_is_false_once_shutdown_begins(self):
        """A healthz answered after shutdown has begun reports unhealthy.
        The shutdown flag is set and healthz answered in one step of the
        service's own loop, so the drain cannot close the daemon first."""
        import asyncio

        async def healthz_as_shutdown_begins():
            before, _ = await service._respond(b'{"op": "healthz"}\n')
            service._shutdown.set()
            after, _ = await service._respond(b'{"op": "healthz"}\n')
            return before["result"], after["result"]

        service = PolicyService(make_config())
        with service.background():
            before, after = asyncio.run_coroutine_threadsafe(
                healthz_as_shutdown_begins(), service._loop
            ).result(timeout=30)
        assert before["healthy"] is True
        assert after["healthy"] is False
        assert after["stalled_devices"] == []

    def test_top_costs_list_one_account_per_device(self, app_dicts):
        """``top_costs`` ranks device accounts by conflicts, one entry per
        device, each keyed by the device alone."""
        service = PolicyService(make_config())
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                for app in app_dicts.values():
                    client.install("dev1", app)
                client.analyze("dev1")
                client.analyze("dev1")
                client.install("dev2", next(iter(app_dicts.values())))
                status = client.status()
        top = status["top_costs"]
        assert sorted(entry["device"] for entry in top) == ["dev1", "dev2"]
        conflicts = [entry["conflicts"] for entry in top]
        assert conflicts == sorted(conflicts, reverse=True)
        for entry in top:
            assert (entry["trace_id"], entry["bundle"], entry["signature"]) == (
                "", "", ""
            )
            account = status["sessions"][entry["device"]]["cost"]
            assert {meter: entry[meter] for meter in COST_FIELDS} == account
        assert status["sessions"]["dev1"]["cost"]["cache_misses"] == 1
        assert status["sessions"]["dev2"]["cost"]["cache_misses"] == 0


class TestDaemonUnixSocket:
    def test_serves_over_unix_socket(self, app_dicts, tmp_path):
        path = str(tmp_path / "serve.sock")
        service = PolicyService(make_config(socket_path=path))
        with service.background():
            with ServiceClient(socket_path=path) as client:
                assert client.ping()["pong"] is True
                first = next(iter(app_dicts.values()))
                client.install("dev1", first)
                assert client.analyze("dev1")["apps"] == [first["package"]]
        # Socket file removed on shutdown.
        import os

        assert not os.path.exists(path)


class TestTracedDaemon:
    """The daemon runs each batch under the tracer that was current when
    it was built; built with none, it traces nothing."""

    def test_requests_root_their_own_traces(self, app_dicts):
        from repro.obs import InMemoryTracer, tracing

        with tracing(InMemoryTracer()) as tracer:
            service = PolicyService(make_config())
        replies = []
        with service.background():
            with ServiceClient(*service.address) as client:
                for app in app_dicts.values():
                    client.install("dev1", app)
                    replies.append(("install", client.last_trace_id))
                client.analyze("dev1")
                replies.append(("analyze", client.last_trace_id))
                client.decide("dev1", "icc_receive", DECIDE_EVENT)
                replies.append(("decide", client.last_trace_id))
        records = tracer.records
        requests = [r for r in records if r.name == "service.request"]
        assert [(r.attrs["op"], r.trace_id) for r in requests] == replies
        assert all(r.parent_id is None for r in requests)
        analyze = requests[2]
        by_id = {r.span_id: r for r in records}

        def under_analyze(record):
            while record.parent_id is not None:
                record = by_id[record.parent_id]
            return record is analyze

        for name in ("ase.bundle", "ase.construct", "ase.solve"):
            spans = [r for r in records if r.name == name]
            assert spans and all(under_analyze(r) for r in spans), name
            assert all(r.trace_id == analyze.trace_id for r in spans)

    def test_a_service_built_without_a_tracer_writes_nothing(self, app_dicts):
        from repro.obs import NULL_TRACER, InMemoryTracer, tracing

        service = PolicyService(make_config())
        assert service.tracer is NULL_TRACER
        # A tracer current where the daemon is driven is not the daemon's.
        with tracing(InMemoryTracer()) as elsewhere:
            with service.background():
                with ServiceClient(*service.address) as client:
                    for app in app_dicts.values():
                        client.install("dev1", app)
                    client.analyze("dev1")
        assert elsewhere.records == []


#: A decide on the running example's two apps.
DECIDE_EVENT = {
    "sender": "com.example.messenger/MessageSender",
    "receiver": "com.example.navigation/RouteFinder",
}


@pytest.fixture
def held_decide(monkeypatch):
    """Hold the first ``decide`` inside ``DeviceSession.handle`` until the
    test sets ``release``; ``entered`` is set once it is held."""
    import threading

    from repro.service.session import DeviceSession

    entered, release = threading.Event(), threading.Event()
    original = DeviceSession.handle

    def handle(self, request):
        if request.get("op") == "decide" and not entered.is_set():
            entered.set()
            release.wait(timeout=30)
        return original(self, request)

    monkeypatch.setattr(DeviceSession, "handle", handle)
    yield entered, release
    release.set()


class TestShutdown:
    """Fail closed: once shutdown begins, a ``decide`` gets its own answer
    only if its batch was already running; every other one gets an error,
    and ``ServiceClient.decide`` raises instead of returning a decision."""

    @staticmethod
    def _in_thread(target):
        import threading

        outcome = {}

        def run():
            try:
                outcome["result"] = target()
            except Exception as exc:  # noqa: BLE001 - inspected below
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        return thread, outcome

    @staticmethod
    def _wait_for(predicate):
        import time

        deadline = time.monotonic() + 30
        while not predicate():
            assert time.monotonic() < deadline, "timed out waiting"
            time.sleep(0.005)

    def test_running_decide_answers_queued_and_late_ones_fail(
        self, app_dicts, held_decide
    ):
        entered, release = held_decide
        service = PolicyService(make_config())
        service.start_background()
        host, port = service.address
        with ServiceClient(host, port) as setup:
            for app in app_dicts.values():
                setup.install("dev1", app)
            setup.analyze("dev1")
        late = ServiceClient(host, port)
        late.ping()

        def decide():
            with ServiceClient(host, port) as client:
                return client.decide("dev1", "icc_receive", DECIDE_EVENT)

        running, running_outcome = self._in_thread(decide)
        assert entered.wait(timeout=30)
        queued, queued_outcome = self._in_thread(decide)
        self._wait_for(lambda: service._queues["dev1"].qsize() == 1)
        service.request_shutdown()
        self._wait_for(service._shutdown.is_set)
        # Sent after shutdown began, while the running batch holds it open.
        with pytest.raises(ServiceError) as exc:
            late.decide("dev1", "icc_receive", DECIDE_EVENT)
        assert exc.value.kind == "shutting_down"
        late.close()
        release.set()
        for thread in (running, queued):
            thread.join(timeout=30)
        service._thread.join(timeout=30)
        assert not service._thread.is_alive()
        # Running when shutdown began: its own answer.
        assert running_outcome["result"]["decision"] in ("allow", "deny")
        # Queued behind the running batch: an error, no decision.
        assert "result" not in queued_outcome
        assert isinstance(queued_outcome["error"], ServiceError)
        assert queued_outcome["error"].kind == "shutting_down"

    def test_a_decide_pipelined_behind_a_running_one_fails(
        self, app_dicts, held_decide
    ):
        """A second ``decide`` written on the same connection right behind
        a running one was received before shutdown began: it is answered
        ``shutting_down`` before the connection closes, not dropped."""
        entered, release = held_decide
        service = PolicyService(make_config())
        service.start_background()
        host, port = service.address
        with ServiceClient(host, port) as setup:
            for app in app_dicts.values():
                setup.install("dev1", app)
            setup.analyze("dev1")
        requests = b"".join(
            protocol.encode_message(
                {
                    "id": rid,
                    "op": "decide",
                    "device": "dev1",
                    "kind": "icc_receive",
                    "event": DECIDE_EVENT,
                }
            )
            for rid in (1, 2)
        )
        with socket.create_connection((host, port), timeout=30) as sock:
            replies = sock.makefile("rb")
            sock.sendall(requests)
            assert entered.wait(timeout=30)
            service.request_shutdown()
            self._wait_for(service._shutdown.is_set)
            release.set()
            lines = [replies.readline() for _ in range(3)]
        service._thread.join(timeout=30)
        assert not service._thread.is_alive()
        running, pipelined = (json.loads(line) for line in lines[:2])
        assert running["id"] == 1
        assert running["result"]["decision"] in ("allow", "deny")
        assert pipelined["id"] == 2
        assert not pipelined["ok"]
        assert pipelined["error"]["kind"] == "shutting_down"
        assert lines[2] == b""

    def test_a_decide_waiting_past_the_request_timeout_fails(
        self, app_dicts, held_decide
    ):
        entered, release = held_decide
        service = PolicyService(make_config(request_timeout_seconds=0.2))
        with service.background():
            with ServiceClient(*service.address) as client:
                client.install("dev1", next(iter(app_dicts.values())))
                with pytest.raises(ServiceError) as exc:
                    client.decide("dev1", "icc_receive", DECIDE_EVENT)
                assert exc.value.kind == "timeout"
                assert entered.is_set()
                release.set()
                assert client.ping()["pong"] is True

    def test_shutdown_closes_an_idle_connection(self):
        """A client that pinged and then holds its connection open does
        not keep the daemon from stopping; it reads end-of-file."""
        service = PolicyService(make_config())
        service.start_background()
        idle = ServiceClient(*service.address, timeout=10)
        try:
            assert idle.ping()["pong"] is True
            service.stop_background(timeout=5)
            assert idle._file.readline() == b""
        finally:
            idle.close()
