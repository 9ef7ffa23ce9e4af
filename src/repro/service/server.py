"""The ``repro serve`` daemon: asyncio front end over warm sessions.

Architecture (see ``docs/SERVICE.md``):

- an asyncio acceptor reads line-delimited JSON requests (TCP or UNIX
  socket) and answers each connection's requests in order;
- requests are sharded per device onto an ``asyncio.Queue``; one worker
  coroutine per device drains its queue in *batches* and executes each
  batch on a thread pool, so devices proceed in parallel while every
  single device's stream stays strictly serialized over its warm
  :class:`~repro.service.session.DeviceSession`;
- mutations only mark a session dirty, so a batched burst of installs
  pays one re-synthesis at the next synthesis-backed query -- the
  per-request *timeout* story is the pipeline's budget/degradation
  semantics (``conflict_budget`` / ``time_budget_seconds`` on the
  engine): an over-budget synthesis degrades to a partial result and the
  response says so, rather than a thread being killed mid-solve;
- the service owns one metrics registry: the connection handler counts
  requests, errors and latency into it, a heartbeat task liveness and
  stalls, and each batch refreshes the per-session gauges (resident
  bundles, warm-hit rate, queue depth); the optional scrape endpoint
  (:func:`repro.obs.export.make_metrics_server`) serves that registry,
  with each device's cost account as ``repro_cost_*`` series, as
  Prometheus text at ``GET /metrics``;
- every device-op reply carries its request's ``cost``: what the
  device's account grew by while the request ran;
- the service keeps the tracer current when it is built (the CLI's, for
  ``repro serve`` under ``REPRO_TRACE``) and runs each batch under it on
  the pool thread, where each request's ``service.request`` span roots
  its trace; the event loop opens no spans;
- shutdown (the ``shutdown`` op, :meth:`PolicyService.request_shutdown`,
  or SIGTERM/SIGINT in the CLI) stops accepting, lets each device finish
  and answer the batch it is running, answers every other request --
  queued, already received on a connection (pipelined behind a running
  one), or sent since -- with ``shutting_down``, closes connections that
  are waiting for a request, and tears the metrics thread, ready file,
  and socket down.

:class:`PolicyService` owns the lifecycle.  ``asyncio.run(service.run())``
is the CLI entry; ``service.background()`` runs the same loop on a
daemon thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import (
    COST_FIELDS,
    MetricsRegistry,
    TraceContext,
    adopt_trace_context,
    current_tracer,
    new_trace_id,
    tracing,
)
from repro.obs.export import cost_metrics_snapshot, make_metrics_server
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.session import DeviceSession, SessionConfig

#: Request-latency buckets (seconds): sub-millisecond cache hits through
#: multi-second cold syntheses.  p50/p99 derive from the cumulative
#: bucket counts on the scrape side.
LATENCY_BOUNDS = (
    0.001,
    0.005,
    0.02,
    0.1,
    0.5,
    2.0,
    10.0,
)


@dataclass
class ServerConfig:
    """Where to listen and how hard to work."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 picks an ephemeral port; see PolicyService.address
    socket_path: Optional[str] = None  # UNIX socket; overrides TCP when set
    metrics_host: str = "127.0.0.1"
    metrics_port: Optional[int] = None  # None disables; 0 = ephemeral
    workers: int = 2
    batch_max: int = 32
    heartbeat_seconds: float = 5.0
    #: A batch executing longer than this trips the stall counter (the
    #: engine's own budgets are the actual bound; this is the alarm).
    stall_seconds: float = 120.0
    #: Optional wall-clock bound per request; ``None`` waits forever.
    request_timeout_seconds: Optional[float] = None
    #: When set, a JSON line ``{"address": ..., "pid": ...}`` is written
    #: here once the server accepts connections (CI waits on it).
    ready_file: Optional[str] = None
    session: SessionConfig = field(default_factory=SessionConfig)


class PolicyService:
    """One daemon instance: sessions, queues, telemetry, lifecycle."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.sessions: Dict[str, DeviceSession] = {}
        self._queues: Dict[str, "asyncio.Queue"] = {}
        self._workers: Dict[str, "asyncio.Task"] = {}
        self._busy_since: Dict[str, Optional[float]] = {}
        self._stalled: Dict[str, bool] = {}
        #: Each open connection's handler task and writer; ``_idle`` holds
        #: the handlers waiting for their next request line.
        self._connections: Dict["asyncio.Task", asyncio.StreamWriter] = {}
        self._idle: Set["asyncio.Task"] = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._metrics_httpd = None
        self._metrics_thread: Optional[threading.Thread] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._t0 = time.monotonic()
        self.address: Optional[Tuple[str, int]] = None
        self.metrics_address: Optional[Tuple[str, int]] = None
        #: Every batch runs under this tracer; no tracer is the no-op.
        self.tracer = current_tracer()
        #: The daemon's series; this service is the only code counting
        #: into it (the scrape adds the devices' cost accounts).
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter("service.requests")
        self._errors = self.metrics.counter("service.errors")
        self._latency = self.metrics.histogram(
            "service.request_seconds", bounds=LATENCY_BOUNDS
        )
        self._heartbeats = self.metrics.counter("service.heartbeats")
        self._stalls = self.metrics.counter("service.stalls")
        self._uptime = self.metrics.gauge("service.uptime_seconds")
        self._sessions_gauge = self.metrics.gauge("service.sessions")
        self._queue_gauge = self.metrics.gauge("service.queue_depth")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve until shutdown is requested; cleans up on the way out."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        try:
            # The StreamReader limit must cover the protocol's framing
            # bound, or readline() raises on large (but legal) app dicts.
            limit = protocol.MAX_LINE_BYTES + 1024
            if self.config.socket_path:
                self._server = await asyncio.start_unix_server(
                    self._serve_connection,
                    path=self.config.socket_path,
                    limit=limit,
                )
            else:
                self._server = await asyncio.start_server(
                    self._serve_connection,
                    host=self.config.host,
                    port=self.config.port,
                    limit=limit,
                )
                sock = self._server.sockets[0]
                self.address = sock.getsockname()[:2]
            self._start_metrics()
            self._write_ready_file()
            heartbeat = asyncio.ensure_future(self._heartbeat())
            self._started.set()
            await self._shutdown.wait()
            heartbeat.cancel()
            await self._wind_down()
            await asyncio.gather(heartbeat, return_exceptions=True)
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            raise
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._stop_metrics()
            self._remove_files()

    async def _wind_down(self) -> None:
        """Stop serving so that every request read gets one answer.

        Stop accepting; a device worker running a batch answers it and
        takes no new one, an idle worker stops at once.  Requests still
        queued, and any read meanwhile, are answered ``shutting_down``;
        each connection answers the lines it has already received and
        reads no more (:meth:`_serve_connection`).
        Connections waiting for a request are closed rather than waited
        on, and this returns once every connection has written its last
        answer and closed.
        """
        self._server.close()
        for device, worker in self._workers.items():
            if self._busy_since[device] is None:
                worker.cancel()
        await asyncio.gather(*self._workers.values(), return_exceptions=True)
        self._drain_queues()
        for task in list(self._idle):
            self._connections[task].close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (signal handlers, tests)."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None:
            return
        # A client's ``shutdown`` op may have stopped the loop already;
        # then there is nothing left to stop.
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(event.set)

    # -- background (thread) mode for tests / benches / embedding -------
    def start_background(self) -> "PolicyService":
        """Run :meth:`run` on a daemon thread; returns once accepting."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.run()),
            name="repro-serve-loop",
            daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._start_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._start_error!r}"
            )
        if not self._started.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def stop_background(self, timeout: float = 30.0) -> None:
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("service thread did not stop")
            self._thread = None

    @contextlib.contextmanager
    def background(self):
        self.start_background()
        try:
            yield self
        finally:
            self.stop_background()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        draining = False
        try:
            while True:
                if self._shutdown.is_set() and not draining:
                    # Answer the requests this connection has already
                    # received, pipelined ones included, then close:
                    # read nothing more from the socket.
                    draining = True
                    writer.transport.pause_reading()
                    reader.feed_eof()
                self._idle.add(task)
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the reader limit: the framing itself
                    # is broken, so answer once and close.
                    writer.write(
                        protocol.encode_message(
                            protocol.error_response(
                                None,
                                "line_too_long",
                                f"request exceeds "
                                f"{protocol.MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                except ConnectionError:
                    break
                finally:
                    self._idle.discard(task)
                if not line or (draining and not line.endswith(b"\n")):
                    # End of stream, or a request whose end had not
                    # arrived when shutdown began.
                    break
                if not line.strip():
                    continue
                start = time.perf_counter()
                response, close = await self._respond(line)
                self._requests.inc()
                self._latency.observe(time.perf_counter() - start)
                if not response.get("ok"):
                    self._errors.inc()
                writer.write(protocol.encode_message(response))
                await writer.drain()
                if close:
                    break
        finally:
            del self._connections[task]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, line: bytes) -> Tuple[Dict[str, Any], bool]:
        """One request -> (response, close-connection?)."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            return (
                protocol.error_response(None, exc.kind, exc.message),
                exc.kind == "line_too_long",
            )
        rid = protocol.request_id(request)
        op = request["op"]
        # Every request gets a trace id -- the client's, or a fresh one --
        # echoed in the response and carried into the batch thread so the
        # request's spans all land in one trace.
        trace_id = request.get("trace_id") or new_trace_id()
        request["trace_id"] = trace_id

        def finish(
            result: Dict[str, Any], cost: Optional[Dict[str, float]] = None
        ) -> Dict[str, Any]:
            response = protocol.ok_response(rid, result)
            response["trace_id"] = trace_id
            if cost is not None:
                response["cost"] = cost
            return response

        try:
            if op == "ping":
                return finish(
                    {"pong": True, "version": protocol.PROTOCOL_VERSION}
                ), False
            if op == "shutdown":
                self._shutdown.set()
                return finish({"stopping": True}), True
            if op == "healthz":
                return finish(self._healthz()), False
            if op == "status" and "device" not in request:
                return finish(self._global_status()), False
            result, cost = await self._dispatch_device(request)
            return finish(result, cost), False
        except ProtocolError as exc:
            return protocol.error_response(rid, exc.kind, exc.message), False
        except asyncio.TimeoutError:
            return (
                protocol.error_response(
                    rid,
                    "timeout",
                    f"request exceeded "
                    f"{self.config.request_timeout_seconds}s",
                ),
                False,
            )
        except Exception as exc:  # noqa: BLE001 - survive as a response
            return (
                protocol.error_response(rid, "internal", repr(exc)),
                False,
            )

    async def _dispatch_device(
        self, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, float]]:
        """Queue a device request; resolves to ``(result, cost)``."""
        if self._shutdown.is_set():
            raise ProtocolError("shutting_down", "server is draining")
        device = request["device"]
        queue = self._device_queue(device)
        future: "asyncio.Future" = self._loop.create_future()
        queue.put_nowait((request, future))
        timeout = self.config.request_timeout_seconds
        if timeout is None:
            return await future
        return await asyncio.wait_for(future, timeout=timeout)

    # ------------------------------------------------------------------
    # Per-device sharding
    # ------------------------------------------------------------------
    def _device_queue(self, device: str) -> "asyncio.Queue":
        queue = self._queues.get(device)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[device] = queue
            self.sessions[device] = DeviceSession(
                device, config=self.config.session
            )
            self._busy_since[device] = None
            self._stalled[device] = False
            self._workers[device] = asyncio.ensure_future(
                self._device_worker(device)
            )
            self._sessions_gauge.set(len(self.sessions))
        return queue

    async def _device_worker(self, device: str) -> None:
        """Drain one device's queue in batches, strictly in order, until
        shutdown begins (see :meth:`_wind_down`)."""
        queue = self._queues[device]
        session = self.sessions[device]
        while not self._shutdown.is_set():
            item = await queue.get()
            batch: List[Tuple[Dict[str, Any], "asyncio.Future"]] = [item]
            while len(batch) < max(1, self.config.batch_max):
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._busy_since[device] = time.monotonic()
            try:
                outcomes = await self._loop.run_in_executor(
                    self._pool,
                    self._run_batch,
                    session,
                    [request for request, _future in batch],
                )
            except Exception as exc:  # noqa: BLE001 - answer, don't die
                outcomes = [("error", ("internal", repr(exc)), None)] * len(
                    batch
                )
            finally:
                self._busy_since[device] = None
                self._stalled[device] = False
            for (_request, future), (status, value, cost) in zip(
                batch, outcomes
            ):
                if future.cancelled():
                    continue
                if status == "ok":
                    future.set_result((value, cost))
                else:
                    kind, message = value
                    future.set_exception(ProtocolError(kind, message))
            self._update_session_gauges(device, session)

    def _run_batch(
        self, session: DeviceSession, requests: List[Dict[str, Any]]
    ) -> List[Tuple[str, Any, Dict[str, float]]]:
        """Execute a batch on the pool thread; never raises.

        The batch runs under the service's tracer, installed here because
        ``run_in_executor`` does not carry the loop's context over to the
        pool thread.  Each request runs under its own adopted trace
        context: the request's ``service.request`` span roots its tree
        (or joins the client's, when the request carried a ``trace_id``
        from a traced caller) and the session's synthesis spans nest
        under it.  Each outcome carries the request's cost: what the
        device's account, wall clock included, grew by while the request
        ran.  This thread is the only one running the device's requests,
        so no other request's charges can land in between.
        """
        outcomes: List[Tuple[str, Any, Dict[str, float]]] = []
        with tracing(self.tracer) as tracer:
            for request in requests:
                trace_id = request.get("trace_id")
                ctx = TraceContext(trace_id=trace_id) if trace_id else None
                before = session.ledger.totals()
                start = time.perf_counter()
                with adopt_trace_context(ctx), tracer.span(
                    "service.request",
                    op=request.get("op", ""),
                    device=session.device,
                ):
                    try:
                        status, value = "ok", session.handle(request)
                    except ProtocolError as exc:
                        status, value = "error", (exc.kind, exc.message)
                    except Exception as exc:  # noqa: BLE001
                        status, value = "error", ("internal", repr(exc))
                session.charge(wall_seconds=time.perf_counter() - start)
                after = session.ledger.totals()
                cost = {f: after[f] - before[f] for f in COST_FIELDS}
                outcomes.append((status, value, cost))
        return outcomes

    def _drain_queues(self) -> None:
        """Answer queued-but-unstarted requests ``shutting_down`` instead
        of dropping them."""
        for queue in self._queues.values():
            while True:
                try:
                    _request, future = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if not future.done():
                    future.set_exception(
                        ProtocolError("shutting_down", "server stopped")
                    )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _update_session_gauges(
        self, device: str, session: DeviceSession
    ) -> None:
        metrics = self.metrics
        prefix = f"service.session.{device}"
        metrics.gauge(f"{prefix}.apps").set(len(session.packages()))
        metrics.gauge(f"{prefix}.warm_hit_rate").set(session.warm_hit_rate)
        metrics.gauge(f"{prefix}.queue_depth").set(
            self._queues[device].qsize()
        )
        metrics.gauge(f"{prefix}.syntheses").set(session.syntheses)

    async def _heartbeat(self) -> None:
        interval = max(0.05, self.config.heartbeat_seconds)
        while True:
            self._heartbeats.inc()
            self._uptime.set(time.monotonic() - self._t0)
            self._sessions_gauge.set(len(self.sessions))
            self._queue_gauge.set(
                sum(q.qsize() for q in self._queues.values())
            )
            now = time.monotonic()
            for device, since in self._busy_since.items():
                if since is None or now - since < self.config.stall_seconds:
                    continue
                if not self._stalled[device]:
                    # Flag each stalled batch once; the engine budgets
                    # are what actually bound it.
                    self._stalled[device] = True
                    self._stalls.inc()
            await asyncio.sleep(interval)

    def _global_status(self) -> Dict[str, Any]:
        now = time.monotonic()
        # Never wait on a session lock here: this runs on the event loop,
        # and a busy device's batch thread holds its lock through a whole
        # synthesis.  A busy session reports the status it last took.
        sessions = {
            device: session.status_nowait()
            for device, session in sorted(self.sessions.items())
        }
        return {
            "version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": now - self._t0,
            "sessions": sessions,
            "queue_depth": sum(q.qsize() for q in self._queues.values()),
            "queue_depths": {
                device: queue.qsize()
                for device, queue in sorted(self._queues.items())
            },
            # Age (seconds) of the batch each device is executing right
            # now; None = idle.  The inverse of a latency histogram: it
            # shows the request you are *still waiting on*.
            "inflight_ages": {
                device: (None if since is None else now - since)
                for device, since in sorted(self._busy_since.items())
            },
            "cache_entries": sum(
                s.get("cache_entries", 0) for s in sessions.values()
            ),
            "top_costs": sorted(
                self._cost_entries(),
                key=lambda entry: entry["conflicts"],
                reverse=True,
            )[:5],
        }

    def _cost_entries(self) -> List[Dict[str, Any]]:
        """Every device's cost account, as ledger entries.  The scrape
        thread calls this too: the session list is copied before the
        loop can add to it, and each ledger locks its own reads."""
        return [
            entry
            for session in list(self.sessions.values())
            for entry in session.ledger.entries()
        ]

    def _healthz(self) -> Dict[str, Any]:
        """Cheap liveness summary: no session locks, no ledger reads.

        Unhealthy once shutdown begins or while any device's batch is
        past the stall threshold (those devices are listed).
        """
        inflight = sum(
            1 for since in self._busy_since.values() if since is not None
        )
        stalled = sorted(
            device for device, flagged in self._stalled.items() if flagged
        )
        return {
            "healthy": not self._shutdown.is_set() and not stalled,
            "version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._t0,
            "sessions": len(self.sessions),
            "queue_depth": sum(q.qsize() for q in self._queues.values()),
            "inflight": inflight,
            "stalled_devices": stalled,
        }

    # ------------------------------------------------------------------
    # Side channels: metrics scrape endpoint, ready file
    # ------------------------------------------------------------------
    def _start_metrics(self) -> None:
        if self.config.metrics_port is None:
            return

        def snapshot() -> Dict[str, Any]:
            data = dict(self.metrics.snapshot())
            # Cost series ride the same scrape, one labeled sample per
            # device account: a device's series equal the sum of its
            # replies' `cost` fields.
            data.update(cost_metrics_snapshot(self._cost_entries()))
            return data

        self._metrics_httpd = make_metrics_server(
            snapshot,
            host=self.config.metrics_host,
            port=self.config.metrics_port,
        )
        self.metrics_address = self._metrics_httpd.server_address[:2]
        self._metrics_thread = threading.Thread(
            target=self._metrics_httpd.serve_forever,
            name="repro-serve-metrics",
            daemon=True,
        )
        self._metrics_thread.start()

    def _stop_metrics(self) -> None:
        if self._metrics_httpd is not None:
            self._metrics_httpd.shutdown()
            self._metrics_httpd.server_close()
            self._metrics_httpd = None
        if self._metrics_thread is not None:
            self._metrics_thread.join(timeout=10.0)
            self._metrics_thread = None

    def _write_ready_file(self) -> None:
        if not self.config.ready_file:
            return
        payload = {
            "pid": os.getpid(),
            "address": (
                self.config.socket_path
                if self.config.socket_path
                else list(self.address)
            ),
            "metrics": list(self.metrics_address)
            if self.metrics_address
            else None,
        }
        with open(self.config.ready_file, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")

    def _remove_files(self) -> None:
        for path in (self.config.ready_file, self.config.socket_path):
            if path:
                with contextlib.suppress(OSError):
                    os.unlink(path)


__all__ = ["PolicyService", "ServerConfig", "LATENCY_BOUNDS"]
