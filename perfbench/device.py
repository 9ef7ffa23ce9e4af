"""``device_stream``: the ``repro serve`` loop under a closed-loop client.

The daemon is its own process started through the real CLI entry
(``python3 -m repro serve``), so its metrics registry and cost ledger are
on as users run it.  One client thread drives it over two connections,
one device each, in a closed loop: the devices take turns request by
request, so one request is in flight at a time.

Before timing, the client installs each device's apps, pays one
analysis per device, and sends ``WARMUP_REQUESTS`` decides: every device
request opens a cost-ledger account, and ``totals(trace_id=...)`` scans
every account on every reply, so latency only settles once the ledger
holds its 4,096-account capacity.  The timed phase then plays each
device's cycles (see ``inputs.device_inputs``) side by side.

Correctness, checked after the timed phase: every request succeeded or
counts as failed; each mutation reports the expected resident packages;
each ``analyze`` is byte-identical to ``cold_analysis`` of the same
grant-effective composition; each ``decide`` verdict equals the linear
PDP's verdict under that composition's policies.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
from typing import Any, Dict, List, Tuple

import common
import inputs

#: Cycles per device per second of ``--seconds``; fixes the stream length
#: so a seed always gets the same work, and spans about one period of the
#: cost ledger's slow-down (see NOTES.md).
NOMINAL_CYCLES_PER_SECOND = 15
MIN_CYCLES = 50  # two devices: at least 100 refreshes per run
WARMUP_REQUESTS = 4608  # above the daemon's 4,096-account cost ledger
#: Daemons launched before and after the measured one only for their
#: set-up time, so ``setup_s`` is a median over 2 * SETUP_EXTRA + 1 launches.
SETUP_EXTRA = 2


def cycles_for(seconds: int) -> int:
    return max(MIN_CYCLES, round(seconds * NOMINAL_CYCLES_PER_SECOND))


class Daemon:
    """One ``repro serve`` process on an ephemeral localhost port."""

    def __init__(self, trace_dir: str = "") -> None:
        self.ready_file = os.path.join(common.WORK, f"ready-{os.getpid()}.json")
        args = ["serve", "--port", "0", "--metrics-port", "0",
                "--ready-file", self.ready_file, "--scenarios", str(inputs.SCENARIOS)]
        if trace_dir:
            cmd = [sys.executable, os.path.join(common.HERE, "launch_serve.py"), trace_dir] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        if os.path.exists(self.ready_file):
            os.unlink(self.ready_file)
        self.launched = common.now()
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        )
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready = common.now()

    def _wait_ready(self) -> Tuple[str, int]:
        deadline = common.now() + 60.0
        while common.now() < deadline:
            if self.proc.poll() is not None:
                raise common.BenchError(f"repro serve exited with {self.proc.returncode}")
            try:
                with open(self.ready_file, encoding="utf-8") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    host, port = json.loads(text)["address"]
                    return host, port
            except FileNotFoundError:
                pass
            threading.Event().wait(0.002)
        raise common.BenchError("repro serve did not become ready")

    def peak_rss_kib(self) -> int:
        return common.proc_peak_rss_kib(self.proc.pid)

    def stop(self) -> None:
        try:
            with Connection(self.address) as conn:
                conn.call({"id": 0, "op": "shutdown"})
            code = self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if code != 0:
            raise common.BenchError(f"repro serve exited with status {code}")


class Connection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=120)
        self.file = self.sock.makefile("rwb")

    def send(self, line: bytes) -> bytes:
        self.file.write(line)
        self.file.flush()
        return self.file.readline()

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        raw = self.send(json.dumps(message).encode("utf-8") + b"\n")
        return json.loads(raw) if raw else {"ok": False, "error": {"kind": "closed"}}

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()
        self.sock.close()


# ----------------------------------------------------------------------
# The request stream

def _line(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def _requests(device: Dict[str, Any], warmup: int) -> Dict[str, List[Tuple[str, Any, bytes]]]:
    """(kind, state-or-event, request line) per phase, ids and trace ids set."""
    name = device["name"]
    events = device["events"]
    seq = [0]

    def req(kind, state, message):
        seq[0] += 1
        message.update(id=seq[0], device=name, trace_id=f"{name}-{seq[0]}")
        return (kind, state, _line(message))

    def decide(kind, state, index):
        event = events[index]
        return req(kind, (state, index), {"op": "decide", "kind": event["kind"], "event": event["event"]})

    state = (True, False)
    setup, resident = [], []
    for app in inputs.device_composition(device, state):
        resident = sorted(resident + [app["package"]])
        setup.append(req("install", resident, {"op": "install", "app": app}))
    setup.append(req("analyze", state, {"op": "analyze"}))
    warm = [decide("decide", state, i % len(events)) for i in range(warmup)]
    timed = []
    for cycle in device["cycles"]:
        state = tuple(cycle["state"])
        mutation = dict(cycle["mutation"])
        if mutation["op"] == "install":
            mutation["app"] = device["apps"][mutation.pop("package")]
        elif mutation["op"] == "update":
            version = mutation.pop("version")
            package = mutation.pop("package")
            mutation["app"] = device["v2"] if version == 2 else device["apps"][package]
        timed.append(req("mutation", state, mutation))
        refresh = cycle["refresh"]
        if refresh["op"] == "analyze":
            timed.append(req("refresh_analyze", state, {"op": "analyze"}))
        else:
            timed.append(decide("refresh_decide", state, refresh["event"]))
        timed.extend(decide("decide", state, i) for i in cycle["decides"])
    return {"setup": setup, "warm": warm, "timed": timed}


def _play(address, plans, recorder=None, root=None) -> List[Dict[str, List]]:
    """Play each device's plan on its own connection, from one thread and
    one request at a time: the devices take turns request by request, so
    cycle ``i`` of every device runs side by side."""
    records = [dict(timed=[]) for _ in plans]
    with contextlib.ExitStack() as stack:
        conns = [stack.enter_context(Connection(address)) for _ in plans]
        for phase in ("setup", "warm"):
            for plan, rec, conn in zip(plans, records, conns):
                rec[phase] = [(k, s, conn.send(line)) for k, s, line in plan[phase]]
        now = common.now
        for rows in zip(*(plan["timed"] for plan in plans)):
            for (kind, state, line), rec, conn in zip(rows, records, conns):
                t0 = now()
                raw = conn.send(line)
                rec["timed"].append((kind, state, raw, t0, now()))
    if recorder is not None:
        for plan, rec in zip(plans, records):
            for (_kind, _state, line), (*_, t0, t1) in zip(plan["timed"], rec["timed"]):
                tid = json.loads(line)["trace_id"]
                recorder.spans.append({
                    "name": "client.request", "id": f"c{tid}", "parent": root["id"],
                    "trace": tid, "ctx": "client", "start": t0, "end": t1,
                })
    return records


def _setup_only() -> float:
    """Launch-to-ready of a daemon that serves nothing (a set-up sample
    taken apart from the measured daemon's, so the median spans the run)."""
    daemon = Daemon()
    daemon.stop()
    return daemon.ready - daemon.launched


def play(seed: int, seconds: int, trace_dir: str = "") -> Dict[str, Any]:
    """Launch, warm up, time the stream, stop; returns the raw records."""
    data = inputs.device_inputs(seed, cycles_for(seconds))
    inputs_digest = common.digest(data)
    recorded = common.check_inputs("device_stream", seed, inputs_digest, seconds)
    per_device = WARMUP_REQUESTS // len(data["devices"])
    plans = [_requests(d, per_device) for d in data["devices"]]

    setups = [_setup_only() for _ in range(SETUP_EXTRA)]
    daemon = Daemon(trace_dir)
    setups.append(daemon.ready - daemon.launched)
    recorder = root = None
    if trace_dir:
        import tracing

        recorder = tracing.Recorder(trace_dir)
    try:
        if recorder is not None:
            root = recorder.begin("bench.root")
        records = _play(daemon.address, plans, recorder, root)
        t0 = min(rec["timed"][0][3] for rec in records)
        t1 = max(rec["timed"][-1][4] for rec in records)
        if recorder is not None:
            root["start"] = t0
            recorder.end(root)
            root["end"] = t1
            recorder.flush()
        rss = daemon.peak_rss_kib()
    finally:
        daemon.stop()
    setups += [_setup_only() for _ in range(SETUP_EXTRA)]
    return {
        "data": data, "records": records, "wall": t1 - t0, "setups": setups,
        "rss_kib": rss, "inputs": inputs_digest, "recorded": recorded,
        "warmup": per_device * len(plans),
    }


# ----------------------------------------------------------------------
# Checks and metrics

class _Oracle:
    """Cold answers per (device, state): findings and the linear PDP."""

    def __init__(self) -> None:
        from repro.service.session import SessionConfig

        self.config = SessionConfig(scenarios_per_signature=inputs.SCENARIOS)
        self._cold: Dict[Any, Tuple[str, Any]] = {}
        self._verdicts: Dict[Any, str] = {}

    def cold(self, device: Dict[str, Any], state) -> Tuple[str, Any]:
        key = (device["name"], tuple(state))
        if key not in self._cold:
            from repro.core import serialize
            from repro.core.incremental import effective_app
            from repro.enforcement import make_pdp
            from repro.enforcement.pdp import deny_all_prompts
            from repro.service.session import cold_analysis

            apps = [
                effective_app(serialize.app_from_dict(app), inputs.device_granted(device, app, state))
                for app in inputs.device_composition(device, state)
            ]
            findings = cold_analysis(apps, self.config)
            pdp = make_pdp(
                [serialize.policy_from_dict(p) for p in findings["policies"]],
                backend="linear", prompt_callback=deny_all_prompts,
            )
            self._cold[key] = (json.dumps(findings, sort_keys=True), pdp)
        return self._cold[key]

    def verdict(self, device: Dict[str, Any], state, index: int) -> str:
        """The linear PDP's verdict on event ``index`` in ``state`` (one
        decision per distinct event and composition)."""
        key = (device["name"], tuple(state), index)
        if key not in self._verdicts:
            from repro.android.resources import Resource
            from repro.core.policy import IccEvent, PolicyEvent

            event = device["events"][index]
            body = event["event"]
            icc = IccEvent(
                sender=body["sender"],
                receiver=body.get("receiver"),
                action=body.get("action"),
                extras=frozenset(Resource(r) for r in body.get("extras", ())),
                sender_permissions=frozenset(body.get("sender_permissions", ())),
            )
            pdp = self.cold(device, state)[1]
            self._verdicts[key] = pdp.decide(PolicyEvent(event["kind"]), icc).value
        return self._verdicts[key]


def check(run: Dict[str, Any]) -> Tuple[int, int]:
    """Gate every answer; returns (attempted, failed)."""
    oracle = _Oracle()
    attempted = failed = 0
    for device, records in zip(run["data"]["devices"], run["records"]):
        rows = [(k, s, raw) for k, s, raw in records["setup"] + records["warm"]]
        rows += [(k, s, raw) for k, s, raw, _t0, _t1 in records["timed"]]
        attempted += len(rows)
        for kind, state, raw in rows:
            response = json.loads(raw) if raw else {}
            if not response.get("ok"):
                failed += 1
                continue
            result = response["result"]
            if kind in ("install", "mutation"):
                expected = state if kind == "install" else sorted(
                    a["package"] for a in inputs.device_composition(device, state)
                )
                if result.get("installed") != expected:
                    raise common.GateFailure(
                        f"{device['name']}: mutation left {result.get('installed')}, expected {expected}"
                    )
            elif kind in ("analyze", "refresh_analyze"):
                if json.dumps(result, sort_keys=True) != oracle.cold(device, state)[0]:
                    raise common.GateFailure(
                        f"{device['name']}: analyze in state {state} differs from cold_analysis"
                    )
            else:
                state, index = state
                expected = oracle.verdict(device, state, index)
                if result.get("decision") != expected:
                    raise common.GateFailure(
                        f"{device['name']}: decide verdict {result.get('decision')} in state "
                        f"{state}, linear PDP says {expected}"
                    )
    return attempted, failed


def summarize(run: Dict[str, Any]):
    lat: Dict[str, List[float]] = {"decide": [], "refresh": [], "mutation": []}
    completed = 0
    for records in run["records"]:
        for kind, _state, raw, t0, t1 in records["timed"]:
            if not raw or not json.loads(raw).get("ok"):
                continue
            completed += 1
            group = "refresh" if kind.startswith("refresh") else kind
            lat[group].append((t1 - t0) * 1e3)
    metrics = {
        "setup_s": common.median(run["setups"]),
        "peak_rss_mb": run["rss_kib"] / 1024.0,
        "latency_ms": common.percentile(lat["refresh"], 0.5),
        "latency_p90_ms": common.percentile(lat["refresh"], 0.9),
    }
    details = {
        "inputs_digest": run["inputs"],
        "inputs_recorded": run["recorded"],
        "warmup_requests": run["warmup"],
        "timed_requests": completed,
        "samples": {k: len(v) for k, v in lat.items()},
        "mutation_p50_ms": common.percentile(lat["mutation"], 0.5),
        "decide_p50_ms": common.percentile(lat["decide"], 0.5),
        "decide_p90_ms": common.percentile(lat["decide"], 0.9),
        "timed_wall_s": run["wall"],
        "requests_per_s": completed / run["wall"],
    }
    return metrics, details


def timed(workload: str, seed: int, seconds: int):
    run = play(seed, seconds)
    attempted, failed = check(run)
    metrics, details = summarize(run)
    return attempted, failed, metrics, details


def trace(workload: str, seed: int, seconds: int, trace_dir: str) -> Dict[str, Any]:
    untraced = play(seed, seconds)
    attempted, failed = check(untraced)
    traced = play(seed, seconds, trace_dir)
    more_attempted, more_failed = check(traced)
    _, details = summarize(traced)
    return {
        "attempted": attempted + more_attempted,
        "failed": failed + more_failed,
        "untraced_wall": untraced["wall"],
        "traced_wall": traced["wall"],
        "details": details,
    }
