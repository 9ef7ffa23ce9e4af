"""Live solver progress telemetry: snapshots and heartbeat tailing.

A long CDCL solve is opaque from the outside: the pipeline's timeout
machinery can kill it, but cannot tell a solver that is *stuck* (no
conflicts happening, e.g. hung I/O) from one that is *slow* (conflicts
ticking away on a hard instance).  The solver therefore publishes periodic
:class:`ProgressSnapshot`\\ s -- conflicts, rates, restarts, learned-DB
size, trail depth, budget headroom -- through the tracer current where
the solve runs (:func:`~repro.obs.trace.current_tracer`,
:meth:`~repro.obs.trace.Tracer.heartbeat`), every ``heartbeat_interval``
conflicts, an interval the tracer's owner sets.  They land as
``{"event": "progress", ...}`` heartbeat lines in the JSONL trace file (the same ``O_APPEND``
channel pipeline worker spans use), which :class:`HeartbeatMonitor`
tails for the ``repro pipeline --watch`` live view.

The default tracer has interval ``0`` and publishes nothing: the solver's
only cost is one integer test per conflict.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass
class ProgressSnapshot:
    """One point-in-time view of a running (or just-finished) solve."""

    ts: float  # epoch seconds at publication
    pid: int
    solve_id: int  # per-solver-instance solve() call counter
    conflicts: int
    decisions: int
    propagations: int
    restarts: int
    learned: int  # learned clauses currently in the database
    trail: int  # current assignment trail depth
    conflicts_per_sec: float
    budget_remaining: Optional[int] = None  # None = unbudgeted solve

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": "progress",
            "ts": self.ts,
            "pid": self.pid,
            "solve_id": self.solve_id,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": self.learned,
            "trail": self.trail,
            "conflicts_per_sec": self.conflicts_per_sec,
            "budget_remaining": self.budget_remaining,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ProgressSnapshot":
        return ProgressSnapshot(
            ts=data.get("ts", 0.0),
            pid=data.get("pid", 0),
            solve_id=data.get("solve_id", 0),
            conflicts=data.get("conflicts", 0),
            decisions=data.get("decisions", 0),
            propagations=data.get("propagations", 0),
            restarts=data.get("restarts", 0),
            learned=data.get("learned", 0),
            trail=data.get("trail", 0),
            conflicts_per_sec=data.get("conflicts_per_sec", 0.0),
            budget_remaining=data.get("budget_remaining"),
        )


# ----------------------------------------------------------------------
# Cross-process heartbeat tailing


def _format_heartbeat(snap: ProgressSnapshot) -> str:
    budget = (
        f" budget={snap.budget_remaining}"
        if snap.budget_remaining is not None
        else ""
    )
    return (
        f"pid {snap.pid} solve#{snap.solve_id}: "
        f"{snap.conflicts} conflicts ({snap.conflicts_per_sec:,.0f}/s), "
        f"{snap.decisions} decisions, {snap.restarts} restarts, "
        f"learned={snap.learned}, trail={snap.trail}{budget}"
    )


class HeartbeatMonitor:
    """Tails a JSONL trace file for solver heartbeats across processes.

    Because heartbeat lines ride the ``O_APPEND`` trace channel, this
    works for serial runs and process-pool workers alike.  Each freshly
    observed snapshot is logged at INFO on ``logger``; a pid that has
    heartbeated before but then goes silent for ``stall_after`` seconds is
    flagged at WARNING -- the live distinction between a *slow* solve
    (heartbeats keep coming) and a *stuck* one (they stop while the task
    is still running).  Stall detection is per *episode*: one warning when
    a pid goes silent, an INFO line when its heartbeats resume, and the
    warning re-arms so a worker that stalls again warns again
    (``stall_count`` counts the episodes).  ``poll()`` is synchronous and
    idempotent; ``start()``/``stop()`` run it on a daemon thread.
    """

    def __init__(
        self,
        path: str,
        stall_after: float = 10.0,
        poll_interval: float = 0.5,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        self.path = str(path)
        self.stall_after = stall_after
        self.poll_interval = poll_interval
        self.logger = logger or logging.getLogger("repro.watch")
        self._offset = 0
        self._buffer = b""
        self._latest: Dict[int, ProgressSnapshot] = {}
        self._last_seen: Dict[int, float] = {}
        self._stalled: Dict[int, bool] = {}
        self._stall_count: Dict[int, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- observation state -------------------------------------------------
    def latest(self, pid: int) -> Optional[ProgressSnapshot]:
        return self._latest.get(pid)

    def pids(self) -> List[int]:
        return sorted(self._latest)

    def stalled_pids(self, now: Optional[float] = None) -> List[int]:
        now = time.monotonic() if now is None else now
        return sorted(
            pid
            for pid, seen in self._last_seen.items()
            if now - seen >= self.stall_after
        )

    def stall_count(self, pid: int) -> int:
        """How many distinct stall episodes ``pid`` has been flagged for."""
        return self._stall_count.get(pid, 0)

    # -- polling -----------------------------------------------------------
    def poll(self, now: Optional[float] = None) -> List[ProgressSnapshot]:
        """Read newly appended heartbeat lines; returns the new snapshots."""
        fresh: List[ProgressSnapshot] = []
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return fresh
        self._offset += len(chunk)
        self._buffer += chunk
        # O_APPEND writes are whole lines, but a read may still land between
        # two writes -- keep any trailing partial line for the next poll.
        *lines, self._buffer = self._buffer.split(b"\n")
        now = time.monotonic() if now is None else now
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                data = json.loads(raw)
            except ValueError:
                continue
            if data.get("event") != "progress":
                continue
            snap = ProgressSnapshot.from_dict(data)
            self._latest[snap.pid] = snap
            self._last_seen[snap.pid] = now
            if self._stalled.get(snap.pid):
                # End of a stall episode: say so, and re-arm the warning
                # so a second stall of the same pid warns again.
                self.logger.info(
                    "pid %d: heartbeats resumed after stall", snap.pid
                )
            self._stalled[snap.pid] = False
            fresh.append(snap)
            self.logger.info("%s", _format_heartbeat(snap))
        for pid in self.stalled_pids(now):
            if not self._stalled.get(pid):
                self._stalled[pid] = True
                self._stall_count[pid] = self._stall_count.get(pid, 0) + 1
                self.logger.warning(
                    "pid %d: no heartbeat for %.1fs (stuck, finished, or "
                    "killed -- check the run report)",
                    pid,
                    self.stall_after,
                )
        return fresh

    # -- background thread -------------------------------------------------
    def start(self) -> "HeartbeatMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.poll()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.poll()  # drain whatever arrived after the last tick
