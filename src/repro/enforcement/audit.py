"""The enforcement audit log: every PDP decision, ordered and queryable.

A real reference-validation mechanism must leave an audit trail; here
every call to :meth:`~repro.enforcement.pdp.PolicyDecisionPoint.decide`
appends one :class:`AuditRecord` carrying the intercepted ICC event, the
policy that matched (if any), the verdict, and -- for PROMPT policies --
the user's answer.  Records are numbered with a monotonically increasing
sequence counter under a lock, so the log's order is exactly the order in
which decisions were made even when the runtime's queued ICC dispatch
interleaves deliveries from many components.

By default the log keeps every record in memory and serializes to JSONL
(:meth:`AuditLog.write` / :meth:`AuditLog.load`; ``repro simulate
--audit`` writes one per enforcement run).  At enforcement-traffic rates
an unbounded in-memory log is wrong, so three retention controls exist
(all off by default -- see ``docs/ENFORCEMENT.md``):

- ``window=N`` bounds the resident record list; overflow evicts the
  oldest records in amortized batches (**rotation**).
- ``spill_dir=DIR`` makes rotation durable: each evicted batch appends
  to a numbered JSONL segment file (``audit-000000.jsonl``, ...) instead
  of being dropped; :meth:`iter_all` / :meth:`dump_all` stitch segments
  and the resident window back together in sequence order.
- ``sample_default_allow=N`` materializes only one in every N
  *default-allow fallthrough* records (no policy matched -- the
  overwhelming bulk of benign traffic); denials, prompts, and every
  matched-policy decision are always materialized.

Retention never lies: sequence numbers advance for every decision, and
:meth:`summary` counts from exact counters maintained at append time, so
its totals cover rotated-away and sampled-out decisions too.
:meth:`retention` reports what was elided.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional


@dataclass
class AuditRecord:
    """One PDP decision over one intercepted ICC event."""

    seq: int
    event_kind: str  # icc_send / icc_receive
    sender: str
    receiver: Optional[str]
    action: Optional[str]
    payload: List[str]  # sorted resource names carried by the event
    sender_permissions: List[str]
    verdict: str  # allow / deny
    policy_vulnerability: Optional[str] = None
    policy_action: Optional[str] = None  # deny / prompt (None: no match)
    policy_description: Optional[str] = None
    prompted: bool = False
    prompt_approved: Optional[bool] = None
    context: Optional[str] = None  # hooked API signature, when known

    @property
    def matched(self) -> bool:
        return self.policy_vulnerability is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "event_kind": self.event_kind,
            "sender": self.sender,
            "receiver": self.receiver,
            "action": self.action,
            "payload": list(self.payload),
            "sender_permissions": list(self.sender_permissions),
            "verdict": self.verdict,
            "policy_vulnerability": self.policy_vulnerability,
            "policy_action": self.policy_action,
            "policy_description": self.policy_description,
            "prompted": self.prompted,
            "prompt_approved": self.prompt_approved,
            "context": self.context,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "AuditRecord":
        return AuditRecord(
            seq=data["seq"],
            event_kind=data["event_kind"],
            sender=data["sender"],
            receiver=data.get("receiver"),
            action=data.get("action"),
            payload=list(data.get("payload", ())),
            sender_permissions=list(data.get("sender_permissions", ())),
            verdict=data["verdict"],
            policy_vulnerability=data.get("policy_vulnerability"),
            policy_action=data.get("policy_action"),
            policy_description=data.get("policy_description"),
            prompted=data.get("prompted", False),
            prompt_approved=data.get("prompt_approved"),
            context=data.get("context"),
        )


class AuditLog:
    """An append-only, thread-safe, ordered log of PDP decisions.

    ``window`` / ``spill_dir`` / ``sample_default_allow`` configure
    retention (rotation and sampling); by default every record stays
    resident, matching the original unbounded behaviour.
    """

    def __init__(
        self,
        window: Optional[int] = None,
        spill_dir: Optional[str] = None,
        sample_default_allow: int = 1,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be a positive record count")
        self._lock = threading.Lock()
        self.records: Deque[AuditRecord] = deque()
        self.window = window
        self.spill_dir = spill_dir
        self.sample_default_allow = max(1, int(sample_default_allow))
        self._seq = 0
        self._counts = {
            "decisions": 0,
            "allowed": 0,
            "denied": 0,
            "prompted": 0,
            "matched": 0,
        }
        self._fallthroughs = 0
        self._sampled_out = 0
        self._rotated = 0
        self._segments: List[str] = []

    def append(self, **fields: Any) -> AuditRecord:
        """Number and store a record (``seq`` is assigned here).

        The sequence number always advances and the summary counters are
        always updated; whether the record itself stays resident is
        subject to sampling and rotation.
        """
        with self._lock:
            record = AuditRecord(seq=self._seq, **fields)
            self._seq += 1
            self._count(record)
            if self._sampled_away(record):
                self._sampled_out += 1
                return record
            self.records.append(record)
            if self.window is not None and len(self.records) > self.window:
                self._rotate()
        return record

    def _count(self, record: AuditRecord) -> None:
        counts = self._counts
        counts["decisions"] += 1
        if record.verdict == "allow":
            counts["allowed"] += 1
        else:
            counts["denied"] += 1
        if record.prompted:
            counts["prompted"] += 1
        if record.matched:
            counts["matched"] += 1

    def _sampled_away(self, record: AuditRecord) -> bool:
        """1-in-N sampling of default-allow fallthroughs: keep the first
        of every N; everything that matched a policy is always kept."""
        if self.sample_default_allow <= 1:
            return False
        if record.matched or record.verdict != "allow" or record.prompted:
            return False
        self._fallthroughs += 1
        return (self._fallthroughs - 1) % self.sample_default_allow != 0

    def _rotate(self) -> None:
        """Evict the oldest records (amortized: overflow plus half the
        window per rotation) into a spill segment, or drop them when no
        ``spill_dir`` is configured.  Caller holds the lock."""
        assert self.window is not None
        evict_n = len(self.records) - self.window + max(1, self.window // 2)
        evict_n = min(evict_n, len(self.records))
        evicted = [self.records.popleft() for _ in range(evict_n)]
        self._rotated += len(evicted)
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
            path = os.path.join(
                self.spill_dir, f"audit-{len(self._segments):06d}.jsonl"
            )
            with open(path, "w", encoding="utf-8") as handle:
                for record in evicted:
                    handle.write(json.dumps(record.to_dict(), sort_keys=True))
                    handle.write("\n")
            self._segments.append(path)

    def __len__(self) -> int:
        """Resident records (see ``summary()['decisions']`` for the exact
        all-time decision count)."""
        return len(self.records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(list(self.records))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        verdict: Optional[str] = None,
        vulnerability: Optional[str] = None,
        sender: Optional[str] = None,
        receiver: Optional[str] = None,
        prompted: Optional[bool] = None,
        matched: Optional[bool] = None,
    ) -> List[AuditRecord]:
        """Filter resident records; every given criterion must hold."""
        out = []
        for record in list(self.records):
            if verdict is not None and record.verdict != verdict:
                continue
            if (
                vulnerability is not None
                and record.policy_vulnerability != vulnerability
            ):
                continue
            if sender is not None and record.sender != sender:
                continue
            if receiver is not None and record.receiver != receiver:
                continue
            if prompted is not None and record.prompted != prompted:
                continue
            if matched is not None and record.matched != matched:
                continue
            out.append(record)
        return out

    def denials(self) -> List[AuditRecord]:
        return self.query(verdict="deny")

    def allows(self) -> List[AuditRecord]:
        return self.query(verdict="allow")

    def summary(self) -> Dict[str, int]:
        """Headline counts for dashboards and CLI output.

        Computed from exact counters maintained at append time, so the
        totals are truthful even when rotation evicted or sampling
        skipped the underlying records.
        """
        return dict(self._counts)

    def retention(self) -> Dict[str, int]:
        """What retention elided: resident vs rotated vs sampled-out."""
        return {
            "resident": len(self.records),
            "rotated": self._rotated,
            "sampled_out": self._sampled_out,
            "segments": len(self._segments),
        }

    @property
    def segments(self) -> List[str]:
        """Spill segment paths, oldest first."""
        return list(self._segments)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        """JSONL of the *resident* records, in sequence order (rotated
        segments live in their spill files; see :meth:`dump_all`)."""
        return "".join(
            json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in self.records
        )

    def iter_all(self) -> Iterator[AuditRecord]:
        """Every retained record -- spilled segments first, then the
        resident window -- in sequence order."""
        for path in list(self._segments):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        yield AuditRecord.from_dict(json.loads(line))
        yield from list(self.records)

    def dump_all(self) -> str:
        """JSONL across every spill segment plus the resident window."""
        return "".join(
            json.dumps(r.to_dict(), sort_keys=True) + "\n"
            for r in self.iter_all()
        )

    def write(self, path: str) -> None:
        """Write every retained record (segments included) to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dump_all())

    @staticmethod
    def from_records(records: Iterable[AuditRecord]) -> "AuditLog":
        log = AuditLog()
        log.records = deque(sorted(records, key=lambda r: r.seq))
        for record in log.records:
            log._count(record)
        log._seq = log.records[-1].seq + 1 if log.records else 0
        return log

    @staticmethod
    def loads(text: str) -> "AuditLog":
        records = [
            AuditRecord.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return AuditLog.from_records(records)

    @staticmethod
    def load(path: str) -> "AuditLog":
        with open(path, "r", encoding="utf-8") as handle:
            return AuditLog.loads(handle.read())
