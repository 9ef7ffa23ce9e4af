#!/usr/bin/env python3
"""Verify the structural integrity of a JSONL span trace.

A healthy trace from `repro pipeline --trace` (or one `repro serve`
request) is a single causally-linked tree: every span carries the run's
trace id, every ``parent_id`` resolves to another span in the file --
including across process boundaries, where worker spans must attach
under the orchestrator's dispatch span -- and exactly one span (the
root) has no parent.

Checks, in order:

1. span ids are unique;
2. every non-null ``parent_id`` resolves to a span in the trace
   (no orphans);
3. the number of roots (spans with no parent) equals ``--expect-roots``
   (default 1);
4. every span carries a trace id, children inherit their parent's, and
   the file holds exactly as many distinct trace ids as roots;
5. no span is left open (begin without end) unless ``--allow-open``;
6. every solver heartbeat (``progress`` event) carries one of the
   trace's ids and a ``span_id`` that resolves to a span in the trace.

Exit status: 0 when the trace is intact, 1 otherwise (one line per
violation).  Importable from tests: ``check_trace(path)`` returns the
list of violation strings.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

# Allow running straight from a checkout without PYTHONPATH=src.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs import read_events  # noqa: E402


def check_trace(
    path: str,
    expect_roots: int = 1,
    allow_open: bool = False,
) -> List[str]:
    """Return every integrity violation in the trace at ``path``."""
    records, events = read_events(path)
    problems: List[str] = []
    if not records:
        return [f"{path}: no spans recorded"]

    by_id = {}
    for record in records:
        if record.span_id in by_id:
            problems.append(f"duplicate span id {record.span_id!r}")
        by_id[record.span_id] = record

    roots = [r for r in records if r.parent_id is None]
    for record in records:
        if record.parent_id is not None and record.parent_id not in by_id:
            problems.append(
                f"orphaned span {record.span_id!r} ({record.name}): "
                f"parent {record.parent_id!r} not in trace"
            )
    if len(roots) != expect_roots:
        names = ", ".join(f"{r.name} ({r.span_id})" for r in roots)
        problems.append(
            f"expected {expect_roots} root span(s), found {len(roots)}"
            + (f": {names}" if names else "")
        )

    missing = [r for r in records if not r.trace_id]
    if missing:
        names = sorted({r.name for r in missing})
        problems.append(
            f"{len(missing)} span(s) carry no trace id "
            f"(names: {', '.join(names)})"
        )
    for record in records:
        parent = by_id.get(record.parent_id) if record.parent_id else None
        if (
            parent is not None
            and record.trace_id
            and parent.trace_id
            and record.trace_id != parent.trace_id
        ):
            problems.append(
                f"span {record.span_id!r} ({record.name}) has trace id "
                f"{record.trace_id!r} but its parent has "
                f"{parent.trace_id!r}"
            )
    trace_ids = {r.trace_id for r in records if r.trace_id}
    if not missing and len(trace_ids) != expect_roots:
        problems.append(
            f"expected {expect_roots} distinct trace id(s), "
            f"found {len(trace_ids)}: {sorted(trace_ids)}"
        )

    if not allow_open:
        for record in records:
            if record.open:
                problems.append(
                    f"span {record.span_id!r} ({record.name}) never "
                    "completed (begin without end)"
                )

    for event in events:
        if event.get("event") != "progress":
            continue
        if event.get("trace_id") not in trace_ids:
            problems.append(
                f"heartbeat from pid {event.get('pid')} carries trace id "
                f"{event.get('trace_id')!r}, not one of the trace's"
            )
        if event.get("span_id") not in by_id:
            problems.append(
                f"heartbeat from pid {event.get('pid')} names span "
                f"{event.get('span_id')!r}, which is not in the trace"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check that a JSONL span trace is one intact tree."
    )
    parser.add_argument("trace_file", help="JSONL trace file to check")
    parser.add_argument(
        "--expect-roots",
        type=int,
        default=1,
        help="required number of parentless spans (default: %(default)s)",
    )
    parser.add_argument(
        "--allow-open",
        action="store_true",
        help="tolerate unfinished spans (e.g. a killed worker)",
    )
    args = parser.parse_args(argv)
    try:
        problems = check_trace(
            args.trace_file,
            expect_roots=args.expect_roots,
            allow_open=args.allow_open,
        )
    except OSError as exc:
        print(f"check_trace_integrity: cannot read {args.trace_file}: {exc}")
        return 1
    for problem in problems:
        print(f"{args.trace_file}: {problem}")
    if problems:
        print(f"{len(problems)} integrity violation(s)")
        return 1
    records, events = read_events(args.trace_file)
    trace_ids = sorted({r.trace_id for r in records if r.trace_id})
    heartbeats = sum(1 for e in events if e.get("event") == "progress")
    print(
        f"{args.trace_file}: {len(records)} spans, {heartbeats} heartbeats, "
        f"{len(trace_ids)} trace(s) {trace_ids}, tree intact"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
