"""Chrome trace-event export: open a causal journal in Perfetto.

Serializes a :class:`~repro.obs.journal.Journal` into the Chrome
trace-event JSON object format (the ``{"traceEvents": [...]}`` shape
both ``chrome://tracing`` and https://ui.perfetto.dev load directly).
Mapping:

* each causal tree (one honeypot session, one sim-run bracket, ...)
  becomes a *thread* (``tid``), named after its root event, so
  Perfetto's track view shows one lane per session;
* each non-root event becomes a complete slice (``ph: "X"``) spanning
  its causal edge: it starts at the parent's timestamp and ends at its
  own — the visual length of a slice *is* the edge cost the
  critical-path engine charges;
* root events become instant events (``ph: "i"``);
* timestamps are microseconds of simulated time (the trace clock is
  the simulation clock, not wall time);
* events on the time-weighted critical path get category
  ``critical`` (filterable in the UI); every other event is
  ``journal``.

The export is pure replay-side analysis — built from the journal file
alone, usable long after the run, on any byte-identical journal.
"""

from __future__ import annotations

import json
import os
from typing import Any, Collection, Dict, List

from .export import write_json
from .journal import JOURNAL_SCHEMA, Journal, build_tree

__all__ = [
    "TRACE_SCHEMA",
    "journal_to_trace",
    "validate_trace",
    "write_trace",
]

TRACE_SCHEMA = "repro.trace/1"

_US = 1e6  # simulated seconds -> trace microseconds

_REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


def journal_to_trace(
    journal: Journal,
    critical_ids: Collection[int] = (),
    title: str = "repro journal",
) -> Dict[str, Any]:
    """Build the Chrome trace-event document for a journal.

    ``critical_ids`` marks events with category ``critical``
    (:func:`repro.obs.critical.critical_report`'s ``critical_path``).
    """
    roots, children = build_tree(journal)
    events = journal.events
    marked = frozenset(critical_ids)

    # Thread = causal tree: map every event to its root's lane.
    tid_of: Dict[int, int] = {}
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": 1,
            "tid": 0,
            "args": {"name": title},
        }
    ]
    for lane, root in enumerate(roots, start=1):
        stack = [root.event_id]
        while stack:
            node = stack.pop()
            tid_of[node] = lane
            stack.extend(c.event_id for c in children.get(node, ()))
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": lane,
                "args": {"name": f"[{root.event_id}] {root.name}"},
            }
        )

    for event in events:
        args: Dict[str, Any] = {"id": event.event_id}
        args.update(event.attrs)
        cat = "critical" if event.event_id in marked else "journal"
        parent = event.parent_id
        record: Dict[str, Any]
        if parent is None:
            record = {
                "name": event.name,
                "ph": "i",
                "s": "t",  # thread-scoped instant marker
                "ts": event.time * _US,
                "pid": 1,
                "tid": tid_of[event.event_id],
                "cat": cat,
                "args": args,
            }
        else:
            start = events[parent].time
            record = {
                "name": event.name,
                "ph": "X",
                "ts": start * _US,
                "dur": max(0.0, event.time - start) * _US,
                "pid": 1,
                "tid": tid_of[event.event_id],
                "cat": cat,
                "args": args,
            }
        trace_events.append(record)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "journal_schema": JOURNAL_SCHEMA,
            "events": len(events),
            "trees": len(roots),
            "critical_events": len(marked),
        },
    }


def write_trace(path: str, doc: Dict[str, Any]) -> str:
    """Write a trace document as JSON (Perfetto opens the file as-is)."""
    return write_json(os.fspath(path), doc)


def validate_trace(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Structurally validate a Chrome trace-event document.

    Asserts what Perfetto's importer needs: a ``traceEvents`` list,
    every event carrying name/ph/ts/pid/tid, numeric non-negative
    timestamps, a ``dur`` on every complete (``X``) slice, and JSON
    serializability of the whole document.  Returns summary counts;
    raises ``ValueError`` on the first violation.
    """
    trace_events = doc.get("traceEvents")
    if not isinstance(trace_events, list):
        raise ValueError("traceEvents must be a list")
    slices = instants = meta = 0
    for index, event in enumerate(trace_events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{index}] missing {key!r}")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"traceEvents[{index}] bad ts {ts!r}")
        ph = event["ph"]
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{index}] bad dur {dur!r}")
            slices += 1
        elif ph == "i":
            instants += 1
        elif ph == "M":
            meta += 1
        else:
            raise ValueError(f"traceEvents[{index}] unknown phase {ph!r}")
    json.dumps(doc)  # the whole document must serialize
    return {
        "events": len(trace_events),
        "slices": slices,
        "instants": instants,
        "metadata": meta,
    }
