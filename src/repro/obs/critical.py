"""Critical-path analysis over the causal journal (``repro.critical/1``).

How much of a run could proceed in parallel?  The causal journal
already holds the answer: each ``parent -> child`` link is a
dependency edge whose *cost* is the simulated-time delta between the
two events.  Over that forest this module computes the classic
work/span decomposition:

* **work** — the sum of all edge costs (total sequential footprint);
* **span** — the cost of the most expensive root-to-node chain (the
  time-weighted critical path nothing can shorten);
* **available parallelism** = work / span — the single number that
  upper-bounds the speedup of any parallel execution of one run
  (Brent's bound).

It also explains individual outcomes: for every capture event
(``port_close`` by default) the full causal chain back to its session
root is reconstructed, and the chain's most expensive edge names *what
bounded this attacker's capture time* — e.g. a long ``inter_as_hop``
means the traceback cascade, not the honeypot dwell time, was the
bottleneck.

Everything here is replay-side analysis of a finished journal: the
engine is never touched, so analysing costs nothing at simulation time
and works on any journal file (including gzip-compressed ones) long
after the run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .journal import Journal, JournalEvent, build_tree

__all__ = [
    "CRITICAL_SCHEMA",
    "causal_chain",
    "critical_report",
    "render_critical",
]

CRITICAL_SCHEMA = "repro.critical/1"

# Event kinds that mark a captured attacker; the per-chain explanations
# default to these targets.
CAPTURE_KINDS = ("port_close",)


def causal_chain(journal: Journal, event_id: int) -> List[JournalEvent]:
    """The root-to-event causal chain (inclusive), following parents.

    Raises ``IndexError`` for an out-of-range id; malformed parent
    links are caught by :func:`build_tree` in :func:`critical_report`,
    so callers running on a validated journal always terminate (parent
    ids strictly decrease).
    """
    events = journal.events
    if not 0 <= event_id < len(events):
        raise IndexError(f"event id {event_id} out of range")
    chain: List[JournalEvent] = []
    cursor: Optional[int] = event_id
    while cursor is not None:
        event = events[cursor]
        chain.append(event)
        parent = event.parent_id
        if parent is not None and not 0 <= parent < cursor:
            break  # malformed link; build_tree reports it properly
        cursor = parent
    chain.reverse()
    return chain


def _chain_steps(chain: Sequence[JournalEvent]) -> List[Dict[str, Any]]:
    """JSON-ready steps with the per-edge cost ``dt`` (clamped >= 0)."""
    steps: List[Dict[str, Any]] = []
    prev: Optional[JournalEvent] = None
    for event in chain:
        dt = 0.0 if prev is None else max(0.0, event.time - prev.time)
        steps.append(
            {"id": event.event_id, "name": event.name, "t": event.time, "dt": dt}
        )
        prev = event
    return steps


def critical_report(
    journal: Journal, targets: Sequence[str] = CAPTURE_KINDS
) -> Dict[str, Any]:
    """Work/span/parallelism plus per-capture chain explanations.

    Edge costs are simulated-time deltas clamped at zero (merged
    multi-task journals reset the clock per task, which can make a
    cross-task link look acausal in wall terms; the clamp count is
    reported so silent repair stays visible).  ``targets`` selects the
    event kinds whose causal chains are explained individually.
    """
    build_tree(journal)  # validates ids and parent links
    events = journal.events
    n = len(events)
    cost = [0.0] * n  # accumulated root-to-event chain cost
    work = 0.0
    clamped = 0
    span = 0.0
    span_end: Optional[int] = None
    max_edge = 0.0
    for event in events:
        parent = event.parent_id
        if parent is None:
            continue
        dt = event.time - events[parent].time
        if dt < 0.0:
            dt = 0.0
            clamped += 1
        work += dt
        if dt > max_edge:
            max_edge = dt
        total = cost[parent] + dt
        cost[event.event_id] = total
        if total > span:
            span = total
            span_end = event.event_id
    parallelism = work / span if span > 0 else 1.0

    critical_path: List[Dict[str, Any]] = []
    if span_end is not None:
        critical_path = _chain_steps(causal_chain(journal, span_end))

    per_kind: Dict[str, Dict[str, Any]] = {}
    for event in events:
        row = per_kind.setdefault(event.name, {"events": 0, "work": 0.0})
        row["events"] += 1
        parent = event.parent_id
        if parent is not None:
            row["work"] += max(0.0, event.time - events[parent].time)

    target_set = frozenset(targets)
    chains: List[Dict[str, Any]] = []
    for event in events:
        if event.name not in target_set:
            continue
        steps = _chain_steps(causal_chain(journal, event.event_id))
        # The chain's priciest edge is the step that bounded this
        # capture: nothing downstream could fire before it resolved.
        bounded_by = max(steps, key=lambda s: float(s["dt"])) if steps else None
        chains.append(
            {
                "event": event.event_id,
                "kind": event.name,
                "t": event.time,
                "attrs": dict(event.attrs),
                "cost": cost[event.event_id],
                "depth": len(steps),
                "steps": steps,
                "bounded_by": bounded_by,
            }
        )
    chains.sort(key=lambda c: (-float(c["cost"]), int(c["event"])))

    return {
        "schema": CRITICAL_SCHEMA,
        "events": n,
        "work": work,
        "span": span,
        "parallelism": parallelism,
        "longest_edge": max_edge,
        "clamped_edges": clamped,
        "critical_end": span_end,
        "critical_path": critical_path,
        "per_kind": {k: per_kind[k] for k in sorted(per_kind)},
        "targets": list(targets),
        "chains": chains,
    }


def _render_steps(steps: Sequence[Dict[str, Any]], limit: int = 12) -> List[str]:
    lines = []
    shown = steps if len(steps) <= limit else steps[:limit]
    for step in shown:
        lines.append(
            f"    [{step['id']}] {step['name']} t={step['t']:.3f} "
            f"(+{step['dt']:.3f}s)"
        )
    if len(steps) > limit:
        lines.append(f"    ... ({len(steps) - limit} more steps)")
    return lines


def render_critical(report: Dict[str, Any], top: int = 3) -> str:
    """Human-readable critical-path summary (what ``repro
    critical-path`` prints)."""
    lines = [
        f"critical path over {report['events']} events:",
        f"  work (total causal cost)   {report['work']:.3f} s",
        f"  span (critical path)       {report['span']:.3f} s",
        f"  available parallelism      {report['parallelism']:.2f}x",
        f"  longest single edge        {report['longest_edge']:.3f} s",
    ]
    if report["clamped_edges"]:
        lines.append(
            f"  clamped acausal edges      {report['clamped_edges']}"
            " (merged multi-task journal)"
        )
    path = report["critical_path"]
    if path:
        lines.append(
            f"  critical chain (-> event {report['critical_end']}, "
            f"{len(path)} steps):"
        )
        lines.extend(_render_steps(path))
    chains = report["chains"]
    if chains and top > 0:
        lines.append(
            f"capture chains ({len(chains)} {'/'.join(report['targets'])}"
            f" events, slowest {min(top, len(chains))}):"
        )
        for chain in chains[:top]:
            bounded = chain["bounded_by"]
            what = (
                f"bounded by {bounded['name']} (+{bounded['dt']:.3f}s)"
                if bounded
                else "trivial chain"
            )
            attrs = " ".join(f"{k}={v}" for k, v in chain["attrs"].items())
            lines.append(
                f"  [{chain['event']}] {chain['kind']} t={chain['t']:.3f}"
                f" cost={chain['cost']:.3f}s depth={chain['depth']}"
                f" {what}  {attrs}"
            )
            lines.extend(_render_steps(chain["steps"], limit=6))
    return "\n".join(lines)
