"""Terminal view of live telemetry streams (the ``repro watch`` command).

Renders what :mod:`repro.obs.stream` writes: pointed at a stream file
it shows the latest snapshot as a small table; pointed at a directory
(a pool's artifact dir) it shows the supervisor's pool-level view —
worker liveness states plus the tail of every per-task stream.  With
``--once`` it prints a single frame; the default mode redraws at a
fixed refresh until the stream ends (``final`` record / ``done``
status) or the user interrupts.

Everything here is a *reader*: watch never writes to the files it
tails, so it can run concurrently with the simulation (or the pool
supervisor) that produces them.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from .stream import StreamError, read_stream, tail_record

__all__ = [
    "POOL_STATUS_FILE",
    "POOL_STATUS_SCHEMA",
    "render_pool_view",
    "render_snapshot",
    "watch_follow",
    "watch_once",
]

POOL_STATUS_SCHEMA = "repro.pool-status/1"
POOL_STATUS_FILE = "pool.status.json"


def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.2f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


def _bar(frac: float, width: int = 24) -> str:
    frac = min(max(frac, 0.0), 1.0)
    filled = int(round(frac * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_snapshot(
    record: Dict[str, Any], header: Optional[Dict[str, Any]] = None
) -> str:
    """One stream record -> a compact human-readable table."""
    engine = record.get("engine", {})
    obs = record.get("obs", {})
    sources = record.get("sources", {})
    progress = sources.get("progress", {})
    defense = sources.get("defense", {})

    lines: List[str] = []
    t = float(record.get("t", 0.0))
    duration = progress.get("duration")
    if isinstance(duration, (int, float)) and duration:
        frac = t / float(duration)
        lines.append(
            f"sim time   {t:10.2f} s / {duration:g} s  "
            f"{_bar(frac)} {100.0 * frac:5.1f}%"
        )
    else:
        lines.append(f"sim time   {t:10.2f} s")
    lines.append(
        f"engine     {engine.get('events', 0)} events  "
        f"{_fmt_rate(float(engine.get('events_per_sec', 0.0)))} ev/s  "
        f"live {engine.get('live_pending', 0)}  "
        f"hwm {engine.get('heap_hwm', 0)}"
    )
    if defense:
        total = progress.get("attackers_total")
        captures = defense.get("captures", 0)
        cap = (
            f"{captures}/{total}"
            if isinstance(total, (int, float))
            else str(captures)
        )
        extras = []
        for key, label in (
            ("routers_engaged", "routers"),
            ("frontier_depth", "frontier depth"),
            ("ports_blocked", "ports blocked"),
            ("honeypot_hits", "hits"),
        ):
            if key in defense:
                extras.append(f"{label} {defense[key]}")
        lines.append(
            f"defense    captures {cap}"
            + ("  " + "  ".join(extras) if extras else "")
        )
    lines.append(
        f"obs cost   {obs.get('self_wall_s', 0.0):.4f} s "
        f"({100.0 * float(obs.get('self_frac', 0.0)):.2f}% of "
        f"{record.get('wall_s', 0.0):.1f} s wall)  "
        f"snapshot #{record.get('seq', 0)} ({record.get('reason', '?')})"
        + ("  FINAL" if record.get("final") else "")
    )
    return "\n".join(lines)


def _stream_rows(directory: str) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for path in sorted(glob.glob(os.path.join(directory, "*.stream.jsonl"))):
        rec = tail_record(path)
        name = os.path.basename(path)[: -len(".stream.jsonl")]
        if rec is None:
            rows.append({"task": name, "state": "starting"})
            continue
        sources = rec.get("sources", {})
        progress = sources.get("progress", {})
        defense = sources.get("defense", {})
        duration = progress.get("duration")
        t = float(rec.get("t", 0.0))
        pct = (
            100.0 * t / float(duration)
            if isinstance(duration, (int, float)) and duration
            else None
        )
        rows.append(
            {
                "task": name,
                "state": "done" if rec.get("final") else "live",
                "t": t,
                "pct": pct,
                "rate": float(rec.get("engine", {}).get("events_per_sec", 0.0)),
                "captures": defense.get("captures"),
                "attackers": progress.get("attackers_total"),
            }
        )
    return rows


def load_pool_status(directory: str) -> Optional[Dict[str, Any]]:
    """The supervisor's ``pool.status.json``, if one exists (yet)."""
    path = os.path.join(directory, POOL_STATUS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("schema") != POOL_STATUS_SCHEMA:
        return None
    return doc


def render_pool_view(directory: str) -> str:
    """Pool-level frame: worker liveness + per-task stream tails."""
    lines: List[str] = []
    status = load_pool_status(directory)
    if status is not None:
        tasks = status.get("tasks", {})
        state = "done" if status.get("done") else "running"
        lines.append(
            f"pool       {status.get('jobs', '?')} worker(s)  "
            f"tasks {tasks.get('done', 0)}/{tasks.get('total', 0)} done  "
            f"{tasks.get('quarantined', 0)} quarantined  "
            f"{tasks.get('resumed', 0)} resumed  [{state}]"
        )
        for w in status.get("workers", ()):
            task = w.get("task")
            busy = (
                f"  {w.get('busy_s', 0.0):.1f}s on {task}" if task else ""
            )
            lines.append(
                f"  slot {w.get('slot', '?')}  {w.get('state', '?'):7s}{busy}"
            )
    rows = _stream_rows(directory)
    if rows:
        lines.append("streams:")
        width = max(len(r["task"]) for r in rows)
        for r in rows:
            if "t" not in r:
                lines.append(f"  {r['task']:<{width}}  {r['state']}")
                continue
            pct = f"{r['pct']:5.1f}%" if r["pct"] is not None else "     -"
            cap = ""
            if r["captures"] is not None:
                total = r["attackers"]
                cap = (
                    f"  captures {r['captures']}/{total}"
                    if total is not None
                    else f"  captures {r['captures']}"
                )
            lines.append(
                f"  {r['task']:<{width}}  {r['t']:8.2f}s  {pct}  "
                f"{_fmt_rate(r['rate']):>8s} ev/s{cap}  [{r['state']}]"
            )
    if not lines:
        lines.append(f"no streams yet in {directory}")
    return "\n".join(lines)


def _frame(path: str) -> str:
    if os.path.isdir(path):
        return render_pool_view(path)
    header, records = read_stream(path)
    if not records:
        return f"stream {path}: header only (no snapshots yet)"
    return f"stream {path}\n" + render_snapshot(records[-1], header)


def _finished(path: str) -> bool:
    if os.path.isdir(path):
        status = load_pool_status(path)
        if status is not None:
            return bool(status.get("done"))
        rows = _stream_rows(path)
        return bool(rows) and all(r.get("state") == "done" for r in rows)
    rec = tail_record(path)
    return rec is not None and bool(rec.get("final"))


def watch_once(path: str, out: Optional[TextIO] = None) -> int:
    """Print a single frame for a stream file or pool directory."""
    out = out if out is not None else sys.stdout
    try:
        out.write(_frame(path) + "\n")
    except StreamError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def watch_follow(
    path: str,
    refresh: float = 1.0,
    iterations: Optional[int] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Redraw the frame every ``refresh`` seconds until the stream ends.

    ``iterations`` bounds the number of frames (used by tests/CI); the
    loop also stops once the stream reports itself finished.
    """
    out = out if out is not None else sys.stdout
    n = 0
    try:
        while True:
            try:
                frame = _frame(path)
            except StreamError as exc:
                frame = f"waiting for stream: {exc}"
            except OSError as exc:
                frame = f"waiting for stream: {exc}"
            if out.isatty():  # pragma: no cover - interactive only
                out.write("\x1b[2J\x1b[H")
            out.write(frame + "\n\n")
            out.flush()
            n += 1
            if _finished(path):
                return 0
            if iterations is not None and n >= iterations:
                return 0
            time.sleep(refresh)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
