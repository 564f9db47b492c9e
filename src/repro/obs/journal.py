"""Flight recorder: the causal event journal (schema ``repro.journal/1``).

The paper's defense is a cascade — honeypot hit, session open, HSM
diversion, ingress-edge identification, inter-AS hops, intra-AS input
debugging, port close, progressive resume — and validating a run means
asking *what happened, when, after what, and is that order identical
across runs and workers?*  The journal answers all of it: an
append-only log of :class:`JournalEvent` records with
monotonically-assigned ids, simulation timestamps, and **causal parent
links** forming one tree per honeypot session.  It is the run's only
event record; timelines, traces and critical paths are derived from
it.

Determinism contract (the regression tests diff this byte-for-byte):

* ids are assigned in creation order, so same-seed runs produce
  identical journals;
* per-worker journals from the parallel pool are merged by offsetting
  ids past the parent's (:func:`repro.parallel.absorb_artifact`),
  exactly what a serial run sharing one journal would have produced;
* the serialized JSONL form is canonical (sorted keys), so two equal
  journals are equal as files.

The replay half of the module reconstructs and checks the causal tree
from the serialized journal alone: :func:`build_tree` validates the
parent links, :func:`diff_journals` names the first diverging event
between two journals, :func:`render_tree` / :func:`render_html` render
the per-session traceback tree, :func:`render_timeline` draws each
session as a text gantt, and :func:`replay_summary` condenses a
journal into the cascade's headline counts.
"""

from __future__ import annotations

import html
import json
import os
import zlib
from contextlib import contextmanager
from typing import (
    IO,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "JOURNAL_KINDS",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalEvent",
    "build_tree",
    "diff_journals",
    "load_journal",
    "render_html",
    "render_timeline",
    "render_tree",
    "replay_summary",
]

JOURNAL_SCHEMA = "repro.journal/1"

# The closed vocabulary of ``repro.journal/1`` event kinds.  Replay and
# report tooling treat this table as the schema: every kind any module
# emits must appear here, and every entry must be emitted somewhere —
# reprolint's whole-program RPL301/RPL302 passes enforce both
# directions statically, so the vocabulary can't silently drift.
JOURNAL_KINDS: Dict[str, str] = {
    "as_session_close": "hierarchical back-propagation leaves an AS",
    "as_session_open": "hierarchical back-propagation enters an AS",
    "attack_policy": "adversary policy chosen for a zombie at spawn",
    "epoch_roll": "honeypot role schedule advances one epoch",
    "frontier_add": "progressive scheme adds an AS to the frontier",
    "frontier_flag": "progressive scheme flags a frontier AS as attacking",
    "frontier_report": "server reports the frontier to the HSM",
    "frontier_retire": "progressive scheme retires a cleared frontier AS",
    "honeypot_hit": "packet reaches a server acting as honeypot",
    "hop_relay": "intra-AS input debugging relays one router hop",
    "hsm_diversion": "HSM diverts the victim's traffic for traceback",
    "ingress_identified": "ingress edge router identified for a flow",
    "inter_as_hop": "traceback crosses one AS-level hop",
    "intra_session_close": "intra-AS traceback session closes",
    "intra_session_open": "intra-AS traceback session opens",
    "pool_task_finish": "parallel pool worker finishes a task",
    "pool_task_start": "parallel pool worker starts a task",
    "port_close": "router closes the attacking ingress port",
    "progressive_resume": "progressive scheme resumes suspended traffic",
    "reflect_hop": "amplifier reflects a spoofed request to the victim",
    "reflector_traceback": "traceback resolves a reflection attack's origin",
    "session_close": "honeypot traceback session closes",
    "session_open": "honeypot traceback session opens",
    "sim_run_end": "simulation run ends",
    "sim_run_start": "simulation run starts",
}


class JournalError(ValueError):
    """Malformed journal: bad schema, broken or acausal parent link."""


# ----------------------------------------------------------------------
# Transparent gzip support (.jsonl.gz)
# ----------------------------------------------------------------------
# Million-event journals are the target scale; ``write_jsonl`` to any
# ``*.gz`` path compresses, and the readers sniff the gzip magic bytes
# so a compressed journal drops into ``repro replay/report/critical-path``
# unchanged.  Compression is *reproducible*: mtime is pinned to 0 and no
# filename is embedded, so equal journals are equal as .gz files too —
# the byte-identity determinism witness survives compression.

_GZIP_MAGIC = b"\x1f\x8b"


@contextmanager
def _journal_writer(path: str) -> Iterator[IO[str]]:
    """Text sink for a journal path; gzip when the path ends in .gz."""
    if path.endswith(".gz"):
        import gzip
        import io

        with open(path, "wb") as raw:
            with gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0
            ) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                    yield fh
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


@contextmanager
def _journal_reader(path: str) -> Iterator[IO[str]]:
    """Text source for a journal path; sniffs gzip by magic bytes."""
    raw = open(path, "rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
    except BaseException:
        raw.close()
        raise
    if magic == _GZIP_MAGIC:
        import gzip
        import io

        with raw:
            with gzip.GzipFile(fileobj=raw, mode="rb") as gz:
                with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                    yield fh
    else:
        raw.close()
        with open(path, "r", encoding="utf-8") as fh:
            yield fh


class JournalEvent:
    """One recorded occurrence, causally linked to its parent event."""

    __slots__ = ("event_id", "name", "time", "parent_id", "attrs")

    def __init__(
        self,
        event_id: int,
        name: str,
        time: float,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.event_id = event_id
        self.name = name
        self.time = time
        self.parent_id = parent_id
        # Defensive copy: the caller's kwargs dict must not alias the
        # recorded event (shard-safety invariant RPL103).
        self.attrs = dict(attrs)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.event_id,
            "name": self.name,
            "t": self.time,
            "parent": self.parent_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JournalEvent":
        """Rebuild an event; a malformed record raises :class:`JournalError`."""
        try:
            return cls(
                int(d["id"]),
                str(d["name"]),
                float(d["t"]),
                None if d.get("parent") is None else int(d["parent"]),
                dict(d.get("attrs", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal event {d!r} ({exc!r})") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parent = "root" if self.parent_id is None else f"<-{self.parent_id}"
        return f"JournalEvent#{self.event_id}({self.name}@{self.time:.4f}, {parent})"


class Journal:
    """Append-only event log against a clock (usually ``lambda: sim.now``)."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.events: List[JournalEvent] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        parent: Optional[Union[JournalEvent, int]] = None,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> JournalEvent:
        """Append one event; ``parent`` links it into a causal tree."""
        parent_id: Optional[int]
        if parent is None:
            parent_id = None
        elif isinstance(parent, JournalEvent):
            parent_id = parent.event_id
        else:
            parent_id = int(parent)
        event = JournalEvent(
            len(self.events),
            name,
            self.clock() if at is None else at,
            parent_id,
            attrs,
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, event_id: int) -> Optional[JournalEvent]:
        if 0 <= event_id < len(self.events):
            return self.events[event_id]
        return None

    def find(self, name: str) -> List[JournalEvent]:
        return [e for e in self.events if e.name == name]

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [e.as_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, dicts: List[Dict[str, Any]]) -> "Journal":
        journal = cls()
        for d in dicts:
            journal.events.append(JournalEvent.from_dict(d))
        return journal

    def write_jsonl(
        self, path: Union[str, os.PathLike], meta: Optional[Dict[str, Any]] = None
    ) -> str:
        """Write the canonical JSONL form: one schema header line, then
        one event per line, all with sorted keys — byte-identical for
        equal journals.  A ``*.gz`` path writes reproducible gzip (no
        mtime/filename in the header), preserving byte-identity."""
        path = os.fspath(path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        header: Dict[str, Any] = {"schema": JOURNAL_SCHEMA, "events": len(self.events)}
        if meta:
            header.update(meta)
        with _journal_writer(path) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path: Union[str, os.PathLike]) -> "Journal":
        path = os.fspath(path)
        with _journal_reader(path) as fh:
            return cls._parse_jsonl(fh, path)

    @classmethod
    def _parse_jsonl(cls, lines: Iterable[str], path: str) -> "Journal":
        journal = cls()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(f"{path}:{lineno + 1}: not JSON ({exc})") from None
            if lineno == 0:
                schema = d.get("schema") if isinstance(d, dict) else None
                if schema != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"unsupported journal schema {schema!r} "
                        f"(expected {JOURNAL_SCHEMA!r})"
                    )
                continue
            journal.events.append(JournalEvent.from_dict(d))
        return journal


def load_journal(path: Union[str, os.PathLike]) -> Journal:
    """Load a journal from its JSONL form *or* from a ``repro.obs``
    run-artifact JSON (the ``"journal"`` key ``--metrics-out`` writes).
    Gzip-compressed files are decompressed transparently.  A path that
    cannot be read or decoded raises :class:`JournalError`."""
    path = os.fspath(path)
    try:
        with _journal_reader(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError, EOFError, zlib.error) as exc:
        raise JournalError(f"{path}: cannot read journal ({exc})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # Text mode already turned every line ending into "\n".
        return Journal._parse_jsonl(text.split("\n"), path)
    if isinstance(doc, dict) and isinstance(doc.get("journal"), list):
        return Journal.from_dicts(doc["journal"])
    if isinstance(doc, dict) and doc.get("schema") == JOURNAL_SCHEMA:
        return Journal()  # a header-only JSONL file: zero events
    raise JournalError(
        f"{path}: neither a {JOURNAL_SCHEMA} JSONL file nor a "
        "repro.obs artifact with a 'journal' key"
    )


# ----------------------------------------------------------------------
# Replay: tree reconstruction and validation
# ----------------------------------------------------------------------
def build_tree(
    journal: Journal,
) -> Tuple[List[JournalEvent], Dict[int, List[JournalEvent]]]:
    """Reconstruct the causal forest: ``(roots, children-by-id)``.

    Validates the causal invariants replay depends on: every parent
    link must point at an *earlier* event of the journal (ids are
    assigned in creation order, so causality implies ``parent < id``).
    """
    roots: List[JournalEvent] = []
    children: Dict[int, List[JournalEvent]] = {}
    for index, event in enumerate(journal.events):
        if event.event_id != index:
            raise JournalError(
                f"event #{index} carries id {event.event_id} "
                "(ids must be dense and ordered)"
            )
        if event.parent_id is None:
            roots.append(event)
            continue
        if not 0 <= event.parent_id < index:
            raise JournalError(
                f"event #{event.event_id} ({event.name}) links to parent "
                f"{event.parent_id}, which is not an earlier event"
            )
        children.setdefault(event.parent_id, []).append(event)
    return roots, children


def diff_journals(a: Journal, b: Journal) -> Optional[Dict[str, Any]]:
    """Structurally compare two journals; ``None`` when identical.

    Returns the first divergence as ``{"index", "reason", "a", "b"}``
    where ``a``/``b`` are the diverging events' dicts (``None`` past
    the end of the shorter journal) — the explainable replacement for
    a byte-diff.
    """
    for index in range(max(len(a.events), len(b.events))):
        ea = a.events[index] if index < len(a.events) else None
        eb = b.events[index] if index < len(b.events) else None
        if ea is None or eb is None:
            short, longer = ("a", eb) if ea is None else ("b", ea)
            assert longer is not None
            return {
                "index": index,
                "reason": (
                    f"journal {short} ends at event {index} but the other "
                    f"continues with {longer.name!r}"
                ),
                "a": None if ea is None else ea.as_dict(),
                "b": None if eb is None else eb.as_dict(),
            }
        da, db = ea.as_dict(), eb.as_dict()
        if da != db:
            fields = [
                k
                for k in ("name", "t", "parent", "attrs")
                if da[k] != db[k]
            ]
            return {
                "index": index,
                "reason": (
                    f"event {index} ({ea.name!r}) diverges in "
                    f"{', '.join(fields)}"
                ),
                "a": da,
                "b": db,
            }
    return None


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _attr_text(attrs: Dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in attrs.items())


def render_tree(journal: Journal, max_events: Optional[int] = None) -> str:
    """ASCII causal forest, one indented line per event (id order)."""
    roots, children = build_tree(journal)
    lines: List[str] = []
    emitted = 0

    # Iterative DFS: journals from long runs can nest deeply.
    stack: List[Tuple[JournalEvent, int]] = [(r, 0) for r in reversed(roots)]
    while stack:
        event, depth = stack.pop()
        if max_events is not None and emitted >= max_events:
            lines.append(f"... ({len(journal.events) - emitted} more events)")
            break
        attrs = _attr_text(event.attrs)
        suffix = f"  {attrs}" if attrs else ""
        lines.append(
            f"{'  ' * depth}[{event.event_id}] {event.name} "
            f"t={event.time:.3f}{suffix}"
        )
        emitted += 1
        for child in reversed(children.get(event.event_id, [])):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def render_timeline(journal: Journal, width: int = 40) -> str:
    """Text gantt of every honeypot session: one block per tree rooted
    at ``session_open``, one row per event in id (= time) order.

    An ``X_open`` event is a bar that ends at its ``X_close`` child,
    whose attrs join the row's label; the close gets no row of its own,
    and an open without one shows as still open.  Every other event
    (``port_close`` included) is a ``*`` marker at its time.
    """
    roots, children = build_tree(journal)
    lines: List[str] = []
    for root in roots:
        if root.name != "session_open":
            continue
        subtree: List[Tuple[JournalEvent, int]] = []
        closes: Dict[int, JournalEvent] = {}
        stack: List[Tuple[JournalEvent, int]] = [(root, 0)]
        while stack:
            event, depth = stack.pop()
            subtree.append((event, depth))
            kids = children.get(event.event_id, [])
            stack.extend((child, depth + 1) for child in kids)
            if event.name.endswith("_open"):
                close_name = event.name[: -len("open")] + "close"
                close = next((c for c in kids if c.name == close_name), None)
                if close is not None:
                    closes[event.event_id] = close
        subtree.sort(key=lambda item: item[0].event_id)
        close_ids = {c.event_id for c in closes.values()}
        t0 = root.time
        extent = max(max(e.time for e, _ in subtree) - t0, 1e-12)
        for event, depth in subtree:
            if event.event_id in close_ids:
                continue
            close = closes.get(event.event_id)
            attrs = dict(event.attrs)
            left = min(int(width * (event.time - t0) / extent), width - 1)
            if close is not None:
                attrs.update(close.attrs)
                bar_w = max(1, int(width * (close.time - event.time) / extent))
                bar = " " * left + "#" * min(bar_w, width - left)
                times = f"{event.time:9.3f} -> {close.time:9.3f}"
            elif event.name.endswith("_open"):
                bar = (" " * left + "#...")[:width]
                times = f"{event.time:9.3f} ->   (open)"
            else:
                bar = " " * left + "*"
                times = f"{event.time:9.3f}"
            text = _attr_text(attrs)
            label = f"{'  ' * depth}{event.name}" + (f" [{text}]" if text else "")
            lines.append(f"{label:<44s} {times:>24s} |{bar:<{width}s}|")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def replay_summary(journal: Journal) -> str:
    """Condensed replay: cascade counts + per-name event totals."""
    roots, _ = build_tree(journal)
    by_name: Dict[str, int] = {}
    for event in journal.events:
        by_name[event.name] = by_name.get(event.name, 0) + 1
    t0 = min((e.time for e in journal.events), default=0.0)
    t1 = max((e.time for e in journal.events), default=0.0)
    lines = [
        f"journal: {len(journal.events)} events, {len(roots)} root(s), "
        f"t=[{t0:.3f}, {t1:.3f}]",
        f"sessions opened: {by_name.get('session_open', 0)}  "
        f"closed: {by_name.get('session_close', 0)}  "
        f"captures (port_close): {by_name.get('port_close', 0)}",
    ]
    for name in sorted(by_name):
        lines.append(f"  {by_name[name]:6d}  {name}")
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #111; color: #ddd; margin: 1.5em; }
h1 { font-size: 1.1em; } h2 { font-size: 0.95em; color: #9cf; }
.meta { color: #888; font-size: 0.85em; }
.tree { margin: 0.6em 0 1.4em 0; }
.row { position: relative; height: 1.35em; white-space: nowrap; }
.label { display: inline-block; width: 34em; overflow: hidden;
         text-overflow: ellipsis; vertical-align: middle; }
.rail { position: absolute; left: 35em; right: 0; top: 0; bottom: 0;
        background: #1a1a1a; }
.dot { position: absolute; top: 0.25em; width: 0.55em; height: 0.55em;
       border-radius: 50%; background: #6cf; }
.dot.port_close { background: #f66; }
.dot.session_open, .dot.session_close { background: #6f6; }
.dot.epoch_roll { background: #fc6; }
.dot.attack_policy { background: #c6f; }
.dot.reflect_hop { background: #f96; }
.dot.reflector_traceback { background: #f33; }
.dot.crit { background: #ff0; outline: 2px solid #ff08;
            box-shadow: 0 0 6px #ff0; z-index: 2; }
.label.crit { color: #ffc; font-weight: bold; }
.t { color: #777; } .attrs { color: #998; }
"""


def render_html(
    journal: Journal,
    title: str = "repro journal",
    highlight: Collection[int] = (),
) -> str:
    """Self-contained HTML timeline of the causal forest (no external
    assets — the CI artifact opens anywhere).  ``highlight`` is a set of
    event ids to accent (``repro report --critical`` passes the
    time-weighted critical path from :mod:`repro.obs.critical`)."""
    roots, children = build_tree(journal)
    marked = frozenset(highlight)
    t0 = min((e.time for e in journal.events), default=0.0)
    t1 = max((e.time for e in journal.events), default=0.0)
    extent = max(t1 - t0, 1e-12)

    body: List[str] = []
    for root in roots:
        subtree: List[Tuple[JournalEvent, int]] = []
        stack: List[Tuple[JournalEvent, int]] = [(root, 0)]
        while stack:
            event, depth = stack.pop()
            subtree.append((event, depth))
            for child in reversed(children.get(event.event_id, [])):
                stack.append((child, depth + 1))
        head = html.escape(f"[{root.event_id}] {root.name} {_attr_text(root.attrs)}")
        body.append(f"<h2>{head}</h2>")
        body.append('<div class="tree">')
        for event, depth in subtree:
            left = 100.0 * (event.time - t0) / extent
            name = html.escape(event.name)
            attrs = html.escape(_attr_text(event.attrs))
            indent = "&nbsp;" * (2 * depth)
            crit = " crit" if event.event_id in marked else ""
            body.append(
                '<div class="row">'
                f'<span class="label{crit}">{indent}[{event.event_id}] {name} '
                f'<span class="t">t={event.time:.3f}</span> '
                f'<span class="attrs">{attrs}</span></span>'
                f'<span class="rail"><span class="dot {name}{crit}" '
                f'style="left: {left:.2f}%"></span></span>'
                "</div>"
            )
        body.append("</div>")

    return (
        "<!doctype html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head>\n<body>"
        f"<h1>{html.escape(title)}</h1>"
        f'<div class="meta">{len(journal.events)} events, {len(roots)} '
        f"root(s), t=[{t0:.3f}, {t1:.3f}] — schema {JOURNAL_SCHEMA}</div>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )
