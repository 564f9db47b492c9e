"""Simulator self-profiling: events/sec, heap high-water, wall time.

The full-scale paper scenarios push tens of millions of events; before
any scaling work can be trusted we need to know where simulated time
goes in wall-clock terms.  An :class:`EngineProfiler` attaches to a
:class:`~repro.sim.engine.Simulator`; the engine's one dispatch loop
then brackets each ``run()`` with a wall clock and tracks the pending
high-water mark (a simulator without a profiler reads no clock).

Tracked per simulator, accumulated across ``run()`` calls:

* events processed and wall-clock seconds -> events/sec;
* event-heap high-water mark (live pending events; lazily cancelled
  entries still occupying the heap are excluded);
* simulated seconds covered -> wall-time per simulated second.

Dimensional attribution (:meth:`EngineProfiler.enable_dimensions`) adds
an opt-in second level: per dispatched event the engine brackets the
callback with a wall-clock timer and charges ``(kind, module, site)``,
where *kind* is the callback's qualified name, *module* its defining
module (``repro.`` prefix trimmed), and *site* the topology location
resolved from the callback's bound instance — the node address, mapped
through an optional ``site_of`` partition function (e.g. per-AS subtree
labels from :func:`repro.topology.tree.subtree_partition`).  The loop
only times callbacks when dimensions are on, and the charge
(:meth:`EngineProfiler.charger`) only ever *reads* engine state, so the
causal journal is byte-identical with attribution on or off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EngineProfiler"]

# Dimension key: (callback qualname, defining module, topology site).
DimKey = Tuple[str, str, str]


def _trim_module(module: str) -> str:
    """``repro.sim.link`` -> ``sim.link`` (keeps tables readable)."""
    return module[6:] if module.startswith("repro.") else module


class EngineProfiler:
    """Accumulates engine self-profile samples across runs."""

    __slots__ = (
        "runs",
        "events",
        "wall_time",
        "sim_time",
        "heap_hwm",
        "dims",
        "site_of",
        "kind_cache",
        "site_cache",
    )

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.wall_time = 0.0
        self.sim_time = 0.0
        self.heap_hwm = 0
        # Dimensional attribution state; None until enable_dimensions().
        # dims maps (kind, module, site) -> [event count, wall seconds].
        self.dims: Optional[Dict[DimKey, List[float]]] = None
        self.site_of: Optional[Callable[[int], Optional[str]]] = None
        # Per-function (kind, module) and per-instance site memos.  Keys
        # are the objects themselves (never ``id()`` — ids are recycled
        # by the allocator); the cached callables/instances live for the
        # duration of the run anyway.
        self.kind_cache: Dict[Any, Tuple[str, str]] = {}
        self.site_cache: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    def attach(self, sim: Any) -> "EngineProfiler":
        """Profile every later ``sim.run()``."""
        sim.profiler = self
        live = sim.pending(live=True)
        if live > self.heap_hwm:
            self.heap_hwm = live
        return self

    def enable_dimensions(
        self, site_of: Optional[Callable[[int], Optional[str]]] = None
    ) -> "EngineProfiler":
        """Turn on per-``(kind, module, site)`` attribution.

        ``site_of`` maps a node address to a partition label (unknown
        addresses fall back to ``n<addr>``).  Existing accumulated
        dimensions are kept — a shared serial profiler accumulates
        across scenario runs exactly like the scalar counters do.
        """
        if self.dims is None:
            self.dims = {}
        if site_of is not None:
            self.site_of = site_of
            self.site_cache.clear()
        return self

    def record_run(self, events: int, wall: float, sim_delta: float) -> None:
        """Called by the engine at the end of each profiled ``run()``."""
        self.runs += 1
        self.events += events
        self.wall_time += wall
        self.sim_time += sim_delta

    def note_heap(self, depth: int) -> None:
        if depth > self.heap_hwm:
            self.heap_hwm = depth

    def charger(self) -> Callable[[Callable[..., Any], float], None]:
        """A ``charge(fn, dt)`` for one ``run()`` with dimensions on:
        adds one event and ``dt`` wall seconds to the ``(kind, module,
        site)`` cell of the dispatched callback ``fn``."""
        dims = self.dims
        assert dims is not None
        resolve_kind = self.dimension_kind
        resolve_site = self.dimension_site
        # Per-callback memo for the fully resolved dimension key.  Bound
        # methods are fresh objects per schedule() call, so the memo is
        # keyed by (underlying function, bound instance) — both stable
        # and already alive while their events are pending.
        key_cache: Dict[Any, DimKey] = {}

        def charge(fn: Callable[..., Any], dt: float) -> None:
            ckey: Any = (getattr(fn, "__func__", fn), getattr(fn, "__self__", None))
            try:
                key = key_cache.get(ckey)
            except TypeError:  # unhashable instance: no memo
                ckey = key = None
            if key is None:
                kind, module = resolve_kind(fn)
                key = (kind, module, resolve_site(fn))
                if ckey is not None:
                    key_cache[ckey] = key
            cell = dims.get(key)
            if cell is None:
                dims[key] = [1, dt]
            else:
                cell[0] += 1
                cell[1] += dt

        return charge

    # ------------------------------------------------------------------
    # Dimension resolution (miss path of the charge memo)
    # ------------------------------------------------------------------
    def dimension_kind(self, fn: Callable[..., Any]) -> Tuple[str, str]:
        """``(kind, module)`` for a dispatched callback (memoized)."""
        func = getattr(fn, "__func__", fn)
        cached = self.kind_cache.get(func)
        if cached is None:
            cached = (
                getattr(func, "__qualname__", repr(func)),
                _trim_module(getattr(func, "__module__", None) or "?"),
            )
            self.kind_cache[func] = cached
        return cached

    def dimension_site(self, fn: Callable[..., Any]) -> str:
        """Topology site label for a callback's bound instance.

        Resolution: the instance's own ``addr``; else the ``addr`` of a
        referenced node (``dst`` for channels, then ``host`` / ``router``
        / ``node`` / ``owner``); plain functions and unplaced objects
        land on ``-`` / the class name.  Addresses map through
        ``site_of`` when set.
        """
        inst = getattr(fn, "__self__", None)
        if inst is None:
            return "-"
        cache: Optional[Dict[Any, str]] = self.site_cache
        try:
            cached = self.site_cache.get(inst)
        except TypeError:  # unhashable instance: resolve every time
            cached, cache = None, None
        if cached is not None:
            return cached
        addr: Optional[int] = getattr(inst, "addr", None)
        if addr is None:
            for ref in ("dst", "host", "router", "node", "owner"):
                holder = getattr(inst, ref, None)
                if holder is not None:
                    addr = getattr(holder, "addr", None)
                    if addr is not None:
                        break
        if addr is None:
            site = type(inst).__name__
        else:
            site_of = self.site_of
            label = site_of(addr) if site_of is not None else None
            site = label if label is not None else f"n{addr}"
        if cache is not None:
            cache[inst] = site
        return site

    # ------------------------------------------------------------------
    # Merging (pooled runs: repro.parallel.merge.absorb_artifact)
    # ------------------------------------------------------------------
    def dimension_rows(self) -> List[Dict[str, Any]]:
        """The accumulated dimensions as deterministic sorted rows."""
        if not self.dims:
            return []
        return [
            {
                "kind": kind,
                "module": module,
                "site": site,
                "events": int(cell[0]),
                "wall_s": cell[1],
            }
            for (kind, module, site), cell in sorted(self.dims.items())
        ]

    def merge_dimension_rows(self, rows: List[Dict[str, Any]]) -> None:
        """Fold another profiler's :meth:`dimension_rows` into ours."""
        if self.dims is None:
            self.dims = {}
        dims = self.dims
        for row in rows:
            key = (str(row["kind"]), str(row["module"]), str(row["site"]))
            cell = dims.get(key)
            if cell is None:
                dims[key] = [int(row["events"]), float(row["wall_s"])]
            else:
                cell[0] += int(row["events"])
                cell[1] += float(row["wall_s"])

    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def wall_per_sim_sec(self) -> float:
        return self.wall_time / self.sim_time if self.sim_time > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "runs": self.runs,
            "events_processed": self.events,
            "wall_time_s": self.wall_time,
            "sim_time_s": self.sim_time,
            "events_per_sec": self.events_per_sec,
            "wall_per_sim_sec": self.wall_per_sim_sec,
            "heap_hwm_events": self.heap_hwm,
        }
        if self.dims is not None:
            out["dimensions"] = self.dimension_rows()
        return out

    def render_dimensions(self, top: int = 15) -> str:
        """Human-readable attribution table (top rows by wall time)."""
        rows = self.dimension_rows()
        if not rows:
            return ""
        rows.sort(key=lambda r: (-r["wall_s"], r["kind"], r["site"]))
        total = sum(r["wall_s"] for r in rows) or 1.0
        lines = [f"per-dimension attribution (top {min(top, len(rows))} of "
                 f"{len(rows)} by wall time):"]
        lines.append("    wall_s   %wall    events  kind @ site [module]")
        for row in rows[:top]:
            lines.append(
                f"  {row['wall_s']:8.4f}  {100.0 * row['wall_s'] / total:5.1f}%"
                f"  {row['events']:8d}  {row['kind']} @ {row['site']}"
                f" [{row['module']}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineProfiler(events={self.events}, "
            f"events/s={self.events_per_sec:.0f}, hwm={self.heap_hwm})"
        )
