"""Simulator self-profiling: events/sec, heap high-water, wall time.

The full-scale paper scenarios push tens of millions of events; before
any scaling work can be trusted we need to know where simulated time
goes in wall-clock terms.  An :class:`EngineProfiler` attaches to a
:class:`~repro.sim.engine.Simulator`; the engine's one dispatch loop
then brackets each ``run()`` with a wall clock and visits its observer
slot once every :data:`~repro.sim.engine.OBSERVE_STRIDE` dispatches (a
simulator without a profiler reads no clock).

Tracked per simulator, accumulated across ``run()`` calls:

* events processed and wall-clock seconds -> events/sec;
* event-heap high-water mark (live pending events; lazily cancelled
  entries still occupying the heap are excluded).  It is the largest
  live count seen at run start, at each observer slot and at run end,
  so it is a sample: exact with attribution on, which visits the slot
  after every dispatch, and otherwise possibly a little low.  The slot
  writes the running mark into :attr:`heap_hwm`, so a live stream
  reads it mid-run;
* simulated seconds covered -> wall-time per simulated second.

Dimensional attribution (:meth:`EngineProfiler.enable_dimensions`) adds
an opt-in second level: the engine then visits its observer slot after
every dispatch, reads the wall clock once there, and charges the time
since the previous slot to ``(kind, module)`` of the callback just
dispatched, where *kind* is the callback's qualified name and *module*
its defining module (``repro.`` prefix trimmed).  The loop only reads
the clock per event when dimensions are on, and the charge
(:meth:`EngineProfiler.charger`) only ever *reads* engine state, so the
causal journal is byte-identical with attribution on or off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EngineProfiler"]

# Dimension key: (callback qualname, defining module).
DimKey = Tuple[str, str]


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
        "kind_cache",
    )

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.wall_time = 0.0
        self.sim_time = 0.0
        self.heap_hwm = 0
        # Dimensional attribution state; None until enable_dimensions().
        # dims maps (kind, module) -> [event count, wall seconds].
        self.dims: Optional[Dict[DimKey, List[float]]] = None
        # Per-function (kind, module) memo.  Keys are the functions
        # themselves (never ``id()`` — ids are recycled by the
        # allocator); they live for the duration of the run anyway.
        self.kind_cache: Dict[Any, DimKey] = {}

    # ------------------------------------------------------------------
    def attach(self, sim: Any) -> "EngineProfiler":
        """Profile every later ``sim.run()``."""
        sim.profiler = self
        live = sim.pending(live=True)
        if live > self.heap_hwm:
            self.heap_hwm = live
        return self

    def enable_dimensions(self) -> "EngineProfiler":
        """Turn on per-``(kind, module)`` attribution.

        Existing accumulated dimensions are kept — a shared serial
        profiler accumulates across scenario runs exactly like the
        scalar counters do.
        """
        if self.dims is None:
            self.dims = {}
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
        adds one event and ``dt`` wall seconds to the ``(kind, module)``
        cell of the dispatched callback ``fn``."""
        dims = self.dims
        assert dims is not None
        resolve_kind = self.dimension_kind

        def charge(fn: Callable[..., Any], dt: float) -> None:
            key = resolve_kind(fn)
            cell = dims.get(key)
            if cell is None:
                dims[key] = [1, dt]
            else:
                cell[0] += 1
                cell[1] += dt

        return charge

    def dimension_kind(self, fn: Callable[..., Any]) -> DimKey:
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
                "events": int(cell[0]),
                "wall_s": cell[1],
            }
            for (kind, module), cell in sorted(self.dims.items())
        ]

    def merge_dimension_rows(self, rows: List[Dict[str, Any]]) -> None:
        """Fold another profiler's :meth:`dimension_rows` into ours.

        Rows from older artifacts and checkpoints may carry a ``site``
        key; it is ignored, so they fold into their ``(kind, module)``
        cell.
        """
        if self.dims is None:
            self.dims = {}
        dims = self.dims
        for row in rows:
            key = (str(row["kind"]), str(row["module"]))
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
        rows.sort(key=lambda r: (-r["wall_s"], r["kind"], r["module"]))
        total = sum(r["wall_s"] for r in rows) or 1.0
        lines = [f"per-dimension attribution (top {min(top, len(rows))} of "
                 f"{len(rows)} by wall time):"]
        lines.append("    wall_s   %wall    events  kind [module]")
        for row in rows[:top]:
            lines.append(
                f"  {row['wall_s']:8.4f}  {100.0 * row['wall_s'] / total:5.1f}%"
                f"  {row['events']:8d}  {row['kind']} [{row['module']}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineProfiler(events={self.events}, "
            f"events/s={self.events_per_sec:.0f}, hwm={self.heap_hwm})"
        )
