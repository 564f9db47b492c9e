"""In-run telemetry streaming: live snapshots of a running simulation.

Every other exporter in :mod:`repro.obs` is post-hoc — the registry is
snapshotted after ``run()`` returns, so a million-event drain is a
black box until it finishes.  A :class:`TelemetryStreamer` fixes that:
attached to a simulator it periodically appends one JSON snapshot
record (schema ``repro.stream/1``) to an append-only JSONL file and
simultaneously rewrites an OpenMetrics textfile, so both ``repro
watch`` and a standard Prometheus textfile scraper can observe the run
while it happens.

Cadence is a *sim-time* ticker (``interval`` simulated seconds) with a
*wall-clock* cap (``wall_cap`` real seconds): a run that crawls in sim
time still emits snapshots, and a run that blazes through sim time is
not slowed by per-tick I/O.  The engine's dispatch loop calls
:meth:`TelemetryStreamer.pulse` once every ``check_stride`` dispatched
events (a power-of-two bitmask test), so the steady-state cost of an
armed streamer is one integer AND per event plus a float compare per
stride — the measured overhead is gated under 2% by
``benchmarks/bench_stream_overhead.py``.

The streaming invariant — **snapshots only read** — is load-bearing:
the streamer never schedules simulator events, never touches the
registry, and never writes to the journal, so a run with streaming on
produces a byte-identical causal journal to the same run with
streaming off (``repro replay --check`` is the proof, and the overhead
bench asserts it).  The wall-clock reads (``time.monotonic`` /
``perf_counter``) are sanctioned by an RPL002 whitelist entry: they
select *when* to snapshot, never *what* the simulation computes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

from .export import json_default, registry_to_openmetrics, write_textfile_atomic

__all__ = [
    "STREAM_SCHEMA",
    "STREAM_ENV",
    "StreamConfig",
    "StreamError",
    "TelemetryStreamer",
    "read_stream",
    "resolve_stream_interval",
    "stream_path_for",
    "tail_record",
    "validate_stream",
]

STREAM_SCHEMA = "repro.stream/1"

# Environment default for the snapshot interval (sim-seconds); an
# explicit --stream-interval always wins.
STREAM_ENV = "REPRO_STREAM"

DEFAULT_INTERVAL = 5.0
DEFAULT_WALL_CAP = 2.0
# Events between pulse() calls in the engine loop; must be a power of
# two (the loop tests `processed & (stride - 1) == 0`).
DEFAULT_CHECK_STRIDE = 1024


class StreamError(ValueError):
    """Raised for malformed stream files or configuration."""


def resolve_stream_interval(
    value: Optional[float] = None, env: str = STREAM_ENV
) -> float:
    """Effective snapshot interval: explicit value, else ``$REPRO_STREAM``,
    else :data:`DEFAULT_INTERVAL` sim-seconds."""
    if value is not None:
        return float(value)
    raw = os.environ.get(env, "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            raise StreamError(
                f"{env} must be a number of sim-seconds (got {raw!r})"
            ) from None
    return DEFAULT_INTERVAL


def stream_path_for(directory: str, task_id: str) -> str:
    """Per-task stream file path under ``directory`` (id sanitized)."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in task_id)
    while "__" in safe:
        safe = safe.replace("__", "_")
    safe = safe.strip("_")
    return os.path.join(directory, f"{safe or 'run'}.stream.jsonl")


@dataclass
class StreamConfig:
    """Knobs of one stream.

    ``interval`` is in simulated seconds; ``wall_cap`` (real seconds)
    bounds the gap between snapshots when sim time crawls — ``None``
    disables the cap.  ``openmetrics_path`` defaults to
    ``path + ".prom"``; the empty string disables the textfile.
    """

    path: str
    interval: float = DEFAULT_INTERVAL
    wall_cap: Optional[float] = DEFAULT_WALL_CAP
    openmetrics_path: Optional[str] = None
    check_stride: int = DEFAULT_CHECK_STRIDE

    def __post_init__(self) -> None:
        # Negated tests so NaN fails them too.
        if not 0 < self.interval < math.inf:
            raise StreamError(
                f"interval must be positive and finite (got {self.interval})"
            )
        if self.wall_cap is not None and not 0 < self.wall_cap < math.inf:
            raise StreamError(
                f"wall_cap must be positive and finite (got {self.wall_cap})"
            )
        stride = self.check_stride
        if stride < 1 or (stride & (stride - 1)) != 0:
            raise StreamError(
                f"check_stride must be a power of two (got {stride})"
            )
        if self.openmetrics_path is None:
            self.openmetrics_path = self.path + ".prom"

    def textfile_path(self) -> Optional[str]:
        return self.openmetrics_path or None


class TelemetryStreamer:
    """Append in-run snapshot records; rewrite an OpenMetrics textfile.

    Lifecycle::

        streamer = TelemetryStreamer(telemetry, StreamConfig(path))
        streamer.add_source("defense", defense.stream_sample)
        streamer.attach(sim)        # writes the header line
        sim.run(...)                # engine pulses at stride boundaries
        streamer.close()            # final snapshot + file close

    Sources are zero-argument callables returning flat JSON-scalar
    dicts; they are sampled at snapshot time only (never per event).
    """

    def __init__(self, telemetry: Any, config: StreamConfig) -> None:
        self.telemetry = telemetry
        self.config = config
        self.check_mask = config.check_stride - 1
        self.sources: Dict[str, Callable[[], Dict[str, Any]]] = {}
        self.snapshots = 0
        # Obs self-cost: wall seconds spent inside _emit (snapshot
        # assembly + JSONL append + textfile rewrite).
        self.self_wall = 0.0
        self._sim: Optional[Any] = None
        self._fh: Optional[TextIO] = None
        self._closed = False
        self._next_tick = 0.0
        self._attach_wall = 0.0
        self._last_emit_wall = 0.0
        # Delta baselines for rate computation.
        self._last_events = 0
        self._last_wall = 0.0
        self._last_metrics: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add_source(
        self, name: str, fn: Callable[[], Dict[str, Any]]
    ) -> "TelemetryStreamer":
        """Register a named snapshot source (e.g. the defense layer)."""
        self.sources[name] = fn
        return self

    def attach(self, sim: Any) -> "TelemetryStreamer":
        """Arm the streamer on ``sim`` and write the stream header."""
        self._sim = sim
        sim.stream = self
        parent = os.path.dirname(self.config.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.config.path, "w", encoding="utf-8")
        header = {
            "schema": STREAM_SCHEMA,
            "interval": self.config.interval,
            "wall_cap": self.config.wall_cap,
            "t0": sim.now,
        }
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")
        self._fh.flush()
        self._next_tick = sim.now + self.config.interval
        now = monotonic()
        self._attach_wall = now
        self._last_emit_wall = now
        self._last_wall = now
        return self

    def close(self) -> None:
        """Emit the final snapshot and release the stream file."""
        if self._closed:
            return
        self._closed = True
        sim = self._sim
        if sim is not None and self._fh is not None:
            self._emit(sim, sim.events_processed, "final")
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if sim is not None and getattr(sim, "stream", None) is self:
            sim.stream = None

    # ------------------------------------------------------------------
    # Engine hook (called at stride boundaries of the dispatch loop)
    # ------------------------------------------------------------------
    def pulse(self, sim: Any, events: int) -> None:
        """Snapshot if a sim-time tick passed or the wall cap expired.

        ``events`` is the total events dispatched so far (the engine
        passes its base count plus the in-loop counter, because
        ``sim.events_processed`` is only folded in after ``run()``).
        """
        if self._closed or self._fh is None:
            return
        if sim.now >= self._next_tick:
            self._emit(sim, events, "tick")
            return
        cap = self.config.wall_cap
        if cap is not None and monotonic() - self._last_emit_wall >= cap:
            self._emit(sim, events, "wall")

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def _flat_metrics(self) -> Dict[str, float]:
        reg = self.telemetry.registry
        flat: Dict[str, float] = {}
        for (name, items), counter in sorted(reg._counters.items()):
            key = name if not items else (
                name + "{" + ",".join(f"{k}={v}" for k, v in items) + "}"
            )
            flat[key] = counter.value
        for (name, items), gauge in sorted(reg._gauges.items()):
            key = name if not items else (
                name + "{" + ",".join(f"{k}={v}" for k, v in items) + "}"
            )
            flat[key] = gauge.value
        return flat

    def _emit(self, sim: Any, events: int, reason: str) -> None:
        started = perf_counter()
        wall_now = monotonic()
        if reason == "tick":
            # Advance the tick grid past `now` (a long stride can jump
            # several ticks; one snapshot covers them all).
            interval = self.config.interval
            while self._next_tick <= sim.now:
                self._next_tick += interval

        wall_delta = wall_now - self._last_wall
        event_delta = events - self._last_events
        rate = event_delta / wall_delta if wall_delta > 0 else 0.0
        prof = self.telemetry.profiler
        live = sim.pending(live=True)
        heap_hwm = max(int(prof.heap_hwm), live) if prof is not None else live

        run_wall = wall_now - self._attach_wall
        metrics = self._flat_metrics()
        deltas = {
            k: v - self._last_metrics.get(k, 0.0)
            for k, v in metrics.items()
            if v != self._last_metrics.get(k, 0.0)
        }
        sources: Dict[str, Dict[str, Any]] = {}
        for name, fn in self.sources.items():
            try:
                sources[name] = fn()
            except Exception as exc:  # a source must never kill the run
                sources[name] = {"error": f"{type(exc).__name__}: {exc}"}

        record: Dict[str, Any] = {
            "seq": self.snapshots,
            "reason": reason,
            "t": sim.now,
            "wall_s": round(run_wall, 6),
            "engine": {
                "events": events,
                "events_per_sec": round(rate, 1),
                "live_pending": live,
                "heap_hwm": heap_hwm,
            },
            "obs": {
                # Accumulated cost of *previous* snapshots; this one is
                # added after it is written (so the meter never lies low
                # by excluding itself twice).
                "self_wall_s": round(self.self_wall, 6),
                "self_frac": round(self.self_wall / run_wall, 6)
                if run_wall > 0
                else 0.0,
                "snapshots": self.snapshots,
            },
            "metrics": metrics,
            "deltas": deltas,
            "sources": sources,
        }
        if reason == "final":
            record["final"] = True

        fh = self._fh
        assert fh is not None
        fh.write(
            json.dumps(record, sort_keys=True, default=json_default) + "\n"
        )
        fh.flush()
        self._write_textfile(record)

        self.snapshots += 1
        self._last_emit_wall = wall_now
        self._last_wall = wall_now
        self._last_events = events
        self._last_metrics = metrics
        self.self_wall += perf_counter() - started

    def _write_textfile(self, record: Dict[str, Any]) -> None:
        path = self.config.textfile_path()
        if path is None:
            return
        lines: List[str] = []

        def gauge(name: str, value: Any) -> None:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")

        engine = record["engine"]
        gauge("repro_stream_sim_time_seconds", record["t"])
        gauge("repro_stream_wall_seconds", record["wall_s"])
        gauge("repro_stream_events_total", engine["events"])
        gauge("repro_stream_events_per_sec", engine["events_per_sec"])
        gauge("repro_stream_live_pending", engine["live_pending"])
        gauge("repro_stream_heap_hwm", engine["heap_hwm"])
        gauge("repro_stream_snapshots_total", record["seq"] + 1)
        gauge("repro_stream_obs_self_seconds", record["obs"]["self_wall_s"])
        for source, sample in record["sources"].items():
            for key, value in sorted(sample.items()):
                gauge(f"repro_stream_{source}_{key}", value)
        body = registry_to_openmetrics(
            self.telemetry.registry, extra_lines=lines
        )
        write_textfile_atomic(path, body)

    # ------------------------------------------------------------------
    def self_cost(self) -> Dict[str, float]:
        """Obs self-cost so far: wall seconds in telemetry vs. engine."""
        run_wall = (
            (monotonic() - self._attach_wall) if self._attach_wall else 0.0
        )
        return {
            "self_wall_s": self.self_wall,
            "run_wall_s": run_wall,
            "self_frac": self.self_wall / run_wall if run_wall > 0 else 0.0,
            "snapshots": float(self.snapshots),
        }


# ----------------------------------------------------------------------
# Reading streams back
# ----------------------------------------------------------------------
def read_stream(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse one stream file -> (header, records).  Raises
    :class:`StreamError` on a missing/mismatched schema or bad JSON."""
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if header is None:
                if obj.get("schema") != STREAM_SCHEMA:
                    raise StreamError(
                        f"{path}: expected schema {STREAM_SCHEMA!r} in the "
                        f"header line (got {obj.get('schema')!r})"
                    )
                header = obj
            else:
                records.append(obj)
    if header is None:
        raise StreamError(f"{path}: empty stream (no header line)")
    return header, records


def validate_stream(path: str) -> Dict[str, Any]:
    """Structural validation of a stream file; returns a summary dict.

    Checks: schema header, monotonically increasing ``seq``, monotone
    non-decreasing sim time, and required record sections.
    """
    header, records = read_stream(path)
    last_seq = -1
    last_t = float("-inf")
    for rec in records:
        seq = rec.get("seq")
        if not isinstance(seq, int) or seq != last_seq + 1:
            raise StreamError(
                f"{path}: non-contiguous seq {seq!r} after {last_seq}"
            )
        last_seq = seq
        t = rec.get("t")
        if not isinstance(t, (int, float)) or t < last_t:
            raise StreamError(f"{path}: sim time regressed at seq {seq}")
        last_t = float(t)
        for section in ("engine", "obs", "metrics"):
            if not isinstance(rec.get(section), dict):
                raise StreamError(
                    f"{path}: record seq {seq} missing section {section!r}"
                )
    return {
        "path": path,
        "schema": header["schema"],
        "records": len(records),
        "final": bool(records and records[-1].get("final")),
    }


def tail_record(path: str) -> Optional[Dict[str, Any]]:
    """The last complete snapshot record of a stream file (or None).

    Reads only the file tail, so it is safe to call repeatedly against
    a live stream of any length.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            chunk = min(size, 65536)
            fh.seek(size - chunk)
            data = fh.read(chunk)
    except OSError:
        return None
    for raw in reversed(data.split(b"\n")):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            continue  # torn tail line of a live writer
        if isinstance(obj, dict) and "seq" in obj:
            return obj
    return None
