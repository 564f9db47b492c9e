"""Merging per-worker telemetry artifacts into one consolidated run.

Workers cannot share a live :class:`~repro.obs.telemetry.Telemetry`
(its journal clock is a closure over the worker's simulator), so each
instrumented task builds its own and ships the JSON-ready *artifact*
back.  This module folds those artifacts into a parent telemetry:

* metrics fold via :meth:`Telemetry.add_metrics` (counters add,
  gauges keep the larger value);
* journal events are re-materialized with their ids offset past the
  parent's, preserving causal links — exactly what sequential serial
  runs sharing one journal would have produced, byte for byte;
* engine profiles accumulate (sums; heap high-water max);
* leftover ``extra`` keys deep-merge with setdefault semantics,
  matching how serial runs populate ``telemetry.extra``.

Both helpers are order-sensitive by design: callers absorb in task
order (never completion order) so serial and parallel artifacts are
byte-identical modulo wall-time fields — :func:`strip_volatile`
removes those for comparisons.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

from ..obs.journal import JournalEvent
from ..obs.telemetry import Telemetry

__all__ = ["absorb_artifact", "merge_artifacts", "strip_volatile", "VOLATILE_KEYS"]

# Wall-clock-derived fields: the only artifact entries allowed to
# differ between a serial and an N-worker run of the same sweep.
# "wall_s" is the per-dimension attribution wall time (the companion
# "events" counts are deterministic and must match serial vs pool).
VOLATILE_KEYS = frozenset(
    {"wall_time_s", "wall_time", "events_per_sec", "wall_per_sim_sec", "wall_s"}
)

_ARTIFACT_CORE = ("schema", "metrics", "journal", "engine")


def strip_volatile(obj: Any, keys: Iterable[str] = VOLATILE_KEYS) -> Any:
    """A deep copy of ``obj`` with all wall-time fields removed."""
    keyset = frozenset(keys)
    if isinstance(obj, dict):
        return {
            k: strip_volatile(v, keyset)
            for k, v in obj.items()
            if k not in keyset
        }
    if isinstance(obj, (list, tuple)):
        return [strip_volatile(v, keyset) for v in obj]
    return obj


def _deep_setdefault(dst: Dict[str, Any], src: Dict[str, Any]) -> None:
    """Merge ``src`` into ``dst`` without overwriting existing scalars
    (the dict analogue of ``setdefault``, applied recursively)."""
    for key, value in src.items():
        if key in dst and isinstance(dst[key], dict) and isinstance(value, dict):
            _deep_setdefault(dst[key], value)
        else:
            dst.setdefault(key, value)


def absorb_artifact(telemetry: Telemetry, artifact: Dict[str, Any]) -> Telemetry:
    """Fold one worker's run artifact into ``telemetry`` in place."""
    telemetry.add_metrics(artifact.get("metrics", {}))

    event_offset = len(telemetry.journal.events)
    for d in artifact.get("journal", ()):
        parent = d.get("parent")
        telemetry.journal.events.append(
            JournalEvent(
                int(d["id"]) + event_offset,
                d["name"],
                d["t"],
                parent + event_offset if parent is not None else None,
                dict(d.get("attrs", {})),
            )
        )

    engine = artifact.get("engine")
    if engine:
        prof = telemetry.profiler
        prof.runs += int(engine.get("runs", 0))
        prof.events += int(engine.get("events_processed", 0))
        prof.wall_time += float(engine.get("wall_time_s", 0.0))
        prof.sim_time += float(engine.get("sim_time_s", 0.0))
        prof.note_heap(int(engine.get("heap_hwm_events", 0)))
        dims = engine.get("dimensions")
        if dims:
            prof.merge_dimension_rows(dims)

    extras = {k: v for k, v in artifact.items() if k not in _ARTIFACT_CORE}
    _deep_setdefault(telemetry.extra, extras)
    return telemetry


def merge_artifacts(artifacts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Consolidate worker artifacts (in the given order) into one."""
    telemetry = Telemetry()
    for artifact in artifacts:
        if artifact:
            absorb_artifact(telemetry, artifact)
    return telemetry.artifact()
