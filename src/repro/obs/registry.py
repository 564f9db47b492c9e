"""Metrics registry: named, labeled counters and gauges.

The registry holds a run's totals that no other record keeps: the
network's packet, byte and drop counts, its queue depths, and the
numeric entries of the defense's ``stats()``.  It is filled once, after
the simulator has run (:meth:`repro.obs.telemetry.Telemetry.snapshot_network`
and :meth:`~repro.obs.telemetry.Telemetry.record_stats`), from counters
the simulation objects keep anyway; nothing writes it while the run
executes.  Facts the causal journal or another artifact field already
holds (session opens, hop relays, captures, per-class throughput, the
event count) are not restated here.

Everything is deterministic and JSON-serializable:
:meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.from_dict`
round-trip exactly, which the exporter tests assert.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
]

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (got {amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth); ``max_value`` is
    the largest value it was set to."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labeled instruments; get-or-create semantics.

    >>> reg = MetricsRegistry()
    >>> reg.counter("packets_total", cls="legit").inc(3)
    >>> reg.value("packets_total", cls="legit")
    3
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}

    # ------------------------------------------------------------------
    # Instrument acquisition
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_items(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter or gauge (0 if never touched)."""
        key = (name, _label_items(labels))
        inst = self._counters.get(key) or self._gauges.get(key)
        return inst.value if inst is not None else 0

    # ------------------------------------------------------------------
    # Serialization (exact round trip)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        def meta(items: LabelItems) -> Dict[str, str]:
            return dict(items)

        counters = [
            {"name": n, "labels": meta(items), "value": c.value}
            for (n, items), c in sorted(self._counters.items())
        ]
        gauges = [
            {"name": n, "labels": meta(items), "value": g.value, "max": g.max_value}
            for (n, items), g in sorted(self._gauges.items())
        ]
        return {"counters": counters, "gauges": gauges}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        for c in data.get("counters", ()):
            reg.counter(c["name"], **c["labels"]).inc(c["value"])
        for g in data.get("gauges", ()):
            gauge = reg.gauge(g["name"], **g["labels"])
            gauge.set(g.get("max", g["value"]))
            gauge.value = g["value"]
        return reg

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counts into this one (bench summaries)."""
        for (n, items), c in other._counters.items():
            self.counter(n, **dict(items)).inc(c.value)
        for (n, items), g in other._gauges.items():
            self.gauge(n, **dict(items)).set(g.value)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)})"
        )
