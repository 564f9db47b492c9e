"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the single sink for quantitative telemetry — packets
delivered/dropped/filtered per class, queue depths, control-message
counts, capture latencies — replacing the ad-hoc counter attributes the
measurement code previously kept in parallel.

Design constraints (from the simulator's hot path):

* Instruments are plain ``__slots__`` objects whose update methods do a
  dict-free increment; acquiring an instrument (``registry.counter``)
  is the only dict lookup and is done once, outside the loop.
* Metrics are off when no telemetry or registry is passed: the code
  holds ``None`` and skips the update.  The truly hot paths (link
  transmit, router forward) are never instrumented per-packet at all:
  they are snapshotted from the simulation objects' own counters after
  the run (:meth:`repro.obs.telemetry.Telemetry.snapshot_network`).
* Everything is deterministic and JSON-serializable:
  :meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.from_dict`
  round-trip exactly, which the exporter tests assert.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

# Seconds; the buckets cover latencies from milliseconds (one intra-AS hop)
# to minutes (progressive capture of low-rate attackers).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)

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
    """A value that can go up and down (queue depth, sessions alive)."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets + sum/count).

    ``buckets`` are the upper bounds of the finite buckets; one
    overflow bucket (+inf) is implicit.  Bounds are fixed at creation —
    no re-bucketing, so observation is one bisect + two adds.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        b = tuple(float(x) for x in buckets)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bucket bounds must be strictly increasing (got {b})")
        self.buckets = b
        self.counts: List[int] = [0] * (len(b) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the bucket holding the
        q-th observation (inf if it falls in the overflow bucket)."""
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1] (got {q})")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.buckets[i] if i < len(self.buckets) else float("inf")
        return float("inf")


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
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

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

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_items(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(buckets)
        return h

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter or gauge (0 if never touched)."""
        key = (name, _label_items(labels))
        inst = self._counters.get(key) or self._gauges.get(key)
        return inst.value if inst is not None else 0

    def values(self, name: str) -> Dict[LabelItems, float]:
        """All label-sets of one counter/gauge name -> value."""
        out: Dict[LabelItems, float] = {}
        for (n, items), inst in list(self._counters.items()) + list(
            self._gauges.items()
        ):
            if n == name:
                out[items] = inst.value
        return out

    def names(self) -> List[str]:
        seen = {n for n, _ in self._counters}
        seen |= {n for n, _ in self._gauges}
        seen |= {n for n, _ in self._histograms}
        return sorted(seen)

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
        histograms = [
            {
                "name": n,
                "labels": meta(items),
                "buckets": list(h.buckets),
                "counts": list(h.counts),
                "count": h.count,
                "sum": h.sum,
            }
            for (n, items), h in sorted(self._histograms.items())
        ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        for c in data.get("counters", ()):
            reg.counter(c["name"], **c["labels"]).inc(c["value"])
        for g in data.get("gauges", ()):
            gauge = reg.gauge(g["name"], **g["labels"])
            gauge.set(g.get("max", g["value"]))
            gauge.value = g["value"]
        for h in data.get("histograms", ()):
            hist = reg.histogram(h["name"], buckets=h["buckets"], **h["labels"])
            hist.counts = list(h["counts"])
            hist.count = h["count"]
            hist.sum = h["sum"]
        return reg

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counts into this one (bench summaries)."""
        for (n, items), c in other._counters.items():
            self.counter(n, **dict(items)).inc(c.value)
        for (n, items), g in other._gauges.items():
            self.gauge(n, **dict(items)).set(g.value)
        for (n, items), h in other._histograms.items():
            mine = self.histogram(n, buckets=h.buckets, **dict(items))
            mine.counts = [a + b for a, b in zip(mine.counts, h.counts)]
            mine.count += h.count
            mine.sum += h.sum

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
