"""Measurement: throughput time series.

The paper's headline metric is *legitimate client throughput as a
percentage of the bottleneck link capacity* (Figs. 8, 10, 11), sampled
over time and averaged over the attack window.  The monitor counts
bytes delivered at the servers, classified by a caller-supplied
function of each packet (the scenarios use its flow label, which marks
ground truth and is measurement-only information).

The sampled series is the run's one record of per-class delivered
bytes: a telemetry run stores :meth:`ThroughputMonitor.to_dict` in its
artifact as ``throughput``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .engine import Simulator, Timer
from .node import Host
from .packet import Packet

__all__ = ["ThroughputMonitor", "mean_over_window"]


class ThroughputMonitor:
    """Samples delivered goodput at a set of hosts on a fixed interval.

    Parameters
    ----------
    sim, hosts:
        Simulator and the hosts (e.g. the server pool) to instrument.
    classify:
        Maps a delivered packet to a class label (e.g. ``"legit"`` /
        ``"attack"``); packets mapped to None are ignored.
    interval:
        Sampling period in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence[Host],
        classify: Callable[[Packet], Optional[str]],
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        self.sim = sim
        self.classify = classify
        self.interval = interval
        self._acc: Dict[str, int] = {}
        self.times: List[float] = []
        self.series: Dict[str, List[float]] = {}
        self._timer: Optional[Timer] = None
        self._last_sample_at: float = sim.now
        for host in hosts:
            host.on_deliver(self._on_packet)

    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        label = self.classify(pkt)
        if label is None:
            return
        self._acc[label] = self._acc.get(label, 0) + pkt.size

    def _sample(self, interval: Optional[float] = None) -> None:
        interval = self.interval if interval is None else interval
        self._last_sample_at = self.sim.now
        self.times.append(self.sim.now)
        seen = set(self._acc) | set(self.series)
        for label in seen:
            series = self.series.setdefault(label, [0.0] * (len(self.times) - 1))
            # Pad labels that appeared late.
            while len(series) < len(self.times) - 1:
                series.append(0.0)
            bits_per_s = self._acc.get(label, 0) * 8.0 / interval
            series.append(bits_per_s)
        self._acc.clear()

    def start(self) -> None:
        """Begin periodic sampling (first sample one interval from now)."""
        if self._timer is None:
            self._last_sample_at = self.sim.now
            self._timer = self.sim.every(self.interval, self._sample)

    def stop(self) -> None:
        """Stop sampling, emitting a final partial sample so bytes
        delivered after the last timer tick are not silently dropped
        (the partial sample is rate-normalized by its actual length)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            partial = self.sim.now - self._last_sample_at
            if self._acc and partial > 0:
                self._sample(interval=partial)

    # ------------------------------------------------------------------
    def rate_series(self, label: str) -> Tuple[List[float], List[float]]:
        """(sample times, bits/s per interval) for a traffic class."""
        return self.times, self.series.get(label, [])

    def percent_of(self, label: str, capacity_bps: float) -> List[float]:
        """Series of ``label`` throughput as % of ``capacity_bps``."""
        return [100.0 * v / capacity_bps for v in self.series.get(label, [])]

    def to_dict(self) -> Dict[str, object]:
        """The sampled series as a JSON-ready payload."""
        return {
            "interval_s": self.interval,
            "times": list(self.times),
            "series_bps": {label: list(vals) for label, vals in self.series.items()},
        }


def mean_over_window(
    times: Sequence[float],
    values: Sequence[float],
    start: float,
    end: float,
) -> float:
    """Mean of samples whose timestamps fall in ``(start, end]``.

    Used to average client throughput over the attack interval, as the
    paper does for Figs. 10 and 11.
    """
    picked = [v for t, v in zip(times, values) if start < t <= end]
    if not picked:
        return 0.0
    return sum(picked) / len(picked)
