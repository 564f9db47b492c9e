"""Aggregate signatures and identification (ACC).

An *aggregate* is "a collection of packets from one or more flows that
have some property in common" (Mahajan et al.).  In the private-service
setting the natural congestion signature is the destination server
address: "when a server takes the role of a honeypot, the server's
destination address defines the malicious aggregate" (Section 2), and
plain ACC likewise identifies destination-based aggregates from the
recent drop history of a congested queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from ..sim.packet import Packet

__all__ = ["AggregateSignature", "DropHistory", "identify_aggregates"]


@dataclass(frozen=True)
class AggregateSignature:
    """A destination-prefix aggregate (here: one destination address)."""

    dst: int

    def matches(self, pkt: Packet) -> bool:
        return pkt.dst == self.dst


class DropHistory:
    """Ring buffer of recently dropped packets' destinations.

    ACC identifies misbehaving aggregates by looking at what the
    congested queue has been dropping; we keep the last ``maxlen``
    drops with timestamps and expose per-destination counts over a
    recent window.
    """

    def __init__(self, maxlen: int = 2000) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._drops: Deque[Tuple[float, int]] = deque(maxlen=maxlen)

    def record(self, now: float, pkt: Packet) -> None:
        self._drops.append((now, pkt.dst))

    def counts_since(self, since: float) -> Dict[int, int]:
        """dst -> dropped-packet count for drops at time >= ``since``."""
        counts: Dict[int, int] = {}
        for t, dst in self._drops:
            if t >= since:
                counts[dst] = counts.get(dst, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._drops)


def identify_aggregates(
    drop_counts: Dict[int, int],
    min_share: float = 0.1,
    max_aggregates: int = 5,
) -> List[AggregateSignature]:
    """Pick the destinations responsible for the congestion.

    Destinations whose share of recent drops is at least ``min_share``
    are declared misbehaving aggregates, largest first, at most
    ``max_aggregates`` of them — mirroring ACC's "few aggregates
    covering most of the drops" heuristic.
    """
    if not 0.0 < min_share <= 1.0:
        raise ValueError(f"min_share must be in (0, 1] (got {min_share})")
    total = sum(drop_counts.values())
    if total == 0:
        return []
    ranked = sorted(drop_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    result = []
    for dst, count in ranked:
        if count / total < min_share:
            break
        result.append(AggregateSignature(dst))
        if len(result) >= max_aggregates:
            break
    return result
