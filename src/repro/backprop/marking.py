"""Ingress identification: GRE tunneling and edge-router packet marking.

To propagate a honeypot session to the right upstream AS, the HSM must
learn *which edge router* honeypot traffic enters the AS through
(Section 5.1).  Diverted traffic reaches the HSM either

* through per-edge-router **GRE tunnels** — the HSM tells tunnels
  apart trivially; or
* carrying an **edge-router ID mark**: each of the ``n`` edge routers
  stamps its ``ceil(log2 n)``-bit identifier into the IP ID field of
  diverted packets.  Only honeypot traffic (discarded anyway) is
  marked, so reusing the header field is safe; and a compromised edge
  router lying in its marks cannot create false positives — the
  back-propagation it mis-directs dies out for lack of matching
  packets.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..sim.packet import Packet

__all__ = ["EdgeRouterMarker", "TunnelRegistry", "marking_bits_needed"]


def marking_bits_needed(n_edge_routers: int) -> int:
    """Bits required to encode an edge-router ID (``lg n``, Section 5.1)."""
    if n_edge_routers < 1:
        raise ValueError("need at least one edge router")
    return max(1, math.ceil(math.log2(n_edge_routers))) if n_edge_routers > 1 else 1


class EdgeRouterMarker:
    """Destination-end edge-router ID marking within one AS.

    ``assign`` gives each edge router a compact ID; ``mark`` stamps a
    packet (as the edge router would); ``ingress_of`` recovers the
    upstream AS of a marked packet at the HSM.
    """

    def __init__(self) -> None:
        # edge router identity (any hashable) -> (mark id, upstream AS)
        self._ids: Dict[object, int] = {}
        self._upstream: Dict[int, int] = {}
        self._next = 1  # mark 0 = unmarked

    def assign(self, edge_router: object, upstream_as: int) -> int:
        """Register an edge router facing ``upstream_as``; returns its ID."""
        mark = self._ids.get(edge_router)
        if mark is None:
            mark = self._next
            self._next += 1
            self._ids[edge_router] = mark
        self._upstream[mark] = upstream_as
        return mark

    def mark(self, pkt: Packet, edge_router: object) -> None:
        """Stamp the edge router's ID into the packet's mark field."""
        mark = self._ids.get(edge_router)
        if mark is None:
            raise KeyError(f"unregistered edge router {edge_router!r}")
        pkt.mark = mark

    def ingress_of(self, pkt: Packet) -> Optional[int]:
        """Upstream AS a marked (diverted) packet entered from."""
        return self._upstream.get(pkt.mark)


class TunnelRegistry:
    """GRE tunnels between edge routers and the HSM.

    The tunnel a diverted packet arrives on identifies its ingress
    point; we model a tunnel as an opaque handle mapped to the upstream
    AS behind that edge router.
    """

    def __init__(self) -> None:
        self._tunnels: Dict[object, int] = {}
        self.packets_diverted = 0

    def establish(self, edge_router: object, upstream_as: int) -> None:
        self._tunnels[edge_router] = upstream_as

    def divert(self, pkt: Packet, edge_router: object) -> int:
        """Packet diverted via ``edge_router``'s tunnel; returns the
        upstream AS it entered from."""
        try:
            upstream = self._tunnels[edge_router]
        except KeyError:
            raise KeyError(f"no tunnel from edge router {edge_router!r}") from None
        self.packets_diverted += 1
        return upstream

    def __len__(self) -> int:
        return len(self._tunnels)
