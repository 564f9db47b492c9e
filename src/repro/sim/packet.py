"""Packet model.

A packet carries a (possibly spoofed) source address, a destination
address, and the small set of header fields the paper's mechanisms
read or write:

* ``mark`` — the edge-router ID field used by the destination-end
  marking variant of ingress identification (Section 5.1; the paper
  reuses the 16-bit IP ID field, which is safe because only honeypot
  traffic — traffic that will be discarded anyway — is marked).
* ``ttl`` — used to authenticate hop-by-hop control messages the way
  ACC/Pushback does (only TTL=255 messages are accepted, Section 5.3).
* ``true_src`` — ground-truth origin, for measurement only; no protocol
  logic may read it (enforced by the defense implementations reading
  only ``src``).

Nothing else rides along: every slot is read by routing, a defense, a
monitor or a control handler.  Addresses are plain integers (node IDs);
an address space abstraction would add cost in the hot path without
adding fidelity.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Packet", "PacketKind", "DEFAULT_TTL"]

DEFAULT_TTL = 255


class PacketKind:
    """Packet kind tags (plain strings; cheap to compare, easy to trace)."""

    DATA = "data"
    CONTROL = "control"


class Packet:
    """A simulated network packet.

    Parameters
    ----------
    src:
        Claimed source address (may be spoofed).
    dst:
        Destination address.
    size:
        Size in bytes (headers included).
    true_src:
        Ground-truth originating node; defaults to ``src``.
    flow:
        Flow label for per-flow accounting (e.g. ``("cbr", 17)``).
    kind:
        One of :class:`PacketKind`; defaults to DATA.
    payload:
        Arbitrary payload object for control messages.
    """

    __slots__ = (
        "src",
        "dst",
        "size",
        "true_src",
        "flow",
        "kind",
        "mark",
        "ttl",
        "payload",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        size: int,
        *,
        true_src: Optional[int] = None,
        flow: Any = None,
        kind: str = PacketKind.DATA,
        payload: Any = None,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.true_src = src if true_src is None else true_src
        self.flow = flow
        self.kind = kind
        self.mark = 0
        self.ttl = ttl
        self.payload = payload

    @property
    def spoofed(self) -> bool:
        """True if the claimed source differs from the true origin."""
        return self.src != self.true_src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spoof = "*" if self.spoofed else ""
        return (
            f"Packet({self.src}{spoof}->{self.dst} "
            f"{self.kind} {self.size}B ttl={self.ttl})"
        )

