"""Attacker-blocking filters.

When intra-AS back-propagation reaches an access router, the router
"identif[ies] the MAC addresses of attack hosts and inform[s] the
network switches to close the ports connected to the identified MAC
addresses" (Section 5.2).  In the simulator the equivalent observable
is a filter at the access router that drops every packet arriving on
the attacker's access channel — regardless of the (spoofed) source
address the packets claim.

"All honeypot sessions are removed except for the MAC-address-based
filters installed at switch ports of attack hosts": these filters
outlive the sessions that installed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..sim.link import Channel
from ..sim.packet import Packet

__all__ = ["PortBlockFilter", "CaptureRecord"]


@dataclass(frozen=True)
class CaptureRecord:
    """One captured attack host: who, where, and when."""

    host_addr: int
    access_router_addr: int
    time: float
    honeypot_addr: int


class PortBlockFilter:
    """Per-router set of blocked access channels (closed switch ports)."""

    def __init__(self) -> None:
        self._blocked: Set[Channel] = set()
        self.packets_blocked = 0
        self.blocked_hosts: Dict[int, float] = {}

    def block(self, channel: Channel, now: float) -> bool:
        """Close the switch port behind ``channel``.

        Returns True if this call newly blocked the port.
        """
        if channel in self._blocked:
            return False
        self._blocked.add(channel)
        self.blocked_hosts[channel.src.addr] = now
        return True

    def unblock(self, channel: Channel) -> None:
        self._blocked.discard(channel)
        self.blocked_hosts.pop(channel.src.addr, None)

    def hook(self, pkt: Packet, in_channel) -> bool:
        """Router ingress hook: drop everything from blocked ports."""
        if in_channel is not None and in_channel in self._blocked:
            self.packets_blocked += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._blocked)
