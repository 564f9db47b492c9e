"""Honeypot back-propagation defense attached to a simulated network.

Wires together the roaming server pool (role tracking + epoch clock),
per-server honeypot trigger agents, and per-router back-propagation
agents.  Captures (closed switch ports) are collected centrally.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from ..backprop.filters import CaptureRecord
from ..backprop.intraas import (
    BackpropRouterAgent,
    HoneypotServerAgent,
    IntraASConfig,
)
from ..honeypots.roaming import RoamingServerPool
from ..sim.network import Network
from ..sim.node import Router
from .base import Defense

__all__ = ["HoneypotBackpropDefense"]


class HoneypotBackpropDefense(Defense):
    """Roaming honeypots + intra-AS back-propagation on the packet sim.

    Parameters
    ----------
    pool:
        The roaming server pool (constructed by the scenario, which
        also gives the legitimate clients their subscriptions).
    server_access_router:
        The first-hop router of the server pool (requests from a
        honeypot start there).
    """

    name = "honeypot-backprop"

    def __init__(
        self,
        pool: RoamingServerPool,
        server_access_router: Router,
        config: Optional[IntraASConfig] = None,
    ) -> None:
        self.pool = pool
        self.server_access_router = server_access_router
        self.config = config or IntraASConfig()
        self.router_agents: List[BackpropRouterAgent] = []
        self.server_agents: List[HoneypotServerAgent] = []
        self.captures: List[CaptureRecord] = []
        # Notified (in registration order) on every capture, after it is
        # appended to ``captures``.  The scenario uses this for the
        # stage-two reflector traceback journal event.
        self.capture_listeners: List[Callable[[CaptureRecord], None]] = []
        # Host addrs known to be reflectors (amplifier leaves); set by
        # reflection scenarios so capture-progress accounting can split
        # reflector captures from true-source captures.  Membership-only
        # (never iterated), so a frozenset is deterministic here.
        self.known_reflectors: FrozenSet[int] = frozenset()

    def _on_capture(self, record: CaptureRecord) -> None:
        self.captures.append(record)
        for listener in self.capture_listeners:
            listener(record)

    def attach(self, network: Network) -> None:
        sim = network.sim
        self.pool.telemetry = self.telemetry
        for router in network.routers():
            self.router_agents.append(
                BackpropRouterAgent(
                    sim,
                    router,
                    self.config,
                    on_capture=self._on_capture,
                    telemetry=self.telemetry,
                )
            )
        for idx, server in enumerate(self.pool.servers):
            self.server_agents.append(
                HoneypotServerAgent(
                    sim,
                    server,
                    idx,
                    self.pool,
                    self.server_access_router,
                    self.config,
                    telemetry=self.telemetry,
                )
            )
        self.pool.start()

    # ------------------------------------------------------------------
    def capture_times(self, attack_start: float = 0.0) -> Dict[int, float]:
        """host addr -> seconds from ``attack_start`` to its capture."""
        return {c.host_addr: c.time - attack_start for c in self.captures}

    def captured_hosts(self) -> Sequence[int]:
        return [c.host_addr for c in self.captures]

    def false_captures(self, attacker_addrs: Sequence[int]) -> List[CaptureRecord]:
        """Captures of hosts that are not attackers (should be empty).

        The set is membership-only (never iterated): the returned list
        keeps ``self.captures`` order, which is capture-event order and
        therefore deterministic for a given seed.
        """
        attackers = set(attacker_addrs)
        return [c for c in self.captures if c.host_addr not in attackers]

    def stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "defense": self.name,
            "captures": len(self.captures),
            "requests_sent": sum(a.requests_sent for a in self.router_agents)
            + sum(a.requests_sent for a in self.server_agents),
            "cancels_sent": sum(a.cancels_sent for a in self.router_agents)
            + sum(a.cancels_sent for a in self.server_agents),
            "packets_blocked": sum(
                a.port_filter.packets_blocked for a in self.router_agents
            ),
            "honeypot_hits": sum(a.honeypot_hits for a in self.server_agents),
        }
        if self.known_reflectors:
            stats["reflector_captures"] = sum(
                1 for c in self.captures if c.host_addr in self.known_reflectors
            )
        return stats
