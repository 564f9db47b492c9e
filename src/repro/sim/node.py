"""Nodes: hosts and routers.

Routers provide the one capability the paper's defenses need: ingress
hooks, run on every arriving packet with the input port (channel) it
arrived on; a hook may drop or consume the packet.  Pushback's rate
limiters and honeypot back-propagation's port filters are hooks, and
each defense does its own input debugging (Section 5.2) in its hooks:
honeypot back-propagation records the input ports of honeypot traffic
to walk upstream, and Pushback counts per-input demand.

Control-plane messages between nodes travel as CONTROL packets through
the same links as data (they share queues and can be lost), which
matches the paper's in-band honeypot request/cancel messages.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .engine import Simulator
from .link import Channel
from .packet import Packet, PacketKind

__all__ = ["Node", "Host", "Router"]

# An ingress hook: (packet, in_channel) -> True to consume/drop the packet.
IngressHook = Callable[[Packet, Optional[Channel]], bool]
# A delivery handler on hosts: (packet) -> None.
DeliveryHandler = Callable[[Packet], None]
# A control handler: (packet, in_channel) -> None.
ControlHandler = Callable[[Packet, Optional[Channel]], None]


class Node:
    """Base network node with an address and attached channels."""

    def __init__(self, sim: Simulator, node_id: int, name: Optional[str] = None) -> None:
        self.sim = sim
        self.id = node_id
        self.addr = node_id
        self.name = name if name is not None else f"n{node_id}"
        # Channels on which this node transmits / receives.
        self.out_channels: List[Channel] = []
        self.in_channels: List[Channel] = []
        # addr -> outgoing channel (filled by repro.sim.routing).
        self.routes: Dict[int, Channel] = {}
        # Handlers for CONTROL packets addressed to this node, keyed by
        # the payload's ``msg_type`` attribute.
        self.control_handlers: Dict[str, ControlHandler] = {}
        self.packets_received = 0
        self.packets_originated = 0

    # ------------------------------------------------------------------
    def attach(self, out_channel: Channel, in_channel: Channel) -> None:
        """Register the channel pair of a link endpoint (called by Link)."""
        self.out_channels.append(out_channel)
        self.in_channels.append(in_channel)

    def neighbors(self) -> List["Node"]:
        return [c.dst for c in self.out_channels]

    # ------------------------------------------------------------------
    def route_to(self, dst: int) -> Optional[Channel]:
        """Outgoing channel toward ``dst`` (None if unroutable)."""
        ch = self.routes.get(dst)
        if ch is None and len(self.out_channels) == 1:
            # Single-homed nodes default-route over their only link.
            return self.out_channels[0]
        return ch

    def originate(self, pkt: Packet) -> bool:
        """Send a locally generated packet toward its destination."""
        self.packets_originated += 1
        if pkt.dst == self.addr:
            self.receive(pkt, None)
            return True
        ch = self.route_to(pkt.dst)
        if ch is None:
            return False
        return ch.send(pkt)

    def send_control(
        self,
        dst: int,
        msg: Any,
        *,
        size: int = 64,
        ttl: int = 255,
    ) -> bool:
        """Send a control message ``msg`` (must expose ``msg_type``)."""
        pkt = Packet(
            self.addr,
            dst,
            size,
            kind=PacketKind.CONTROL,
            payload=msg,
            ttl=ttl,
        )
        # Hop-by-hop control messages go to direct neighbors, which need
        # not appear in the routing tables: use the connecting channel.
        for ch in self.out_channels:
            if ch.dst.addr == dst:
                self.packets_originated += 1
                return ch.send(pkt)
        return self.originate(pkt)

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, in_channel: Optional[Channel]) -> None:
        raise NotImplementedError

    def _dispatch_control(self, pkt: Packet, in_channel: Optional[Channel]) -> None:
        msg_type = getattr(pkt.payload, "msg_type", None)
        handler = self.control_handlers.get(msg_type)
        if handler is not None:
            handler(pkt, in_channel)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, addr={self.addr})"


class Host(Node):
    """End host: delivers packets addressed to it to registered apps."""

    def __init__(self, sim: Simulator, node_id: int, name: Optional[str] = None) -> None:
        super().__init__(sim, node_id, name)
        self.delivery_handlers: List[DeliveryHandler] = []
        self.bytes_received = 0

    def on_deliver(self, handler: DeliveryHandler) -> None:
        """Register a handler invoked for every packet delivered here."""
        self.delivery_handlers.append(handler)

    def receive(self, pkt: Packet, in_channel: Optional[Channel]) -> None:
        if pkt.dst != self.addr:
            # Hosts do not forward transit traffic.
            return
        self.packets_received += 1
        self.bytes_received += pkt.size
        if pkt.kind == PacketKind.CONTROL:
            self._dispatch_control(pkt, in_channel)
            return
        for handler in self.delivery_handlers:
            handler(pkt)


class Router(Node):
    """Store-and-forward router with defense ingress hooks.

    Defenses do their own input debugging in the hooks they install.
    """

    def __init__(self, sim: Simulator, node_id: int, name: Optional[str] = None) -> None:
        super().__init__(sim, node_id, name)
        self.ingress_hooks: List[IngressHook] = []
        self.packets_forwarded = 0
        self.packets_filtered = 0
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    def add_ingress_hook(self, hook: IngressHook) -> None:
        self.ingress_hooks.append(hook)

    def remove_ingress_hook(self, hook: IngressHook) -> None:
        try:
            self.ingress_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, in_channel: Optional[Channel]) -> None:
        self.packets_received += 1
        # Local delivery (control plane).
        if pkt.dst == self.addr:
            if pkt.kind == PacketKind.CONTROL:
                self._dispatch_control(pkt, in_channel)
            return
        # Defense hooks (filters / rate limiters).
        if self.ingress_hooks:
            for hook in self.ingress_hooks:
                if hook(pkt, in_channel):
                    self.packets_filtered += 1
                    return
        # TTL.
        pkt.ttl -= 1
        if pkt.ttl <= 0:
            return
        # route_to() inlined for the routed case; it is only needed for
        # the single-homed default route.
        out = self.routes.get(pkt.dst)
        if out is None:
            out = self.route_to(pkt.dst)
        if out is None:
            self.no_route_drops += 1
            return
        self.packets_forwarded += 1
        out.send(pkt)
