"""Intra-AS (router-level) honeypot back-propagation.

This is the packet-level realization of Section 5.2, plugged into the
:mod:`repro.sim` simulator (mirroring the paper's modified-Pushback
ns-2 module):

* A server entering a honeypot epoch that receives attack packets
  above a trigger threshold sends a *local honeypot request* to its
  first-hop router.
* A router holding a honeypot session performs input debugging on
  traffic destined for the honeypot: the first packet observed from an
  input port triggers, after a processing delay, relaying the request
  one hop upstream on that port (hop-by-hop, TTL-authenticated).
* When the upstream port connects to an end host, the router is that
  host's *access router*: it identifies the attack host and closes its
  switch port (a :class:`~repro.backprop.filters.PortBlockFilter`
  entry) — the capture event.
* At the end of the honeypot epoch the server sends a *local honeypot
  cancel* that tears down the session tree; port blocks persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..crypto.auth import ttl_authenticated
from ..honeypots.roaming import RoamingServerPool
from ..sim.engine import Simulator
from ..sim.link import Channel
from ..sim.node import Host, Router
from ..sim.packet import Packet, PacketKind
from .filters import CaptureRecord, PortBlockFilter
from .messages import LocalHoneypotCancel, LocalHoneypotRequest
from .session import HoneypotSession

__all__ = ["IntraASConfig", "BackpropRouterAgent", "HoneypotServerAgent"]

CaptureCallback = Callable[[CaptureRecord], None]


@dataclass
class IntraASConfig:
    """Knobs of router-level back-propagation."""

    # Packets a honeypot must receive in an epoch before requesting
    # traceback — tolerance against benign probes (Section 5.3,
    # "honeypot request messages are sent only when the rate of
    # received traffic exceeds a threshold").
    trigger_threshold: int = 2
    # Per-router processing before relaying a request one hop up.
    processing_delay: float = 0.002
    # Packets that must be seen from an access port before closing it.
    block_threshold: int = 1
    control_packet_size: int = 64
    # Cancels are issued this long before the honeypot window closes,
    # so the tear-down wave reaches every router *before* legitimate
    # clients start sending to the newly re-activated server ("end each
    # honeypot epoch a little bit earlier ... to accommodate in-transit
    # legitimate traffic", Section 8.1).
    cancel_lead: float = 0.3


class BackpropRouterAgent:
    """Honeypot back-propagation logic at one router."""

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        config: Optional[IntraASConfig] = None,
        on_capture: Optional[CaptureCallback] = None,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.router = router
        self.config = config or IntraASConfig()
        self.on_capture = on_capture
        self.telemetry = telemetry
        self.sessions: Dict[int, HoneypotSession] = {}
        self._session_events: Dict[int, Any] = {}
        self.port_filter = PortBlockFilter()
        self.captures: List[CaptureRecord] = []
        # Channels crossing an AS boundary: local honeypot messages must
        # not be relayed over them ("provided that local honeypot
        # messages do not cross AS boundaries", Section 5.2); the
        # inter-AS level (HSMs) handles those directions.
        self.boundary_channels: set = set()
        self.requests_sent = 0
        self.cancels_sent = 0
        self.rejected_messages = 0
        # Port blocks first: blocked attackers must not even feed the
        # input-debugging observers.
        router.add_ingress_hook(self.port_filter.hook)
        router.add_ingress_hook(self._debug_hook)
        router.control_handlers["local_hp_request"] = self._on_request
        router.control_handlers["local_hp_cancel"] = self._on_cancel

    # ------------------------------------------------------------------
    # Data path: input debugging + propagation trigger
    # ------------------------------------------------------------------
    def _debug_hook(self, pkt: Packet, in_channel: Optional[Channel]) -> bool:
        sessions = self.sessions
        if not sessions or pkt.kind == PacketKind.CONTROL:
            return False
        sess = sessions.get(pkt.dst)
        if sess is None or in_channel is None:
            return False
        count = sess.record_ingress(in_channel)
        if in_channel in self.boundary_channels:
            return False  # inter-AS propagation is the HSM's job
        if in_channel not in sess.propagated_to:
            src = in_channel.src
            if isinstance(src, Host):
                if count >= self.config.block_threshold:
                    sess.mark_propagated(in_channel)
                    self.sim.schedule(
                        self.config.processing_delay, self._block_port, sess, in_channel
                    )
            else:
                sess.mark_propagated(in_channel)
                self.sim.schedule(
                    self.config.processing_delay, self._relay_request, sess, in_channel
                )
        return False

    def _relay_request(self, sess: HoneypotSession, in_channel: Channel) -> None:
        if self.sessions.get(sess.honeypot_addr) is not sess:
            return  # session torn down while the request was processing
        self.router.send_control(
            in_channel.src.addr,
            LocalHoneypotRequest(sess.honeypot_addr, sess.epoch),
            size=self.config.control_packet_size,
        )
        self.requests_sent += 1
        tele = self.telemetry
        if tele is not None:
            tele.journal.record(
                "hop_relay",
                parent=self._session_events.get(sess.honeypot_addr),
                router=self.router.addr,
                upstream=in_channel.src.addr,
            )

    def _block_port(self, sess: HoneypotSession, in_channel: Channel) -> None:
        if self.sessions.get(sess.honeypot_addr) is not sess:
            return
        if self.port_filter.block(in_channel, self.sim.now):
            record = CaptureRecord(
                host_addr=in_channel.src.addr,
                access_router_addr=self.router.addr,
                time=self.sim.now,
                honeypot_addr=sess.honeypot_addr,
            )
            self.captures.append(record)
            if self.on_capture is not None:
                self.on_capture(record)
            tele = self.telemetry
            if tele is not None:
                tele.journal.record(
                    "port_close",
                    parent=self._session_events.get(sess.honeypot_addr),
                    host=record.host_addr,
                    access_router=record.access_router_addr,
                )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _on_request(self, pkt: Packet, in_channel) -> None:
        if not ttl_authenticated(pkt.ttl):
            self.rejected_messages += 1
            return
        msg: LocalHoneypotRequest = pkt.payload
        sess = self.sessions.get(msg.honeypot_addr)
        if sess is None or sess.epoch != msg.epoch:
            self.sessions[msg.honeypot_addr] = HoneypotSession(
                honeypot_addr=msg.honeypot_addr,
                epoch=msg.epoch,
                created_at=self.sim.now,
            )
            tele = self.telemetry
            if tele is not None:
                stale = self._session_events.pop(msg.honeypot_addr, None)
                if stale is not None:  # replaced without a cancel
                    tele.journal.record(
                        "intra_session_close", parent=stale, replaced=True
                    )
                self._session_events[msg.honeypot_addr] = tele.journal.record(
                    "intra_session_open",
                    parent=tele.open_session(msg.honeypot_addr, msg.epoch),
                    router=self.router.addr,
                    epoch=msg.epoch,
                )

    def _on_cancel(self, pkt: Packet, in_channel) -> None:
        if not ttl_authenticated(pkt.ttl):
            self.rejected_messages += 1
            return
        msg: LocalHoneypotCancel = pkt.payload
        sess = self.sessions.pop(msg.honeypot_addr, None)
        if sess is None:
            return
        tele = self.telemetry
        if tele is not None:
            ev = self._session_events.pop(msg.honeypot_addr, None)
            if ev is not None:
                tele.journal.record(
                    "intra_session_close",
                    parent=ev,
                    ingress_ports=len(sess.ingress_counts),
                )
        # Cascade cancels along the request tree; port blocks persist.
        # Sorted by upstream router address: the set holds Channel
        # objects whose hash is id()-based, so raw iteration order would
        # differ between a serial run and a pool worker process.
        upstreams = sorted(
            (
                u
                for u in sess.propagated_to
                if isinstance(u, Channel) and isinstance(u.src, Router)
            ),
            key=lambda ch: ch.src.addr,
        )
        for upstream in upstreams:
            self.router.send_control(
                upstream.src.addr,
                LocalHoneypotCancel(msg.honeypot_addr, msg.epoch),
                size=self.config.control_packet_size,
            )
            self.cancels_sent += 1


class HoneypotServerAgent:
    """Honeypot trigger at one replica server.

    Counts data packets received during the server's honeypot-effective
    windows; above the trigger threshold, sends a local honeypot
    request to the first-hop router; at each epoch boundary, cancels
    any outstanding session tree.
    """

    def __init__(
        self,
        sim: Simulator,
        server: Host,
        server_index: int,
        pool: RoamingServerPool,
        access_router: Router,
        config: Optional[IntraASConfig] = None,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.server_index = server_index
        self.pool = pool
        self.access_router = access_router
        self.config = config or IntraASConfig()
        self.telemetry = telemetry
        self.requests_sent = 0
        self.cancels_sent = 0
        self.honeypot_hits = 0
        self._count_this_epoch = 0
        self._requested_epoch: Optional[int] = None
        self._cancelled_epoch: Optional[int] = None
        server.on_deliver(self._on_packet)
        pool.on_epoch(self._on_epoch)

    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CONTROL:
            return
        if not self.pool.is_honeypot_now(self.server_index):
            return
        self.honeypot_hits += 1
        self._count_this_epoch += 1
        epoch = self.pool.current_epoch()
        if (
            self._requested_epoch != epoch
            and self._cancelled_epoch != epoch
            and self._count_this_epoch >= self.config.trigger_threshold
        ):
            self._requested_epoch = epoch
            tele = self.telemetry
            if tele is not None:
                tele.journal.record(
                    "honeypot_hit",
                    parent=tele.open_session(
                        self.server.addr, epoch, server_index=self.server_index
                    ),
                    server=self.server.addr,
                    hits=self._count_this_epoch,
                )
            self.server.send_control(
                self.access_router.addr,
                LocalHoneypotRequest(self.server.addr, epoch),
                size=self.config.control_packet_size,
            )
            self.requests_sent += 1
            # Tear the session tree down shortly before the honeypot
            # window closes, so no session outlives the server's
            # honeypot role anywhere in the network.
            _, window_end = self.pool.honeypot_window(self.server_index, epoch)
            cancel_at = max(self.sim.now + 1e-3, window_end - self.config.cancel_lead)
            self.sim.schedule_at(cancel_at, self._send_cancel, epoch)

    def _send_cancel(self, epoch: int) -> None:
        if self._requested_epoch != epoch:
            return  # already cancelled
        self.server.send_control(
            self.access_router.addr,
            LocalHoneypotCancel(self.server.addr, epoch),
            size=self.config.control_packet_size,
        )
        self.cancels_sent += 1
        self._cancelled_epoch = epoch
        self._requested_epoch = None
        if self.telemetry is not None:
            self.telemetry.close_session(self.server.addr, epoch)

    def _on_epoch(self, epoch: int, active: frozenset) -> None:
        # Backstop at the boundary: cancel any session tree the early
        # cancel missed (it normally fires first).
        if self._requested_epoch is not None and self._requested_epoch != epoch:
            self._send_cancel(self._requested_epoch)
        self._count_this_epoch = 0
