"""The full hierarchy at packet level: inter-AS + intra-AS combined.

This module composes the building blocks into the paper's complete
system picture (Fig. 2): multiple Autonomous Systems simulated at
packet granularity, each with an HSM and edge routers; honeypot
sessions propagate *between* ASs driven by diverted-and-marked honeypot
traffic, and *within* each AS by router-level input debugging down to
the attackers' switch ports.

Per AS:

* the **edge router** faces neighbor ASs; during a honeypot session it
  diverts honeypot-destined traffic into the HSM, stamped with its
  edge-router ID (:mod:`repro.backprop.diversion`);
* the **HSM** (a host on a private-range address) recovers each
  diverted packet's upstream AS from the mark and relays a signed
  honeypot request to that AS's HSM (:mod:`repro.backprop.hsm`
  messages over simulated control packets);
* **routers** run :class:`~repro.backprop.intraas.BackpropRouterAgent`;
  the HSM seeds them with local honeypot requests so input debugging
  walks to the attack hosts inside the AS.

The result: a honeypot epoch at the victim server ends with closed
switch ports next to every zombie that sent during it, across AS
boundaries — with every message authenticated exactly as Section 5.3
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import networkx as nx

from ..crypto.auth import KeyRing
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.node import Host, Router
from .diversion import EdgeRouterAgent, HSMHost
from .filters import CaptureRecord
from .intraas import BackpropRouterAgent, IntraASConfig
from .marking import EdgeRouterMarker
from .messages import (
    HoneypotCancel,
    HoneypotRequest,
    LocalHoneypotCancel,
    LocalHoneypotRequest,
    sign_inter_as,
    verify_inter_as,
)

__all__ = ["MultiASTopology", "build_multi_as_network", "HierarchicalBackprop"]


@dataclass
class ASSite:
    """One AS's simulated components."""

    asn: int
    edge_router: Router
    hsm: HSMHost
    marker: EdgeRouterMarker
    edge_agents: Dict[int, EdgeRouterAgent] = field(default_factory=dict)
    internal_routers: List[Router] = field(default_factory=list)
    hosts: List[Host] = field(default_factory=list)


@dataclass
class MultiASTopology:
    """A packet-level network spanning several ASs."""

    network: Network
    sites: Dict[int, ASSite]
    as_graph: nx.Graph
    victim_asn: int
    server: Host

    def site(self, asn: int) -> ASSite:
        return self.sites[asn]


def build_multi_as_network(
    as_chain_hosts: List[int],
    intra_routers: int = 1,
    bandwidth: float = 10e6,
    delay: float = 0.002,
) -> MultiASTopology:
    """Build a chain of ASs at packet level.

    ``as_chain_hosts[i]`` is the number of end hosts in AS ``i``; AS 0
    is the victim AS (its single "host" is the server), the last AS
    typically hosts the attackers.  Each AS has one edge router,
    ``intra_routers`` internal routers in a chain, an HSM hanging off
    the edge router, and its hosts behind the innermost router.

    Layout per AS::

        (neighbor AS) == edge -- r1 -- ... -- rk -- hosts
                           |
                          HSM
    """
    if len(as_chain_hosts) < 2:
        raise ValueError("need at least two ASs (victim + one upstream)")
    net = Network()
    sites: Dict[int, ASSite] = {}
    as_graph = nx.Graph()
    prev_edge: Optional[Router] = None
    server: Optional[Host] = None
    for asn, n_hosts in enumerate(as_chain_hosts):
        as_graph.add_node(asn)
        edge = net.add_router(f"as{asn}-edge")
        marker = EdgeRouterMarker()
        hsm = HSMHost(net.sim, 2_000_000_000 + asn, marker)
        net.nodes[hsm.id] = hsm  # register the custom host
        net.graph.add_node(hsm.id, role="host")
        net.graph.add_edge(edge.id, hsm.id, bandwidth=bandwidth, delay=delay)
        from ..sim.link import Link

        net.links.append(Link(net.sim, edge, hsm, bandwidth, delay, 50))
        inner: List[Router] = []
        attach_point: Router = edge
        for k in range(intra_routers):
            r = net.add_router(f"as{asn}-r{k + 1}")
            net.add_link(attach_point, r, bandwidth, delay)
            inner.append(r)
            attach_point = r
        hosts = []
        for h in range(n_hosts):
            host = net.add_host(f"as{asn}-h{h}")
            net.add_link(attach_point, host, bandwidth, delay)
            hosts.append(host)
        if asn == 0:
            if not hosts:
                raise ValueError("the victim AS needs at least one host (the server)")
            server = hosts[0]
        if prev_edge is not None:
            net.add_link(prev_edge, edge, bandwidth, delay)
            as_graph.add_edge(asn - 1, asn)
        prev_edge = edge
        sites[asn] = ASSite(asn, edge, hsm, marker, internal_routers=inner,
                            hosts=hosts)
    assert server is not None
    # Routes to the server (data plane) and to every HSM: the HSMs'
    # pairwise control messages ride the (modeled) BGP sessions, and
    # diverted traffic must reach the local HSM from the edge.
    net.build_routes(targets=[server.id] + [site.hsm.id for site in sites.values()])
    return MultiASTopology(
        network=net, sites=sites, as_graph=as_graph, victim_asn=0, server=server
    )


class HierarchicalBackprop:
    """Coordinates the full two-level scheme over a multi-AS network."""

    def __init__(
        self,
        topo: MultiASTopology,
        epoch_len: float = 10.0,
        honeypot_epochs: Optional[List[int]] = None,
        config: Optional[IntraASConfig] = None,
        progressive: bool = False,
        rho: int = 3,
        telemetry=None,
    ) -> None:
        self.topo = topo
        self.net = topo.network
        self.sim: Simulator = topo.network.sim
        self.epoch_len = epoch_len
        self.telemetry = telemetry
        # asn -> "as_session_open" journal event (telemetry only).
        self._as_journal: Dict[int, object] = {}
        # 1-based epochs during which the server acts as a honeypot;
        # None = every epoch (single-server teaching setup).  Copied so
        # the schedule can't change under us if the caller reuses the
        # list (shard-safety invariant RPL103).
        self.honeypot_epochs = (
            list(honeypot_epochs) if honeypot_epochs is not None else None
        )
        self.config = config or IntraASConfig()
        self.keyring = KeyRing()
        for a, b in topo.as_graph.edges:
            self.keyring.establish(a, b)
        self.captures: List[CaptureRecord] = []
        self.router_agents: Dict[int, BackpropRouterAgent] = {}
        self.messages = {
            "inter_requests": 0,
            "inter_cancels": 0,
            "rejected": 0,
            "reports": 0,
            "resumes": 0,
        }
        # Progressive scheme (Section 6): the server's frontier list.
        self.progressive = progressive
        from .progressive import IntermediateASList

        self.frontier = IntermediateASList(
            rho=rho,
            journal=telemetry.journal if telemetry is not None else None,
        )
        # asn -> downstream asn the active session came from.
        self._session_from: Dict[int, Optional[int]] = {}
        self._sessions: Dict[int, int] = {}  # asn -> epoch
        # epoch -> frontier ASs whose session the server resumed
        # directly; each is a root of that epoch's session trees.
        self._resumed: Dict[int, List[int]] = {}
        self._wire()

    # ------------------------------------------------------------------
    def _wire(self) -> None:
        topo = self.topo
        # Router-level agents everywhere.
        for router in self.net.routers():
            self.router_agents[router.id] = BackpropRouterAgent(
                self.sim,
                router,
                self.config,
                on_capture=self.captures.append,
                telemetry=self.telemetry,
            )
        # Edge diversion agents: one per neighbor AS.
        for asn, site in topo.sites.items():
            for nbr in topo.as_graph.neighbors(asn):
                nbr_edge = topo.sites[nbr].edge_router
                link = self.net.link_between(site.edge_router, nbr_edge)
                inter_as_channel = link.channel_to(site.edge_router)
                agent = EdgeRouterAgent(
                    self.sim,
                    site.edge_router,
                    site.hsm,
                    site.marker,
                    upstream_as=nbr,
                    external_channels=[inter_as_channel],
                )
                site.edge_agents[nbr] = agent
                # Local (intra-AS) messages never cross this channel.
                self.router_agents[site.edge_router.id].boundary_channels.add(
                    inter_as_channel
                )
            # HSM control plane.
            site.hsm.control_handlers["hp_request"] = self._make_request_handler(asn)
            site.hsm.control_handlers["hp_cancel"] = self._make_cancel_handler(asn)
            # HSM absorbs diverted packets; hook propagation on arrival.
            site.hsm.on_deliver(self._make_divert_watcher(asn))
        # Victim server trigger + epoch clock (+ frontier reports).
        topo.server.on_deliver(self._server_watch)
        topo.server.control_handlers["hp_report"] = self._on_report
        self._count = 0
        self._triggered_epoch: Optional[int] = None
        self.sim.every(self.epoch_len, self._epoch_boundary)

    # ------------------------------------------------------------------
    # Epochs and the victim trigger
    # ------------------------------------------------------------------
    def _epoch(self, t: Optional[float] = None) -> int:
        t = self.sim.now if t is None else t
        return 1 + int(t / self.epoch_len)

    def _is_honeypot_epoch(self, epoch: int) -> bool:
        return self.honeypot_epochs is None or epoch in self.honeypot_epochs

    def _server_watch(self, pkt) -> None:
        if pkt.kind == "control":
            return
        epoch = self._epoch()
        if not self._is_honeypot_epoch(epoch):
            return
        self._count += 1
        if (
            self._triggered_epoch != epoch
            and self._count >= self.config.trigger_threshold
        ):
            self._triggered_epoch = epoch
            tele = self.telemetry
            if tele is not None:
                tele.journal.record(
                    "honeypot_hit",
                    parent=tele.open_session(self.topo.server.addr, epoch),
                    server=self.topo.server.addr,
                    hits=self._count,
                )
            # Fig. 2(a): the server alerts the HSM of its home AS.
            msg = HoneypotRequest(self.topo.server.addr, epoch, origin_as=-1)
            self.topo.server.send_control(
                self.topo.sites[self.topo.victim_asn].hsm.addr, msg
            )

    def _epoch_boundary(self) -> None:
        epoch = self._epoch()
        self._count = 0
        if self.telemetry is not None:
            self.telemetry.journal.record(
                "epoch_roll",
                epoch=epoch,
                honeypot=self._is_honeypot_epoch(epoch),
            )
        prev = epoch - 1
        roots = self._resumed.pop(prev, [])
        if self._triggered_epoch == prev:
            roots.insert(0, self.topo.victim_asn)
            self._triggered_epoch = None
        if roots:
            # Fig. 2(c): cancel the session trees of the ended epoch,
            # the victim AS's and every progressively resumed one.
            for asn in roots:
                msg = HoneypotCancel(self.topo.server.addr, prev, origin_as=-1)
                self.topo.server.send_control(self.topo.sites[asn].hsm.addr, msg)
            if self.telemetry is not None:
                self.telemetry.close_session(self.topo.server.addr, prev)
        if self.progressive:
            # Apply the maintenance rules once the prior epoch's reports
            # have landed, then resume from the frontier if this epoch
            # is a honeypot epoch (Fig. 3(b)).
            self.sim.schedule(0.5, self._progressive_resume, epoch)

    def _on_report(self, pkt, in_channel) -> None:
        from .messages import HoneypotReport

        msg: HoneypotReport = pkt.payload
        t_a = max(self.sim.now - msg.timestamp, 0.0)
        self.frontier.on_report(msg.reporter_as, t_a)

    def _progressive_resume(self, epoch: int) -> None:
        self.frontier.end_epoch()
        if not self._is_honeypot_epoch(epoch):
            return
        for asn, _t_a in self.frontier.resume_targets():
            if asn in self._sessions:
                continue
            self.messages["resumes"] += 1
            tele = self.telemetry
            if tele is not None:
                tele.journal.record(
                    "progressive_resume",
                    parent=tele.journal_root(self.topo.server.addr, epoch),
                    asn=asn,
                )
            msg = HoneypotRequest(self.topo.server.addr, epoch, origin_as=-1)
            self.topo.server.send_control(self.topo.sites[asn].hsm.addr, msg)
            self._resumed.setdefault(epoch, []).append(asn)

    # ------------------------------------------------------------------
    # HSM behaviour
    # ------------------------------------------------------------------
    def _make_request_handler(self, asn: int):
        def handler(pkt, in_channel) -> None:
            msg: HoneypotRequest = pkt.payload
            from_as = None if msg.origin_as == -1 else msg.origin_as
            if from_as is not None:
                if not self.keyring.has(asn, from_as) or not verify_inter_as(
                    msg, self.keyring.between(asn, from_as)
                ):
                    self.messages["rejected"] += 1
                    return
            self._activate_session(asn, msg.honeypot_addr, msg.epoch, from_as)

        return handler

    def _make_cancel_handler(self, asn: int):
        def handler(pkt, in_channel) -> None:
            msg: HoneypotCancel = pkt.payload
            from_as = None if msg.origin_as == -1 else msg.origin_as
            if from_as is not None:
                if not self.keyring.has(asn, from_as) or not verify_inter_as(
                    msg, self.keyring.between(asn, from_as)
                ):
                    self.messages["rejected"] += 1
                    return
            self._deactivate_session(asn, msg.honeypot_addr, msg.epoch)

        return handler

    def _activate_session(
        self, asn: int, honeypot_addr: int, epoch: int, from_as: Optional[int]
    ) -> None:
        if self._sessions.get(asn) == epoch:
            return
        self._sessions[asn] = epoch
        self._session_from[asn] = from_as
        site = self.topo.sites[asn]
        site.hsm.reset(honeypot_addr)
        tele = self.telemetry
        if tele is not None:
            self._as_journal[asn] = tele.journal.record(
                "as_session_open",
                parent=tele.open_session(honeypot_addr, epoch),
                asn=asn,
                from_as=-1 if from_as is None else from_as,
            )
        # Divert honeypot traffic entering from every neighbor AS
        # except the downstream one (traffic *to* the honeypot never
        # enters from downstream on a tree).
        for nbr, agent in site.edge_agents.items():
            if nbr != from_as:
                agent.announce(honeypot_addr)
                if tele is not None:
                    tele.journal.record(
                        "hsm_diversion",
                        parent=self._as_journal.get(asn),
                        asn=asn,
                        neighbor=nbr,
                    )
        # Intra-AS: seed the AS's routers with a local session so input
        # debugging can walk to any attack hosts inside this AS.
        site.edge_router.control_handlers["local_hp_request"](
            _local_packet(site.edge_router.addr, honeypot_addr, epoch), None
        )

    def _deactivate_session(self, asn: int, honeypot_addr: int, epoch: int) -> None:
        if self._sessions.get(asn) != epoch:
            return
        del self._sessions[asn]
        site = self.topo.sites[asn]
        if self.telemetry is not None:
            ev = self._as_journal.pop(asn, None)
            if ev is not None:
                self.telemetry.journal.record(
                    "as_session_close", parent=ev, asn=asn
                )
        # Progressive: a transit AS that relayed nothing upstream is the
        # frontier; it reports its identity + timestamp to the server.
        if (
            self.progressive
            and not self._propagated_to(asn)
            and asn != self.topo.victim_asn
            and self.topo.as_graph.degree(asn) > 1  # transit, not a stub
        ):
            from .messages import HoneypotReport

            self.messages["reports"] += 1
            if self.telemetry is not None:
                self.telemetry.journal.record(
                    "frontier_report", asn=asn, lost=False
                )
            site.hsm.send_control(
                self.topo.server.addr,
                HoneypotReport(honeypot_addr, epoch, asn, self.sim.now),
            )
        # Relay the cancel upstream before forgetting the session state.
        for nbr in list(site.edge_agents):
            agent = site.edge_agents[nbr]
            agent.withdraw(honeypot_addr)
        upstream = self._propagated_to(asn)
        for nbr in upstream:
            self.messages["inter_cancels"] += 1
            cancel = HoneypotCancel(honeypot_addr, epoch, origin_as=asn)
            signed = sign_inter_as(cancel, self.keyring.between(asn, nbr))
            site.hsm.send_control(self.topo.sites[nbr].hsm.addr, signed)
        self._propagated.pop(asn, None)
        # Tear down the local router sessions (port blocks persist).
        site.edge_router.control_handlers["local_hp_cancel"](
            _local_cancel_packet(site.edge_router.addr, honeypot_addr, epoch), None
        )

    # asn -> set of upstream asns already relayed to this epoch.
    @property
    def _propagated(self) -> Dict[int, set]:
        if not hasattr(self, "_propagated_store"):
            self._propagated_store: Dict[int, set] = {}
        return self._propagated_store

    def _propagated_to(self, asn: int) -> set:
        return self._propagated.setdefault(asn, set())

    def _make_divert_watcher(self, asn: int):
        """Diverted honeypot traffic at the HSM drives propagation."""

        def watcher(pkt) -> None:
            if pkt.kind == "control":
                return
            epoch = self._sessions.get(asn)
            if epoch is None:
                return
            upstream = self.topo.sites[asn].marker.ingress_of(pkt)
            if upstream is None:
                return
            done = self._propagated_to(asn)
            if upstream in done:
                return
            done.add(upstream)
            honeypot_addr = pkt.payload if isinstance(pkt.payload, int) else pkt.dst
            self.messages["inter_requests"] += 1
            tele = self.telemetry
            if tele is not None:
                ev_parent = self._as_journal.get(asn)
                tele.journal.record(
                    "ingress_identified", parent=ev_parent, asn=asn,
                    upstream=upstream,
                )
                tele.journal.record(
                    "inter_as_hop", parent=ev_parent, from_as=asn,
                    to_as=upstream,
                )
            request = HoneypotRequest(honeypot_addr, epoch, origin_as=asn)
            signed = sign_inter_as(request, self.keyring.between(asn, upstream))
            self.topo.sites[asn].hsm.send_control(
                self.topo.sites[upstream].hsm.addr, signed
            )

        return watcher


def _local_packet(router_addr: int, honeypot_addr: int, epoch: int):
    from ..sim.packet import Packet

    return Packet(
        router_addr, router_addr, 64, kind="control",
        payload=LocalHoneypotRequest(honeypot_addr, epoch), ttl=255,
    )


def _local_cancel_packet(router_addr: int, honeypot_addr: int, epoch: int):
    from ..sim.packet import Packet

    return Packet(
        router_addr, router_addr, 64, kind="control",
        payload=LocalHoneypotCancel(honeypot_addr, epoch), ttl=255,
    )
