"""Unit tests for back-propagation building blocks."""

import pytest

from repro.backprop.deployment import DeploymentMap
from repro.backprop.filters import PortBlockFilter
from repro.backprop.hsm import HSM
from repro.backprop.marking import (
    EdgeRouterMarker,
    TunnelRegistry,
    marking_bits_needed,
)
from repro.backprop.messages import (
    HoneypotCancel,
    HoneypotRequest,
    sign_inter_as,
    verify_inter_as,
)
from repro.backprop.progressive import IntermediateASList
from repro.backprop.session import HoneypotSession
from repro.crypto.auth import KeyRing, SharedKeyAuthenticator
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet


class TestMessages:
    def test_sign_verify_roundtrip(self):
        auth = SharedKeyAuthenticator(b"x" * 32)
        msg = HoneypotRequest(honeypot_addr=5, epoch=3, origin_as=1)
        signed = sign_inter_as(msg, auth)
        assert verify_inter_as(signed, auth)

    def test_unsigned_rejected(self):
        auth = SharedKeyAuthenticator(b"x" * 32)
        msg = HoneypotRequest(5, 3, 1)
        assert not verify_inter_as(msg, auth)

    def test_tampered_rejected(self):
        auth = SharedKeyAuthenticator(b"x" * 32)
        signed = sign_inter_as(HoneypotRequest(5, 3, 1), auth)
        forged = HoneypotRequest(6, 3, 1, tag=signed.tag)
        assert not verify_inter_as(forged, auth)

    def test_cancel_and_request_tags_differ(self):
        auth = SharedKeyAuthenticator(b"x" * 32)
        req = sign_inter_as(HoneypotRequest(5, 3, 1), auth)
        can = sign_inter_as(HoneypotCancel(5, 3, 1), auth)
        assert req.tag != can.tag

    def test_msg_types(self):
        assert HoneypotRequest(1, 1, 1).msg_type == "hp_request"
        assert HoneypotCancel(1, 1, 1).msg_type == "hp_cancel"


class TestSession:
    def test_ingress_recording(self):
        sess = HoneypotSession(5, 1, 0.0)
        assert sess.record_ingress("up1") == 1
        assert sess.record_ingress("up1") == 2
        assert sess.ingress_counts == {"up1": 2}

    def test_needs_propagation_once(self):
        sess = HoneypotSession(5, 1, 0.0)
        sess.record_ingress("up1")
        assert sess.needs_propagation("up1")
        sess.mark_propagated("up1")
        assert not sess.needs_propagation("up1")

    def test_stalled(self):
        sess = HoneypotSession(5, 1, 0.0)
        assert sess.stalled
        sess.mark_propagated("up1")
        assert not sess.stalled


class TestHSM:
    def make_pair(self):
        ring = KeyRing()
        ring.establish(1, 2)
        return HSM(1, True, ring), HSM(2, True, ring), ring

    def test_request_creates_session(self):
        a, b, ring = self.make_pair()
        msg = a.make_request_for(99, 1, to_as=2)
        sess = b.accept_request(msg, from_as=1, now=0.0)
        assert sess is not None
        assert 99 in b.sessions

    def test_forged_request_rejected(self):
        a, b, ring = self.make_pair()
        msg = HoneypotRequest(99, 1, origin_as=1, tag=b"\x00" * 32)
        assert b.accept_request(msg, from_as=1, now=0.0) is None
        assert b.state.forged_rejected == 1

    def test_unkeyed_peer_rejected(self):
        ring = KeyRing()
        hsm = HSM(3, True, ring)
        msg = HoneypotRequest(99, 1, origin_as=9, tag=b"\x00" * 32)
        assert hsm.accept_request(msg, from_as=9, now=0.0) is None

    def test_local_request_needs_no_mac(self):
        ring = KeyRing()
        hsm = HSM(1, False, ring)
        sess = hsm.accept_request(HoneypotRequest(99, 1, 1), from_as=None, now=0.0)
        assert sess is not None

    def test_stale_epoch_replaced(self):
        a, b, ring = self.make_pair()
        b.accept_request(a.make_request_for(99, 1, 2), 1, 0.0)
        b.accept_request(a.make_request_for(99, 2, 2), 1, 10.0)
        assert b.sessions[99].epoch == 2

    def test_drop_session(self):
        a, b, ring = self.make_pair()
        b.accept_request(a.make_request_for(99, 1, 2), 1, 0.0)
        b.drop_session(99)
        assert 99 not in b.sessions


class TestMarking:
    def test_bits_needed(self):
        assert marking_bits_needed(1) == 1
        assert marking_bits_needed(2) == 1
        assert marking_bits_needed(3) == 2
        assert marking_bits_needed(16) == 4
        assert marking_bits_needed(17) == 5
        with pytest.raises(ValueError):
            marking_bits_needed(0)

    def test_mark_and_recover(self):
        marker = EdgeRouterMarker()
        marker.assign("edge1", upstream_as=7)
        marker.assign("edge2", upstream_as=8)
        pkt = Packet(1, 2, 100)
        marker.mark(pkt, "edge2")
        assert marker.ingress_of(pkt) == 8

    def test_unmarked_packet(self):
        marker = EdgeRouterMarker()
        marker.assign("e", 7)
        assert marker.ingress_of(Packet(1, 2, 100)) is None

    def test_unregistered_edge_router(self):
        marker = EdgeRouterMarker()
        with pytest.raises(KeyError):
            marker.mark(Packet(1, 2, 100), "ghost")

    def test_assign_idempotent(self):
        marker = EdgeRouterMarker()
        m1 = marker.assign("e", 7)
        m2 = marker.assign("e", 7)
        assert m1 == m2

    def test_tunnels(self):
        reg = TunnelRegistry()
        reg.establish("edgeA", upstream_as=3)
        assert reg.divert(Packet(1, 2, 100), "edgeA") == 3
        assert reg.packets_diverted == 1
        assert len(reg) == 1
        with pytest.raises(KeyError):
            reg.divert(Packet(1, 2, 100), "edgeB")


class TestPortBlockFilter:
    def make(self):
        sim = Simulator()
        a, b = Host(sim, 0), Host(sim, 1)
        link = Link(sim, a, b, 1e6, 0.001)
        return PortBlockFilter(), link.ab

    def test_block_and_hook(self):
        f, ch = self.make()
        assert f.block(ch, now=1.0)
        assert f.hook(Packet(0, 1, 100), ch)
        assert f.packets_blocked == 1
        assert f.blocked_hosts == {0: 1.0}

    def test_block_idempotent(self):
        f, ch = self.make()
        assert f.block(ch, 1.0)
        assert not f.block(ch, 2.0)
        assert len(f) == 1

    def test_other_channels_unaffected(self):
        f, ch = self.make()
        f.block(ch, 1.0)
        assert not f.hook(Packet(0, 1, 100), None)
        assert not f.hook(Packet(0, 1, 100), "other")

    def test_unblock(self):
        f, ch = self.make()
        f.block(ch, 1.0)
        f.unblock(ch)
        assert not f.hook(Packet(0, 1, 100), ch)
        assert len(f) == 0


class TestIntermediateASList:
    def test_report_adds_entry(self):
        lst = IntermediateASList(rho=3)
        lst.on_report(5, 0.4)
        assert 5 in lst
        assert lst.resume_targets() == [(5, 0.4)]

    def test_flag_rule_removes_silent_entries(self):
        lst = IntermediateASList(rho=3)
        lst.on_report(5, 0.4)
        lst.end_epoch()  # reported this epoch: survives
        assert 5 in lst
        lst.end_epoch()  # silent: removed (rule 1)
        assert 5 not in lst
        assert lst.removed_by_flag_rule == 1

    def test_rho_rule_removes_stuck_entries(self):
        lst = IntermediateASList(rho=3)
        for _ in range(3):
            lst.on_report(5, 0.4)
            lst.end_epoch()
        assert 5 not in lst
        assert lst.removed_by_rho_rule == 1

    def test_time_distance_updated(self):
        lst = IntermediateASList(rho=5)
        lst.on_report(5, 0.4)
        lst.on_report(5, 0.6)
        assert lst.resume_targets() == [(5, 0.6)]

    def test_multiple_entries(self):
        lst = IntermediateASList(rho=5)
        lst.on_report(1, 0.1)
        lst.on_report(2, 0.2)
        assert len(lst) == 2

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            IntermediateASList(rho=0)


class TestDeploymentMap:
    def test_full_deployment(self):
        d = DeploymentMap()
        assert d.full
        assert d.deploys(42)
        assert d.deployed_count(10) == 10

    def test_partial(self):
        d = DeploymentMap({1, 2})
        assert d.deploys(1)
        assert not d.deploys(3)
        assert d.deployed_count(10) == 2

    def test_broadcast_direct_neighbor_deploys(self):
        import networkx as nx

        g = nx.path_graph(4)
        d = DeploymentMap({0, 1, 2, 3})
        assert d.broadcast_frontier(g, gap_entry=1, downstream=0) == [(1, 1)]

    def test_broadcast_across_gap(self):
        import networkx as nx

        # 0 - 1 - 2 - 3 with 1, 2 legacy.
        g = nx.path_graph(4)
        d = DeploymentMap({0, 3})
        frontier = d.broadcast_frontier(g, gap_entry=1, downstream=0)
        assert frontier == [(3, 3)]

    def test_broadcast_branches(self):
        import networkx as nx

        # 0 - 1 (legacy) with branches 1-2 (deploys) and 1-3 (legacy) - 4 (deploys)
        g = nx.Graph([(0, 1), (1, 2), (1, 3), (3, 4)])
        d = DeploymentMap({0, 2, 4})
        frontier = sorted(d.broadcast_frontier(g, 1, 0))
        assert frontier == [(2, 2), (4, 3)]

    def test_broadcast_does_not_flood_downstream(self):
        import networkx as nx

        # Gap entry 1 connects back to 0 (downstream) and onward to 2.
        g = nx.Graph([(0, 1), (1, 2), (0, 9)])
        d = DeploymentMap({9, 2})
        frontier = d.broadcast_frontier(g, 1, 0)
        assert frontier == [(2, 2)]  # never crosses back through 0
