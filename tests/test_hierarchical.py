"""Tests for the full hierarchical (inter-AS + intra-AS) scheme."""

import pytest

from repro.backprop.hierarchical import (
    HierarchicalBackprop,
    build_multi_as_network,
)
from repro.backprop.intraas import IntraASConfig
from repro.backprop.messages import HoneypotRequest
from repro.sim.packet import Packet
from repro.traffic.sources import CBRSource, OnOffSource


def build(chain=(1, 0, 0, 3), epoch_len=20.0, **kw):
    """Victim AS + 2 transit ASs + a stub AS with 3 hosts."""
    topo = build_multi_as_network(list(chain))
    scheme = HierarchicalBackprop(topo, epoch_len=epoch_len, **kw)
    return topo, scheme


def attack_from(topo, host, rate=1e5):
    src = CBRSource(
        topo.network.sim,
        host,
        topo.server.addr,
        rate_bps=rate,
        packet_size=500,
        flow=("attack", host.addr),
        src_fn=lambda: 1_000_000_123,
    )
    return src


class TestTopologyBuilder:
    def test_structure(self):
        topo = build_multi_as_network([1, 0, 2])
        assert len(topo.sites) == 3
        assert topo.victim_asn == 0
        assert topo.server.name == "as0-h0"
        assert len(topo.sites[2].hosts) == 2
        # HSMs on private-range addresses.
        for site in topo.sites.values():
            assert site.hsm.addr >= 2_000_000_000

    def test_data_plane_works(self):
        topo = build_multi_as_network([1, 0, 1])
        attacker = topo.sites[2].hosts[0]
        src = attack_from(topo, attacker)
        src.start(at=0.0)
        topo.network.run(until=1.0)
        assert topo.server.packets_received > 10

    def test_needs_two_ases(self):
        with pytest.raises(ValueError):
            build_multi_as_network([1])
        with pytest.raises(ValueError):
            build_multi_as_network([0, 1])


class TestHierarchicalCapture:
    def test_cross_as_traceback_closes_attacker_port(self):
        topo, scheme = build()
        attacker = topo.sites[3].hosts[1]
        src = attack_from(topo, attacker)
        src.start(at=1.0)
        topo.network.run(until=15.0)
        assert len(scheme.captures) == 1
        cap = scheme.captures[0]
        assert cap.host_addr == attacker.addr
        # The port was closed inside the attacker's own AS.
        access = topo.network.nodes[cap.access_router_addr]
        assert access.name.startswith("as3-")

    def test_inter_as_requests_propagate_through_transit(self):
        topo, scheme = build()
        attacker = topo.sites[3].hosts[0]
        attack_from(topo, attacker).start(at=1.0)
        topo.network.run(until=15.0)
        # Victim AS -> transit 1 -> transit 2 -> stub 3.
        assert scheme.messages["inter_requests"] == 3
        assert scheme.messages["rejected"] == 0

    def test_diversion_absorbs_honeypot_traffic(self):
        topo, scheme = build()
        attacker = topo.sites[3].hosts[0]
        attack_from(topo, attacker).start(at=1.0)
        topo.network.run(until=6.0)
        received_at_trigger = topo.server.packets_received
        topo.network.run(until=10.0)
        # After the session forms, attack traffic is diverted (and the
        # attacker is soon captured): the server sees (almost) nothing.
        assert topo.server.packets_received <= received_at_trigger + 2
        assert topo.sites[0].hsm.diverted_packets > 0

    def test_marks_identify_upstream_as(self):
        topo, scheme = build()
        attacker = topo.sites[3].hosts[0]
        attack_from(topo, attacker).start(at=1.0)
        topo.network.run(until=8.0)
        ingress = topo.sites[0].hsm.ingress_of_honeypot(topo.server.addr)
        assert set(ingress) == {1}  # honeypot traffic entered from AS 1

    def test_multiple_attackers_same_stub(self):
        topo, scheme = build(chain=(1, 0, 0, 3))
        for host in topo.sites[3].hosts:
            attack_from(topo, host, rate=5e4).start(at=1.0)
        topo.network.run(until=20.0)
        captured = {c.host_addr for c in scheme.captures}
        assert captured == {h.addr for h in topo.sites[3].hosts}

    def test_attackers_in_different_ases(self):
        topo = build_multi_as_network([1, 2, 0, 2])
        scheme = HierarchicalBackprop(topo, epoch_len=20.0)
        a1 = topo.sites[1].hosts[0]
        a2 = topo.sites[3].hosts[1]
        attack_from(topo, a1).start(at=1.0)
        attack_from(topo, a2).start(at=1.0)
        topo.network.run(until=20.0)
        captured = {c.host_addr for c in scheme.captures}
        assert {a1.addr, a2.addr} <= captured


class TestSessionLifecycle:
    def test_cancel_tears_down_sessions_keeps_blocks(self):
        topo, scheme = build(epoch_len=8.0, honeypot_epochs=[1])
        attacker = topo.sites[3].hosts[0]
        src = attack_from(topo, attacker)
        src.start(at=1.0)
        topo.network.run(until=30.0)
        assert scheme.captures
        # Sessions all gone after the cancel wave...
        assert scheme._sessions == {}
        assert all(
            not agent.sessions for agent in scheme.router_agents.values()
        )
        # ...diversions withdrawn...
        for site in topo.sites.values():
            assert all(not a.diverted for a in site.edge_agents.values())
        # ...but the attacker's port stays closed.
        blocked = sum(
            len(agent.port_filter)
            for agent in scheme.router_agents.values()
        )
        assert blocked == 1
        assert scheme.messages["inter_cancels"] >= 1

    def test_no_honeypot_epoch_no_sessions(self):
        topo, scheme = build(honeypot_epochs=[])
        attacker = topo.sites[3].hosts[0]
        attack_from(topo, attacker).start(at=1.0)
        topo.network.run(until=15.0)
        assert not scheme.captures
        assert scheme.messages["inter_requests"] == 0
        # Traffic flows normally the whole time.
        assert topo.server.packets_received > 100


class TestMessageSecurity:
    def test_forged_inter_as_request_rejected(self):
        topo, scheme = build()
        hsm1 = topo.sites[1].hsm
        forged = Packet(
            999,
            hsm1.addr,
            64,
            kind="control",
            payload=HoneypotRequest(topo.server.addr, 1, origin_as=2,
                                    tag=b"\x00" * 32),
        )
        hsm1.receive(forged, None)
        assert scheme.messages["rejected"] == 1
        assert 1 not in scheme._sessions


class TestProgressiveHierarchical:
    """Section 6 at packet level: short bursts stall propagation; the
    frontier list lets the next epoch resume where the last stopped."""

    def run_scheme(self, progressive):
        # Victim + 4 transit ASs + stub: 5 inter-AS hops to cover.
        topo = build_multi_as_network([1, 0, 0, 0, 0, 1])
        scheme = HierarchicalBackprop(
            topo, epoch_len=10.0, progressive=progressive,
            config=IntraASConfig(trigger_threshold=2),
        )
        attacker = topo.sites[5].hosts[0]
        cbr = attack_from(topo, attacker, rate=4e4)  # 10 pkt/s of 500 B
        # 0.5 s bursts once per epoch: ~5 packets each, too few to walk
        # all 5 AS hops within one epoch (trigger consumes 2).
        onoff = OnOffSource(topo.network.sim, cbr, t_on=0.5, t_off=9.5)
        onoff.start(at=1.0)
        topo.network.run(until=100.0)
        return topo, scheme

    def test_basic_stalls_progressive_captures(self):
        topo_b, basic = self.run_scheme(progressive=False)
        assert not basic.captures  # restarts from the victim each epoch

        topo_p, prog = self.run_scheme(progressive=True)
        assert prog.captures
        assert prog.messages["reports"] > 0
        assert prog.messages["resumes"] > 0
        cap = prog.captures[0]
        attacker = topo_p.sites[5].hosts[0]
        assert cap.host_addr == attacker.addr

    def test_progressive_continuous_unaffected(self):
        # With a continuous attacker the basic scheme already works;
        # progressive must not be slower.
        topo = build_multi_as_network([1, 0, 0, 1])
        scheme = HierarchicalBackprop(topo, epoch_len=10.0, progressive=True)
        attack_from(topo, topo.sites[3].hosts[0]).start(at=1.0)
        topo.network.run(until=15.0)
        assert scheme.captures
        assert scheme.captures[0].time < 10.0

    def test_resumed_session_is_cancelled_at_epoch_end(self):
        # Honeypot epochs 1-2 only: epoch 2 resumes at the frontier AS,
        # and that session tree must end with the epoch. Left up, it
        # keeps input debugging on and closes the port of a legitimate
        # host that starts sending once the server is active again.
        topo = build_multi_as_network([1, 0, 0, 0, 0, 2])
        scheme = HierarchicalBackprop(
            topo, epoch_len=10.0, progressive=True, honeypot_epochs=[1, 2],
            config=IntraASConfig(trigger_threshold=2),
        )
        zombie, legit = topo.sites[5].hosts
        cbr = attack_from(topo, zombie, rate=4e4)
        OnOffSource(topo.network.sim, cbr, t_on=0.5, t_off=9.5).start(at=1.0)
        CBRSource(
            topo.network.sim, legit, topo.server.addr, rate_bps=4e4,
            packet_size=500, flow=("legit", legit.addr),
        ).start(at=25.0)
        topo.network.run(until=40.0)
        assert scheme.messages["resumes"] >= 1
        assert [c.host_addr for c in scheme.captures] == [zombie.addr]
        assert scheme._sessions == {}
        assert all(not agent.sessions for agent in scheme.router_agents.values())
        for site in topo.sites.values():
            assert all(not a.diverted for a in site.edge_agents.values())
        assert topo.server.packets_received > 100
