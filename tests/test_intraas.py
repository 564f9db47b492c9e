"""Integration tests for intra-AS (router-level) back-propagation."""

from repro.backprop.intraas import IntraASConfig
from repro.backprop.messages import LocalHoneypotRequest
from repro.defense.honeypot_backprop import HoneypotBackpropDefense
from repro.honeypots.roaming import RoamingServerPool
from repro.honeypots.schedule import BernoulliSchedule
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.topology.string import build_string_topology
from repro.traffic.sources import CBRSource


def build(hops=3, p=1.0, epoch_len=10.0, seed=0):
    """String topology with a single always/randomly-honeypot server."""
    topo = build_string_topology(hops)
    net = Network.from_graph(topo.graph)
    net.build_routes(targets=[topo.server_id])
    schedule = BernoulliSchedule(p, epoch_len, seed=seed)
    server = net.nodes[topo.server_id]
    pool = RoamingServerPool(net.sim, [server], schedule, delta=0.0, gamma=0.0)
    defense = HoneypotBackpropDefense(
        pool, net.nodes[topo.server_access_router], IntraASConfig()
    )
    defense.attach(net)
    return topo, net, defense


class TestCaptureFlow:
    def test_attacker_captured_on_first_honeypot_epoch(self):
        topo, net, defense = build(hops=4, p=1.0)
        attacker = net.nodes[topo.attacker_id]
        cbr = CBRSource(
            net.sim, attacker, topo.server_id, 1e5, 500,
            flow=("attack", attacker.addr),
        )
        cbr.start(at=1.0)
        net.run(until=5.0)
        assert len(defense.captures) == 1
        cap = defense.captures[0]
        assert cap.host_addr == topo.attacker_id
        assert cap.access_router_addr == topo.attacker_access_router
        assert cap.honeypot_addr == topo.server_id

    def test_attack_traffic_stops_after_capture(self):
        topo, net, defense = build(hops=4, p=1.0)
        server = net.nodes[topo.server_id]
        attacker = net.nodes[topo.attacker_id]
        cbr = CBRSource(net.sim, attacker, topo.server_id, 1e5, 500)
        cbr.start(at=1.0)
        net.run(until=3.0)
        received_at_capture = server.packets_received
        net.run(until=10.0)
        # Nothing more gets through the closed port.
        assert server.packets_received <= received_at_capture + 1

    def test_capture_time_scales_with_hops(self):
        def capture_time(hops):
            topo, net, defense = build(hops=hops, p=1.0)
            attacker = net.nodes[topo.attacker_id]
            CBRSource(net.sim, attacker, topo.server_id, 1e5, 500).start(at=1.0)
            net.run(until=9.0)
            assert defense.captures
            return defense.captures[0].time

        assert capture_time(8) > capture_time(2)

    def test_no_attack_no_sessions(self):
        topo, net, defense = build(hops=3, p=1.0)
        net.run(until=10.0)
        assert not defense.captures
        assert all(not a.sessions for a in defense.router_agents)

    def test_threshold_tolerates_benign_probe(self):
        # A single probe packet (below trigger_threshold=2) must not
        # trigger traceback (Section 5.3 false-positive tolerance).
        topo, net, defense = build(hops=3, p=1.0)
        prober = net.nodes[topo.attacker_id]
        pkt = Packet(prober.addr, topo.server_id, 100)
        net.sim.schedule_at(1.0, prober.originate, pkt)
        net.run(until=9.0)
        assert not defense.captures
        assert defense.server_agents[0].requests_sent == 0

    def test_server_never_honeypot_never_triggers(self):
        topo, net, defense = build(hops=3, p=0.0)
        attacker = net.nodes[topo.attacker_id]
        CBRSource(net.sim, attacker, topo.server_id, 1e5, 500).start(at=1.0)
        net.run(until=30.0)
        assert not defense.captures


class TestSessionLifecycle:
    def test_sessions_torn_down_after_epoch_filters_persist(self):
        topo, net, defense = build(hops=3, p=1.0, epoch_len=5.0)
        attacker = net.nodes[topo.attacker_id]
        cbr = CBRSource(net.sim, attacker, topo.server_id, 1e5, 500)
        cbr.start(at=1.0)
        cbr_stopper = net.sim.schedule_at(3.0, cbr.stop)
        del cbr_stopper
        net.run(until=12.0)
        assert defense.captures
        # All sessions cancelled (early cancel + boundary backstop)...
        assert all(not a.sessions for a in defense.router_agents)
        # ...but the port block persists.
        access = [
            a
            for a in defense.router_agents
            if a.router.addr == topo.attacker_access_router
        ][0]
        assert len(access.port_filter) == 1

    def test_cancels_propagate_along_request_tree(self):
        topo, net, defense = build(hops=4, p=1.0, epoch_len=5.0)
        attacker = net.nodes[topo.attacker_id]
        cbr = CBRSource(net.sim, attacker, topo.server_id, 1e5, 500)
        cbr.start(at=1.0)
        net.run(until=12.0)
        cancels = sum(a.cancels_sent for a in defense.router_agents) + sum(
            s.cancels_sent for s in defense.server_agents
        )
        assert cancels >= 4  # server -> access -> ... -> attacker's router


class TestMessageSecurity:
    def test_forged_request_with_bad_ttl_rejected(self):
        topo, net, defense = build(hops=3, p=1.0)
        router = net.nodes[topo.router_ids[1]]
        agent = [a for a in defense.router_agents if a.router is router][0]
        forged = Packet(
            999,
            router.addr,
            64,
            kind="control",
            payload=LocalHoneypotRequest(topo.server_id, 1),
            ttl=250,
        )
        router.receive(forged, None)
        assert not agent.sessions
        assert agent.rejected_messages == 1

    def test_direct_request_accepted(self):
        topo, net, defense = build(hops=3, p=1.0)
        router = net.nodes[topo.router_ids[1]]
        agent = [a for a in defense.router_agents if a.router is router][0]
        ok = Packet(
            999,
            router.addr,
            64,
            kind="control",
            payload=LocalHoneypotRequest(topo.server_id, 1),
            ttl=255,
        )
        router.receive(ok, None)
        assert topo.server_id in agent.sessions


class TestDefenseStats:
    def test_stats_shape(self):
        topo, net, defense = build(hops=2, p=1.0)
        attacker = net.nodes[topo.attacker_id]
        CBRSource(net.sim, attacker, topo.server_id, 1e5, 500).start(at=1.0)
        net.run(until=5.0)
        stats = defense.stats()
        assert stats["defense"] == "honeypot-backprop"
        assert stats["captures"] == 1
        assert stats["requests_sent"] >= 2
        assert stats["honeypot_hits"] > 0

    def test_capture_times_relative_to_attack_start(self):
        topo, net, defense = build(hops=2, p=1.0)
        attacker = net.nodes[topo.attacker_id]
        CBRSource(net.sim, attacker, topo.server_id, 1e5, 500).start(at=1.0)
        net.run(until=5.0)
        times = defense.capture_times(attack_start=1.0)
        assert times[topo.attacker_id] > 0

    def test_false_captures_empty_for_attacker_only(self):
        topo, net, defense = build(hops=2, p=1.0)
        attacker = net.nodes[topo.attacker_id]
        CBRSource(net.sim, attacker, topo.server_id, 1e5, 500).start(at=1.0)
        net.run(until=5.0)
        assert defense.false_captures([topo.attacker_id]) == []
        assert defense.false_captures([]) != []
