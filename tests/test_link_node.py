"""Tests for channels, links, hosts, and routers."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.packet import Packet


def make_pair(bw=8000.0, delay=0.1, qlimit=2):
    sim = Simulator()
    a = Host(sim, 0, "a")
    b = Host(sim, 1, "b")
    link = Link(sim, a, b, bw, delay, qlimit)
    return sim, a, b, link


class TestChannel:
    def test_delivery_after_tx_plus_delay(self):
        # 1000-byte packet at 8000 b/s = 1 s transmission + 0.1 s delay.
        sim, a, b, link = make_pair()
        seen = []
        b.on_deliver(lambda p: seen.append(sim.now))
        link.ab.send(Packet(0, 1, 1000))
        sim.run()
        assert seen == pytest.approx([1.1])

    def test_serialization_of_back_to_back_packets(self):
        sim, a, b, link = make_pair()
        times = []
        b.on_deliver(lambda p: times.append(sim.now))
        link.ab.send(Packet(0, 1, 1000))
        link.ab.send(Packet(0, 1, 1000))
        sim.run()
        assert times == pytest.approx([1.1, 2.1])

    def test_queue_overflow_drops(self):
        sim, a, b, link = make_pair(qlimit=2)
        # One transmitting + 2 queued; the 4th is dropped.
        results = [link.ab.send(Packet(0, 1, 1000)) for _ in range(4)]
        assert results == [True, True, True, False]
        assert link.ab.packets_dropped == 1

    def test_backlog_delivers_in_send_order(self):
        sim, a, b, link = make_pair(qlimit=5)
        seen = []
        b.on_deliver(lambda p: seen.append(p.src))
        # One transmitting, four queued behind it: a FIFO drains them
        # in the order they were sent.
        for src in range(5):
            assert link.ab.send(Packet(src, 1, 1000))
        assert len(link.ab.queue) == 4
        sim.run()
        assert seen == list(range(5))

    def test_drop_hook_invoked(self):
        sim, a, b, link = make_pair(qlimit=1)
        dropped = []
        link.ab.drop_hook = dropped.append
        for _ in range(3):
            link.ab.send(Packet(0, 1, 1000))
        assert len(dropped) == 1

    def test_stats_accumulate(self):
        sim, a, b, link = make_pair()
        link.ab.send(Packet(0, 1, 500))
        sim.run()
        assert link.ab.packets_sent == 1
        assert link.ab.bytes_sent == 500

    def test_invalid_parameters(self):
        sim = Simulator()
        a, b = Host(sim, 0), Host(sim, 1)
        with pytest.raises(ValueError):
            Link(sim, a, b, 0.0, 0.1)
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e6, -0.1)
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e6, 0.1, queue_limit=0)
        # NaN passes a plain `<= 0` / `< 0` test; it and inf would
        # only fail later, mid-run (NaN event times) or never (inf
        # delay delivers nothing).
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Link(sim, a, b, bad, 0.1)
            with pytest.raises(ValueError):
                Link(sim, a, b, 1e6, bad)


class TestLink:
    def test_channel_lookup(self):
        sim, a, b, link = make_pair()
        assert link.channel_from(a) is link.ab
        assert link.channel_from(b) is link.ba
        assert link.channel_to(a) is link.ba
        assert link.other(a) is b

    def test_channel_lookup_foreign_node(self):
        sim, a, b, link = make_pair()
        c = Host(sim, 9)
        with pytest.raises(ValueError):
            link.channel_from(c)


class TestHost:
    def test_host_delivers_only_own_packets(self):
        sim, a, b, link = make_pair()
        seen = []
        b.on_deliver(seen.append)
        link.ab.send(Packet(0, 99, 100))  # not for b
        link.ab.send(Packet(0, 1, 100))
        sim.run()
        assert len(seen) == 1
        assert b.packets_received == 1

    def test_control_packet_dispatch(self):
        sim, a, b, link = make_pair()

        class Msg:
            msg_type = "hello"

        got = []
        b.control_handlers["hello"] = lambda pkt, ch: got.append(pkt.payload)
        a.send_control(1, Msg())
        sim.run()
        assert len(got) == 1

    def test_send_control_uses_neighbor_channel(self):
        sim, a, b, link = make_pair()
        # No routes installed; direct neighbor is found anyway.
        assert a.send_control(1, type("M", (), {"msg_type": "x"})())


class TestRouter:
    def build_chain(self):
        # h1 -- r -- h2
        sim = Simulator()
        h1, h2 = Host(sim, 0, "h1"), Host(sim, 2, "h2")
        r = Router(sim, 1, "r")
        l1 = Link(sim, h1, r, 1e6, 0.001)
        l2 = Link(sim, r, h2, 1e6, 0.001)
        r.routes[2] = l2.channel_from(r)
        r.routes[0] = l1.channel_from(r)
        h1.routes[2] = l1.channel_from(h1)
        return sim, h1, r, h2

    def test_forwarding(self):
        sim, h1, r, h2 = self.build_chain()
        seen = []
        h2.on_deliver(seen.append)
        h1.originate(Packet(0, 2, 100))
        sim.run()
        assert len(seen) == 1
        assert r.packets_forwarded == 1

    def test_ttl_decrement_and_expiry(self):
        sim, h1, r, h2 = self.build_chain()
        seen = []
        h2.on_deliver(seen.append)
        h1.originate(Packet(0, 2, 100, ttl=1))
        sim.run()
        assert seen == []  # ttl hit zero at the router

    def test_ingress_hook_can_drop(self):
        sim, h1, r, h2 = self.build_chain()
        r.add_ingress_hook(lambda pkt, ch: True)
        seen = []
        h2.on_deliver(seen.append)
        h1.originate(Packet(0, 2, 100))
        sim.run()
        assert seen == []
        assert r.packets_filtered == 1

    def test_hook_removal(self):
        sim, h1, r, h2 = self.build_chain()
        hook = lambda pkt, ch: True  # noqa: E731
        r.add_ingress_hook(hook)
        r.remove_ingress_hook(hook)
        seen = []
        h2.on_deliver(seen.append)
        h1.originate(Packet(0, 2, 100))
        sim.run()
        assert len(seen) == 1

    def test_no_route_drop_counted(self):
        sim, h1, r, h2 = self.build_chain()
        h1.originate(Packet(0, 77, 100))  # unroutable at r (multi-homed)
        sim.run()
        assert r.no_route_drops == 1

    def test_router_local_control_delivery(self):
        sim, h1, r, h2 = self.build_chain()
        got = []
        r.control_handlers["ping"] = lambda pkt, ch: got.append(pkt.ttl)
        h1.send_control(1, type("M", (), {"msg_type": "ping"})())
        sim.run()
        assert got == [255]  # direct neighbor: TTL untouched
