"""Tests for the ACC/Pushback baseline."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.pushback.aggregate import (
    AggregateSignature,
    DropHistory,
    identify_aggregates,
)
from repro.pushback.levelk import (
    hop_by_hop_allocation,
    leaf_shares,
    levelk_allocation,
)
from repro.pushback.protocol import PushbackAgent, PushbackConfig, PushbackRequest
from repro.pushback.ratelimit import (
    AggregateRateLimiter,
    maxmin_allocation,
    maxmin_allocation_map,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.traffic.sources import CBRSource


class TestMaxMin:
    def test_all_satisfied_when_limit_sufficient(self):
        assert maxmin_allocation(100, [10, 20, 30]) == [10, 20, 30]

    def test_equal_split_when_all_greedy(self):
        assert maxmin_allocation(30, [100, 100, 100]) == [10, 10, 10]

    def test_water_filling(self):
        # Fair share starts at 20; demand 5 is satisfied, surplus goes
        # to the others: (60-5)/2 = 27.5 each.
        assert maxmin_allocation(60, [5, 100, 100]) == [5, 27.5, 27.5]

    def test_zero_demands(self):
        assert maxmin_allocation(10, [0, 0]) == [0, 0]

    def test_empty(self):
        assert maxmin_allocation(10, []) == []

    def test_map_variant(self):
        out = maxmin_allocation_map(30, {"a": 100, "b": 5})
        assert out["b"] == 5
        assert out["a"] == 25

    def test_invalid(self):
        with pytest.raises(ValueError):
            maxmin_allocation(-1, [1])
        with pytest.raises(ValueError):
            maxmin_allocation(1, [-1])

    @settings(max_examples=100, deadline=None)
    @given(
        limit=st.floats(min_value=0, max_value=1e6),
        demands=st.lists(st.floats(min_value=0, max_value=1e6), max_size=20),
    )
    def test_property_maxmin_invariants(self, limit, demands):
        alloc = maxmin_allocation(limit, demands)
        assert len(alloc) == len(demands)
        # Feasibility.
        assert sum(alloc) <= limit + 1e-6
        for a, d in zip(alloc, demands):
            assert 0 <= a <= d + 1e-9
        # Work conservation.
        assert sum(alloc) >= min(limit, sum(demands)) - 1e-6
        # Max-min fairness: any unsatisfied demand gets at least as much
        # as every other allocation (no one is starved below the share
        # of someone who got more).
        for i, (a, d) in enumerate(zip(alloc, demands)):
            if a < d - 1e-6:  # unsatisfied
                assert all(a >= other - 1e-6 for other in alloc)


class TestAggregates:
    def test_signature_matches_dst(self):
        sig = AggregateSignature(dst=5)
        assert sig.matches(Packet(1, 5, 100))
        assert not sig.matches(Packet(1, 6, 100))

    def test_drop_history_window(self):
        hist = DropHistory()
        hist.record(1.0, Packet(1, 5, 100))
        hist.record(2.0, Packet(1, 5, 100))
        hist.record(3.0, Packet(1, 6, 100))
        assert hist.counts_since(1.5) == {5: 1, 6: 1}

    def test_drop_history_bounded(self):
        hist = DropHistory(maxlen=3)
        for i in range(10):
            hist.record(float(i), Packet(1, 5, 100))
        assert len(hist) == 3

    def test_identify_top_aggregates(self):
        counts = {1: 50, 2: 40, 3: 5, 4: 5}
        aggs = identify_aggregates(counts, min_share=0.1, max_aggregates=5)
        assert [a.dst for a in aggs] == [1, 2]

    def test_identify_respects_max(self):
        counts = {i: 10 for i in range(10)}
        aggs = identify_aggregates(counts, min_share=0.05, max_aggregates=3)
        assert len(aggs) == 3

    def test_identify_empty(self):
        assert identify_aggregates({}) == []

    def test_identify_invalid_share(self):
        with pytest.raises(ValueError):
            identify_aggregates({1: 1}, min_share=0.0)


class TestAggregateRateLimiter:
    def test_polices_installed_dst_only(self):
        sim = Simulator()
        lim = AggregateRateLimiter(sim)
        lim.set_limit(5, rate_bps=800, now=0.0)  # ~1 100-byte pkt/s
        # Unlimited dst passes freely.
        assert not lim.hook(Packet(1, 6, 100), None)
        # Limited dst conforms within burst then polices.
        drops = sum(lim.hook(Packet(1, 5, 1000), None) for _ in range(100))
        assert drops > 0
        assert lim.dropped == drops

    def test_input_accounting(self):
        sim = Simulator()
        lim = AggregateRateLimiter(sim)
        lim.set_limit(5, rate_bps=1e9, now=0.0)
        lim.hook(Packet(1, 5, 100), "portA")
        lim.hook(Packet(1, 5, 100), "portA")
        lim.hook(Packet(1, 5, 100), "portB")
        demands = lim.input_demands_bps(5, window=1.0)
        assert demands["portA"] == pytest.approx(1600)
        assert demands["portB"] == pytest.approx(800)

    def test_reset_accounting(self):
        sim = Simulator()
        lim = AggregateRateLimiter(sim)
        lim.set_limit(5, 1e9, 0.0)
        lim.hook(Packet(1, 5, 100), "p")
        lim.reset_accounting(5)
        assert lim.input_demands_bps(5, 1.0) == {}

    def test_take_policed_bytes(self):
        sim = Simulator()
        lim = AggregateRateLimiter(sim)
        lim.set_limit(5, 0.0, 0.0)
        for _ in range(100):
            lim.hook(Packet(1, 5, 1000), None)
        assert lim.take_policed_bytes(5) > 0
        assert lim.take_policed_bytes(5) == 0  # consumed

    def test_remove_limit(self):
        sim = Simulator()
        lim = AggregateRateLimiter(sim)
        lim.set_limit(5, 0.0, 0.0)
        lim.remove_limit(5)
        assert not lim.hook(Packet(1, 5, 1000), None)
        assert lim.limit_of(5) == float("inf")


def chain_network(n_routers=3):
    """host0 -- r1 -- ... -- rn -- server, tight last link."""
    g = nx.Graph()
    g.add_node(0, role="host", name="src")
    prev = 0
    for i in range(1, n_routers + 1):
        g.add_node(i, role="router", name=f"r{i}")
        g.add_edge(prev, i, bandwidth=10e6, delay=0.001, qlimit=20)
        prev = i
    server = n_routers + 1
    g.add_node(server, role="host", name="server")
    # Bottleneck: the last hop.
    g.add_edge(prev, server, bandwidth=1e6, delay=0.001, qlimit=20)
    net = Network.from_graph(g)
    net.build_routes(targets=[server])
    return net, server


class TestPushbackIntegration:
    def test_congestion_detection_and_local_limit(self):
        net, server = chain_network(1)
        agent = PushbackAgent(net.sim, net.routers()[0], PushbackConfig())
        src = net.nodes[0]
        cbr = CBRSource(net.sim, src, server, rate_bps=5e6, packet_size=500)
        cbr.start(at=0.0)
        net.run(until=10.0)
        assert agent.limiter.limited_dsts() == [server]
        assert agent.limiter.dropped > 0

    def test_request_propagates_upstream(self):
        net, server = chain_network(3)
        agents = [PushbackAgent(net.sim, r, PushbackConfig()) for r in net.routers()]
        src = net.nodes[0]
        cbr = CBRSource(net.sim, src, server, rate_bps=5e6, packet_size=500)
        cbr.start(at=0.0)
        net.run(until=15.0)
        limited = [a for a in agents if a.limiter.limited_dsts()]
        assert len(limited) == 3  # reached the access router

    def test_release_after_attack_stops(self):
        net, server = chain_network(2)
        agents = [PushbackAgent(net.sim, r, PushbackConfig()) for r in net.routers()]
        src = net.nodes[0]
        cbr = CBRSource(net.sim, src, server, rate_bps=5e6, packet_size=500)
        cbr.start(at=0.0)
        net.sim.schedule_at(12.0, cbr.stop)
        net.run(until=40.0)
        assert all(not a.limiter.limited_dsts() for a in agents)
        assert all(not a.episodes for a in agents)
        assert all(not a.upstream_sessions for a in agents)

    def test_forged_request_rejected_by_ttl(self):
        net, server = chain_network(2)
        r1, r2 = net.routers()
        agent = PushbackAgent(net.sim, r2, PushbackConfig())
        # A request arriving with a decremented TTL (multi-hop / forged)
        # must be ignored.
        pkt = Packet(0, r2.addr, 64, kind="control",
                     payload=PushbackRequest(server, 1000.0, 3), ttl=200)
        r2.receive(pkt, None)
        assert not agent.upstream_sessions

    def test_no_congestion_no_limits(self):
        net, server = chain_network(1)
        agent = PushbackAgent(net.sim, net.routers()[0], PushbackConfig())
        src = net.nodes[0]
        cbr = CBRSource(net.sim, src, server, rate_bps=1e5, packet_size=500)
        cbr.start(at=0.0)
        net.run(until=10.0)
        assert not agent.limiter.limited_dsts()


class TestLevelK:
    def make_tree(self):
        # root -> a, b ; a -> l1, l2, l3 ; b -> l4
        t = nx.DiGraph()
        t.add_edges_from(
            [("root", "a"), ("root", "b"), ("a", "l1"), ("a", "l2"), ("a", "l3"), ("b", "l4")]
        )
        demands = {"l1": 10, "l2": 10, "l3": 10, "l4": 10}
        return t, demands

    def test_hop_by_hop_blind_to_host_counts(self):
        t, demands = self.make_tree()
        shares = hop_by_hop_allocation(t, "root", demands, limit=20)
        # a and b get 10 each; a's three leaves split 10, b's one leaf
        # keeps 10: the paper's unfairness.
        assert shares["l4"] == pytest.approx(10)
        assert shares["l1"] == pytest.approx(10 / 3)

    def test_levelk_at_leaf_level_weights_by_subtree(self):
        t, demands = self.make_tree()
        alloc = levelk_allocation(t, "root", demands, limit=20, k=2)
        # Level 2 is the leaves: max-min over 4 equal demands.
        assert alloc == {
            "l1": 5.0,
            "l2": 5.0,
            "l3": 5.0,
            "l4": 5.0,
        }

    def test_leaf_shares_comparison(self):
        t, demands = self.make_tree()
        hbh, lvl = leaf_shares(t, "root", demands, limit=20, k=2)
        # Level-k is fairer across leaves than compounded hop-by-hop.
        spread_hbh = max(hbh.values()) - min(hbh.values())
        spread_lvl = max(lvl.values()) - min(lvl.values())
        assert spread_lvl < spread_hbh

    def test_levelk_missing_level(self):
        t, demands = self.make_tree()
        assert levelk_allocation(t, "root", demands, 20, k=9) == {}

    def test_invalid(self):
        t, demands = self.make_tree()
        with pytest.raises(ValueError):
            levelk_allocation(t, "root", demands, -1, 1)
        with pytest.raises(ValueError):
            levelk_allocation(t, "root", demands, 1, 0)
