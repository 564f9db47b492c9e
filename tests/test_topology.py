"""Tests for topology generators and distributions."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.aslevel import build_as_topology
from repro.topology.distributions import (
    EmpiricalDistribution,
    PAPER_HOP_COUNT_DIST,
    PAPER_NODE_DEGREE_DIST,
)
from repro.topology.string import build_string_topology
from repro.topology.tree import TreeParams, assign_roles, build_tree_topology


class TestEmpiricalDistribution:
    def test_pmf_normalized(self):
        d = EmpiricalDistribution([1, 2, 3], [1, 2, 1])
        assert sum(d.pmf().values()) == pytest.approx(1.0)

    def test_mean(self):
        d = EmpiricalDistribution([0, 10], [1, 1])
        assert d.mean() == pytest.approx(5.0)

    def test_samples_in_support(self):
        d = EmpiricalDistribution([2, 4, 6], [1, 1, 1])
        rng = np.random.default_rng(0)
        samples = d.sample(rng, size=100)
        assert set(samples) <= {2, 4, 6}

    def test_sampling_roughly_matches_pmf(self):
        d = EmpiricalDistribution([0, 1], [3, 1])  # P(0)=0.75
        rng = np.random.default_rng(1)
        samples = d.sample(rng, size=4000)
        assert abs((samples == 0).mean() - 0.75) < 0.03

    def test_histogram(self):
        d = EmpiricalDistribution([1, 2], [1, 1])
        assert d.histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([1], [1, 2])
        with pytest.raises(ValueError):
            EmpiricalDistribution([], [])
        with pytest.raises(ValueError):
            EmpiricalDistribution([1], [-1])
        with pytest.raises(ValueError):
            EmpiricalDistribution([1, 2], [0, 0])

    def test_paper_distributions_shapes(self):
        assert 9 <= PAPER_HOP_COUNT_DIST.mean() <= 11
        # Degree distribution is heavy-tailed: mode at the low end.
        pmf = PAPER_NODE_DEGREE_DIST.pmf()
        assert pmf[1] == max(pmf.values())


class TestStringTopology:
    def test_structure(self):
        topo = build_string_topology(5)
        assert topo.hops == 5
        assert topo.graph.number_of_nodes() == 7  # server + 5 routers + attacker
        assert nx.shortest_path_length(topo.graph, topo.server_id, topo.attacker_id) == 6

    def test_access_routers(self):
        topo = build_string_topology(3)
        assert topo.graph.has_edge(topo.server_id, topo.server_access_router)
        assert topo.graph.has_edge(topo.attacker_id, topo.attacker_access_router)

    def test_single_hop(self):
        topo = build_string_topology(1)
        assert topo.server_access_router == topo.attacker_access_router

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            build_string_topology(0)

    def test_link_attributes_applied(self):
        topo = build_string_topology(2, bandwidth=5e6, delay=0.02, qlimit=7)
        for _, _, data in topo.graph.edges(data=True):
            assert data["bandwidth"] == 5e6
            assert data["delay"] == 0.02
            assert data["qlimit"] == 7


class TestTreeTopology:
    def make(self, n_leaves=60, seed=0):
        return build_tree_topology(
            TreeParams(n_leaves=n_leaves), np.random.default_rng(seed)
        )

    def test_is_a_tree(self):
        topo = self.make()
        assert nx.is_tree(topo.graph)

    def test_leaf_and_server_counts(self):
        topo = self.make(n_leaves=40)
        assert len(topo.leaf_ids) == 40
        assert len(topo.server_ids) == 5

    def test_every_leaf_is_a_host_with_one_link(self):
        topo = self.make()
        for leaf in topo.leaf_ids:
            assert topo.graph.nodes[leaf]["role"] == "host"
            assert topo.graph.degree(leaf) == 1

    def test_leaf_depth_matches_graph_distance(self):
        topo = self.make()
        for leaf in topo.leaf_ids[:20]:
            d = nx.shortest_path_length(topo.graph, leaf, topo.root_id)
            assert d == topo.leaf_depth[leaf]

    def test_access_router_adjacent_to_leaf(self):
        topo = self.make()
        for leaf in topo.leaf_ids:
            assert topo.graph.has_edge(leaf, topo.access_router_of[leaf])

    def test_bottleneck_edge_bandwidth(self):
        topo = self.make()
        a, b = topo.bottleneck
        assert topo.graph.edges[a, b]["bandwidth"] == topo.params.bottleneck_bw

    def test_servers_behind_server_router(self):
        topo = self.make()
        for sid in topo.server_ids:
            assert topo.graph.has_edge(sid, topo.server_router_id)

    def test_depths_within_distribution_support(self):
        topo = self.make(n_leaves=100)
        hist = topo.hop_count_histogram()
        support = set(PAPER_HOP_COUNT_DIST.values.tolist())
        assert set(hist) <= support
        assert sum(hist.values()) == 100

    def test_reproducible_by_seed(self):
        a = self.make(seed=5)
        b = self.make(seed=5)
        assert nx.utils.graphs_equal(a.graph, b.graph)

    def test_degree_histogram_excludes_server_side(self):
        topo = self.make()
        hist = topo.degree_histogram()
        assert sum(hist.values()) == sum(
            1
            for n, d in topo.graph.nodes(data=True)
            if d["role"] == "router" and n != topo.server_router_id
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_tree_topology(TreeParams(n_leaves=0), np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_tree_topology(TreeParams(n_servers=0), np.random.default_rng(0))


class TestAssignRoles:
    def make(self):
        return build_tree_topology(TreeParams(n_leaves=50), np.random.default_rng(2))

    def test_partition_is_complete_and_disjoint(self):
        topo = self.make()
        attackers, clients = assign_roles(topo, 10, "even", np.random.default_rng(0))
        assert len(attackers) == 10
        assert set(attackers) | set(clients) == set(topo.leaf_ids)
        assert not set(attackers) & set(clients)

    def test_close_attackers_are_shallowest(self):
        topo = self.make()
        attackers, clients = assign_roles(topo, 10, "close", np.random.default_rng(0))
        max_attacker = max(topo.leaf_depth[a] for a in attackers)
        min_client = min(topo.leaf_depth[c] for c in clients)
        assert max_attacker <= min_client

    def test_far_attackers_are_deepest(self):
        topo = self.make()
        attackers, clients = assign_roles(topo, 10, "far", np.random.default_rng(0))
        min_attacker = min(topo.leaf_depth[a] for a in attackers)
        max_client = max(topo.leaf_depth[c] for c in clients)
        assert min_attacker >= max_client

    def test_even_is_seed_dependent_but_valid(self):
        topo = self.make()
        a1, _ = assign_roles(topo, 10, "even", np.random.default_rng(1))
        a2, _ = assign_roles(topo, 10, "even", np.random.default_rng(2))
        assert a1 != a2  # overwhelmingly likely

    def test_invalid_inputs(self):
        topo = self.make()
        with pytest.raises(ValueError):
            assign_roles(topo, 99, "even", np.random.default_rng(0))
        with pytest.raises(ValueError):
            assign_roles(topo, 5, "sideways", np.random.default_rng(0))


class TestASTopology:
    def test_structure(self):
        topo = build_as_topology(10, 20, np.random.default_rng(0))
        assert nx.is_tree(topo.graph)
        assert len(topo.transit_ases) == 10
        assert len(topo.stub_ases) == 20
        assert not topo.is_transit(topo.victim_as)

    def test_stub_flags(self):
        topo = build_as_topology(5, 8, np.random.default_rng(1))
        for s in topo.stub_ases:
            assert not topo.is_transit(s)
        for t in topo.transit_ases:
            assert topo.is_transit(t)

    def test_paths_start_at_victim(self):
        topo = build_as_topology(5, 8, np.random.default_rng(1))
        for s in topo.stub_ases:
            path = topo.path_from_victim(s)
            assert path[0] == topo.victim_as
            assert path[-1] == s

    def test_upstream_neighbor(self):
        topo = build_as_topology(5, 8, np.random.default_rng(1))
        s = topo.stub_ases[0]
        nxt = topo.upstream_neighbor(topo.victim_as, s)
        assert nxt == topo.path_from_victim(s)[1]

    def test_depth_histogram_counts_stubs(self):
        topo = build_as_topology(5, 8, np.random.default_rng(1))
        assert sum(topo.depth_histogram().values()) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_as_topology(0, 5)
        with pytest.raises(ValueError):
            build_as_topology(3, -1)


@settings(max_examples=25, deadline=None)
@given(
    n_leaves=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_tree_always_valid(n_leaves, seed):
    topo = build_tree_topology(
        TreeParams(n_leaves=n_leaves), np.random.default_rng(seed)
    )
    assert nx.is_tree(topo.graph)
    assert len(topo.leaf_ids) == n_leaves
    for leaf in topo.leaf_ids:
        assert topo.graph.degree(leaf) == 1
