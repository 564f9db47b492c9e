"""Random tree topology matching the paper's Fig. 7 distributions.

The simulated network is a tree rooted at a bottleneck link (Section
8.3): five servers sit behind a 10 Mb/s bottleneck; legitimate clients
and attack hosts occupy the leaves.  Leaf depths follow a hop-count
distribution and interior routers have fan-outs following a node-degree
distribution, both "roughly matching those of measured trees".

Topology layout::

    leaf hosts ... interior routers ... root router ==bottleneck== server
                                                       router -- 5 servers

Link classes (the paper's absolute values are not meaningful — "their
relative values roughly represent relations between access and core
links"):

* leaf access links — 10 Mb/s, 1 ms
* core (router–router) links — 100 Mb/s, 5 ms
* the bottleneck (root — server router) — 10 Mb/s, 10 ms
* server links — 100 Mb/s, 1 ms
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Tuple

import networkx as nx
import numpy as np

from .distributions import (
    EmpiricalDistribution,
    PAPER_HOP_COUNT_DIST,
    PAPER_NODE_DEGREE_DIST,
)

__all__ = [
    "TreeTopology",
    "TreeParams",
    "build_tree_topology",
    "assign_roles",
    "split_amplifiers",
]

Placement = Literal["close", "far", "even"]


@dataclass
class TreeParams:
    """Knobs of the tree generator and its link classes."""

    n_leaves: int = 100
    n_servers: int = 5
    bottleneck_bw: float = 10e6
    bottleneck_delay: float = 0.010
    server_bw: float = 100e6
    server_delay: float = 0.001
    leaf_bw: float = 10e6
    leaf_delay: float = 0.001
    core_bw: float = 100e6
    core_delay: float = 0.005
    qlimit: int = 50
    # Probability of opening a new branch while walking down, when the
    # current router still has spare fan-out. Controls tree bushiness.
    branch_prob: float = 0.45


@dataclass
class TreeTopology:
    """Generated tree with servers behind a bottleneck."""

    graph: nx.Graph
    params: TreeParams
    root_id: int
    server_router_id: int
    server_ids: List[int]
    leaf_ids: List[int]
    access_router_of: Dict[int, int] = field(default_factory=dict)
    leaf_depth: Dict[int, int] = field(default_factory=dict)

    @property
    def bottleneck(self) -> Tuple[int, int]:
        """(root router, server-side router) — the bottleneck edge."""
        return (self.root_id, self.server_router_id)

    def hop_count_histogram(self) -> Dict[int, int]:
        """Leaf-to-root hop counts (Fig. 7 left)."""
        hist: Dict[int, int] = {}
        for leaf in self.leaf_ids:
            d = self.leaf_depth[leaf]
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def degree_histogram(self) -> Dict[int, int]:
        """Degrees of the tree's routers, excluding the server side
        (Fig. 7 right)."""
        hist: Dict[int, int] = {}
        skip = {self.server_router_id, *self.server_ids}
        for node, data in self.graph.nodes(data=True):
            if data.get("role") != "router" or node in skip:
                continue
            deg = self.graph.degree(node)
            hist[deg] = hist.get(deg, 0) + 1
        return dict(sorted(hist.items()))


def build_tree_topology(
    params: TreeParams | None = None,
    rng: np.random.Generator | None = None,
    hop_dist: EmpiricalDistribution = PAPER_HOP_COUNT_DIST,
    degree_dist: EmpiricalDistribution = PAPER_NODE_DEGREE_DIST,
) -> TreeTopology:
    """Sample a tree topology.

    Each leaf's depth (links from leaf host to the root router) is drawn
    from ``hop_dist``.  Interior routers are created on demand while
    walking from the root toward each leaf's depth; every router gets a
    fan-out budget drawn from ``degree_dist``, and new branches open
    with probability ``params.branch_prob`` while budget remains, which
    reproduces the heavy-tailed degree profile.
    """
    params = params or TreeParams()
    rng = rng if rng is not None else np.random.default_rng(0)  # reprolint: ignore[RPL001] -- literal-seed fallback for standalone use; callers pass a registry stream
    if params.n_leaves < 1:
        raise ValueError("need at least one leaf")
    if params.n_servers < 1:
        raise ValueError("need at least one server")

    g = nx.Graph()
    next_id = 0

    def new_node(role: str, name: str) -> int:
        nonlocal next_id
        nid = next_id
        next_id += 1
        g.add_node(nid, role=role, name=name)
        return nid

    root_id = new_node("router", "root")
    server_router_id = new_node("router", "server-gw")
    g.add_edge(
        root_id,
        server_router_id,
        bandwidth=params.bottleneck_bw,
        delay=params.bottleneck_delay,
        qlimit=params.qlimit,
    )
    server_ids = []
    for i in range(params.n_servers):
        sid = new_node("host", f"server{i}")
        g.add_edge(
            server_router_id,
            sid,
            bandwidth=params.server_bw,
            delay=params.server_delay,
            qlimit=params.qlimit,
        )
        server_ids.append(sid)

    # Interior-tree growth state: fan-out budget and interior children
    # of every client-side router.
    budget: Dict[int, int] = {root_id: int(degree_dist.sample(rng))}
    children: Dict[int, List[int]] = {root_id: []}

    def core_edge(a: int, b: int) -> None:
        g.add_edge(
            a, b, bandwidth=params.core_bw, delay=params.core_delay, qlimit=params.qlimit
        )

    leaf_ids: List[int] = []
    access_router_of: Dict[int, int] = {}
    leaf_depth: Dict[int, int] = {}
    for i in range(params.n_leaves):
        depth = int(hop_dist.sample(rng))
        node = root_id
        # Walk depth-1 router levels down from the root (the last link
        # is the leaf's access link).
        for _ in range(depth - 1):
            kids = children[node]
            has_budget = len(kids) < budget[node]
            open_new = has_budget and (
                not kids or rng.random() < params.branch_prob
            )
            if open_new:
                child = new_node("router", f"r{next_id}")
                budget[child] = int(degree_dist.sample(rng))
                children[child] = []
                core_edge(node, child)
                kids.append(child)
                node = child
            elif kids:
                node = kids[int(rng.integers(len(kids)))]
            else:
                # Budget exhausted with no interior children (leaf-only
                # router): force one branch so the target depth is
                # reachable.
                child = new_node("router", f"r{next_id}")
                budget[child] = int(degree_dist.sample(rng))
                children[child] = []
                core_edge(node, child)
                kids.append(child)
                node = child
        leaf = new_node("host", f"leaf{i}")
        g.add_edge(
            node,
            leaf,
            bandwidth=params.leaf_bw,
            delay=params.leaf_delay,
            qlimit=params.qlimit,
        )
        leaf_ids.append(leaf)
        access_router_of[leaf] = node
        leaf_depth[leaf] = depth

    return TreeTopology(
        graph=g,
        params=params,
        root_id=root_id,
        server_router_id=server_router_id,
        server_ids=server_ids,
        leaf_ids=leaf_ids,
        access_router_of=access_router_of,
        leaf_depth=leaf_depth,
    )


def assign_roles(
    topo: TreeTopology,
    n_attackers: int,
    placement: Placement,
    rng: np.random.Generator,
) -> Tuple[List[int], List[int]]:
    """Split leaves into (attackers, clients) by the paper's placements.

    * ``close`` — attackers take the leaves nearest the servers,
    * ``far`` — the leaves farthest from the servers,
    * ``even`` — uniformly random leaves.

    Legitimate clients occupy the remaining leaves (Section 8.4.1).
    """
    if not 0 <= n_attackers <= len(topo.leaf_ids):
        raise ValueError(
            f"n_attackers={n_attackers} out of range for {len(topo.leaf_ids)} leaves"
        )
    leaves = list(topo.leaf_ids)
    # Shuffle first so depth ties are broken randomly.
    order = rng.permutation(len(leaves))
    leaves = [leaves[i] for i in order]
    if placement == "even":
        attackers = leaves[:n_attackers]
    elif placement == "close":
        leaves.sort(key=lambda leaf: topo.leaf_depth[leaf])
        attackers = leaves[:n_attackers]
    elif placement == "far":
        leaves.sort(key=lambda leaf: -topo.leaf_depth[leaf])
        attackers = leaves[:n_attackers]
    else:
        raise ValueError(f"unknown placement {placement!r}")
    attacker_set = set(attackers)
    clients = [leaf for leaf in topo.leaf_ids if leaf not in attacker_set]
    return attackers, clients


def split_amplifiers(
    client_ids: List[int],
    n_amplifiers: int,
    rng: np.random.Generator,
) -> Tuple[List[int], List[int]]:
    """Split ``client_ids`` into (amplifiers, remaining clients).

    Amplifier leaves host abusable reflector services for the
    reflection/amplification workload; they are drawn uniformly among
    the non-attacker leaves.  With ``n_amplifiers == 0`` this is a pure
    pass-through that consumes **zero** RNG draws, so scenarios without
    amplifiers replay seed journals byte-for-byte.

    Amplifier ids are returned sorted (stable role assignment); the
    remaining clients keep their original order.
    """
    if not 0 <= n_amplifiers <= len(client_ids):
        raise ValueError(
            f"n_amplifiers={n_amplifiers} out of range for "
            f"{len(client_ids)} candidate leaves"
        )
    if n_amplifiers == 0:
        return [], list(client_ids)
    order = rng.permutation(len(client_ids))
    chosen = sorted(int(client_ids[i]) for i in order[:n_amplifiers])
    chosen_set = set(chosen)
    clients = [leaf for leaf in client_ids if leaf not in chosen_set]
    return chosen, clients
