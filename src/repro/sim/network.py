"""Network container: nodes + links + routes over a topology graph.

:class:`Network` is the assembly point: topology generators produce an
annotated ``networkx.Graph`` (node attribute ``role`` in
``{"router", "host"}``; edge attributes ``bandwidth`` [bits/s],
``delay`` [s], ``qlimit`` [packets]), and :meth:`Network.from_graph`
instantiates the simulation objects.  Applications (traffic sources,
defenses) then attach to the instantiated nodes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import networkx as nx

from .engine import Simulator
from .link import Link
from .node import Host, Node, Router
from .routing import install_routes

__all__ = ["Network", "DEFAULT_BANDWIDTH", "DEFAULT_DELAY", "DEFAULT_QLIMIT"]

DEFAULT_BANDWIDTH = 10e6  # 10 Mb/s
DEFAULT_DELAY = 0.010  # 10 ms
DEFAULT_QLIMIT = 50  # packets


class Network:
    """A simulated network: simulator + nodes + links + routing."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.graph = nx.Graph()
        self.nodes: Dict[int, Node] = {}
        self.links: List[Link] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_id(self, node_id: Optional[int]) -> int:
        if node_id is None:
            node_id = self._next_id
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id}")
        self._next_id = max(self._next_id, node_id + 1)
        return node_id

    def add_host(self, name: Optional[str] = None, node_id: Optional[int] = None) -> Host:
        node_id = self._new_id(node_id)
        host = Host(self.sim, node_id, name)
        self.nodes[node_id] = host
        self.graph.add_node(node_id, role="host")
        return host

    def add_router(self, name: Optional[str] = None, node_id: Optional[int] = None) -> Router:
        node_id = self._new_id(node_id)
        router = Router(self.sim, node_id, name)
        self.nodes[node_id] = router
        self.graph.add_node(node_id, role="router")
        return router

    def add_link(
        self,
        a: Node,
        b: Node,
        bandwidth: float = DEFAULT_BANDWIDTH,
        delay: float = DEFAULT_DELAY,
        qlimit: int = DEFAULT_QLIMIT,
    ) -> Link:
        link = Link(self.sim, a, b, bandwidth, delay, qlimit)
        self.links.append(link)
        self.graph.add_edge(
            a.id, b.id, bandwidth=bandwidth, delay=delay, qlimit=qlimit
        )
        return link

    @classmethod
    def from_graph(cls, graph: nx.Graph, sim: Optional[Simulator] = None) -> "Network":
        """Instantiate a network from an annotated topology graph."""
        net = cls(sim)
        for node_id, data in sorted(graph.nodes(data=True)):
            role = data.get("role", "router")
            name = data.get("name")
            if role == "host":
                net.add_host(name, node_id)
            elif role == "router":
                net.add_router(name, node_id)
            else:
                raise ValueError(f"unknown node role {role!r} at node {node_id}")
        for a, b, data in graph.edges(data=True):
            net.add_link(
                net.nodes[a],
                net.nodes[b],
                bandwidth=data.get("bandwidth", DEFAULT_BANDWIDTH),
                delay=data.get("delay", DEFAULT_DELAY),
                qlimit=data.get("qlimit", DEFAULT_QLIMIT),
            )
            # Preserve any extra edge attributes (e.g. routing weights).
            extra = {
                k: v
                for k, v in data.items()
                if k not in ("bandwidth", "delay", "qlimit")
            }
            if extra:
                net.graph.edges[a, b].update(extra)
        return net

    # ------------------------------------------------------------------
    # Routing and lookup
    # ------------------------------------------------------------------
    def build_routes(self, targets: Optional[Iterable[int]] = None) -> None:
        """Compute and install static shortest-path routes.

        ``targets`` limits route computation to the given destinations
        (plus nothing else) — pass the set of all traffic sinks,
        including nodes that receive control messages.
        """
        install_routes(self.graph, self.nodes, self.links, targets)

    def link_between(self, a: Node, b: Node) -> Link:
        for link in self.links:
            if {link.a, link.b} == {a, b}:
                return link
        raise ValueError(f"no link between {a.name} and {b.name}")

    def hosts(self) -> List[Host]:
        return [n for n in self.nodes.values() if isinstance(n, Host)]

    def routers(self) -> List[Router]:
        return [n for n in self.nodes.values() if isinstance(n, Router)]

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={len(self.nodes)}, links={len(self.links)}, "
            f"t={self.sim.now:.3f})"
        )
