"""Probabilistic packet marking (PPM) traceback — related-work baseline.

Section 2: "Packet marking schemes construct attack paths locally at
the victim by collecting markings stamped into packets by intermediate
routers.  However, these schemes are vulnerable to compromised routers,
which can inject forged markings to increase the number of false
positives."

This module implements edge-sampling PPM (Savage et al., the scheme the
paper cites as [38]) faithfully enough to reproduce those two claims:

* **collection cost** — reconstructing a path of length d needs on the
  order of ``ln(d) / (q (1-q)^(d-1))`` marked packets, so low-rate
  attackers take a long time to trace (the weakness progressive
  honeypot back-propagation addresses);
* **compromised routers** — a subverted router can stamp arbitrary
  (forged) edges into packets, and the victim-side reconstruction has
  no way to tell them from genuine edges: false positives.

The implementation works on any networkx topology: routers mark with
probability ``q`` (start marking / edge completion, distance counting
as in edge sampling), the victim accumulates edge samples and rebuilds
the attack graph by distance-ordered edge stitching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

__all__ = [
    "EdgeMark",
    "PPMRouter",
    "PPMVictim",
    "expected_packets_for_path",
    "simulate_ppm_traceback",
    "PPMResult",
]


@dataclass(frozen=True)
class EdgeMark:
    """The (start, end, distance) triple of edge-sampling PPM."""

    start: int
    end: Optional[int]
    distance: int


class PPMRouter:
    """Edge-sampling marking at one router.

    With probability q the router *starts* a mark (writes its own
    address, distance 0).  Otherwise, if the packet carries a fresh
    mark (distance 0), the router completes the edge by writing itself
    as the edge's end; in every non-start case the distance is
    incremented.
    """

    def __init__(self, addr: int, q: float, rng: np.random.Generator,
                 compromised: bool = False,
                 forged_edge: Optional[Tuple[int, int]] = None) -> None:
        if not 0 < q < 1:
            raise ValueError(f"marking probability must be in (0,1) (got {q})")
        self.addr = addr
        self.q = q
        self.rng = rng
        self.compromised = compromised
        self.forged_edge = forged_edge

    def process(self, mark: Optional[EdgeMark]) -> Optional[EdgeMark]:
        """Transform the packet's current mark as the packet transits."""
        if self.compromised and self.forged_edge is not None:
            # A subverted router overwrites whatever is there with a
            # forged edge pointing the traceback at an innocent branch.
            s, e = self.forged_edge
            return EdgeMark(s, e, 0)
        if self.rng.random() < self.q:
            return EdgeMark(self.addr, None, 0)
        if mark is None:
            return None
        if mark.distance == 0 and mark.end is None:
            return EdgeMark(mark.start, self.addr, 1)
        return EdgeMark(mark.start, mark.end, mark.distance + 1)


class PPMVictim:
    """Victim-side collection and path reconstruction."""

    def __init__(self) -> None:
        # distance -> set of (start, end) edges seen at that distance.
        self.edges_by_distance: Dict[int, Set[Tuple[int, Optional[int]]]] = {}
        self.packets_collected = 0

    def collect(self, mark: Optional[EdgeMark]) -> None:
        self.packets_collected += 1
        if mark is None or mark.end is None:
            return
        self.edges_by_distance.setdefault(mark.distance, set()).add(
            (mark.start, mark.end)
        )

    def reconstruct(self) -> nx.DiGraph:
        """Stitch collected edges into the (candidate) attack graph.

        Edges are added distance-ordered; every edge whose distance is
        consistent with some already-anchored node is kept — which is
        precisely why forged edges become false positives: the victim
        cannot validate them.
        """
        g = nx.DiGraph()
        for distance in sorted(self.edges_by_distance):
            for start, end in self.edges_by_distance[distance]:
                g.add_edge(end, start, distance=distance)
        return g


def expected_packets_for_path(d: int, q: float) -> float:
    """E[packets] to collect a d-hop path: ln(d) / (q (1-q)^(d-1)).

    The classic coupon-collector bound from Savage et al.; the farthest
    edge is the bottleneck because its mark survives only if no later
    router re-marks.
    """
    if d < 1:
        raise ValueError("path length must be >= 1")
    if not 0 < q < 1:
        raise ValueError("marking probability must be in (0,1)")
    return math.log(max(d, 2)) / (q * (1 - q) ** (d - 1))


@dataclass
class PPMResult:
    """Outcome of a PPM traceback simulation."""

    packets_needed: Optional[int]
    true_edges_found: int
    false_edges: int
    reconstructed: nx.DiGraph = field(repr=False, default=None)


def simulate_ppm_traceback(
    path: Sequence[int],
    q: float = 0.04,
    rng: Optional[np.random.Generator] = None,
    max_packets: int = 1_000_000,
    compromised: Optional[Dict[int, Tuple[int, int]]] = None,
) -> PPMResult:
    """Run edge-sampling PPM along one attack path.

    Parameters
    ----------
    path:
        Router addresses from the attacker's first hop to the victim's
        last hop (in travel order).
    q:
        Per-router marking probability (0.04 is the literature default).
    compromised:
        Router addr -> forged (start, end) edge it stamps.
    max_packets:
        Give up after this many packets (returns packets_needed=None).
    """
    rng = rng if rng is not None else np.random.default_rng(0)  # reprolint: ignore[RPL001] -- literal-seed fallback for standalone use; callers pass a registry stream
    compromised = compromised or {}
    routers = [
        PPMRouter(
            addr,
            q,
            rng,
            compromised=addr in compromised,
            forged_edge=compromised.get(addr),
        )
        for addr in path
    ]
    true_edges = {
        (path[i], path[i + 1]) for i in range(len(path) - 1)
    }
    victim = PPMVictim()
    packets_needed = None
    for n in range(1, max_packets + 1):
        mark: Optional[EdgeMark] = None
        for router in routers:
            mark = router.process(mark)
        victim.collect(mark)
        if packets_needed is None:
            seen = {
                (s, e)
                for edges in victim.edges_by_distance.values()
                for (s, e) in edges
            }
            if true_edges <= seen:
                packets_needed = n
                break
    seen = {
        (s, e)
        for edges in victim.edges_by_distance.values()
        for (s, e) in edges
    }
    return PPMResult(
        packets_needed=packets_needed,
        true_edges_found=len(true_edges & seen),
        false_edges=len(seen - true_edges),
        reconstructed=victim.reconstruct(),
    )
