"""Discrete-event, packet-level network simulator (ns-2 substitute).

The paper evaluates honeypot back-propagation with ns-2; this package
provides the subset of ns-2 the paper's experiments use, built from
scratch: an event scheduler, duplex links with bandwidth/propagation
delay and drop-tail FIFO buffers, store-and-forward routers with
defense ingress hooks, static shortest-path routing, CBR traffic (in
:mod:`repro.traffic`), and throughput monitors.
"""

from .engine import Event, SimulationError, Simulator, Timer
from .link import Channel, Link
from .monitor import ThroughputMonitor, mean_over_window
from .network import Network
from .node import Host, Node, Router
from .packet import DEFAULT_TTL, Packet, PacketKind
from .rng import RngRegistry, derive_seed
from .routing import install_routes, path_hops

__all__ = [
    "Channel",
    "DEFAULT_TTL",
    "Event",
    "Host",
    "Link",
    "Network",
    "Node",
    "Packet",
    "PacketKind",
    "RngRegistry",
    "Router",
    "SimulationError",
    "Simulator",
    "ThroughputMonitor",
    "Timer",
    "derive_seed",
    "install_routes",
    "mean_over_window",
    "path_hops",
]
