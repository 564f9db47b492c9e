"""Performance micro-benchmarks of the simulator core.

Unlike the figure benches (single-shot experiment regeneration), these
use pytest-benchmark's statistical timing to track the hot paths: the
plain event loop driving link serialization, router forwarding, and a
small but complete traffic scenario.  They guard against performance
regressions — the full-scale paper scenarios push tens of millions of
events.
"""

from repro.sim.network import Network
from repro.topology.string import build_string_topology
from repro.traffic.sources import CBRSource


def _mean_seconds(benchmark):
    """Mean wall time of one round, or None if stats are unavailable."""
    try:
        return float(benchmark.stats.stats.mean)
    except AttributeError:
        return None


def _record(report, benchmark, count_name, count):
    mean = _mean_seconds(benchmark)
    report.metric(count_name, count)
    if mean:
        report.metric("mean_round_s", round(mean, 6))
        report.metric(f"{count_name}_per_s", round(count / mean))


def test_perf_link_serialization(benchmark, report):
    """Packets through one congested channel (queue churn)."""
    report.name = "perf_link_serialization"

    def run():
        topo = build_string_topology(1, bandwidth=1e6, qlimit=50)
        net = Network.from_graph(topo.graph)
        net.build_routes(targets=[topo.server_id])
        src = CBRSource(
            net.sim, net.nodes[topo.attacker_id], topo.server_id,
            rate_bps=4e6, packet_size=500,
        )
        src.start(at=0.0)
        net.run(until=5.0)
        return net.nodes[topo.server_id].packets_received

    delivered = benchmark(run)
    _record(report, benchmark, "delivered", delivered)
    assert delivered > 1000  # 1 Mb/s of 500 B packets for 5 s


def test_perf_multi_hop_forwarding(benchmark, report):
    """Store-and-forward across a 10-router chain."""
    report.name = "perf_multi_hop_forwarding"

    def run():
        topo = build_string_topology(10)
        net = Network.from_graph(topo.graph)
        net.build_routes(targets=[topo.server_id])
        src = CBRSource(
            net.sim, net.nodes[topo.attacker_id], topo.server_id,
            rate_bps=1e6, packet_size=500,
        )
        src.start(at=0.0)
        net.run(until=2.0)
        return net.sim.events_processed

    events = benchmark(run)
    _record(report, benchmark, "events", events)
    assert events > 5000


def test_perf_router_hook_overhead(benchmark, report):
    """Ingress-hook dispatch cost with a pass-through hook installed."""
    report.name = "perf_router_hook_overhead"

    def run():
        topo = build_string_topology(3)
        net = Network.from_graph(topo.graph)
        net.build_routes(targets=[topo.server_id])
        for router in net.routers():
            router.add_ingress_hook(lambda pkt, ch: False)
        src = CBRSource(
            net.sim, net.nodes[topo.attacker_id], topo.server_id,
            rate_bps=2e6, packet_size=500,
        )
        src.start(at=0.0)
        net.run(until=2.0)
        return net.nodes[topo.server_id].packets_received

    delivered = benchmark(run)
    _record(report, benchmark, "delivered", delivered)
    assert delivered > 500
