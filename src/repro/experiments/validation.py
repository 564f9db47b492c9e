"""Model validation on the string topology (Section 8.2 / Fig. 6).

"To focus on the attack path, we use a string topology with one server
at one end and an attacker at the other end.  We vary the epoch length
m, the honeypot probability p, and the hop distance h ... and plot the
average capture time against Eq. (3)," which "serves as an upper bound
of the average capture-time."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..analysis.capture_time import basic_continuous
from ..backprop.intraas import IntraASConfig
from ..defense.honeypot_backprop import HoneypotBackpropDefense
from ..honeypots.roaming import RoamingServerPool
from ..honeypots.schedule import BernoulliSchedule
from ..sim.network import Network
from ..sim.rng import RngRegistry, derive_seed
from ..topology.string import build_string_topology
from ..traffic.sources import CBRSource

__all__ = ["ValidationParams", "ValidationOutcome", "run_trial", "run_validation"]


@dataclass(frozen=True)
class ValidationParams:
    """One point of the Fig. 6 sweeps."""

    hops: int = 10
    p: float = 0.3
    epoch_len: float = 10.0
    rate_bps: float = 0.1e6
    packet_size: int = 500
    link_bw: float = 10e6
    link_delay: float = 0.010
    runs: int = 10
    seed: int = 0

    @property
    def rate_pps(self) -> float:
        return self.rate_bps / (8.0 * self.packet_size)

    @property
    def tau_estimate(self) -> float:
        """Per-hop propagation time of a request in the packet sim:
        link delay + control transmission + router processing."""
        control_tx = 64 * 8.0 / self.link_bw
        return self.link_delay + control_tx + IntraASConfig().processing_delay


@dataclass
class ValidationOutcome:
    params: ValidationParams
    capture_times: List[float]
    predicted: float  # Eq. (3)

    @property
    def mean_capture_time(self) -> float:
        return float(np.mean(self.capture_times)) if self.capture_times else float("nan")

    @property
    def within_bound(self) -> bool:
        """Eq. (3) is an upper bound on the average capture time (with
        slack for the finite trigger threshold and per-hop latencies)."""
        if not self.capture_times:
            return False
        slack = 1.25
        return self.mean_capture_time <= self.predicted * slack


def run_trial(
    params: ValidationParams, run_index: int, telemetry=None
) -> Optional[float]:
    """One capture-time measurement; None if never captured.

    ``telemetry`` (a :class:`repro.obs.Telemetry` or None) instruments
    the trial's simulator and defense.
    """
    seed = derive_seed(params.seed, f"validation-{run_index}")
    rng = RngRegistry(seed).stream("attack-phase")

    topo = build_string_topology(
        params.hops,
        bandwidth=params.link_bw,
        delay=params.link_delay,
    )
    net = Network.from_graph(topo.graph)
    net.build_routes(targets=[topo.server_id])

    if telemetry is not None:
        telemetry.bind(net.sim)
    schedule = BernoulliSchedule(params.p, params.epoch_len, seed=seed)
    server = net.nodes[topo.server_id]
    pool = RoamingServerPool(net.sim, [server], schedule, delta=0.0, gamma=0.0)
    defense = HoneypotBackpropDefense(
        pool, net.nodes[topo.server_access_router], IntraASConfig()
    )
    defense.use_telemetry(telemetry)
    defense.attach(net)

    attacker = net.nodes[topo.attacker_id]
    source = CBRSource(
        net.sim,
        attacker,
        topo.server_id,
        params.rate_bps,
        params.packet_size,
        flow=("attack", attacker.addr),
    )
    # Start at a uniformly random phase within an epoch, so the attack
    # start is independent of epoch boundaries (as in the analysis).
    attack_start = params.epoch_len * (1.0 + float(rng.uniform()))
    source.start(at=attack_start)

    # Run in epoch-sized chunks until the attacker's port is blocked.
    max_time = attack_start + 50.0 * params.epoch_len / max(params.p, 1e-6)
    while not defense.captures and net.sim.now < max_time:
        net.run(until=min(net.sim.now + params.epoch_len, max_time))
    if telemetry is not None:
        telemetry.snapshot_network(net)
        telemetry.record_stats(defense.stats(), prefix=f"{defense.name}_")
    if not defense.captures:
        return None
    return defense.captures[0].time - attack_start


def run_validation(params: ValidationParams) -> ValidationOutcome:
    """Average capture time over replicated runs vs the Eq. (3) bound."""
    times = []
    for i in range(params.runs):
        t = run_trial(params, i)
        if t is not None:
            times.append(t)
    predicted = basic_continuous(
        params.epoch_len, params.p, params.hops, params.rate_pps, params.tau_estimate
    )
    return ValidationOutcome(params, times, predicted)
