"""Standard experiment scenarios (Section 8.3 / Fig. 9).

The paper's main simulation setup: a tree topology with five servers
behind a 10 Mb/s bottleneck; legitimate clients and attackers on the
leaves, all sending CBR traffic toward the servers; legitimate load
held at ~90% of the bottleneck; attacks active during the middle of
the run.  Three defense configurations run on identical workloads:
no defense, ACC/Pushback, and honeypot back-propagation.

``DEFAULT_SCALE`` shrinks the paper's 1000-leaf, 1000-second runs to
100 leaves / 100 seconds so a full figure regenerates in minutes on a
laptop; ``paper_scale()`` restores the full-size settings.  The
legitimate:attack:bottleneck rate ratios are identical at both scales,
which is what the reported shapes depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Literal, Optional, Tuple

from ..backprop.intraas import IntraASConfig
from ..crypto.hashchain import HashChain
from ..defense.base import Defense, NoDefense
from ..defense.honeypot_backprop import HoneypotBackpropDefense
from ..defense.pushback_defense import PushbackDefense
from ..honeypots.roaming import RoamingServerPool
from ..honeypots.schedule import RoamingSchedule
from ..honeypots.subscription import SubscriptionService
from ..pushback.protocol import PushbackConfig
from ..sim.engine import Simulator
from ..sim.monitor import ThroughputMonitor, mean_over_window
from ..sim.network import Network
from ..sim.rng import RngRegistry
from ..topology.tree import (
    TreeParams,
    assign_roles,
    build_tree_topology,
    split_amplifiers,
    subtree_partition,
)
from ..traffic.amplifier import AmplifierApp
from ..traffic.client import RoamingClientApp, StaticClientApp
from ..traffic.policies import NULL_PROBES, BotEnv, DefenseProbes, make_policy

__all__ = [
    "TreeScenarioParams",
    "TreeScenarioResult",
    "run_tree_scenario",
    "paper_scale",
    "PARAMETER_TABLE",
    "DefenseName",
]

DefenseName = Literal["none", "pushback", "honeypot"]


@dataclass(frozen=True)
class TreeScenarioParams:
    """All knobs of the standard tree scenario (Fig. 9's table)."""

    # Topology
    n_leaves: int = 100
    n_servers: int = 5
    bottleneck_bw: float = 10e6
    # Roaming honeypots
    n_active: int = 3
    epoch_len: float = 10.0
    # Guard bands: delta bounds clock skew; gamma must cover the worst
    # client->server latency *including bottleneck queueing* so that
    # in-flight legitimate packets never land inside a honeypot window.
    delta: float = 0.02
    gamma: float = 0.25
    # Attack
    n_attackers: int = 25
    attacker_rate: float = 1.0e6
    placement: Literal["close", "far", "even"] = "even"
    t_on: Optional[float] = None
    t_off: Optional[float] = None
    # Adversary policy (see repro.traffic.policies): "continuous",
    # "onoff", "follower", "aware", "probing", "churn", "reflection".
    attacker_policy: str = "continuous"
    # Reflection/amplification workload: amplifier leaves that bounce
    # spoofed triggers toward the victim at gain ``amplification``.
    n_amplifiers: int = 0
    amplification: float = 5.0
    # Policy knobs: follower reaction delay, aware-backoff window,
    # probing cadence, churn online/offline dwell means.
    d_follow: float = 1.0
    aware_backoff: float = 8.0
    probe_interval: float = 2.0
    churn_on: float = 6.0
    churn_off: float = 3.0
    # Legitimate load: fraction of the bottleneck filled by clients.
    legit_load: float = 0.9
    packet_size: int = 1000
    # CBR inter-packet jitter; breaks drop-tail phase locking between
    # perfectly periodic flows (ns-2 CBR's random_ flag).
    jitter: float = 0.1
    # Timeline
    duration: float = 100.0
    attack_start: float = 10.0
    attack_end: float = 90.0
    # Defense
    defense: DefenseName = "honeypot"
    # Honeypot back-propagation knobs (see IntraASConfig).
    trigger_threshold: int = 2
    cancel_lead: float = 0.3
    seed: int = 0

    @property
    def n_clients(self) -> int:
        return self.n_leaves - self.n_attackers - self.n_amplifiers

    @property
    def client_rate(self) -> float:
        """Per-client rate that keeps total legit load at the target."""
        if self.n_clients == 0:
            return 0.0
        return self.legit_load * self.bottleneck_bw / self.n_clients

    @property
    def honeypot_probability(self) -> float:
        return (self.n_servers - self.n_active) / self.n_servers


def paper_scale(params: TreeScenarioParams) -> TreeScenarioParams:
    """The paper's full-scale settings (1000 leaves, 1000 s runs)."""
    return replace(
        params,
        n_leaves=1000,
        duration=1000.0,
        attack_start=50.0,
        attack_end=950.0,
    )


# Fig. 9: the parameter space the paper studies.
PARAMETER_TABLE: List[Tuple[str, str, str]] = [
    ("attacker location", "close / evenly distributed / far", "evenly distributed"),
    ("number of attackers", "5, 10, 25, 50", "25"),
    ("attack rate per attacker", "0.1, 0.25, 0.5, 1.0 Mb/s", "1.0 Mb/s"),
    ("legitimate load", "~90% of bottleneck (total)", "0.9"),
    ("servers (N, k)", "N=5, k=3  =>  p = 0.4", "N=5, k=3"),
    ("epoch length m", "10 s", "10 s"),
    ("defense", "none / Pushback / honeypot back-propagation", "—"),
]


@dataclass
class TreeScenarioResult:
    """Everything a figure needs from one run."""

    params: TreeScenarioParams
    times: List[float]
    legit_pct: List[float]
    attack_pct: List[float]
    legit_pct_during_attack: float
    defense_stats: Dict[str, Any]
    capture_times: Dict[int, float] = field(default_factory=dict)
    false_captures: int = 0
    attacker_ids: List[int] = field(default_factory=list)
    client_ids: List[int] = field(default_factory=list)
    events_processed: int = 0
    # Reflection workloads: amplifier leaves, how many of the captures
    # hit reflectors, and the stage-two traceback (captured reflector ->
    # true trigger sources from its log).
    amplifier_ids: List[int] = field(default_factory=list)
    reflector_captures: int = 0
    traced_sources: Dict[int, List[int]] = field(default_factory=dict)


def _build_defense(
    params: TreeScenarioParams,
    net: Network,
    topo,
    rngs: RngRegistry,
) -> Tuple[Defense, Optional[RoamingServerPool], Optional[SubscriptionService]]:
    if params.defense == "none":
        return NoDefense(), None, None
    if params.defense == "pushback":
        return PushbackDefense(PushbackConfig()), None, None
    if params.defense == "honeypot":
        n_epochs = int(params.duration / params.epoch_len) + 3
        chain = HashChain(
            n_epochs + 64,
            anchor=rngs.stream("hashchain").bytes(32),
        )
        schedule = RoamingSchedule(
            params.n_servers, params.n_active, params.epoch_len, chain
        )
        servers = [net.nodes[sid] for sid in topo.server_ids]
        pool = RoamingServerPool(
            net.sim, servers, schedule, delta=params.delta, gamma=params.gamma
        )
        service = SubscriptionService(schedule, chain)
        defense = HoneypotBackpropDefense(
            pool,
            net.nodes[topo.server_router_id],
            IntraASConfig(
                trigger_threshold=params.trigger_threshold,
                cancel_lead=params.cancel_lead,
            ),
        )
        return defense, pool, service
    raise ValueError(f"unknown defense {params.defense!r}")


def run_tree_scenario(
    params: TreeScenarioParams, telemetry=None, stream=None, profile=False
) -> TreeScenarioResult:
    """Build, run, and measure one tree-scenario simulation.

    ``telemetry`` (a :class:`repro.obs.Telemetry` or None) turns on the
    unified observability layer: the defense journals its lifecycle
    events, the monitor counts per-class deliveries, the engine
    self-profiles, and the network's counters are snapshotted into the
    registry after the run.  With None (the default) nothing is instrumented.

    ``stream`` (a :class:`repro.obs.stream.StreamConfig` or None) adds
    live in-run snapshots: a :class:`~repro.obs.stream.TelemetryStreamer`
    is armed on the simulator and fed the defense's live gauges plus a
    run-progress source.  Streaming only reads — the causal journal is
    byte-identical with or without it.  A bare ``stream`` implies a
    private :class:`~repro.obs.Telemetry` so rates can be computed.

    ``profile=True`` (requires ``telemetry``) enables the engine's
    dimensional attribution: per-event wall-time charged to callback
    kind × module × per-subtree shard label
    (:func:`~repro.topology.tree.subtree_partition`).  Attribution only
    reads — journals stay byte-identical with profiling on or off.
    """
    if not 0 <= params.n_attackers <= params.n_leaves:
        raise ValueError("n_attackers out of range")
    if params.n_attackers + params.n_amplifiers > params.n_leaves:
        raise ValueError("n_attackers + n_amplifiers exceeds n_leaves")
    if not 0 < params.attack_start < params.attack_end <= params.duration:
        raise ValueError("need 0 < attack_start < attack_end <= duration")
    if params.attacker_policy == "reflection" and params.n_amplifiers < 1:
        raise ValueError("reflection policy needs n_amplifiers >= 1")
    # Fail fast on an unknown policy name, before building anything.
    policy = make_policy(
        params.attacker_policy,
        t_on=params.t_on,
        t_off=params.t_off,
        d_follow=params.d_follow,
        aware_backoff=params.aware_backoff,
        probe_interval=params.probe_interval,
        churn_on=params.churn_on,
        churn_off=params.churn_off,
        amplification=params.amplification,
    )
    rngs = RngRegistry(params.seed)

    tree_params = TreeParams(
        n_leaves=params.n_leaves,
        n_servers=params.n_servers,
        bottleneck_bw=params.bottleneck_bw,
    )
    topo = build_tree_topology(tree_params, rngs.stream("topology"))
    net = Network.from_graph(topo.graph, sim=Simulator())

    attacker_ids, client_ids = assign_roles(
        topo, params.n_attackers, params.placement, rngs.stream("roles")
    )
    amplifier_ids: List[int] = []
    if params.n_amplifiers:
        # A fresh named stream and a draw-free n==0 path keep seed
        # scenarios byte-identical to pre-amplifier journals.
        amplifier_ids, client_ids = split_amplifiers(
            client_ids, params.n_amplifiers, rngs.stream("amplifiers")
        )
    # Amplifier leaves are traffic sinks (triggers are routed to them),
    # so they join the servers in the routing targets.
    net.build_routes(targets=list(topo.server_ids) + amplifier_ids)
    if telemetry is not None:
        telemetry.bind(net.sim)
        if profile:
            telemetry.profiler.enable_dimensions(
                site_of=subtree_partition(topo).get
            )
    streamer = None
    if stream is not None:
        from ..obs import Telemetry
        from ..obs.stream import TelemetryStreamer

        hub = telemetry
        if hub is None:
            # Streaming needs a registry/profiler to report rates from;
            # a private hub instruments the run without changing what
            # the caller receives.
            hub = Telemetry()
            hub.bind(net.sim)
        streamer = TelemetryStreamer(hub, stream).attach(net.sim)
        hub.streamer = streamer
    defense, pool, service = _build_defense(params, net, topo, rngs)
    defense.use_telemetry(telemetry)
    defense.attach(net)
    if streamer is not None:
        if isinstance(defense, HoneypotBackpropDefense):
            import networkx as nx

            # Hop depth of every router from the server access router:
            # the frontier gauge reports how deep back-propagation has
            # pushed toward the attackers.
            depths = nx.single_source_shortest_path_length(
                topo.graph, topo.server_router_id
            )
            defense.frontier_depth_of = depths.get
        sim = net.sim

        def _progress() -> Dict[str, Any]:
            return {
                "defense": params.defense,
                "duration": params.duration,
                "pct_complete": round(100.0 * sim.now / params.duration, 2),
                "attackers_total": params.n_attackers,
                "seed": params.seed,
            }

        streamer.add_source("progress", _progress)
        streamer.add_source("defense", defense.stream_sample)

    # --- Amplifiers (reflection workload) ------------------------------
    journal = telemetry.journal if telemetry is not None else None
    amplifiers: List[AmplifierApp] = []
    for leaf in amplifier_ids:
        amplifiers.append(
            AmplifierApp(
                net.sim,
                net.nodes[leaf],
                amplification=params.amplification,
                journal=journal,
            )
        )
    if isinstance(defense, HoneypotBackpropDefense) and amplifiers:
        amp_by_addr = {app.host.addr: app for app in amplifiers}
        defense.known_reflectors = frozenset(amp_by_addr)
        if journal is not None:
            # Stage two of the traceback: when a reflector is captured,
            # its trigger log names the true sources behind it.
            def _stage_two(record) -> None:
                app = amp_by_addr.get(record.host_addr)
                if app is not None:
                    journal.record(
                        "reflector_traceback",
                        reflector=int(record.host_addr),
                        sources=sorted(int(s) for s in app.trigger_sources),
                        triggers=int(app.triggers_received),
                    )

            defense.capture_listeners.append(_stage_two)

    # --- Adaptive-attacker probes --------------------------------------
    probes = NULL_PROBES
    if isinstance(defense, HoneypotBackpropDefense) and pool is not None:
        server_index = {int(addr): i for i, addr in enumerate(topo.server_ids)}
        access_of = topo.access_router_of
        captures = defense.captures

        def _is_server_honeypot(addr: int) -> bool:
            return pool.is_honeypot_now(server_index[int(addr)])

        def _subtree_captured(addr: int) -> bool:
            router = access_of.get(addr)
            for c in captures:
                if c.host_addr == addr or c.access_router_addr == router:
                    return True
            return False

        def _captures_total() -> int:
            return len(captures)

        probes = DefenseProbes(
            is_server_honeypot=_is_server_honeypot,
            subtree_captured=_subtree_captured,
            captures_total=_captures_total,
        )

    # --- Legitimate clients -------------------------------------------
    client_rng = rngs.stream("clients")
    clients = []
    for leaf in client_ids:
        host = net.nodes[leaf]
        if service is not None:
            sub = service.subscribe(0.0, "high")
            app = RoamingClientApp(
                net.sim,
                host,
                sub,
                topo.server_ids,
                params.client_rate,
                client_rng,
                params.packet_size,
                jitter=params.jitter,
            )
        else:
            app = StaticClientApp(
                net.sim,
                host,
                topo.server_ids,
                params.client_rate,
                client_rng,
                params.packet_size,
                jitter=params.jitter,
            )
        # Stagger client start within one packet interval to avoid
        # phase-locked bursts at t=0.
        app.start(at=float(client_rng.uniform(0.0, 0.2)))
        clients.append(app)

    # --- Attackers -----------------------------------------------------
    # ``attackers`` is the seed per-bot stream (target/spoof/phase draws
    # in the legacy order); ``attacker-policy`` is a separate stream for
    # policy-level decisions, so adaptive policies never perturb it.
    attack_rng = rngs.stream("attackers")
    policy_rng = rngs.stream("attacker-policy")
    server_addrs = tuple(int(s) for s in topo.server_ids)
    amplifier_addrs = tuple(int(a) for a in amplifier_ids)
    zombies = []
    for leaf in attacker_ids:
        env = BotEnv(
            sim=net.sim,
            host=net.nodes[leaf],
            servers=server_addrs,
            rate_bps=params.attacker_rate,
            packet_size=params.packet_size,
            jitter=params.jitter,
            rng=attack_rng,
            policy_rng=policy_rng,
            probes=probes,
            amplifiers=amplifier_addrs,
            journal=journal,
        )
        z = policy.spawn(env)
        z.start(at=params.attack_start)
        net.sim.schedule_at(params.attack_end, z.stop)
        zombies.append(z)

    # --- Measurement ---------------------------------------------------
    def classify(pkt):
        if pkt.flow and pkt.flow[0] == "client":
            return "legit"
        if pkt.flow and pkt.flow[0] == "attack":
            return "attack"
        return None

    servers = [net.nodes[sid] for sid in topo.server_ids]
    monitor = ThroughputMonitor(
        net.sim,
        servers,
        classify,
        interval=1.0,
        registry=telemetry.registry if telemetry is not None else None,
    )
    monitor.start()

    try:
        net.run(until=params.duration)
    except BaseException:
        if streamer is not None:
            streamer.close()
        raise

    legit_pct = monitor.percent_of("legit", params.bottleneck_bw)
    attack_pct = monitor.percent_of("attack", params.bottleneck_bw)
    during = mean_over_window(
        monitor.times, legit_pct, params.attack_start, params.attack_end
    )

    capture_times: Dict[int, float] = {}
    false_caps = 0
    reflector_captures = 0
    traced_sources: Dict[int, List[int]] = {}
    if isinstance(defense, HoneypotBackpropDefense):
        capture_times = defense.capture_times(params.attack_start)
        # Captured reflectors are correct defense behavior (the spoofed
        # signature points at them), not false captures.
        false_caps = len(
            defense.false_captures(list(attacker_ids) + list(amplifier_ids))
        )
        if amplifiers:
            amp_apps = {app.host.addr: app for app in amplifiers}
            for c in defense.captures:
                app = amp_apps.get(c.host_addr)
                if app is not None:
                    reflector_captures += 1
                    traced_sources[int(c.host_addr)] = sorted(
                        int(s) for s in app.trigger_sources
                    )

    if telemetry is not None:
        telemetry.snapshot_network(net)
        telemetry.record_stats(defense.stats(), prefix=f"{defense.name}_")
        telemetry.extra.setdefault("throughput", monitor.to_dict())
        entry = {
            "legit_pct_during_attack": during,
            "captures": len(capture_times),
            "false_captures": false_caps,
        }
        if amplifier_ids:
            entry["reflector_captures"] = reflector_captures
            entry["traced_sources"] = sum(len(v) for v in traced_sources.values())
        telemetry.extra.setdefault("scenario", {})[params.defense] = entry

    if streamer is not None:
        # Final snapshot *after* the post-run registry fold, so the last
        # stream record (and the textfile) carries the complete totals.
        if telemetry is None:
            streamer.telemetry.snapshot_network(net)
        streamer.close()

    return TreeScenarioResult(
        params=params,
        times=list(monitor.times),
        legit_pct=legit_pct,
        attack_pct=attack_pct,
        legit_pct_during_attack=during,
        defense_stats=defense.stats(),
        capture_times=capture_times,
        false_captures=false_caps,
        attacker_ids=list(attacker_ids),
        client_ids=list(client_ids),
        events_processed=net.sim.events_processed,
        amplifier_ids=list(amplifier_ids),
        reflector_captures=reflector_captures,
        traced_sources=traced_sources,
    )
