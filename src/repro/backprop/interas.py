"""Inter-AS honeypot back-propagation engine (Sections 5.1, 6).

A message-level model of the AS hierarchy: attack *flows* (per-zombie
CBR / on-off emission processes) traverse AS paths with a per-AS-hop
latency, HSMs exchange authenticated honeypot request/cancel messages,
and intra-AS traceback at stub ASs is summarized by a capture delay.
This is the level at which the paper's analysis (Section 7) speaks, so
the engine is used to validate the capture-time equations and to run
the basic-vs-progressive and partial-deployment experiments.

Timing model (matching the analysis):

* an attack packet emitted by zombie *i* reaches an AS ``k`` hops from
  the zombie after ``k * per_hop_delay`` seconds;
* a session at AS X propagates to upstream neighbor U once a packet
  for the honeypot arrives from U's direction, plus ``tau`` seconds of
  request travel + session setup ("it takes on average τ seconds to
  propagate a honeypot session one hop upstream");
* at a stub AS, intra-AS back-propagation needs one further packet
  arrival plus ``intra_as_capture_delay`` seconds to close the
  attacker's switch port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..crypto.auth import KeyRing
from ..honeypots.schedule import BernoulliSchedule, RoamingSchedule
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..topology.aslevel import ASTopology
from .deployment import DeploymentMap
from .hsm import HSM
from .messages import HoneypotRequest
from .progressive import IntermediateASList

__all__ = ["InterASConfig", "ASAttackerSpec", "InterASBackprop"]

_INF = math.inf

# The victim service's address in the message-level model.
VICTIM_ADDR = 0


@dataclass
class InterASConfig:
    """Timing and policy knobs of the inter-AS engine."""

    tau: float = 1.0  # request propagation + session setup, one AS hop
    per_hop_delay: float = 0.05  # attack packet / control travel per AS hop
    server_to_hsm_delay: float = 0.05
    intra_as_capture_delay: float = 1.0
    bgp_hop_delay: float = 0.5  # legacy-AS hop for piggybacked messages
    rho: int = 3  # intermediate-list rule-2 threshold
    # Fraction of the epoch after which the engine flushes frontier
    # reports and prepares next-epoch resume requests.
    prepare_point: float = 0.6
    # Failure injection: probability that a frontier report is lost in
    # transit.  The paper's rule 1 covers exactly this — "the report
    # message was lost ... which is a rare situation; propagation is
    # restarted" — so capture must still happen, just slower.
    report_loss_prob: float = 0.0
    loss_seed: int = 0


class ASAttackerSpec:
    """An attack zombie's emission process at AS granularity.

    Continuous (``t_on=None``) or on-off with burst phase.  Follower
    behaviour (Section 7.3) is enabled with ``follower_d``: the zombie
    stops emitting ``d_follow`` seconds after a honeypot epoch starts
    and resumes when the epoch ends.
    """

    def __init__(
        self,
        attacker_id: int,
        asn: int,
        rate_pps: float,
        t_on: Optional[float] = None,
        t_off: Optional[float] = None,
        phase: float = 0.0,
        start: float = 0.0,
        follower_d: Optional[float] = None,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive (got {rate_pps})")
        if (t_on is None) != (t_off is None):
            raise ValueError("give both t_on and t_off or neither")
        if t_on is not None and (t_on <= 0 or t_off < 0):
            raise ValueError("need t_on > 0 and t_off >= 0")
        self.attacker_id = attacker_id
        self.asn = asn
        self.rate_pps = rate_pps
        self.t_on = t_on
        self.t_off = t_off
        self.phase = phase
        self.start = start
        self.follower_d = follower_d
        self.captured_at: Optional[float] = None
        # Bound for follower suppression lookups; set by the engine.
        self._schedule = None
        self._eps = 1e-9

    # ------------------------------------------------------------------
    def _pattern_next(self, after: float) -> float:
        """Next emission time >= after, ignoring capture/follower."""
        t0 = max(after, self.start)
        r = self.rate_pps
        if self.t_on is None:
            k = math.ceil((t0 - self.start) * r - self._eps)
            return self.start + max(k, 0) / r
        cycle = self.t_on + self.t_off
        first_burst = self.start + self.phase
        if t0 <= first_burst:
            return first_burst
        n = int((t0 - first_burst) // cycle)
        for c in (n, n + 1):
            b = first_burst + c * cycle
            e0 = max(t0, b)
            k = math.ceil((e0 - b) * r - self._eps)
            e = b + max(k, 0) / r
            if e - b <= self.t_on + self._eps:
                return e
        return first_burst + (n + 2) * cycle

    def next_emission(self, after: float) -> float:
        """Next packet emission time >= after (inf once captured)."""
        t = after
        for _ in range(10_000):
            if self.captured_at is not None and t >= self.captured_at:
                return _INF
            e = self._pattern_next(t)
            if self.captured_at is not None and e >= self.captured_at:
                return _INF
            if self.follower_d is None or self._schedule is None:
                return e
            # Follower: silent from (hp epoch start + d_follow) to epoch end.
            schedule = self._schedule
            epoch = schedule.epoch_index(max(e, schedule.start_time))
            if schedule.is_honeypot(0, epoch):
                ep_start, ep_end = schedule.epoch_bounds(epoch)
                if e >= ep_start + self.follower_d:
                    t = ep_end
                    continue
            return e
        return _INF  # pragma: no cover - pathological parameters


class InterASBackprop:
    """The inter-AS back-propagation engine.

    Parameters
    ----------
    topo:
        AS topology; the victim server pool lives in ``topo.victim_as``.
    schedule:
        Honeypot schedule of the victim server (Bernoulli abstraction
        or a full roaming schedule queried for one server index).
    attackers:
        The zombies (:class:`ASAttackerSpec`), each in a stub AS.
    progressive:
        Enable the progressive scheme's intermediate-AS list.
    deployment:
        Which ASs deploy the scheme (default: full deployment).
    """

    def __init__(
        self,
        topo: ASTopology,
        schedule: BernoulliSchedule | RoamingSchedule,
        attackers: List[ASAttackerSpec],
        config: Optional[InterASConfig] = None,
        progressive: bool = True,
        deployment: Optional[DeploymentMap] = None,
        sim: Optional[Simulator] = None,
        server_index: int = 0,
        telemetry=None,
    ) -> None:
        self.topo = topo
        self.schedule = schedule
        self.attackers = list(attackers)
        self.config = config or InterASConfig()
        self.progressive = progressive
        self.deployment = deployment or DeploymentMap()
        self.sim = sim or Simulator()
        self.server_index = server_index
        self.telemetry = telemetry
        # (asn, epoch) -> "as_session_open" journal event (telemetry only).
        self._as_journal: Dict[Tuple[int, int], object] = {}

        self.keyring = KeyRing()
        for a, b in topo.graph.edges:
            if self.deployment.deploys(a) and self.deployment.deploys(b):
                self.keyring.establish(a, b)
        self.hsms: Dict[int, HSM] = {
            asn: HSM(asn, topo.is_transit(asn), self.keyring)
            for asn in topo.graph.nodes
            if self.deployment.deploys(asn)
        }
        # Distances from the victim AS, and per-attacker paths.
        import networkx as nx

        self._dist = nx.single_source_shortest_path_length(
            topo.graph, topo.victim_as
        )
        self._paths: Dict[int, List[int]] = {}
        for atk in self.attackers:
            self._paths[atk.attacker_id] = topo.path_from_victim(atk.asn)
            atk._schedule = schedule if atk.follower_d is not None else None

        self.frontier_list = IntermediateASList(
            self.config.rho,
            journal=telemetry.journal if telemetry is not None else None,
        )
        self._loss_rng = RngRegistry(self.config.loss_seed).stream("interas.loss")
        self.captures: Dict[int, float] = {}
        self.messages = {
            "requests": 0,
            "cancels": 0,
            "reports": 0,
            "bgp_hops": 0,
            "resumes": 0,
        }
        # (asn, epoch) -> session alive; stub sessions survive cancels.
        self._alive: Set[Tuple[int, int]] = set()
        self._children: Dict[Tuple[int, int], Set[int]] = {}
        self._roots: Dict[int, Set[int]] = {}
        self._retained_stubs: Set[int] = set()
        # Epochs whose cancel wave has been issued: requests still in
        # flight must not create sessions that would outlive the epoch.
        self._cancelled_epochs: Set[int] = set()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule epoch processing; call once before ``run``."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_at(self.schedule.start_time, self._epoch_boundary)

    def run(self, until: float) -> None:
        self.start()
        self.sim.run(until)

    @property
    def all_captured(self) -> bool:
        return len(self.captures) == len(self.attackers)

    def capture_times(self) -> Dict[int, float]:
        return dict(self.captures)

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def _epoch_boundary(self) -> None:
        now = self.sim.now
        epoch = self.schedule.epoch_index(now + 1e-9)
        ep_start, ep_end = self.schedule.epoch_bounds(epoch)
        if self.telemetry is not None:
            self.telemetry.journal.record(
                "epoch_roll",
                epoch=epoch,
                honeypot=bool(
                    self.schedule.is_honeypot(self.server_index, epoch)
                ),
            )
        # Wrap up the previous epoch.
        if epoch > 1 and self.schedule.is_honeypot(self.server_index, epoch - 1):
            self._cancel_epoch(epoch - 1)
            if self.progressive:
                flush_at = now + self._report_flush_delay()
                self.sim.schedule_at(flush_at, self.frontier_list.end_epoch)
        # Run the current epoch.
        if self.schedule.is_honeypot(self.server_index, epoch):
            self._initiate(epoch, ep_start, ep_end)
        # Prepare resume pre-sends for the next epoch.
        if self.progressive and self.schedule.is_honeypot(self.server_index, epoch + 1):
            prep_at = ep_start + self.config.prepare_point * self.schedule.epoch_len
            self.sim.schedule_at(max(prep_at, now), self._prepare_resumes, epoch + 1)
        self.sim.schedule_at(ep_end, self._epoch_boundary)

    def _report_flush_delay(self) -> float:
        """How long after a cancel wave the last frontier report can
        arrive: cancel wave + an in-flight request (τ) + report travel."""
        diameter = max(self._dist.values(), default=0)
        return 2 * diameter * self.config.per_hop_delay + self.config.tau + 1e-3

    def _initiate(self, epoch: int, ep_start: float, ep_end: float) -> None:
        """Victim-side trigger: request to the home AS HSM upon the
        first attack packet received during the honeypot epoch."""
        cfg = self.config
        arrival = _INF
        for atk in self.attackers:
            if atk.attacker_id in self.captures:
                continue
            lag = self._dist[atk.asn] * cfg.per_hop_delay
            e = atk.next_emission(max(ep_start - lag, 0.0))
            arrival = min(arrival, e + lag)
        if arrival >= ep_end or arrival == _INF:
            return  # no attack packet hits the honeypot this epoch
        self._roots.setdefault(epoch, set()).add(self.topo.victim_as)
        self.sim.schedule_at(
            max(arrival + cfg.server_to_hsm_delay, self.sim.now),
            self._create_session,
            self.topo.victim_as,
            epoch,
            None,
        )

    def _prepare_resumes(self, next_epoch: int) -> None:
        """Pre-send resume requests so frontier sessions are live at the
        start of the next honeypot epoch (Section 6)."""
        cfg = self.config
        ep_start, _ = self.schedule.epoch_bounds(next_epoch)
        for asn, t_a in self.frontier_list.resume_targets():
            send_at = max(ep_start - (t_a + cfg.tau), self.sim.now)
            create_at = send_at + t_a + cfg.tau
            self.messages["resumes"] += 1
            if self.telemetry is not None:
                self.telemetry.journal.record(
                    "progressive_resume", asn=asn, epoch=next_epoch
                )
            self._roots.setdefault(next_epoch, set()).add(asn)
            self.sim.schedule_at(create_at, self._create_session, asn, next_epoch, None)

    # ------------------------------------------------------------------
    # Session creation and propagation
    # ------------------------------------------------------------------
    def _create_session(self, asn: int, epoch: int, from_as: Optional[int]) -> None:
        now = self.sim.now
        # A request that was in flight when the epoch's cancel wave was
        # issued creates a session that is immediately torn down (the
        # cancel follows it on the same channel).  The AS therefore
        # relays nothing upstream — in the progressive scheme a transit
        # AS in this position is exactly a stalled frontier and reports
        # itself to the server (Section 6).
        if epoch in self._cancelled_epochs:
            if (
                self.progressive
                and self.topo.is_transit(asn)
                and self.deployment.deploys(asn)
            ):
                self._send_report(asn)
            return
        hsm = self.hsms.get(asn)
        if hsm is None:
            return
        key = (asn, epoch)
        if key in self._alive:
            return
        if from_as is not None:
            from_hsm = self.hsms[from_as]
            msg = from_hsm.make_request_for(VICTIM_ADDR, epoch, asn)
        else:
            msg = HoneypotRequest(VICTIM_ADDR, epoch, origin_as=asn)
        sess = hsm.accept_request(msg, from_as, now)
        if sess is None:
            return
        self._alive.add(key)
        self._children.setdefault(key, set())
        tele = self.telemetry
        if tele is not None:
            open_ev = tele.journal.record(
                "as_session_open",
                parent=tele.open_session(VICTIM_ADDR, epoch),
                asn=asn,
                from_as=-1 if from_as is None else from_as,
            )
            self._as_journal[key] = open_ev
            # accept_request just installed the HSM's diversion filter
            # for this (new) session.
            tele.journal.record("hsm_diversion", parent=open_ev, asn=asn)
        if not self.topo.is_transit(asn):
            if asn == self.topo.victim_as:
                self._arm_propagation(asn, epoch, sess)
            else:
                self._retained_stubs.add(asn)
                self._arm_stub_capture(asn, epoch)
        else:
            self._arm_propagation(asn, epoch, sess)

    def _arm_propagation(self, asn: int, epoch: int, sess) -> None:
        """Schedule upstream propagation per contributing neighbor."""
        now = self.sim.now
        cfg = self.config
        by_upstream: Dict[int, float] = {}
        for atk in self.attackers:
            if atk.attacker_id in self.captures or atk.asn == asn:
                continue
            path = self._paths[atk.attacker_id]
            if asn not in path:
                continue
            idx = path.index(asn)
            upstream = path[idx + 1]
            hops_from_atk = (len(path) - 1) - idx
            lag = hops_from_atk * cfg.per_hop_delay
            e = atk.next_emission(max(now - lag, 0.0))
            if e == _INF:
                continue
            arrival = e + lag
            prev = by_upstream.get(upstream, _INF)
            if arrival < prev:
                by_upstream[upstream] = arrival
        for upstream, arrival in by_upstream.items():
            self.sim.schedule_at(
                max(arrival, now), self._propagate, asn, epoch, upstream
            )

    def _propagate(self, asn: int, epoch: int, upstream: int) -> None:
        """A honeypot-traffic packet arrived from ``upstream``'s
        direction while the session is active: relay the request."""
        if not ((asn, epoch) in self._alive or asn in self._retained_stubs):
            return
        hsm = self.hsms[asn]
        sess = hsm.sessions.get(VICTIM_ADDR)
        if sess is None or sess.epoch != epoch:
            return
        if upstream in sess.propagated_to:
            return
        sess.record_ingress(upstream)
        sess.mark_propagated(upstream)
        now = self.sim.now
        cfg = self.config
        key = (asn, epoch)
        tele = self.telemetry
        if tele is not None:
            ev_parent = self._as_journal.get(key)
            tele.journal.record(
                "ingress_identified", parent=ev_parent, asn=asn,
                upstream=upstream,
            )
            tele.journal.record(
                "inter_as_hop", parent=ev_parent, from_as=asn, to_as=upstream
            )
        if self.deployment.deploys(upstream):
            self.messages["requests"] += 1
            self._children[key].add(upstream)
            self.sim.schedule_at(
                now + cfg.tau, self._create_session, upstream, epoch, asn
            )
        else:
            # Deployment gap: piggyback the request on routing
            # announcements flooded to all upstream ASs until deploying
            # ASs are reached (Section 5.3).
            frontier = self.deployment.broadcast_frontier(
                self.topo.graph, upstream, asn
            )
            for f_asn, legacy_hops in frontier:
                self.messages["bgp_hops"] += legacy_hops
                self._children[key].add(f_asn)
                self.sim.schedule_at(
                    now + cfg.tau + legacy_hops * cfg.bgp_hop_delay,
                    self._create_session,
                    f_asn,
                    epoch,
                    None,
                )

    # ------------------------------------------------------------------
    # Stub capture (intra-AS summarized)
    # ------------------------------------------------------------------
    def _arm_stub_capture(self, asn: int, epoch: int) -> None:
        now = self.sim.now
        cfg = self.config
        for atk in self.attackers:
            if atk.asn != asn or atk.attacker_id in self.captures:
                continue
            e = atk.next_emission(now)
            if e == _INF:
                continue
            self.sim.schedule_at(
                e + cfg.intra_as_capture_delay, self._capture, atk.attacker_id, asn
            )

    def _capture(self, attacker_id: int, asn: int) -> None:
        if attacker_id in self.captures or asn not in self._retained_stubs:
            return
        now = self.sim.now
        self.captures[attacker_id] = now
        for atk in self.attackers:
            if atk.attacker_id == attacker_id:
                atk.captured_at = now
                break
        tele = self.telemetry
        if tele is not None:
            epoch = self.schedule.epoch_index(
                max(now, self.schedule.start_time) + 1e-9
            )
            tele.journal.record(
                "port_close",
                parent=self._as_journal.get((asn, epoch)),
                host=attacker_id,
                asn=asn,
            )
        # Retire the stub's retained session once its attackers are done.
        if all(
            a.attacker_id in self.captures
            for a in self.attackers
            if a.asn == asn
        ):
            self._retained_stubs.discard(asn)
            self.hsms[asn].drop_session(VICTIM_ADDR)
            retired = {k for k in self._alive if k[0] == asn}
            self._alive -= retired
            if self.telemetry is not None:
                # Sorted so close order (and event ids downstream)
                # never depends on set iteration order.
                for key in sorted(retired):
                    ev = self._as_journal.pop(key, None)
                    if ev is not None:
                        self.telemetry.journal.record(
                            "as_session_close", parent=ev, captured=True
                        )

    # ------------------------------------------------------------------
    # Cancels and frontier reports
    # ------------------------------------------------------------------
    def _cancel_epoch(self, epoch: int) -> None:
        """Server-issued cancel at the end of a honeypot epoch: walk
        down the request trees (roots: victim AS + resumed frontier
        ASs), relaying cancels along the recorded children."""
        self._cancelled_epochs.add(epoch)
        seen: Set[int] = set()
        # Sorted: the cancel walk schedules events and counts messages,
        # so root order must not depend on set iteration order.
        for asn in sorted(self._roots.pop(epoch, set())):
            self.messages["cancels"] += 1
            self._cancel_session(asn, epoch, self.sim.now, seen)

    def _cancel_session(
        self, asn: int, epoch: int, at: float, seen: Set[int]
    ) -> None:
        if asn in seen:
            return
        seen.add(asn)
        self.sim.schedule_at(at, self._apply_cancel, asn, epoch)
        for child in sorted(self._children.get((asn, epoch), set())):
            self.messages["cancels"] += 1
            self._cancel_session(child, epoch, at + self.config.per_hop_delay, seen)

    def _apply_cancel(self, asn: int, epoch: int) -> None:
        key = (asn, epoch)
        if key not in self._alive:
            return
        hsm = self.hsms[asn]
        sess = hsm.sessions.get(VICTIM_ADDR)
        stalled = sess is not None and sess.epoch == epoch and sess.stalled
        if asn in self._retained_stubs:
            # Non-transit AS still running intra-AS traceback: retain.
            return
        self._alive.discard(key)
        self._children.pop(key, None)
        if self.telemetry is not None:
            ev = self._as_journal.pop(key, None)
            if ev is not None:
                self.telemetry.journal.record(
                    "as_session_close", parent=ev, stalled=stalled
                )
        if sess is not None and sess.epoch == epoch:
            hsm.drop_session(VICTIM_ADDR)
        # Progressive frontier report from stalled *transit* ASs.
        if self.progressive and stalled and self.topo.is_transit(asn):
            self._send_report(asn)

    def _send_report(self, asn: int) -> None:
        """A stalled transit AS reports its identity + timestamp to S
        (possibly lost in transit when failure injection is enabled)."""
        self.messages["reports"] += 1
        lost = (
            self.config.report_loss_prob > 0.0
            and self._loss_rng.random() < self.config.report_loss_prob
        )
        if self.telemetry is not None:
            self.telemetry.journal.record("frontier_report", asn=asn, lost=lost)
        if lost:
            self.messages["reports_lost"] = self.messages.get("reports_lost", 0) + 1
            return
        t_a = self._dist[asn] * self.config.per_hop_delay
        self.sim.schedule(t_a, self._receive_report, asn, t_a)

    def _receive_report(self, asn: int, t_a: float) -> None:
        self.frontier_list.on_report(asn, t_a)
        # If a honeypot epoch is already underway (consecutive honeypot
        # epochs), resume immediately rather than waiting a full epoch.
        now = self.sim.now
        epoch = self.schedule.epoch_index(max(now, self.schedule.start_time) + 1e-9)
        if (
            self.schedule.is_honeypot(self.server_index, epoch)
            and (asn, epoch) not in self._alive
        ):
            self.messages["resumes"] += 1
            self._roots.setdefault(epoch, set()).add(asn)
            self.sim.schedule(
                t_a + self.config.tau, self._create_session, asn, epoch, None
            )
