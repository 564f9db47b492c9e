"""Pluggable adversary policies (the ``AttackerPolicy`` interface).

The paper evaluates continuous, on-off, and follower attackers
(Sections 7.3, 8.3); modern evaluations of this defense class add
adaptive adversaries and reflective amplification (SoK on amplification
honeypots; BGPeek-a-Boo's aware-vs-unaware attacker split).  This
module turns the hard-coded zombie zoo into strategy objects: a policy
decides *when* a bot emits (churn, on-off, backoff), *where* it aims
(fixed target, probing re-targeting, amplifier bounce), and *how* it
spoofs — while the scenario stays a single policy-agnostic loop.

Determinism contract:

* Policies draw exclusively from the two :class:`~repro.sim.rng.RngRegistry`
  streams handed to them in :class:`BotEnv` (``rng`` for the legacy
  per-bot draws, ``policy_rng`` for policy-level decisions), so
  ``reprolint`` stays clean and same-seed runs are byte-identical.
* :class:`ContinuousPolicy` *is* the seed attacker: it constructs a
  plain :class:`~repro.traffic.attacker.AttackHost` with the exact same
  draw order (target pick, spoofer, on-off phase), which the
  legacy-equivalence suite pins byte-for-byte against pre-refactor
  journal fixtures.
* Adaptive decisions are journaled as ``attack_policy`` events (never
  for the legacy continuous/on-off path) so a replayed journal shows
  why a bot went dark or re-targeted.

Adaptive policies read the defense through :class:`DefenseProbes` —
side-effect-free oracles (is this server a honeypot right now? is my
subtree captured?) that model an attacker observing response behavior,
exactly the knowledge the paper grants its follower attacker.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..sim.engine import Event, Simulator, Timer
from ..sim.node import Host
from .attacker import AttackHost, FollowerAttackHost, make_spoofer
from .sources import CBRSource

__all__ = [
    "AttackerPolicy",
    "AwareAttackHost",
    "BotEnv",
    "ChurnAttackHost",
    "ChurnPolicy",
    "ContinuousPolicy",
    "DefenseProbes",
    "FollowerPolicy",
    "HoneypotAwarePolicy",
    "NULL_PROBES",
    "POLICY_NAMES",
    "ProbingAttackHost",
    "ProbingPolicy",
    "ReflectionAttackHost",
    "ReflectionPolicy",
    "make_policy",
]


def _never_honeypot(server_addr: int) -> bool:  # noqa: ARG001
    return False


def _never_captured(host_addr: int) -> bool:  # noqa: ARG001
    return False


def _no_captures() -> int:
    return 0


@dataclass(frozen=True)
class DefenseProbes:
    """Read-only oracles adaptive attackers may consult.

    These model attacker-side *observations* (a honeypot drops service
    responses; a captured subtree stops carrying traffic), packaged as
    callables so the traffic layer never imports the defense layer.
    All three must be side-effect free: bots poll them from timers and
    the journal-identity guarantees rest on probes never perturbing
    defense state.
    """

    is_server_honeypot: Callable[[int], bool] = _never_honeypot
    subtree_captured: Callable[[int], bool] = _never_captured
    captures_total: Callable[[], int] = _no_captures


#: Probes for scenarios without an observable defense ("none"/"pushback").
NULL_PROBES = DefenseProbes()


@dataclass
class BotEnv:
    """Everything a policy needs to spawn one bot on one leaf host.

    ``rng`` is the legacy shared attacker stream (target pick, spoofed
    sources, on-off phase, jitter) — continuous/on-off bots must draw
    from it in the seed order.  ``policy_rng`` is a *separate* stream
    for policy-level decisions (churn gaps, re-target picks, amplifier
    choice) so adaptive draws never shift the legacy sequence.
    """

    sim: Simulator
    host: Host
    servers: Tuple[int, ...]
    rate_bps: float
    packet_size: int
    jitter: float
    rng: np.random.Generator
    policy_rng: np.random.Generator
    probes: DefenseProbes = NULL_PROBES
    amplifiers: Tuple[int, ...] = ()
    journal: Optional[Any] = None

    def note(self, action: str, **attrs: Any) -> None:
        """Journal one ``attack_policy`` decision (no-op untelemetered)."""
        if self.journal is not None:
            self.journal.record(
                "attack_policy", host=int(self.host.addr), action=action, **attrs
            )


class AttackerPolicy(ABC):
    """A strategy that turns a leaf host into an attacking bot.

    ``spawn`` returns a *bot*: any object with ``start(at=None)``,
    ``stop()``, and a ``packets_sent`` property — the same duck type
    the scenario has always driven.
    """

    name: str = "abstract"

    @abstractmethod
    def spawn(self, env: BotEnv) -> Any:
        """Build (but do not start) one bot for ``env.host``."""


# ----------------------------------------------------------------------
# Legacy policies: continuous / on-off / follower, refactored onto the
# interface without changing a single RNG draw.
# ----------------------------------------------------------------------
class ContinuousPolicy(AttackerPolicy):
    """The seed attacker: fixed random target, CBR (or on-off) spoofing.

    Byte-identity is load-bearing here: this spawns a plain
    :class:`AttackHost` with the seed argument order, so refactored
    scenarios replay pre-refactor journals exactly.
    """

    name = "continuous"

    def __init__(
        self, t_on: Optional[float] = None, t_off: Optional[float] = None
    ) -> None:
        self.t_on = t_on
        self.t_off = t_off

    def spawn(self, env: BotEnv) -> AttackHost:
        return AttackHost(
            env.sim,
            env.host,
            env.servers,
            env.rate_bps,
            env.rng,
            env.packet_size,
            t_on=self.t_on,
            t_off=self.t_off,
            jitter=env.jitter,
        )


class FollowerPolicy(AttackerPolicy):
    """The paper's follower (Section 7.3) behind the policy interface.

    Target pick uses the same ``env.rng`` draw as :class:`AttackHost`;
    the honeypot oracle comes from :class:`DefenseProbes`.
    """

    name = "follower"

    def __init__(self, d_follow: float = 1.0, poll_interval: float = 0.1) -> None:
        self.d_follow = d_follow
        self.poll_interval = poll_interval

    def spawn(self, env: BotEnv) -> FollowerAttackHost:
        target = int(env.servers[int(env.rng.integers(len(env.servers)))])
        probe = env.probes.is_server_honeypot
        return FollowerAttackHost(
            env.sim,
            env.host,
            target,
            env.rate_bps,
            self.d_follow,
            lambda: probe(target),
            poll_interval=self.poll_interval,
            packet_size=env.packet_size,
            rng=env.rng,
            jitter=env.jitter,
        )


# ----------------------------------------------------------------------
# Adaptive bots
# ----------------------------------------------------------------------
class _AdaptiveBot:
    """Shared lifecycle: deferred begin, cancellable timers, clean stop."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._running = False
        self._start_event: Optional[Event] = None
        self._timer: Optional[Timer] = None

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        when = self.sim.now if at is None else at
        self._start_event = self.sim.schedule_at(max(when, self.sim.now), self._enter)

    def _enter(self) -> None:
        # The start event has fired; stop() has nothing to cancel.
        self._start_event = None
        if not self._running:
            return
        self._begin()

    def stop(self) -> None:
        self._running = False
        if self._start_event is not None:
            self._start_event.cancel()
            self._start_event = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._halt()

    # Subclasses arm their CBR/timers here and tear them down in _halt.
    def _begin(self) -> None:
        raise NotImplementedError

    def _halt(self) -> None:
        raise NotImplementedError


class AwareAttackHost(_AdaptiveBot):
    """Honeypot-aware avoidance: backs off on captures, goes dark when
    its own subtree is hit.

    The bot polls :class:`DefenseProbes`: any *new* capture anywhere
    triggers a temporary backoff of ``backoff`` seconds (the botnet
    observed a peer disappearing); a capture in the bot's own subtree
    (its access router) makes it go permanently dark.  Once dark it
    never emits again — the monotonicity property the test suite pins.
    """

    def __init__(
        self, env: BotEnv, backoff: float = 8.0, poll_interval: float = 0.5
    ) -> None:
        super().__init__(env.sim)
        self.env = env
        self.backoff = backoff
        self.poll_interval = poll_interval
        self.target = int(env.servers[int(env.rng.integers(len(env.servers)))])
        self.cbr = CBRSource(
            env.sim,
            env.host,
            self.target,
            env.rate_bps,
            env.packet_size,
            flow=("attack", env.host.addr),
            src_fn=make_spoofer(env.rng),
            jitter=env.jitter,
            rng=env.rng,
        )
        self.dark = False
        self._captures_seen = 0
        self._resume_at = 0.0

    def _begin(self) -> None:
        if self.dark:
            return
        self.cbr.start()
        self._timer = self.sim.every(self.poll_interval, self._poll)

    def _halt(self) -> None:
        self.cbr.stop()

    def _poll(self) -> None:
        if not self._running or self.dark:
            return
        env = self.env
        if env.probes.subtree_captured(env.host.addr):
            self.dark = True
            self.cbr.stop()
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            env.note("go_dark", captures=int(env.probes.captures_total()))
            return
        total = int(env.probes.captures_total())
        if total > self._captures_seen:
            self._captures_seen = total
            self._resume_at = self.sim.now + self.backoff
            if self.cbr.running:
                self.cbr.stop()
                env.note("backoff", captures=total, until=self._resume_at)
        elif not self.cbr.running and self.sim.now >= self._resume_at:
            self.cbr.start()
            env.note("resume", captures=total)

    @property
    def packets_sent(self) -> int:
        return self.cbr.packets_sent


class ProbingAttackHost(_AdaptiveBot):
    """Schedule-probing: re-targets away from servers observed to be
    honeypots (aware enumeration, vs the follower's single target).

    Every ``probe_interval`` the bot checks its current target; if the
    target looks like a honeypot it re-aims uniformly (``policy_rng``)
    among the currently-active servers, and pauses entirely when every
    server is a honeypot.
    """

    def __init__(self, env: BotEnv, probe_interval: float = 2.0) -> None:
        super().__init__(env.sim)
        self.env = env
        self.probe_interval = probe_interval
        self.target = int(env.servers[int(env.rng.integers(len(env.servers)))])
        self.retargets = 0
        self.cbr = CBRSource(
            env.sim,
            env.host,
            self._current_target,
            env.rate_bps,
            env.packet_size,
            flow=("attack", env.host.addr),
            src_fn=make_spoofer(env.rng),
            jitter=env.jitter,
            rng=env.rng,
        )

    def _current_target(self) -> int:
        return self.target

    def _begin(self) -> None:
        self.cbr.start()
        self._timer = self.sim.every(self.probe_interval, self._probe)

    def _halt(self) -> None:
        self.cbr.stop()

    def _probe(self) -> None:
        if not self._running:
            return
        env = self.env
        if env.probes.is_server_honeypot(self.target):
            active = [
                s for s in env.servers if not env.probes.is_server_honeypot(s)
            ]
            if active:
                old = self.target
                self.target = int(active[int(env.policy_rng.integers(len(active)))])
                self.retargets += 1
                env.note("retarget", previous=old, target=self.target)
                if not self.cbr.running:
                    self.cbr.start()
            elif self.cbr.running:
                # Every server looks like a trap: hold fire this round.
                self.cbr.stop()
                env.note("hold")
        elif not self.cbr.running:
            self.cbr.start()

    @property
    def packets_sent(self) -> int:
        return self.cbr.packets_sent


class ChurnAttackHost(_AdaptiveBot):
    """Botnet churn: the bot joins and leaves the attack mid-run.

    Online/offline dwell times are exponential draws (means
    ``churn_on``/``churn_off``) from ``policy_rng``.  Joins and leaves
    strictly alternate and the underlying CBR never double-starts —
    the state-machine invariants the property suite exercises.
    """

    def __init__(
        self, env: BotEnv, churn_on: float = 6.0, churn_off: float = 3.0
    ) -> None:
        super().__init__(env.sim)
        self.env = env
        self.churn_on = churn_on
        self.churn_off = churn_off
        target = int(env.servers[int(env.rng.integers(len(env.servers)))])
        self.cbr = CBRSource(
            env.sim,
            env.host,
            target,
            env.rate_bps,
            env.packet_size,
            flow=("attack", env.host.addr),
            src_fn=make_spoofer(env.rng),
            jitter=env.jitter,
            rng=env.rng,
        )
        self.joins = 0
        self.leaves = 0
        self._flip_event: Optional[Event] = None

    @property
    def online(self) -> bool:
        return self.joins > self.leaves

    def _begin(self) -> None:
        self._join()

    def _halt(self) -> None:
        if self._flip_event is not None:
            self._flip_event.cancel()
            self._flip_event = None
        self.cbr.stop()

    def _join(self) -> None:
        self._flip_event = None
        if not self._running or self.online:
            return
        self.joins += 1
        self.cbr.start()
        self.env.note("join", n=self.joins)
        dwell = float(self.env.policy_rng.exponential(self.churn_on))
        self._flip_event = self.sim.schedule(dwell, self._leave)

    def _leave(self) -> None:
        self._flip_event = None
        if not self._running or not self.online:
            return
        self.leaves += 1
        self.cbr.stop()
        self.env.note("leave", n=self.leaves)
        dwell = float(self.env.policy_rng.exponential(self.churn_off))
        self._flip_event = self.sim.schedule(dwell, self._join)

    @property
    def packets_sent(self) -> int:
        return self.cbr.packets_sent


class ReflectionAttackHost:
    """Reflection/amplification: triggers bounced off an amplifier.

    The bot sends *trigger* packets (flow ``("trigger", addr)``) to one
    amplifier leaf, spoofing the victim server's address as the source;
    the amplifier (:class:`~repro.traffic.amplifier.AmplifierApp`)
    reflects ``amplification`` response packets per trigger toward the
    victim under its *own* true address.  The back-propagated signature
    therefore points at the reflector, not this bot — the defense needs
    the amplifier-side trigger log for stage two of the traceback.

    The trigger rate is ``rate_bps / amplification`` so the victim-side
    flood matches the bot's nominal attack rate.
    """

    def __init__(self, env: BotEnv, amplification: float = 5.0) -> None:
        if not env.amplifiers:
            raise ValueError("reflection policy needs amplifier nodes (n_amplifiers)")
        if amplification < 1.0:
            raise ValueError(f"amplification must be >= 1 (got {amplification})")
        self.env = env
        self.victim = int(env.servers[int(env.rng.integers(len(env.servers)))])
        self.amplifier = int(
            env.amplifiers[int(env.policy_rng.integers(len(env.amplifiers)))]
        )
        victim = self.victim

        def _spoof_victim() -> int:
            return victim

        self.cbr = CBRSource(
            env.sim,
            env.host,
            self.amplifier,
            env.rate_bps / amplification,
            env.packet_size,
            flow=("trigger", env.host.addr),
            src_fn=_spoof_victim,
            jitter=env.jitter,
            rng=env.rng,
        )
        env.note("reflect_via", amplifier=self.amplifier, victim=self.victim)

    def start(self, at: Optional[float] = None) -> None:
        self.cbr.start(at)

    def stop(self) -> None:
        self.cbr.stop()

    @property
    def packets_sent(self) -> int:
        return self.cbr.packets_sent


# ----------------------------------------------------------------------
# Policy classes over the adaptive bots
# ----------------------------------------------------------------------
class HoneypotAwarePolicy(AttackerPolicy):
    name = "aware"

    def __init__(self, backoff: float = 8.0, poll_interval: float = 0.5) -> None:
        self.backoff = backoff
        self.poll_interval = poll_interval

    def spawn(self, env: BotEnv) -> AwareAttackHost:
        return AwareAttackHost(env, self.backoff, self.poll_interval)


class ProbingPolicy(AttackerPolicy):
    name = "probing"

    def __init__(self, probe_interval: float = 2.0) -> None:
        self.probe_interval = probe_interval

    def spawn(self, env: BotEnv) -> ProbingAttackHost:
        return ProbingAttackHost(env, self.probe_interval)


class ChurnPolicy(AttackerPolicy):
    name = "churn"

    def __init__(self, churn_on: float = 6.0, churn_off: float = 3.0) -> None:
        self.churn_on = churn_on
        self.churn_off = churn_off

    def spawn(self, env: BotEnv) -> ChurnAttackHost:
        return ChurnAttackHost(env, self.churn_on, self.churn_off)


class ReflectionPolicy(AttackerPolicy):
    name = "reflection"

    def __init__(self, amplification: float = 5.0) -> None:
        self.amplification = amplification

    def spawn(self, env: BotEnv) -> ReflectionAttackHost:
        return ReflectionAttackHost(env, self.amplification)


POLICY_NAMES: Tuple[str, ...] = (
    "continuous",
    "onoff",
    "follower",
    "aware",
    "probing",
    "churn",
    "reflection",
)


def make_policy(
    name: str,
    *,
    t_on: Optional[float] = None,
    t_off: Optional[float] = None,
    d_follow: float = 1.0,
    aware_backoff: float = 8.0,
    probe_interval: float = 2.0,
    churn_on: float = 6.0,
    churn_off: float = 3.0,
    amplification: float = 5.0,
) -> AttackerPolicy:
    """Build a policy by name with the scenario's knobs.

    ``"continuous"`` passes ``t_on``/``t_off`` through (both set =>
    the seed on-off attacker); ``"onoff"`` requires bursts and defaults
    them to 5 s / 5 s when unset.
    """
    if name == "continuous":
        return ContinuousPolicy(t_on=t_on, t_off=t_off)
    if name == "onoff":
        return ContinuousPolicy(
            t_on=5.0 if t_on is None else t_on,
            t_off=5.0 if t_off is None else t_off,
        )
    if name == "follower":
        return FollowerPolicy(d_follow=d_follow)
    if name == "aware":
        return HoneypotAwarePolicy(backoff=aware_backoff)
    if name == "probing":
        return ProbingPolicy(probe_interval=probe_interval)
    if name == "churn":
        return ChurnPolicy(churn_on=churn_on, churn_off=churn_off)
    if name == "reflection":
        return ReflectionPolicy(amplification=amplification)
    raise ValueError(
        f"unknown attacker policy {name!r}; choose from {', '.join(POLICY_NAMES)}"
    )
