"""Attack hosts: spoofing zombies.

The attack model (Section 3): attacks are launched from ``n_a`` zombie
hosts sending spoofed packets destined for the servers.  "Each attack
host picks a server among the five servers uniformly at random and
keeps on attacking it" (Section 8.3).

Spoofed source addresses are drawn from a reserved address range
disjoint from real node addresses, so a spoofed packet never matches a
legitimate client — mirroring randomly forged 32-bit sources.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sim.engine import Simulator
from ..sim.node import Host
from .sources import CBRSource, OnOffSource

__all__ = ["SPOOF_BASE", "make_spoofer", "AttackHost", "FollowerAttackHost"]

# Spoofed addresses live at and above this offset; no topology will
# ever allocate node ids this large.
SPOOF_BASE = 1_000_000_000
SPOOF_RANGE = 1_000_000


def make_spoofer(rng: np.random.Generator):
    """Return a claimed-source generator drawing random spoofed addresses."""

    def spoof() -> int:
        return SPOOF_BASE + int(rng.integers(SPOOF_RANGE))

    return spoof


class AttackHost:
    """A zombie: fixed random target server, CBR or on-off, spoofing.

    Parameters
    ----------
    servers:
        Addresses of the victim server pool; one is chosen uniformly
        at random and attacked for the whole run.
    rate_bps:
        Attack rate of this zombie.
    t_on, t_off:
        If both given, the zombie runs an on-off attack; otherwise it
        sends continuously.
    spoof:
        Whether to forge source addresses (the paper's attackers do).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        servers: Sequence[int],
        rate_bps: float,
        rng: np.random.Generator,
        packet_size: int = 1000,
        t_on: Optional[float] = None,
        t_off: Optional[float] = None,
        spoof: bool = True,
        jitter: float = 0.0,
    ) -> None:
        if not servers:
            raise ValueError("need at least one target server")
        self.host = host
        self.target = int(servers[int(rng.integers(len(servers)))])
        src_fn = make_spoofer(rng) if spoof else None
        self.cbr = CBRSource(
            sim,
            host,
            self.target,
            rate_bps,
            packet_size,
            flow=("attack", host.addr),
            src_fn=src_fn,
            jitter=jitter,
            rng=rng,
        )
        self._onoff: Optional[OnOffSource] = None
        if t_on is not None and t_off is not None:
            # De-synchronize bursts across zombies with a random phase.
            phase = float(rng.uniform(0.0, t_on + t_off))
            self._onoff = OnOffSource(sim, self.cbr, t_on, t_off, phase=phase)
        elif (t_on is None) != (t_off is None):
            raise ValueError("give both t_on and t_off or neither")

    def start(self, at: Optional[float] = None) -> None:
        (self._onoff or self.cbr).start(at)

    def stop(self) -> None:
        (self._onoff or self.cbr).stop()

    @property
    def packets_sent(self) -> int:
        return self.cbr.packets_sent


class FollowerAttackHost:
    """Follower attack (Section 7.3): reacts to honeypot epochs.

    A follower stops sending ``d_follow`` seconds after its target
    enters a honeypot epoch (it needs that long to *detect* the switch,
    e.g. by noticing the lack of responses) and resumes once the target
    is active again.  With d_follow > (1/r + τ), back-propagation still
    makes at least one hop of progress per honeypot epoch.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        target: int,
        rate_bps: float,
        d_follow: float,
        is_target_honeypot,  # callable () -> bool
        poll_interval: float = 0.1,
        packet_size: int = 1000,
        rng: Optional[np.random.Generator] = None,
        jitter: float = 0.0,
    ) -> None:
        if d_follow < 0:
            raise ValueError("d_follow must be >= 0")
        self.sim = sim
        self.d_follow = d_follow
        self.is_target_honeypot = is_target_honeypot
        self.poll_interval = poll_interval
        src_fn = make_spoofer(rng) if rng is not None else None
        self.cbr = CBRSource(
            sim, host, target, rate_bps, packet_size,
            flow=("attack", host.addr), src_fn=src_fn,
            jitter=jitter, rng=rng,
        )
        self._running = False
        self._honeypot_seen_at: Optional[float] = None
        # Pending lifecycle handles: stop() must cancel both, otherwise
        # a stop() before _begin() fires leaves the stale start event
        # queued (it would re-arm a duplicate poll timer on restart) and
        # a stop() after _begin() leaves the poll timer running forever.
        self._start_event = None
        self._poll_timer = None

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        when = self.sim.now if at is None else at
        self._start_event = self.sim.schedule_at(max(when, self.sim.now), self._begin)

    def _begin(self) -> None:
        # The start event has fired; stop() has nothing to cancel.
        self._start_event = None
        if not self._running:
            return
        self.cbr.start()
        if self._poll_timer is None:
            self._poll_timer = self.sim.every(self.poll_interval, self._poll)

    def stop(self) -> None:
        self._running = False
        if self._start_event is not None:
            self._start_event.cancel()
            self._start_event = None
        if self._poll_timer is not None:
            self._poll_timer.cancel()
            self._poll_timer = None
        self.cbr.stop()

    @property
    def packets_sent(self) -> int:
        return self.cbr.packets_sent

    def _poll(self) -> None:
        if not self._running:
            return
        if self.is_target_honeypot():
            if self._honeypot_seen_at is None:
                self._honeypot_seen_at = self.sim.now
            # The follower reacts d_follow seconds after the switch.
            if self.cbr.running and self.sim.now - self._honeypot_seen_at >= self.d_follow:
                self.cbr.stop()
        else:
            self._honeypot_seen_at = None
            if not self.cbr.running:
                self.cbr.start()
