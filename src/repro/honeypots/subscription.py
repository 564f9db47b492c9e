"""Client subscription: time-based roaming keys.

"Upon subscription to the service, each legitimate client is assigned a
roaming key K_t from the hash chain, with a varying value of t
according to each client's trust level and/or other policies.  K_t acts
as a time-based token: it allows the client to track the service up to
and including epoch t."  (Section 4)

The client derives the key of any epoch i <= t by hashing K_t forward
(t - i) times, computes the epoch's active set with it, and contacts an
active server.  When the subscription expires (current epoch > t), the
client renews with the subscription service.  Clients keep a loosely
synchronized clock: a bounded offset from true time (|offset| <= delta
by assumption) that the pool's guard bands absorb.  The resynchronization
that keeps the offset bounded is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from ..crypto.hashchain import HashChain
from .schedule import RoamingSchedule

__all__ = ["RoamingKey", "SubscriptionService", "ClientSubscription", "SubscriptionExpired"]


class SubscriptionExpired(Exception):
    """Raised when a client's roaming key cannot cover the current epoch."""


@dataclass(frozen=True)
class RoamingKey:
    """A time-based token: chain key K_t valid through epoch ``t``."""

    epoch_limit: int
    key: bytes


# Trust level -> how many epochs ahead a subscription covers.
DEFAULT_TRUST_HORIZONS: Dict[str, int] = {
    "low": 10,
    "standard": 50,
    "high": 200,
}


class SubscriptionService:
    """Issues roaming keys and the server list to legitimate clients."""

    def __init__(
        self,
        schedule: RoamingSchedule,
        chain: HashChain,
        trust_horizons: Dict[str, int] | None = None,
    ) -> None:
        self.schedule = schedule
        self.chain = chain
        self.trust_horizons = dict(trust_horizons or DEFAULT_TRUST_HORIZONS)
        self.issued: int = 0

    def subscribe(
        self, now: float, trust_level: str = "standard"
    ) -> "ClientSubscription":
        """Issue a subscription anchored at the current epoch."""
        horizon = self.trust_horizons.get(trust_level)
        if horizon is None:
            raise ValueError(f"unknown trust level {trust_level!r}")
        epoch_now = self.schedule.epoch_index(now)
        limit = min(epoch_now + horizon, self.chain.length)
        self.issued += 1
        return ClientSubscription(
            service=self,
            roaming_key=RoamingKey(limit, self.chain.key(limit)),
            n_servers=self.schedule.n_servers,
        )

    def renew(self, sub: "ClientSubscription", now: float, trust_level: str = "standard") -> None:
        """Replace an expired key (client contacted the service again)."""
        fresh = self.subscribe(now, trust_level)
        sub.roaming_key = fresh.roaming_key


class ClientSubscription:
    """Client-side state: roaming key, clock offset, server tracking."""

    def __init__(
        self,
        service: SubscriptionService,
        roaming_key: RoamingKey,
        n_servers: int,
        clock_offset: float = 0.0,
    ) -> None:
        self.service = service
        self.roaming_key = roaming_key
        self.n_servers = n_servers
        # Bounded clock shift (|offset| <= delta by assumption).
        self.clock_offset = clock_offset

    def local_time(self, true_time: float) -> float:
        return true_time + self.clock_offset

    def epoch_key(self, epoch: int) -> bytes:
        """Derive K_epoch from the held K_t (epoch must be <= t)."""
        if epoch > self.roaming_key.epoch_limit:
            raise SubscriptionExpired(
                f"epoch {epoch} beyond subscription limit "
                f"{self.roaming_key.epoch_limit}"
            )
        return HashChain.derive_backward(
            self.roaming_key.key, self.roaming_key.epoch_limit, epoch
        )

    def active_servers(self, true_time: float) -> FrozenSet[int]:
        """Active-server indices as computed by this client right now.

        Uses the client's *local* clock; with |offset| <= delta and the
        pool's guard bands, this is always a currently valid set.
        Raises :class:`SubscriptionExpired` when the key has run out.
        """
        schedule = self.service.schedule
        epoch = schedule.epoch_index(max(self.local_time(true_time), schedule.start_time))
        key = self.epoch_key(epoch)
        return schedule.active_set_from_key(key, epoch)

    def pick_server(self, true_time: float, rng) -> int:
        """Uniformly random active server index (paper's client policy)."""
        active: List[int] = sorted(self.active_servers(true_time))
        return active[int(rng.integers(len(active)))]
