"""Max–min fair rate allocation and aggregate rate limiters.

Pushback shares an aggregate's rate limit "in a max–min fairness
fashion among input ports on which traffic matching the aggregate
signature is received" (Section 2).  Max–min (water-filling): inputs
demanding less than the fair share keep their demand; the surplus is
redistributed among the rest.

The paper's Figs. 10–11 hinge on exactly this behaviour: the allocation
is per input *port*, blind to how many end hosts sit behind each port,
so attackers near the victim receive large (protected!) shares.

Each limited aggregate is policed by a :class:`TokenBucket`, which is
what ACC's rate limiter amounts to at the output queue.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, TypeVar

from ..sim.packet import Packet

__all__ = [
    "maxmin_allocation",
    "maxmin_allocation_map",
    "TokenBucket",
    "AggregateRateLimiter",
]

K = TypeVar("K", bound=Hashable)


def maxmin_allocation(limit: float, demands: Sequence[float]) -> List[float]:
    """Water-filling max–min allocation of ``limit`` across ``demands``.

    Returns per-demand allocations: every demand below the final fair
    share is fully satisfied; the others split the remainder equally.
    The allocations sum to ``min(limit, sum(demands))``.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0 (got {limit})")
    if any(d < 0 for d in demands):
        raise ValueError("demands must be non-negative")
    n = len(demands)
    alloc = [0.0] * n
    if n == 0:
        return alloc
    remaining = limit
    active = list(range(n))
    # Satisfy smallest demands first; at most n rounds.
    active.sort(key=lambda i: demands[i])
    while active:
        share = remaining / len(active)
        i = active[0]
        if demands[i] <= share:
            alloc[i] = demands[i]
            remaining -= demands[i]
            active.pop(0)
        else:
            # Everyone left demands more than the fair share.
            for j in active:
                alloc[j] = share
            break
    return alloc


def maxmin_allocation_map(limit: float, demands: Dict[K, float]) -> Dict[K, float]:
    """Max–min allocation keyed by input identity (stable by key order)."""
    keys = sorted(demands.keys(), key=repr)
    allocs = maxmin_allocation(limit, [demands[k] for k in keys])
    return dict(zip(keys, allocs))


class TokenBucket:
    """Token-bucket rate limiter.

    Tokens accumulate at ``rate_bps`` bits/second up to ``burst_bits``.
    :meth:`admit` is called with the current time and a packet size and
    returns whether the packet conforms.  Non-conforming packets are
    dropped by the caller (policing, not shaping), which is what
    Pushback's rate limiter does to an aggregate.
    """

    __slots__ = ("rate_bps", "burst_bits", "_tokens", "_last", "policed")

    def __init__(self, rate_bps: float, burst_bits: Optional[float] = None) -> None:
        if rate_bps < 0:
            raise ValueError(f"rate must be >= 0 (got {rate_bps})")
        self.rate_bps = rate_bps
        # Default burst: 4 full-size (1500 B) packets or 10 ms of rate,
        # whichever is larger — enough not to starve a single conformant
        # CBR flow at the configured rate.
        if burst_bits is None:
            burst_bits = max(4 * 1500 * 8.0, rate_bps * 0.01)
        self.burst_bits = burst_bits
        self._tokens = burst_bits
        self._last = 0.0
        self.policed = 0

    def set_rate(self, now: float, rate_bps: float) -> None:
        """Change the policing rate, crediting tokens earned so far."""
        self._credit(now)
        self.rate_bps = max(0.0, rate_bps)

    def _credit(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.burst_bits, self._tokens + (now - self._last) * self.rate_bps
            )
            self._last = now

    def admit(self, now: float, size_bytes: int) -> bool:
        """True if a packet of ``size_bytes`` conforms at time ``now``."""
        self._credit(now)
        bits = size_bytes * 8
        if self._tokens >= bits:
            self._tokens -= bits
            return True
        self.policed += 1
        return False


class AggregateRateLimiter:
    """Polices traffic matching a destination aggregate at a router.

    Installed as a router ingress hook; packets to a limited
    destination pass through a token bucket, non-conforming ones are
    dropped (policing, as in ACC's rate limiter).  Per-input-port
    arrival accounting supports the max–min split pushed upstream.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        # dst -> token bucket
        self._buckets: Dict[int, TokenBucket] = {}
        # dst -> {input channel: bytes seen} since last reset
        self._input_bytes: Dict[int, Dict[object, int]] = {}
        # dst -> bytes policed since the last take_policed_bytes call
        self._policed_bytes: Dict[int, int] = {}
        self.dropped = 0

    # ------------------------------------------------------------------
    def set_limit(self, dst: int, rate_bps: float, now: float) -> None:
        """Install or update the policing rate for a destination."""
        bucket = self._buckets.get(dst)
        if bucket is None:
            self._buckets[dst] = TokenBucket(rate_bps)
            self._input_bytes[dst] = {}
        else:
            bucket.set_rate(now, rate_bps)

    def remove_limit(self, dst: int) -> None:
        self._buckets.pop(dst, None)
        self._input_bytes.pop(dst, None)

    def limited_dsts(self) -> List[int]:
        return list(self._buckets)

    def limit_of(self, dst: int) -> float:
        bucket = self._buckets.get(dst)
        return bucket.rate_bps if bucket is not None else float("inf")

    # ------------------------------------------------------------------
    def input_demands_bps(self, dst: int, window: float) -> Dict[object, float]:
        """Per-input arrival rate (bits/s) of the aggregate over ``window``."""
        if window <= 0:
            raise ValueError("window must be positive")
        per_input = self._input_bytes.get(dst, {})
        return {ch: b * 8.0 / window for ch, b in per_input.items()}

    def reset_accounting(self, dst: int) -> None:
        if dst in self._input_bytes:
            self._input_bytes[dst] = {}

    def take_policed_bytes(self, dst: int) -> int:
        """Bytes policed for ``dst`` since the last call (and reset).

        Independent of the demand-accounting resets, so status reports
        never race the review cycle.
        """
        return self._policed_bytes.pop(dst, 0)

    # ------------------------------------------------------------------
    def hook(self, pkt: Packet, in_channel) -> bool:
        """Router ingress hook: True = drop the packet."""
        bucket = self._buckets.get(pkt.dst)
        if bucket is None:
            return False
        acct = self._input_bytes[pkt.dst]
        acct[in_channel] = acct.get(in_channel, 0) + pkt.size
        if bucket.admit(self.sim.now, pkt.size):
            return False
        self.dropped += 1
        self._policed_bytes[pkt.dst] = self._policed_bytes.get(pkt.dst, 0) + pkt.size
        return True
