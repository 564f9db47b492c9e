"""Traffic sources: CBR and on-off generators.

Both legitimate clients and attackers in the paper send CBR (constant
bit rate) traffic toward the servers (Section 8.3).  Low-rate attackers
alternate on-bursts of ``t_on`` seconds at rate r with ``t_off``
seconds of silence (Section 7.3).

Fast path: with ``batch=K`` (or ``REPRO_CBR_BATCH=K``) a CBR source
schedules its next K departures from one refill event, the K-th of
them being the next refill.  Jitter draws come from the source's
existing RNG stream and departure times by the same sequential float
accumulation as the event-per-packet path, so each source's packet
schedule is bit-identical.  The default stays K=1 because scenarios
share one client RNG across many sources: batching reorders the
*interleaving* of draws between sources, which changes the global
random sequence even though each gap distribution is unchanged.
Enable it for single-source or per-source-RNG workloads.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional

from ..sim.engine import Event, Simulator
from ..sim.node import Host
from ..sim.packet import Packet, PacketKind

__all__ = ["CBRSource", "OnOffSource"]

# Supplies the destination for the next packet (roaming clients change it).
DstFn = Callable[[], int]
# Supplies the claimed (possibly spoofed) source address for the next packet.
SrcFn = Callable[[], int]


class CBRSource:
    """Constant-bit-rate packet source attached to a host.

    Parameters
    ----------
    rate_bps:
        Sending rate in bits/second; one ``packet_size``-byte packet is
        sent every ``packet_size * 8 / rate_bps`` seconds.
    dst:
        Destination address, or a zero-argument callable evaluated per
        packet (used by roaming clients that change servers per epoch).
    src_fn:
        Optional claimed-source generator (spoofing attackers); the
        packet's ``true_src`` is always the attached host.
    jitter:
        Relative jitter on the inter-packet interval (each gap is
        drawn uniformly from ``interval * (1 ± jitter)``).  Breaks the
        phase locking that perfectly periodic CBR flows exhibit at a
        saturated drop-tail queue (ns-2's CBR has the same knob); the
        long-run rate is unchanged.  Requires ``rng`` when non-zero.
    batch:
        Departure times precomputed per scheduling round (default 1 =
        one event per packet; see module docstring).  ``None`` reads
        ``REPRO_CBR_BATCH``.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: int | DstFn,
        rate_bps: float,
        packet_size: int = 1000,
        flow=None,
        src_fn: Optional[SrcFn] = None,
        kind: str = PacketKind.DATA,
        jitter: float = 0.0,
        rng=None,
        batch: Optional[int] = None,
    ) -> None:
        # Negated so that a NaN rate (NaN inter-packet gaps) is rejected.
        if not rate_bps > 0:
            raise ValueError(f"rate must be positive (got {rate_bps})")
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive (got {packet_size})")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1) (got {jitter})")
        if jitter > 0.0 and rng is None:
            raise ValueError("jitter requires an rng")
        if batch is None:
            batch = int(os.environ.get("REPRO_CBR_BATCH", "1") or "1")
        if batch < 1:
            raise ValueError(f"batch must be >= 1 (got {batch})")
        self.sim = sim
        self.host = host
        self._dst = dst
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.flow = flow if flow is not None else ("cbr", host.addr)
        self.src_fn = src_fn
        self.kind = kind
        self.jitter = jitter
        self.rng = rng
        self.batch = batch
        self.interval = packet_size * 8.0 / rate_bps
        self.packets_sent = 0
        self._running = False
        self._next_event = None
        # Batched path: events for precomputed departures, with a
        # cursor separating fired events (which the engine may have
        # recycled — never touch those handles again) from pending ones
        # that stop() must cancel.
        self._batch_events: List[Optional[Event]] = []
        self._batch_pos = 0

    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin sending (immediately or at absolute time ``at``)."""
        if self._running:
            return
        self._running = True
        when = self.sim.now if at is None else at
        entry = self._refill if self.batch > 1 else self._tick
        self._next_event = self.sim.schedule_at(max(when, self.sim.now), entry)

    def stop(self) -> None:
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        # Cancel only the not-yet-fired tail of the batch; fired
        # handles may already be recycled by the engine.
        events = self._batch_events
        for i in range(self._batch_pos, len(events)):
            ev = events[i]
            if ev is not None:
                ev.cancel()
        events.clear()
        self._batch_pos = 0

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    def _send_packet(self) -> None:
        """Build and originate one packet at ``sim.now``."""
        dst = self._dst() if callable(self._dst) else self._dst
        src = self.host.addr if self.src_fn is None else self.src_fn()
        pkt = Packet(
            src,
            dst,
            self.packet_size,
            true_src=self.host.addr,
            flow=self.flow,
            kind=self.kind,
            created_at=self.sim.now,
        )
        self.host.originate(pkt)
        self.packets_sent += 1

    def _next_gap(self) -> float:
        gap = self.interval
        if self.jitter > 0.0:
            gap *= 1.0 + self.jitter * (2.0 * float(self.rng.random()) - 1.0)
        return gap

    def _tick(self) -> None:
        if not self._running:
            return
        self._send_packet()
        self._next_event = self.sim.schedule(self._next_gap(), self._tick)

    # ------------------------------------------------------------------
    # Batched path (batch > 1)
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        """Send the packet due now, then register the next K departures.

        Gaps are drawn from the same RNG stream in the same order as
        the event-per-packet path, and each departure time is the
        previous one plus its gap (sequential float accumulation) — so
        this source's schedule is bit-identical to ``batch=1``.
        """
        if not self._running:
            return
        self._next_event = None
        self._send_packet()
        sim = self.sim
        t = sim.now
        events: List[Optional[Event]] = []
        for _ in range(self.batch - 1):
            t = t + self._next_gap()
            events.append(sim.schedule_at(t, self._send_one))
        events.append(sim.schedule_at(t + self._next_gap(), self._refill))
        self._batch_events = events
        self._batch_pos = 0

    def _send_one(self) -> None:
        # Batch events fire in chronological order; advance the cursor
        # past this (about-to-be-recycled) handle first.
        self._batch_events[self._batch_pos] = None
        self._batch_pos += 1
        if not self._running:
            return
        self._send_packet()


class OnOffSource:
    """On-off modulation of a CBR source.

    Cycles: send at the CBR rate for ``t_on`` seconds, stay silent for
    ``t_off`` seconds, repeat.  ``phase`` offsets the first burst.
    """

    def __init__(
        self,
        sim: Simulator,
        cbr: CBRSource,
        t_on: float,
        t_off: float,
        phase: float = 0.0,
    ) -> None:
        if t_on <= 0:
            raise ValueError(f"t_on must be positive (got {t_on})")
        if t_off < 0:
            raise ValueError(f"t_off must be >= 0 (got {t_off})")
        self.sim = sim
        self.cbr = cbr
        self.t_on = t_on
        self.t_off = t_off
        self.phase = phase
        self.bursts = 0
        self._running = False

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        when = (self.sim.now if at is None else at) + self.phase
        self.sim.schedule_at(max(when, self.sim.now), self._burst_start)

    def stop(self) -> None:
        self._running = False
        self.cbr.stop()

    @property
    def running(self) -> bool:
        return self._running

    def _burst_start(self) -> None:
        if not self._running:
            return
        self.bursts += 1
        self.cbr.start()
        self.sim.schedule(self.t_on, self._burst_end)

    def _burst_end(self) -> None:
        self.cbr.stop()
        if self._running:
            self.sim.schedule(self.t_off, self._burst_start)
