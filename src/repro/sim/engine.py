"""Discrete-event simulation engine.

A minimal, fast event scheduler in the style of ns-2's event loop.
Pending events are ``(time, sequence, Event)`` entries in one binary
heap (``heapq``).  The sequence number breaks ties FIFO so that events
scheduled for the same instant fire in the order they were scheduled,
which keeps simulations deterministic: entries order totally on
``(time, seq)``, so the dispatch sequence depends on nothing but the
schedule calls, a property the causal journal verifies end-to-end
(``repro replay --check``).

:meth:`Simulator.run` is the only dispatch loop.  Each optional
observer — the engine profiler, its per-event dimensional attribution,
the live telemetry streamer (all in :mod:`repro.obs`) — sits behind one
local test in that loop, so a plain run reads no clock and makes no
extra call per event.

The engine is deliberately callback-based (no generator processes): the
paper's workloads are packet-level CBR flows and timer-driven control
protocols, for which callbacks are both faster and simpler than a
process abstraction.  Helper classes (:class:`Timer`,
:func:`Simulator.every`) cover the recurring-timer patterns the defense
protocols need.

Allocation relief: dispatched :class:`Event` objects are recycled
through a per-simulator freelist of at most ``_FREELIST_MAX`` entries.
The contract is that an Event handle is only meaningful until its
callback has run — cancelling after that is a no-op on the handle, but
holders must drop fired-event references promptly (every in-tree holder
reassigns or clears on fire) because the object may be reissued by a
later ``schedule()``.
"""

from __future__ import annotations

from heapq import heappop, heappush

# reprolint: ignore[RPL002] -- self-profiling measures real wall time
# for repro.obs; it never feeds back into simulated state
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "Timer", "SimulationError"]

# Cap on recycled Event objects kept per simulator; bounds memory after
# a scheduling burst while still absorbing the steady-state churn.
_FREELIST_MAX = 8192


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


def _retired() -> None:  # pragma: no cover - placeholder callback
    """Callback parked on freelist events so a stale fire is harmless."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: a cancelled event stays in the heap but is
    skipped when popped.  This is O(1) and is the standard trick for
    heap-based schedulers; the engine keeps a separate live counter so
    :meth:`Simulator.pending` can still report the true pending count.

    A handle is valid until its callback runs; after that ``cancel()``
    is a no-op and the object may be recycled for a later ``schedule()``
    call, so holders must not retain fired-event references.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_queued", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queued = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or not self._queued:
            self.cancelled = True
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.6f}, fn={name}, {state})"


class Simulator:
    """Event-driven simulator clock and scheduler.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        # Pending (time, seq, Event) entries, a heapq heap.
        self._heap: List[Tuple[float, int, Event]] = []
        # Live (non-cancelled) pending events; see pending(live=True).
        self._live: int = 0
        # Self-profiling (repro.obs.EngineProfiler.attach sets this):
        # run() then brackets itself with a wall clock and tracks the
        # live-pending high-water mark.
        self.profiler: Optional[Any] = None
        # Flight recorder (repro.obs.Telemetry.bind sets this): run()
        # brackets each invocation with sim_run_start/sim_run_end
        # journal events.  None costs a single attribute test per run.
        self.journal: Optional[Any] = None
        # Metrics registry (repro.obs.Telemetry.bind sets this); used
        # for low-rate operational counters such as timer_jitter_clamped.
        self.metrics: Optional[Any] = None
        # Live streamer (repro.obs.stream.TelemetryStreamer.attach sets
        # this): run() pulses it at stride boundaries.  Snapshots only
        # read engine state — never schedule events — so the journal is
        # identical with or without a stream.
        self.stream: Optional[Any] = None
        self.timer_jitter_clamps: int = 0
        # Event freelist (allocation relief on the hot path).
        self._free: List[Event] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        # Negated so that a NaN time, which compares False both ways,
        # is rejected instead of firing out of order.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, fn, args)
        ev._queued = True
        ev._sim = self
        self._seq += 1
        heappush(self._heap, (time, self._seq, ev))
        self._live += 1
        return ev

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
    ) -> "Timer":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        ``start`` is the absolute time of the first firing (defaults to
        ``now + interval``).  ``jitter_fn``, if given, is called before
        each firing and its return value is added to the nominal delay —
        used e.g. to de-synchronize periodic control loops.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        timer = Timer(self, interval, fn, args, jitter_fn)
        first = (self.now + interval) if start is None else start
        timer._arm(first)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        Runs until no events are pending, or until the clock would pass
        ``until`` (the clock is then advanced to exactly ``until``).

        An attached profiler gets the run's wall time, event count and
        live-pending high-water mark; with dimensions enabled each
        callback is also timed and charged to its ``(kind, module,
        site)`` cell.  An attached streamer is pulsed once every
        ``check_stride`` dispatched events.  Both only read engine
        state, so the dispatch sequence is the same with or without them.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        journal = self.journal
        if journal is not None:
            before = self.events_processed
            journal.record("sim_run_start", pending=self._live)
        prof = self.profiler
        charge = None
        if prof is not None:
            if prof.dims is not None:
                charge = prof.charger()
            wall_start = perf_counter()  # reprolint: ignore[RPL002] -- profiler
        stream = self.stream
        # Stream pulse cadence: the pulse fires when `processed` is a
        # multiple of the stream's power-of-two check stride.
        smask = stream.check_mask if stream is not None else 0
        sbase = self.events_processed
        hwm = self._live
        sim_start = self.now
        heap = self._heap
        free = self._free
        free_max = _FREELIST_MAX
        # Sentinel instead of a per-event None test; time > inf is never
        # true, so the untimed loop pays one float compare.
        limit = float("inf") if until is None else until
        processed = 0
        self._running = True
        self._stopped = False
        try:
            # `while True`, not `while heap`: CPython 3.11 specializes a
            # code object only after calls or unconditional backward
            # jumps, and run() is entered once per scenario, so a loop
            # closed by a conditional jump would stay unspecialized.
            while True:
                if prof is not None and self._live > hwm:
                    hwm = self._live
                if not heap or heap[0][0] > limit:
                    break
                time, _, ev = heappop(heap)
                ev._queued = False
                if not ev.cancelled:
                    self._live -= 1
                    self.now = time
                    fn = ev.fn
                    if charge is None:
                        fn(*ev.args)
                    else:
                        # reprolint: ignore[RPL002] -- profiler
                        t0 = perf_counter()
                        fn(*ev.args)
                        # reprolint: ignore[RPL002] -- profiler
                        charge(fn, perf_counter() - t0)
                    processed += 1
                    if stream is not None and (processed & smask) == 0:
                        stream.pulse(self, sbase + processed)
                # Retire only after the callback returns: a callback may
                # legitimately cancel the very event that is firing (a
                # timer cancelling itself), which must see _queued=False
                # on this object, not on a recycled successor.
                if len(free) < free_max:
                    ev.fn = _retired
                    ev.args = ()
                    free.append(ev)
                if self._stopped:
                    break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
            self.events_processed += processed
            if prof is not None:
                prof.note_heap(hwm)
                prof.record_run(
                    processed,
                    perf_counter() - wall_start,  # reprolint: ignore[RPL002]
                    self.now - sim_start,
                )
        if journal is not None:
            journal.record("sim_run_end", events=self.events_processed - before)

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def pending(self, live: bool = False) -> int:
        """Number of pending events.

        With ``live=False`` (default) this counts heap entries,
        including lazily-cancelled ones still awaiting their skip-pop;
        ``live=True`` counts only events that will actually fire.
        """
        if live:
            return self._live
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self._heap)}, "
            f"live={self._live})"
        )


class Timer:
    """A recurring timer created by :meth:`Simulator.every`."""

    __slots__ = ("sim", "interval", "fn", "args", "jitter_fn", "_event", "cancelled")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., Any],
        args: tuple,
        jitter_fn: Optional[Callable[[], float]],
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.jitter_fn = jitter_fn
        self._event: Optional[Event] = None
        self.cancelled = False

    def _arm(self, at: float) -> None:
        sim = self.sim
        # The nominal firing time never lies in the past.
        floor = at if at > sim.now else sim.now
        if self.jitter_fn is not None:
            at = at + self.jitter_fn()
            if at < floor:
                # A too-negative jitter draw is clamped to the *nominal*
                # time, not to `now`: clamping to `now` silently
                # coalesced firings onto the current instant and hid the
                # de-sync misconfiguration.  The clamp is counted so it
                # stays visible.
                at = floor
                sim.timer_jitter_clamps += 1
                metrics = sim.metrics
                if metrics is not None:
                    metrics.counter("timer_jitter_clamped").inc()
        else:
            at = floor
        self._event = sim.schedule_at(at, self._fire)

    def _fire(self) -> None:
        # Drop the fired-event handle immediately: the engine may
        # recycle the object, so a later cancel() must not reach it.
        self._event = None
        if self.cancelled:
            return
        self.fn(*self.args)
        if not self.cancelled:
            self._arm(self.sim.now + self.interval)

    def cancel(self) -> None:
        """Stop the timer; any armed firing is cancelled."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
