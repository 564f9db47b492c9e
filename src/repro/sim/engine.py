"""Discrete-event simulation engine.

A minimal, fast event scheduler in the style of ns-2's event loop.
Pending events are ``(time, sequence, fn, args)`` entries in one binary
heap (``heapq``).  The sequence number breaks ties FIFO so that events
scheduled for the same instant fire in the order they were scheduled,
which keeps simulations deterministic: entries order totally on
``(time, seq)``, so the dispatch sequence depends on nothing but the
schedule calls, a property the causal journal verifies end-to-end
(``repro replay --check``).

Two kinds of entry share the heap and the sequence counter:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`Event` handle; its entry is
  ``(time, seq, event, None)``.
* :meth:`Simulator.post_at` pushes a plain ``(time, seq, fn, args)``
  entry and returns nothing, so the event cannot be cancelled.  It
  allocates no handle and skips the cancellation bookkeeping at
  dispatch, which is why packet hops (:mod:`repro.sim.link`) use it.

:meth:`Simulator.run` is the only dispatch loop.  The optional
observers — the engine profiler's heap high-water sample and its
per-callback attribution (:mod:`repro.obs.profile`) — share one slot in
that loop, guarded by one test per event: a compare of the dispatch
index with the next slot index.  With attribution on the slot runs
after every dispatch, otherwise once every :data:`OBSERVE_STRIDE`
dispatches, so a run without a profiler reads no clock and makes no
extra call per event.

The engine is deliberately callback-based (no generator processes): the
paper's workloads are packet-level CBR flows and timer-driven control
protocols, for which callbacks are both faster and simpler than a
process abstraction.  Helper classes (:class:`Timer`,
:func:`Simulator.every`) cover the recurring-timer patterns the defense
protocols need.
"""

from __future__ import annotations

from heapq import heappop, heappush

# reprolint: ignore[RPL002] -- self-profiling measures real wall time
# for repro.obs; it never feeds back into simulated state
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "Timer", "SimulationError", "OBSERVE_STRIDE"]

# Dispatches between two visits of the dispatch loop's observer slot
# (every dispatch visits it while attribution is on).
OBSERVE_STRIDE = 1024


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: a cancelled event stays in the heap but is
    skipped when popped.  This is O(1) and is the standard trick for
    heap-based schedulers; the engine counts the cancelled entries still
    in its heap so :meth:`Simulator.pending` can still report the true
    pending count.  ``cancel()`` after the callback has run is a no-op.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple, sim: "Simulator"
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # The owning simulator while the entry is in its heap, else None.
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._cancelled += 1

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
        self.events_processed: int = 0
        # Pending (time, seq, fn, args) entries, a heapq heap; for a
        # cancellable entry fn is its Event and args is None.
        self._heap: List[Tuple[float, int, Any, Optional[tuple]]] = []
        # Cancelled entries still in the heap; see pending(live=True).
        self._cancelled: int = 0
        # Self-profiling (repro.obs.EngineProfiler.attach sets this):
        # run() then brackets itself with a wall clock and samples the
        # live-pending high-water mark in its observer slot.
        self.profiler: Optional[Any] = None
        # Flight recorder (repro.obs.Telemetry.bind sets this): run()
        # brackets each invocation with sim_run_start/sim_run_end
        # journal events.  None costs a single attribute test per run.
        self.journal: Optional[Any] = None

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
        ev = Event(time, fn, args, self)
        self._seq += 1
        heappush(self._heap, (time, self._seq, ev, None))
        return ev

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time``, uncancellably.

        The cheap way in for events nobody cancels or holds (packet
        hops): no :class:`Event` handle is made.  Ordering is the same
        ``(time, seq)`` order as :meth:`schedule_at`.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn, args))

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
    ) -> "Timer":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        ``start`` is the absolute time of the first firing (defaults to
        ``now + interval``).
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        timer = Timer(self, interval, fn, args)
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

        Dispatches are counted from 1, and each one is followed by one
        observer test: the observer slot runs once the dispatch index
        reaches the next slot index.  With attribution on
        (``profiler.dims`` set) that index is 0, so the slot runs after
        every dispatch and charges the wall time since the previous
        slot to the callback's ``(kind, module)`` cell.  Otherwise it
        starts at ``OBSERVE_STRIDE`` and each visit advances it by
        ``OBSERVE_STRIDE``.

        The slot samples the live-pending high-water mark (also at run
        start and end), which an attached profiler receives at run end
        together with the run's wall time and event count.  Observers
        only read engine state, so the dispatch sequence is the same
        with or without them.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        journal = self.journal
        if journal is not None:
            before = self.events_processed
            journal.record("sim_run_start", pending=self.pending(live=True))
        heap = self._heap
        hwm = len(heap) - self._cancelled
        prof = self.profiler
        stride = OBSERVE_STRIDE
        next_slot = stride
        charge = None
        if prof is not None:
            prof.note_heap(hwm)
            hwm = prof.heap_hwm
            if prof.dims is not None:
                charge = prof.charger()
                next_slot = 0
            # reprolint: ignore[RPL002] -- profiler
            wall_start = mark = perf_counter()
        sim_start = self.now
        # Sentinel instead of a per-event None test; time > inf is never
        # true, so the untimed loop pays one float compare.
        limit = float("inf") if until is None else until
        processed = 0
        self._running = True
        try:
            # `while True`, not `while heap`: CPython 3.11 specializes a
            # code object only after calls or unconditional backward
            # jumps, and run() is entered once per scenario, so a loop
            # closed by a conditional jump would stay unspecialized.
            while True:
                if not heap or heap[0][0] > limit:
                    break
                time, _, fn, args = heappop(heap)
                if args is None:
                    # A cancellable entry: fn is its Event.
                    fn._sim = None
                    if fn.cancelled:
                        self._cancelled -= 1
                        continue
                    args = fn.args
                    fn = fn.fn
                self.now = time
                fn(*args)
                processed += 1
                # A compare of two small ints, not a bit mask: CPython
                # specializes it and allocates nothing, while `&` builds
                # a new int object on every dispatch.
                if processed >= next_slot:
                    # The observer slot.  Inline, not a method: with
                    # attribution on it runs after every dispatch.
                    # Live pending is len(heap) minus the cancelled
                    # entries, never more than len(heap): the count is
                    # read only once the heap itself has grown past the
                    # mark.
                    if len(heap) > hwm and len(heap) - self._cancelled > hwm:
                        hwm = len(heap) - self._cancelled
                    if charge is None:
                        next_slot += stride
                    else:
                        # reprolint: ignore[RPL002] -- profiler
                        now = perf_counter()
                        charge(fn, now - mark)
                        mark = now
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            self.events_processed += processed
            if prof is not None:
                prof.note_heap(max(hwm, len(heap) - self._cancelled))
                prof.record_run(
                    processed,
                    perf_counter() - wall_start,  # reprolint: ignore[RPL002]
                    self.now - sim_start,
                )
        if journal is not None:
            journal.record("sim_run_end", events=self.events_processed - before)

    def pending(self, live: bool = False) -> int:
        """Number of pending events.

        With ``live=False`` (default) this counts heap entries,
        including lazily-cancelled ones still awaiting their skip-pop;
        ``live=True`` counts only events that will actually fire.
        """
        if live:
            return len(self._heap) - self._cancelled
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"live={self.pending(live=True)})"
        )


class Timer:
    """A recurring timer created by :meth:`Simulator.every`."""

    __slots__ = ("sim", "interval", "fn", "args", "_event", "cancelled")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self._event: Optional[Event] = None
        self.cancelled = False

    def _arm(self, at: float) -> None:
        sim = self.sim
        # The firing time never lies in the past.
        self._event = sim.schedule_at(at if at > sim.now else sim.now, self._fire)

    def _fire(self) -> None:
        # The armed handle has fired; cancel() has nothing left to stop.
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
