"""Tests for the discrete-event engine."""

from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        # NaN compares False against the clock both ways; it must not
        # slip past the past-time guard and fire out of order.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending() == 1
        sim.run()
        assert sim.now == 1.0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def first():
            sim.schedule(1.0, fired.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_mid_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_aborts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestTimer:
    def test_periodic_firings(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_timer_cancel_stops_firings(self):
        sim = Simulator()
        ticks = []
        timer = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, timer.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_timer_with_custom_start(self):
        sim = Simulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), start=1.0)
        sim.run(until=6.0)
        assert ticks == [1.0, 3.0, 5.0]

    def test_timer_jitter_applied(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), jitter_fn=lambda: 0.25)
        sim.run(until=3.0)
        # Each arming adds 0.25 to the nominal next time.
        assert ticks == pytest.approx([1.25, 2.5])

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule(d, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


class _Handle:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _SortedListReference:
    """Reference dispatcher: ``(time, seq)`` entries in a plain sorted
    list.  Ties fire FIFO (seq), cancelled entries are dropped without
    moving the clock, and ``run(until)`` leaves the clock at ``until``."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []

    def schedule(self, delay, fn, *args):
        self._seq += 1
        handle = _Handle()
        insort(self._entries, (self.now + delay, self._seq, handle, fn, args))
        return handle

    def run(self, until=None):
        entries = self._entries
        while entries and (until is None or entries[0][0] <= until):
            time, _, handle, fn, args = entries.pop(0)
            if not handle.cancelled:
                self.now = time
                fn(*args)
        if until is not None and self.now < until:
            self.now = until


def _drive(sim, delays, cancel_idx, segments):
    """Run one schedule/cancel/run-until script; return the dispatch log
    with the clock after every run() call."""
    log = []
    events = [
        sim.schedule(d, lambda i=i: log.append((sim.now, i)))
        for i, d in enumerate(delays)
    ]
    for i in cancel_idx:
        events[i % len(events)].cancel()
    for until in sorted(segments):
        sim.run(until=until)
        log.append(("until", sim.now))
    sim.run()
    log.append(("end", sim.now))
    return log


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    cancel_idx=st.lists(st.integers(min_value=0, max_value=1000), max_size=20),
    segments=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=4
    ),
)
def test_dispatch_order_matches_sorted_reference(delays, cancel_idx, segments):
    expected = _drive(_SortedListReference(), delays, cancel_idx, segments)
    assert _drive(Simulator(), delays, cancel_idx, segments) == expected


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_reschedule_during_run_matches_sorted_reference(delays):
    """Events scheduled from inside callbacks dispatch in reference order."""

    def drive(sim):
        log = []

        def chain(depth, label):
            log.append((sim.now, label))
            if depth > 0:
                sim.schedule(delays[label % len(delays)], chain, depth - 1, label + 1)

        for i, d in enumerate(delays):
            sim.schedule(d, chain, 3, i)
        sim.run()
        return log

    assert drive(Simulator()) == drive(_SortedListReference())
