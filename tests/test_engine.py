"""Tests for the discrete-event engine."""

import sys
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
        with pytest.raises(SimulationError):
            sim.post_at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        # NaN compares False against the clock both ways; it must not
        # slip past the past-time guard and fire out of order.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.post_at(float("nan"), lambda: None)
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

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)


def _noop():
    pass


class TestObserverCost:
    """The dispatch loop's observer slot, costed in executed bytecode
    instructions: a deterministic count, unlike wall time, so a budget
    of one instruction per event can be asserted exactly."""

    EVENTS = 4096

    def _opcodes_per_event(self, attach):
        sim = Simulator()
        for i in range(self.EVENTS):
            sim.post_at(i * 1e-3, _noop)
        attach(sim)
        count = 0

        def local(frame, event, arg):
            nonlocal count
            if event == "opcode":
                count += 1
            return local

        def call(frame, event, arg):
            frame.f_trace_opcodes = True
            return local

        previous = sys.gettrace()
        sys.settrace(call)
        try:
            sim.run()
        finally:
            sys.settrace(previous)
        assert sim.events_processed == self.EVENTS
        return count / self.EVENTS

    def test_attached_observers_cost_under_one_opcode_per_event(self, tmp_path):
        from repro.obs import Telemetry
        from repro.obs.stream import StreamConfig, TelemetryStreamer

        streamers = []

        def telemetry_and_stream(sim):
            # The events span 4.1 sim-seconds and the cap is off, so
            # the stream pulses but writes no snapshot during the run.
            cfg = StreamConfig(
                path=str(tmp_path / "cost.stream.jsonl"),
                interval=5.0,
                wall_cap=None,
            )
            streamers.append(TelemetryStreamer(Telemetry(sim), cfg).attach(sim))

        plain = self._opcodes_per_event(lambda sim: None)
        telemetry = self._opcodes_per_event(Telemetry)
        streamed = self._opcodes_per_event(telemetry_and_stream)
        streamers[0].close()
        assert telemetry - plain <= 1.0, (plain, telemetry)
        assert streamed - plain <= 1.0, (plain, streamed)


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
    moving the clock, and ``run(until)`` leaves the clock at ``until``.
    A ``post_at`` entry has no handle and is never cancelled."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._entries = []

    def schedule(self, delay, fn, *args):
        handle = _Handle()
        self._push(self.now + delay, handle, fn, args)
        return handle

    def post_at(self, time, fn, *args):
        self._push(time, _Handle(), fn, args)

    def _push(self, time, handle, fn, args):
        self._seq += 1
        insort(self._entries, (time, self._seq, handle, fn, args))

    def pending(self, live=False):
        if live:
            return sum(not entry[2].cancelled for entry in self._entries)
        return len(self._entries)

    def run(self, until=None):
        entries = self._entries
        while entries and (until is None or entries[0][0] <= until):
            time, _, handle, fn, args = entries.pop(0)
            if not handle.cancelled:
                self.now = time
                fn(*args)
                self.events_processed += 1
        if until is not None and self.now < until:
            self.now = until


def _drive(sim, script, cancel_idx, segments):
    """Run one schedule/cancel/run-until script; return the dispatch log
    with the clock, event count and pending counts after every run().

    ``script`` holds ``(delay, plain)`` pairs: a plain event is pushed
    with ``post_at`` and has no handle, so a cancel aimed at it is
    dropped."""
    log = []

    def snapshot(tag):
        log.append(
            (tag, sim.now, sim.events_processed, sim.pending(),
             sim.pending(live=True))
        )

    def fire(i):
        log.append((sim.now, i))

    handles = []
    for i, (d, plain) in enumerate(script):
        if plain:
            sim.post_at(sim.now + d, fire, i)
            handles.append(None)
        else:
            handles.append(sim.schedule(d, fire, i))
    for i in cancel_idx:
        handle = handles[i % len(handles)]
        if handle is not None:
            handle.cancel()
    snapshot("start")
    for until in sorted(segments):
        sim.run(until=until)
        snapshot("until")
    sim.run()
    snapshot("end")
    return log


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=60,
    ),
    cancel_idx=st.lists(st.integers(min_value=0, max_value=1000), max_size=20),
    segments=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=4
    ),
)
def test_dispatch_order_matches_sorted_reference(script, cancel_idx, segments):
    expected = _drive(_SortedListReference(), script, cancel_idx, segments)
    assert _drive(Simulator(), script, cancel_idx, segments) == expected


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
