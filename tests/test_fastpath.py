"""Fast-path safety: fired-event handles, live pending, timer-jitter
clamp accounting, and batched CBR generation.

The perf machinery must be invisible to simulation semantics:

* cancelling an :class:`~repro.sim.engine.Event` after its callback has
  run is a no-op;
* ``Simulator.pending(live=True)`` tracks lazy cancellation exactly;
* jitter clamps in :class:`~repro.sim.engine.Timer` are counted on the
  simulator and the bound metrics registry;
* batched CBR sources emit the bit-identical packet schedule of the
  event-per-packet path.
"""

import random

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.traffic.sources import CBRSource


class TestLivePending:
    def test_live_counter_tracks_lazy_cancellation(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending() == 5
        assert sim.pending(live=True) == 5
        events[0].cancel()
        events[3].cancel()
        # Lazily cancelled entries still occupy the heap...
        assert sim.pending() == 5
        # ...but the live count excludes them.
        assert sim.pending(live=True) == 3
        events[0].cancel()  # double-cancel must not double-decrement
        assert sim.pending(live=True) == 3
        sim.run()
        assert sim.pending() == 0
        assert sim.pending(live=True) == 0
        assert sim.events_processed == 3

    def test_live_pending_journaled_at_run_start(self):
        from repro.obs import Telemetry

        sim = Simulator()
        telemetry = Telemetry(sim)
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        sim.run()
        starts = [e for e in telemetry.journal.to_dicts()
                  if e["name"] == "sim_run_start"]
        assert starts[0]["attrs"]["pending"] == 1


class TestTimerJitterClamp:
    def test_clamp_counts_on_sim_and_registry(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), jitter_fn=lambda: -50.0)
        sim.run(until=3.5)
        # Every arming clamps (jitter pulls far below the nominal time),
        # and the clamp lands on the nominal time, not on `now`.
        assert fired == [1.0, 2.0, 3.0]
        assert sim.timer_jitter_clamps == 4  # 3 firings + the pending arm
        assert sim.metrics.counter("timer_jitter_clamped").value == 4

    def test_no_clamp_without_jitter(self):
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.run(until=2.5)
        assert sim.timer_jitter_clamps == 0


class TestFiredHandles:
    def test_late_cancel_of_fired_event_is_a_noop(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, "a")
        sim.run(until=1.5)
        sim.schedule(1.0, fired.append, "b")
        sim.post_at(3.0, fired.append, "c")
        first.cancel()  # already fired: nothing left to cancel
        first.cancel()
        assert sim.pending() == 2
        assert sim.pending(live=True) == 2
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.pending(live=True) == 0
        assert sim.events_processed == 3

    def test_timer_self_cancel_during_fire_is_safe(self):
        sim = Simulator()
        fired = []
        timer = sim.every(1.0, lambda: (fired.append(sim.now), timer.cancel()))
        sim.run(until=10.0)
        assert fired == [1.0]


class TestBatchedCBR:
    def _times(self, batch, jitter=0.25):
        sim = Simulator()
        host = Host(sim, 1)
        out = []
        host.on_deliver(lambda p: out.append(sim.now))
        src = CBRSource(sim, host, dst=1, rate_bps=8e5, packet_size=100,
                        jitter=jitter, rng=random.Random(7), batch=batch)
        src.start()
        sim.run(until=2.0)
        return out, src.packets_sent

    def test_batched_schedule_bit_identical(self):
        base, n = self._times(1)
        for batch in (2, 8, 64):
            got, m = self._times(batch)
            assert got == base
            assert m == n

    def test_stop_cancels_pending_batch(self):
        sim = Simulator()
        host = Host(sim, 1)
        src = CBRSource(sim, host, dst=1, rate_bps=8e5, packet_size=100, batch=16)
        src.start()
        sim.run(until=0.005)
        sent = src.packets_sent
        src.stop()
        sim.run(until=1.0)
        assert src.packets_sent == sent
        src.start()  # restart re-enters the batch path cleanly
        sim.run(until=2.0)
        assert src.packets_sent > sent

    def test_batch_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CBR_BATCH", "8")
        sim = Simulator()
        src = CBRSource(sim, Host(sim, 1), dst=1, rate_bps=8e5)
        assert src.batch == 8

    def test_invalid_batch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CBRSource(sim, Host(sim, 1), dst=1, rate_bps=8e5, batch=0)
