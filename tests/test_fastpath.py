"""Fast-path safety: fired-event handles, live pending, batched CBR
generation, and the packet path's per-event cost.

The perf machinery must be invisible to simulation semantics:

* cancelling an :class:`~repro.sim.engine.Event` after its callback has
  run is a no-op;
* ``Simulator.pending(live=True)`` tracks lazy cancellation exactly;
* batched CBR sources emit the bit-identical packet schedule of the
  event-per-packet path.

And it must stay cheap: the bytecode executed per event on a small tree
scenario is pinned per defense and per observer set, a deterministic
count where wall time is weather.
"""

import random
import sys
from dataclasses import replace

import pytest

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import Telemetry
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Host
from repro.traffic.sources import CBRSource

from .opcodes import count_opcodes


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

    def test_environment_does_not_set_batch(self, monkeypatch):
        sim = Simulator()
        for value in ("8", "x"):
            monkeypatch.setenv("REPRO_CBR_BATCH", value)
            src = CBRSource(sim, Host(sim, 1), dst=1, rate_bps=8e5)
            assert src.batch == 1

    def test_invalid_batch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CBRSource(sim, Host(sim, 1), dst=1, rate_bps=8e5, batch=0)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="opcode counts are pinned for CPython 3.11",
)
class TestPacketPathCost:
    """Bytecode instructions executed inside ``Network.run`` per event.

    The count is deterministic, so a budget of +0.5 % over the pinned
    value fails any change that adds more than that, on any machine
    running the pinned CPython version.  The event counts are pinned
    exactly: a change to them is a change in behaviour, not in cost.

    A telemetry run is held to the plain run's budget: while the
    simulator runs it only journals the defense's control-plane events,
    and it fills the registry after the run.  Attribution times every
    dispatch and has its own pin.
    """

    PARAMS = TreeScenarioParams(
        n_leaves=12,
        n_attackers=3,
        duration=3.0,
        attack_start=0.5,
        attack_end=2.5,
        seed=0,
    )
    # defense -> (events, opcodes per event), CPython 3.11; the plain
    # pin also bounds a telemetry run.
    PINNED = {
        "honeypot": (55_223, 234.01),
        "pushback": (59_710, 235.82),
        "none": (59_794, 191.74),
    }
    # defense -> opcodes per event with attribution on, CPython 3.11.
    PINNED_ATTRIBUTION = {
        "honeypot": 311.92,
        "pushback": 313.43,
        "none": 269.58,
    }

    @pytest.mark.parametrize(
        "defense, observers",
        [
            pytest.param(d, obs, id=d if obs == "plain" else f"{d}-{obs}")
            for d in sorted(PINNED)
            for obs in ("plain", "telemetry", "attribution")
        ],
    )
    def test_opcodes_per_event_within_budget(self, defense, observers, monkeypatch):
        counts = []
        run = Network.run

        def traced_run(net, until=None):
            counts.append(count_opcodes(run, net, until))

        monkeypatch.setattr(Network, "run", traced_run)
        params = replace(self.PARAMS, defense=defense)
        if observers == "plain":
            result = run_tree_scenario(params)
        else:
            profile = observers == "attribution"
            result = run_tree_scenario(params, Telemetry(), profile=profile)
        events, pinned = self.PINNED[defense]
        if observers == "attribution":
            pinned = self.PINNED_ATTRIBUTION[defense]
        assert result.events_processed == events
        per_event = counts[0] / events
        assert per_event <= pinned * 1.005, (defense, observers, per_event, pinned)
