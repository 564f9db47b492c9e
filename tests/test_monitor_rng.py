"""Tests for throughput monitors and the RNG registry."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.monitor import ThroughputMonitor, mean_over_window
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.rng import RngRegistry, derive_seed


class TestThroughputMonitor:
    def make(self):
        sim = Simulator()
        host = Host(sim, 0)
        mon = ThroughputMonitor(
            sim,
            [host],
            classify=lambda p: p.flow[0] if p.flow else None,
            interval=1.0,
        )
        mon.start()
        return sim, host, mon

    def test_series_counts_bits_per_interval(self):
        sim, host, mon = self.make()
        # 2 packets of 125 bytes in the first second = 2000 b/s.
        sim.schedule(0.2, host.receive, Packet(1, 0, 125, flow=("legit", 1)), None)
        sim.schedule(0.8, host.receive, Packet(1, 0, 125, flow=("legit", 1)), None)
        sim.run(until=2.0)
        times, series = mon.rate_series("legit")
        assert times == [1.0, 2.0]
        assert series == pytest.approx([2000.0, 0.0])

    def test_unclassified_packets_ignored(self):
        sim, host, mon = self.make()
        sim.schedule(0.5, host.receive, Packet(1, 0, 100, flow=None), None)
        sim.run(until=1.5)
        assert mon.series.get(None) is None

    def test_late_appearing_class_padded(self):
        sim, host, mon = self.make()
        sim.schedule(1.5, host.receive, Packet(1, 0, 125, flow=("late", 1)), None)
        sim.run(until=2.5)
        _, series = mon.rate_series("late")
        assert series == pytest.approx([0.0, 1000.0])

    def test_percent_of(self):
        sim, host, mon = self.make()
        sim.schedule(0.5, host.receive, Packet(1, 0, 125, flow=("x", 1)), None)
        sim.run(until=1.5)
        assert mon.percent_of("x", 10000)[0] == pytest.approx(10.0)

    def test_stop_halts_sampling(self):
        sim, host, mon = self.make()
        sim.schedule(1.5, mon.stop)
        sim.run(until=5.0)
        assert len(mon.times) == 1

    def test_stop_emits_rate_normalized_partial_sample(self):
        sim, host, mon = self.make()
        # 125 bytes delivered at t=1.2, stop at t=1.5: the final half
        # interval (0.5 s) holds 1000 bits -> 2000 b/s.
        sim.schedule(1.2, host.receive, Packet(1, 0, 125, flow=("legit", 1)), None)
        sim.schedule(1.5, mon.stop)
        sim.run(until=5.0)
        times, series = mon.rate_series("legit")
        assert times == [1.0, 1.5]
        assert series == pytest.approx([0.0, 2000.0])

    def test_stop_without_pending_bytes_adds_no_sample(self):
        sim, host, mon = self.make()
        sim.schedule(1.5, mon.stop)
        sim.run(until=5.0)
        assert mon.times == [1.0]

    def test_to_dict_payload(self):
        sim, host, mon = self.make()
        sim.schedule(0.5, host.receive, Packet(1, 0, 125, flow=("legit", 1)), None)
        sim.run(until=1.5)
        d = mon.to_dict()
        assert d["interval_s"] == 1.0
        assert d["times"] == [1.0]
        assert d["series_bps"]["legit"] == pytest.approx([1000.0])

    def test_invalid_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ThroughputMonitor(sim, [], lambda p: None, interval=0.0)


class TestMeanOverWindow:
    def test_basic_mean(self):
        assert mean_over_window([1, 2, 3, 4], [10, 20, 30, 40], 1, 3) == 25.0

    def test_empty_window(self):
        assert mean_over_window([1, 2], [10, 20], 5, 6) == 0.0

    def test_boundary_semantics(self):
        # (start, end]: start excluded, end included.
        assert mean_over_window([1, 2], [10, 20], 1, 2) == 20.0


class TestRngRegistry:
    def test_streams_cached_by_name(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        a_first = r1.stream("a").random()
        r2 = RngRegistry(7)
        r2.stream("b")  # create b first
        a_second = r2.stream("a").random()
        assert a_first == a_second

    def test_different_names_differ(self):
        rngs = RngRegistry(3)
        assert rngs.stream("x").random() != rngs.stream("y").random()

    def test_different_seeds_differ(self):
        assert derive_seed(1, "s") != derive_seed(2, "s")

    def test_spawn_children_reproducible(self):
        a = RngRegistry(5).spawn("child").stream("t").random()
        b = RngRegistry(5).spawn("child").stream("t").random()
        assert a == b
