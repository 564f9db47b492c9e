"""Tests for traffic sources, attackers, and clients."""

import numpy as np
import pytest

from repro.crypto.hashchain import HashChain
from repro.honeypots.schedule import RoamingSchedule
from repro.honeypots.subscription import SubscriptionService
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.traffic.attacker import (
    SPOOF_BASE,
    AttackHost,
    FollowerAttackHost,
    make_spoofer,
)
from repro.traffic.client import RoamingClientApp, StaticClientApp
from repro.traffic.sources import CBRSource, OnOffSource


def make_host_pair():
    sim = Simulator()
    src = Host(sim, 0, "src")
    dst = Host(sim, 1, "dst")
    Link(sim, src, dst, 100e6, 0.001)
    return sim, src, dst


class TestCBRSource:
    def test_packet_count_matches_rate(self):
        sim, src, dst = make_host_pair()
        # 8000 b/s with 100-byte packets = 10 packets/s.
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)
        cbr.start(at=0.0)
        sim.run(until=1.95)
        assert cbr.packets_sent == 20  # t=0.0, 0.1, ..., 1.9

    def test_delivery(self):
        sim, src, dst = make_host_pair()
        seen = []
        dst.on_deliver(seen.append)
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)
        cbr.start(at=0.0)
        sim.run(until=0.5)
        assert len(seen) == 5

    def test_stop_halts(self):
        sim, src, dst = make_host_pair()
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)
        cbr.start(at=0.0)
        sim.schedule(0.55, cbr.stop)
        sim.run(until=2.0)
        assert cbr.packets_sent == 6

    def test_restart_after_stop(self):
        sim, src, dst = make_host_pair()
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)
        cbr.start(at=0.0)
        sim.run(until=0.25)
        cbr.stop()
        cbr.start()
        sim.run(until=0.55)
        assert cbr.packets_sent > 3

    def test_callable_destination(self):
        sim, src, dst = make_host_pair()
        dsts = iter([1, 1, 1])
        cbr = CBRSource(sim, src, lambda: next(dsts), rate_bps=8000, packet_size=100)
        seen = []
        dst.on_deliver(seen.append)
        cbr.start(at=0.0)
        sim.run(until=0.25)
        assert len(seen) == 3

    def test_spoofed_src_fn(self):
        sim, src, dst = make_host_pair()
        seen = []
        dst.on_deliver(seen.append)
        cbr = CBRSource(
            sim, src, 1, rate_bps=8000, packet_size=100, src_fn=lambda: 777
        )
        cbr.start(at=0.0)
        sim.run(until=0.15)
        assert all(p.src == 777 and p.true_src == 0 and p.spoofed for p in seen)

    def test_jitter_preserves_long_run_rate(self):
        sim, src, dst = make_host_pair()
        rng = np.random.default_rng(0)
        cbr = CBRSource(
            sim, src, 1, rate_bps=8000, packet_size=100, jitter=0.3, rng=rng
        )
        cbr.start(at=0.0)
        sim.run(until=100.0)
        # 10 pps nominal over 100 s.
        assert abs(cbr.packets_sent - 1000) < 60

    def test_invalid_params(self):
        sim, src, dst = make_host_pair()
        with pytest.raises(ValueError):
            CBRSource(sim, src, 1, rate_bps=0)
        # An infinite rate makes every gap 0.0: _tick would reschedule
        # itself at `now` forever.  NaN gaps would fire out of order.
        with pytest.raises(ValueError):
            CBRSource(sim, src, 1, rate_bps=float("inf"))
        with pytest.raises(ValueError):
            CBRSource(sim, src, 1, rate_bps=float("nan"))
        with pytest.raises(ValueError):
            CBRSource(sim, src, 1, rate_bps=1e3, packet_size=0)
        with pytest.raises(ValueError):
            CBRSource(sim, src, 1, rate_bps=1e3, jitter=1.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            CBRSource(sim, src, 1, rate_bps=1e3, jitter=0.2)  # no rng


class TestOnOffSource:
    def test_duty_cycle(self):
        sim, src, dst = make_host_pair()
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)  # 10 pps
        onoff = OnOffSource(sim, cbr, t_on=1.0, t_off=1.0)
        onoff.start(at=0.0)
        sim.run(until=9.9)
        # 5 bursts of ~10 packets each.
        assert 45 <= cbr.packets_sent <= 55
        assert onoff.bursts == 5

    def test_phase_delays_first_burst(self):
        sim, src, dst = make_host_pair()
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)
        onoff = OnOffSource(sim, cbr, t_on=1.0, t_off=1.0, phase=0.5)
        onoff.start(at=0.0)
        sim.run(until=0.45)
        assert cbr.packets_sent == 0
        sim.run(until=0.65)
        assert cbr.packets_sent > 0

    def test_stop(self):
        sim, src, dst = make_host_pair()
        cbr = CBRSource(sim, src, 1, rate_bps=8000, packet_size=100)
        onoff = OnOffSource(sim, cbr, t_on=1.0, t_off=1.0)
        onoff.start(at=0.0)
        sim.schedule(0.5, onoff.stop)
        sim.run(until=5.0)
        assert cbr.packets_sent <= 6

    def test_invalid(self):
        sim, src, dst = make_host_pair()
        cbr = CBRSource(sim, src, 1, rate_bps=8000)
        with pytest.raises(ValueError):
            OnOffSource(sim, cbr, t_on=0.0, t_off=1.0)
        with pytest.raises(ValueError):
            OnOffSource(sim, cbr, t_on=1.0, t_off=-1.0)


class TestAttackHost:
    def test_fixed_target_in_pool(self):
        sim, src, dst = make_host_pair()
        atk = AttackHost(sim, src, [1, 2, 3], 8000, np.random.default_rng(0))
        assert atk.target in (1, 2, 3)

    def test_spoofing_on_by_default(self):
        sim, src, dst = make_host_pair()
        seen = []
        dst.on_deliver(seen.append)
        atk = AttackHost(sim, src, [1], 8000, np.random.default_rng(0))
        atk.start(at=0.0)
        sim.run(until=0.5)
        assert seen
        assert all(p.spoofed and p.src >= SPOOF_BASE for p in seen)

    def test_spoof_disabled(self):
        sim, src, dst = make_host_pair()
        seen = []
        dst.on_deliver(seen.append)
        atk = AttackHost(sim, src, [1], 8000, np.random.default_rng(0), spoof=False)
        atk.start(at=0.0)
        sim.run(until=0.5)
        assert all(not p.spoofed for p in seen)

    def test_onoff_attack(self):
        sim, src, dst = make_host_pair()
        atk = AttackHost(
            sim, src, [1], 8000, np.random.default_rng(0),
            packet_size=100, t_on=1.0, t_off=9.0,
        )
        atk.start(at=0.0)
        sim.run(until=20.0)
        # ~2 bursts of 10 packets out of a possible 200 continuous.
        assert 5 <= atk.packets_sent <= 40

    def test_mismatched_onoff_params(self):
        sim, src, dst = make_host_pair()
        with pytest.raises(ValueError):
            AttackHost(sim, src, [1], 8000, np.random.default_rng(0), t_on=1.0)

    def test_empty_server_pool(self):
        sim, src, dst = make_host_pair()
        with pytest.raises(ValueError):
            AttackHost(sim, src, [], 8000, np.random.default_rng(0))

    def test_spoofer_range(self):
        rng = np.random.default_rng(0)
        spoof = make_spoofer(rng)
        for _ in range(50):
            assert spoof() >= SPOOF_BASE


class TestFollowerAttackHost:
    def test_stops_after_d_follow_and_resumes(self):
        sim, src, dst = make_host_pair()
        state = {"honeypot": False}
        fol = FollowerAttackHost(
            sim,
            src,
            1,
            rate_bps=8000,
            d_follow=0.5,
            is_target_honeypot=lambda: state["honeypot"],
            poll_interval=0.05,
            packet_size=100,
        )
        fol.start(at=0.0)
        sim.run(until=1.0)
        sent_before = fol.cbr.packets_sent
        assert sent_before > 0
        state["honeypot"] = True
        sim.run(until=1.4)  # < d_follow after switch: still sending
        assert fol.cbr.packets_sent > sent_before
        sim.run(until=3.0)  # long after: stopped
        stopped_at = fol.cbr.packets_sent
        sim.run(until=4.0)
        assert fol.cbr.packets_sent == stopped_at
        state["honeypot"] = False
        sim.run(until=5.0)
        assert fol.cbr.packets_sent > stopped_at

    def test_negative_d_follow(self):
        sim, src, dst = make_host_pair()
        with pytest.raises(ValueError):
            FollowerAttackHost(sim, src, 1, 8000, -1.0, lambda: False)

    def test_stop_before_begin_cancels_pending_start(self):
        # Regression: stop() called before the scheduled _begin fired
        # used to leave the start event queued — the bot would come
        # alive after being told to stop.
        sim, src, dst = make_host_pair()
        fol = FollowerAttackHost(
            sim, src, 1, rate_bps=8000,
            d_follow=0.5, is_target_honeypot=lambda: False,
            poll_interval=0.1, packet_size=100,
        )
        fol.start(at=2.0)
        sim.run(until=1.0)
        fol.stop()
        sim.run(until=5.0)
        assert fol.packets_sent == 0
        assert sim.pending(live=True) == 0

    def test_stop_before_begin_then_restart_no_duplicate_poll(self):
        # Regression: the stale _begin from before the stop() fired on
        # restart as a *second* begin, arming a duplicate poll timer
        # (roughly doubling poll frequency forever after).
        sim, src, dst = make_host_pair()
        polls = {"n": 0}

        def probe():
            polls["n"] += 1
            return False

        fol = FollowerAttackHost(
            sim, src, 1, rate_bps=8000,
            d_follow=0.5, is_target_honeypot=probe,
            poll_interval=0.1, packet_size=100,
        )
        fol.start(at=2.0)
        sim.run(until=1.0)
        fol.stop()
        fol.start(at=2.0)
        sim.run(until=5.0)
        # One timer polls ~30 times over [2, 5] at 0.1 s; a duplicate
        # would roughly double that.
        assert polls["n"] <= 35

    def test_stop_after_begin_drains_poll_timer(self):
        # Regression: stop() after the bot was live never cancelled the
        # poll timer, which re-armed itself forever and kept the
        # simulator's event queue from draining.
        sim, src, dst = make_host_pair()
        fol = FollowerAttackHost(
            sim, src, 1, rate_bps=8000,
            d_follow=0.5, is_target_honeypot=lambda: False,
            poll_interval=0.1, packet_size=100,
        )
        fol.start(at=0.0)
        sim.run(until=1.0)
        fol.stop()
        sim.run(until=2.0)  # drain in-flight link deliveries
        assert sim.pending(live=True) == 0


class TestClients:
    def make_roaming(self):
        sim = Simulator()
        client = Host(sim, 0, "client")
        servers = [Host(sim, 10 + i, f"s{i}") for i in range(5)]
        hub = Host(sim, 99, "hub")  # single-homed client: default route
        Link(sim, client, hub, 100e6, 0.001)
        chain = HashChain(64, anchor=bytes(32))
        sched = RoamingSchedule(5, 3, 1.0, chain)
        service = SubscriptionService(sched, chain)
        sub = service.subscribe(0.0, "high")
        app = RoamingClientApp(
            sim,
            client,
            sub,
            [s.addr for s in servers],
            rate_bps=80000,
            rng=np.random.default_rng(0),
            packet_size=100,
        )
        return sim, client, sched, app

    def test_roaming_client_only_targets_active_servers(self):
        sim, client, sched, app = self.make_roaming()
        sent = []
        orig = client.originate

        def spy(pkt):
            sent.append((sim.now, pkt.dst))
            return orig(pkt)

        client.originate = spy
        app.start(at=0.0)
        sim.run(until=5.0)
        assert sent
        for t, dst in sent:
            epoch = sched.epoch_index(t)
            active = {10 + i for i in sched.active_set(epoch)}
            assert dst in active, f"packet at t={t} to inactive server {dst}"

    def test_roaming_client_switches_servers(self):
        sim, client, sched, app = self.make_roaming()
        app.start(at=0.0)
        sim.run(until=10.0)
        assert app.epoch_switches >= 10

    def test_static_client_fixed_server(self):
        sim = Simulator()
        client = Host(sim, 0)
        hub = Host(sim, 1)
        Link(sim, client, hub, 1e6, 0.001)
        app = StaticClientApp(
            sim, client, [5, 6, 7], 8000, np.random.default_rng(0), packet_size=100
        )
        assert app.current_server in (5, 6, 7)
        app.start(at=0.0)
        sim.run(until=1.0)
        assert app.cbr.packets_sent > 0
