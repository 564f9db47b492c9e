"""Property and unit tests for the adversary policy subsystem.

The hypothesis suites pin the state-machine invariants the policies
document: churn joins/leaves strictly alternate, an aware bot never
emits again after going dark, and ``packets_sent`` accounting tracks
the CBR emission schedule.  Unit tests cover policy construction,
reflection preconditions, and the amplifier's trigger log.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.journal import Journal
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import Packet, PacketKind
from repro.traffic.amplifier import AmplifierApp
from repro.traffic.attacker import AttackHost
from repro.traffic.policies import (
    POLICY_NAMES,
    AwareAttackHost,
    BotEnv,
    ChurnAttackHost,
    ContinuousPolicy,
    DefenseProbes,
    ProbingAttackHost,
    ReflectionAttackHost,
    make_policy,
)


def make_env(
    seed,
    servers=(1,),
    probes=None,
    amplifiers=(),
    journal=None,
    rate_bps=8000.0,
):
    """A minimal BotEnv on a linkless host.

    ``Host.originate`` finds no route and drops the packet, but the
    CBR's ``packets_sent`` counter and every policy decision still run
    — exactly what the state-machine properties need.
    """
    sim = Simulator()
    host = Host(sim, 100, "bot")
    env = BotEnv(
        sim=sim,
        host=host,
        servers=tuple(int(s) for s in servers),
        rate_bps=rate_bps,
        packet_size=100,
        jitter=0.0,
        rng=np.random.default_rng(seed),
        policy_rng=np.random.default_rng(seed + 1),
        probes=probes if probes is not None else DefenseProbes(),
        amplifiers=tuple(int(a) for a in amplifiers),
        journal=journal,
    )
    return sim, host, env


class TestChurnProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        churn_on=st.floats(0.2, 8.0),
        churn_off=st.floats(0.2, 8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_joins_and_leaves_strictly_alternate(self, seed, churn_on, churn_off):
        journal = Journal()
        sim, host, env = make_env(seed, journal=journal)
        journal.clock = lambda: sim.now
        bot = ChurnAttackHost(env, churn_on=churn_on, churn_off=churn_off)
        bot.start(at=0.0)
        sim.run(until=40.0)
        actions = [
            e.attrs["action"] for e in journal.events if e.name == "attack_policy"
        ]
        assert actions[0] == "join"
        for prev, cur in zip(actions, actions[1:]):
            assert prev != cur, f"non-alternating churn: {actions}"
        assert bot.joins - bot.leaves in (0, 1)
        assert bot.online == (bot.joins > bot.leaves)
        assert bot.joins >= 1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_stop_freezes_churn_state(self, seed):
        sim, host, env = make_env(seed)
        bot = ChurnAttackHost(env, churn_on=1.0, churn_off=1.0)
        bot.start(at=0.0)
        sim.run(until=5.0)
        bot.stop()
        joins, leaves = bot.joins, bot.leaves
        sim.run(until=30.0)
        assert (bot.joins, bot.leaves) == (joins, leaves)
        assert not bot.cbr.running


class TestAwareProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        capture_at=st.floats(1.0, 8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_dark_is_permanent(self, seed, capture_at):
        # Once the bot's subtree is captured it must never emit again,
        # even if the oracle later flips back (port re-opens).
        journal = Journal()
        state = {"captured": False}
        probes = DefenseProbes(subtree_captured=lambda addr: state["captured"])
        sim, host, env = make_env(seed, probes=probes, journal=journal)
        journal.clock = lambda: sim.now
        bot = AwareAttackHost(env, backoff=2.0, poll_interval=0.25)
        bot.start(at=0.0)
        sim.schedule_at(capture_at, lambda: state.__setitem__("captured", True))
        sim.run(until=capture_at + 1.0)
        assert bot.dark
        frozen = bot.packets_sent
        state["captured"] = False  # oracle flips back: bot stays dark
        sim.run(until=capture_at + 20.0)
        assert bot.packets_sent == frozen
        darks = [
            e for e in journal.events
            if e.name == "attack_policy" and e.attrs["action"] == "go_dark"
        ]
        assert len(darks) == 1

    def test_backoff_pauses_then_resumes(self):
        state = {"total": 0}
        probes = DefenseProbes(captures_total=lambda: state["total"])
        sim, host, env = make_env(3, probes=probes)
        bot = AwareAttackHost(env, backoff=3.0, poll_interval=0.5)
        bot.start(at=0.0)
        sim.run(until=2.0)
        assert bot.cbr.running
        state["total"] = 1  # a peer was captured somewhere
        sim.run(until=3.0)  # next poll notices and backs off
        assert not bot.cbr.running
        paused = bot.packets_sent
        sim.run(until=4.0)  # still inside the backoff window
        assert bot.packets_sent == paused
        sim.run(until=8.0)  # backoff elapsed: back on the trigger
        assert bot.cbr.running
        assert bot.packets_sent > paused


class TestPacketAccounting:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.floats(1.0, 20.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_continuous_matches_cbr_schedule(self, seed, horizon):
        # 8000 b/s at 100 B => one packet every 0.1 s from t=0.
        sim, host, env = make_env(seed)
        bot = ContinuousPolicy().spawn(env)
        assert isinstance(bot, AttackHost)
        bot.start(at=0.0)
        sim.run(until=horizon)
        interval = env.packet_size * 8 / env.rate_bps
        expected = int(horizon / interval) + 1  # emission at t=0 counts
        assert abs(bot.cbr.packets_sent - expected) <= 1


class TestProbing:
    def test_retargets_away_from_honeypots(self):
        journal = Journal()
        state = {"honeypots": {1}}
        probes = DefenseProbes(
            is_server_honeypot=lambda addr: addr in state["honeypots"]
        )
        sim, host, env = make_env(7, servers=(1, 2, 3), probes=probes,
                                  journal=journal)
        journal.clock = lambda: sim.now
        # Force the initial target onto the honeypot for determinism.
        bot = ProbingAttackHost(env, probe_interval=1.0)
        bot.target = 1
        bot.start(at=0.0)
        sim.run(until=2.5)
        assert bot.target in (2, 3)
        assert bot.retargets >= 1
        events = [
            e.attrs for e in journal.events
            if e.name == "attack_policy" and e.attrs["action"] == "retarget"
        ]
        assert events and events[0]["previous"] == 1

    def test_holds_fire_when_every_server_is_a_trap(self):
        probes = DefenseProbes(is_server_honeypot=lambda addr: True)
        sim, host, env = make_env(7, servers=(1, 2), probes=probes)
        bot = ProbingAttackHost(env, probe_interval=1.0)
        bot.start(at=0.0)
        sim.run(until=1.5)  # first probe fires at t=1
        assert not bot.cbr.running


class TestPolicyConstruction:
    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown attacker policy"):
            make_policy("quantum")

    def test_policy_names_all_constructible(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name in (name, "continuous")

    def test_onoff_defaults_bursts(self):
        p = make_policy("onoff")
        assert (p.t_on, p.t_off) == (5.0, 5.0)
        q = make_policy("onoff", t_on=1.5, t_off=1.0)
        assert (q.t_on, q.t_off) == (1.5, 1.0)

    def test_reflection_needs_amplifiers(self):
        sim, host, env = make_env(11)
        with pytest.raises(ValueError, match="amplifier"):
            make_policy("reflection").spawn(env)

    def test_reflection_rejects_sub_unit_gain(self):
        sim, host, env = make_env(11, amplifiers=(50,))
        with pytest.raises(ValueError, match="amplification"):
            ReflectionAttackHost(env, amplification=0.5)

    def test_reflection_spoofs_victim_toward_amplifier(self):
        journal = Journal()
        sim, host, env = make_env(
            11, servers=(1, 2), amplifiers=(50, 51), journal=journal
        )
        bot = make_policy("reflection", amplification=4.0).spawn(env)
        assert bot.amplifier in (50, 51)
        assert bot.victim in (1, 2)
        # Trigger rate is scaled down by the gain.
        assert bot.cbr.rate_bps == pytest.approx(env.rate_bps / 4.0)
        notes = [e for e in journal.events if e.name == "attack_policy"]
        assert notes and notes[0].attrs["action"] == "reflect_via"


def trigger_packet(bot_addr, victim, amplifier, size=100):
    return Packet(
        victim,  # spoofed: claims to come from the victim
        amplifier,
        size,
        true_src=bot_addr,
        flow=("trigger", bot_addr),
    )


class TestAmplifierApp:
    def make_amp(self, gain=3.0, journal=None):
        sim = Simulator()
        host = Host(sim, 50, "amp")
        app = AmplifierApp(sim, host, amplification=gain, journal=journal)
        return sim, host, app

    def test_rejects_sub_unit_gain(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="amplification"):
            AmplifierApp(sim, Host(sim, 50, "amp"), amplification=0.9)

    def test_reflects_gain_packets_per_trigger(self):
        journal = Journal()
        sim, host, app = self.make_amp(gain=3.0, journal=journal)
        app._on_deliver(trigger_packet(7, victim=1, amplifier=50))
        assert app.triggers_received == 1
        assert app.packets_reflected == 3
        assert app.trigger_sources == {7: 1}
        hops = [e for e in journal.events if e.name == "reflect_hop"]
        assert len(hops) == 1
        assert hops[0].attrs == {
            "amplifier": 50, "source": 7, "victim": 1, "gain": 3,
        }

    def test_reflect_hop_journaled_once_per_source(self):
        journal = Journal()
        sim, host, app = self.make_amp(gain=2.0, journal=journal)
        for _ in range(5):
            app._on_deliver(trigger_packet(7, victim=1, amplifier=50))
        app._on_deliver(trigger_packet(8, victim=1, amplifier=50))
        assert app.trigger_sources == {7: 5, 8: 1}
        assert app.packets_reflected == 12
        hops = [e for e in journal.events if e.name == "reflect_hop"]
        assert [h.attrs["source"] for h in hops] == [7, 8]

    def test_ignores_non_trigger_traffic(self):
        sim, host, app = self.make_amp()
        app._on_deliver(Packet(1, 50, 100, flow=("client", 1)))
        app._on_deliver(Packet(1, 50, 100, flow=None))
        app._on_deliver(
            Packet(1, 50, 100, flow=("trigger", 1), kind=PacketKind.CONTROL)
        )
        assert app.triggers_received == 0
        assert app.packets_reflected == 0
