"""Legacy-equivalence: policy refactor changed zero journal bytes.

``tests/fixtures/journals/continuous.jsonl`` and ``onoff.jsonl`` were
generated *before* the attacker code was refactored onto the
:class:`~repro.traffic.policies.AttackerPolicy` interface; replaying
the same scenarios through the policy layer must reproduce them
byte-for-byte.  Any drift here means the refactor perturbed an RNG
draw or event ordering on the seed path — the one thing the policy
subsystem promised not to do.

``follower.jsonl`` is different: it was pinned *after* the
``FollowerAttackHost`` stop()/restart fix (a deliberate behavior
change — the pre-fix bot leaked a stale start event and a poll timer),
so it guards the policy-layer follower against future drift rather
than proving pre-refactor identity.

``interas.jsonl`` and ``hierarchical.jsonl`` pin the two AS-level
back-propagation engines with telemetry on. They were generated while
those engines still recorded lifecycle spans next to every journal
event, so they prove that dropping the spans left the journal alone.
"""

from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

from repro.backprop.hierarchical import HierarchicalBackprop, build_multi_as_network
from repro.backprop.interas import ASAttackerSpec, InterASBackprop, InterASConfig
from repro.backprop.intraas import IntraASConfig
from repro.experiments.runner import run_many
from repro.experiments.scenarios import TreeScenarioParams
from repro.honeypots.schedule import BernoulliSchedule
from repro.obs import Telemetry
from repro.sim.engine import Simulator
from repro.topology.aslevel import ASTopology
from repro.traffic.sources import CBRSource, OnOffSource

FIXTURES = Path(__file__).parent / "fixtures" / "journals"

TINY = TreeScenarioParams(
    n_leaves=12,
    n_attackers=3,
    duration=12.0,
    attack_start=2.0,
    attack_end=10.0,
    epoch_len=4.0,
)

LEGACY_POINTS = {
    "legacy/continuous": (replace(TINY, seed=11), "continuous.jsonl"),
    "legacy/onoff": (
        replace(TINY, seed=13, attacker_policy="onoff", t_on=1.5, t_off=1.0),
        "onoff.jsonl",
    ),
    "legacy/follower": (
        replace(TINY, seed=17, attacker_policy="follower"),
        "follower.jsonl",
    ),
}


class TestLegacyEquivalence:
    @pytest.mark.parametrize("name", sorted(LEGACY_POINTS))
    def test_journal_bytes_unchanged(self, name, tmp_path):
        params, fixture = LEGACY_POINTS[name]
        telemetry = Telemetry()
        run_many({name: params}, telemetry=telemetry)
        out = tmp_path / fixture
        telemetry.journal.write_jsonl(out)
        expected = (FIXTURES / fixture).read_bytes()
        got = out.read_bytes()
        assert got == expected, (
            f"{name}: journal drifted from the committed fixture "
            f"({len(got)} vs {len(expected)} bytes). The policy layer must "
            f"replay the seed attacker draw-for-draw; if this change is "
            f"intentional (it almost never is), regenerate "
            f"tests/fixtures/journals/{fixture}."
        )

    def test_fixtures_are_nonempty(self):
        # Guard against a silently-truncated fixture making the byte
        # comparison vacuous.
        for _, fixture in LEGACY_POINTS.values():
            data = (FIXTURES / fixture).read_bytes()
            assert data.count(b"\n") > 20, f"{fixture} looks truncated"

    def test_onoff_alias_of_continuous_with_bursts(self):
        # "onoff" is continuous with bursts defaulted: explicit t_on/t_off
        # must produce the identical journal under either name.
        a, b = Telemetry(), Telemetry()
        p_on = replace(TINY, seed=13, attacker_policy="onoff", t_on=1.5, t_off=1.0)
        p_cont = replace(p_on, attacker_policy="continuous")
        run_many({"x": p_on}, telemetry=a)
        run_many({"x": p_cont}, telemetry=b)
        ea = [e.as_dict() for e in a.journal.events]
        eb = [e.as_dict() for e in b.journal.events]
        assert ea == eb


def interas_journal():
    """6 transit hops, one on-off zombie, p=1, progressive, 200 s."""
    g = nx.path_graph(8)
    for node in g.nodes:
        g.nodes[node]["transit"] = 0 < node < 7
    topo = ASTopology(
        graph=g, victim_as=0, transit_ases=list(range(1, 7)), stub_ases=[7]
    )
    sim = Simulator()
    telemetry = Telemetry(sim)
    attacker = ASAttackerSpec(1, 7, 10.0, t_on=2.0, t_off=8.0, phase=1.0)
    engine = InterASBackprop(
        topo,
        BernoulliSchedule(1.0, 10.0, seed=0),
        [attacker],
        InterASConfig(tau=0.5, per_hop_delay=0.05, intra_as_capture_delay=0.5),
        progressive=True,
        sim=sim,
        telemetry=telemetry,
    )
    engine.run(until=200.0)
    return telemetry.journal


def hierarchical_journal():
    """The progressive burst chain of ``bench_hierarchical.run_bursty``,
    stopped at 19 s (before the second epoch boundary)."""
    topo = build_multi_as_network([1, 0, 0, 0, 0, 1])
    telemetry = Telemetry(topo.network.sim)
    HierarchicalBackprop(
        topo, epoch_len=10.0, progressive=True,
        config=IntraASConfig(trigger_threshold=2), telemetry=telemetry,
    )
    zombie = topo.sites[5].hosts[0]
    cbr = CBRSource(
        topo.network.sim, zombie, topo.server.addr,
        rate_bps=4e4, packet_size=500,
        flow=("attack", zombie.addr), src_fn=lambda: 1_000_000_321,
    )
    OnOffSource(topo.network.sim, cbr, t_on=0.5, t_off=9.5).start(at=1.0)
    topo.network.run(until=19.0)
    return telemetry.journal


BACKPROP_POINTS = {
    "interas.jsonl": interas_journal,
    "hierarchical.jsonl": hierarchical_journal,
}


class TestBackpropJournals:
    @pytest.mark.parametrize("fixture", sorted(BACKPROP_POINTS))
    def test_journal_bytes_unchanged(self, fixture, tmp_path):
        out = tmp_path / fixture
        BACKPROP_POINTS[fixture]().write_jsonl(out)
        expected = (FIXTURES / fixture).read_bytes()
        got = out.read_bytes()
        assert got == expected, (
            f"{fixture}: journal drifted from the committed fixture "
            f"({len(got)} vs {len(expected)} bytes)."
        )

    def test_fixtures_cover_the_cascade(self):
        for fixture in BACKPROP_POINTS:
            data = (FIXTURES / fixture).read_bytes()
            for kind in (b'"as_session_open"', b'"inter_as_hop"', b'"port_close"'):
                assert kind in data, f"{fixture} lacks {kind.decode()}"
