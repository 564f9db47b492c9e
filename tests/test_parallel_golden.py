"""Golden-result regression suite: fixed-seed scenario digests, and
serial == pooled (1, 2, 4 jobs) byte-for-byte on the artifact dict.

One representative point per tree-scenario figure (Figs. 8, 10, 11) at
a tiny scale so the suite stays fast.  The SHA-256 digests pin the
exact simulation output: any change to the engine, defenses, traffic
models, or seed derivation that alters results must update them
consciously.

The parallel half proves the pool's determinism contract: the same
tasks run in-process (1 job) or on 2 or 4 worker processes produce
artifact dicts whose canonical JSON is identical to the serial run's.
The serial reference is built here, with plain ``run_tree_scenario``
calls into one shared telemetry, so it does not go through the pool
or its artifact merge.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.runner import (
    result_to_dict,
    run_scenario_task,
)
from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.parallel import PoolConfig, Task, run_tasks

TINY = TreeScenarioParams(
    n_leaves=12,
    n_attackers=3,
    duration=12.0,
    attack_start=2.0,
    attack_end=10.0,
    epoch_len=4.0,
)

# One representative parameter point per figure scenario.
GOLDEN_POINTS = {
    "fig8/honeypot-even": replace(
        TINY, defense="honeypot", placement="even", attacker_rate=1.0e6, seed=1
    ),
    "fig10/pushback-close": replace(
        TINY, defense="pushback", placement="close", attacker_rate=1.0e6, seed=3
    ),
    "fig11/none-halfrate": replace(
        TINY, defense="none", attacker_rate=0.5e6, seed=5
    ),
}

# SHA-256 over canonical JSON (sort_keys) of result_to_dict(...).
# Last regenerated when the scheduler policy knob was removed: the
# params dict lost its ``scheduler`` field and the top-level
# ``scheduler`` key became the constant "heap".  Every simulation
# value — capture times, throughput curves, event counts — is
# unchanged; setting ``scheduler`` back to None in both places
# reproduces the previous digests.
GOLDEN_DIGESTS = {
    "fig8/honeypot-even": (
        "4d48274301f48dfd5fcdd622fbc1b667f559c77640e98fcda9c9f434aa30ac9b"
    ),
    "fig10/pushback-close": (
        "68e4a4a8071b2469bd6a883a75de7a5b3f17695dc03dbf849024a4f38b4d9360"
    ),
    "fig11/none-halfrate": (
        "942d58b2a4e06511c895aefcdc1b407fc985ed88a7e4e519225939256762593b"
    ),
}


def canonical(artifact: dict) -> str:
    return json.dumps(artifact, sort_keys=True)


def digest(artifact: dict) -> str:
    return hashlib.sha256(canonical(artifact).encode()).hexdigest()


def serial_telemetry_of(points: dict):
    """One shared telemetry fed by ``run_tree_scenario`` per point, each
    run bracketed like a pool task — the independent serial reference
    the pooled journals are held to."""
    from repro.obs import Telemetry

    telemetry = Telemetry()
    for name, params in points.items():
        telemetry.journal.record("pool_task_start", at=0.0, task=name)
        run_tree_scenario(params, telemetry=telemetry)
        telemetry.journal.record("pool_task_finish", task=name)
    return telemetry


@pytest.fixture(scope="module")
def serial_artifacts():
    """The serial (no-pool) artifact dict of every golden point."""
    return {
        name: result_to_dict(run_tree_scenario(params))
        for name, params in GOLDEN_POINTS.items()
    }


class TestGoldenDigests:
    def test_fixed_seed_digests(self, serial_artifacts):
        got = {name: digest(art) for name, art in serial_artifacts.items()}
        assert got == GOLDEN_DIGESTS, (
            "simulation output changed — if intentional, regenerate "
            "GOLDEN_DIGESTS (sha256 of canonical-JSON result_to_dict)"
        )

    def test_seed_surfaced_in_artifact(self, serial_artifacts):
        for name, art in serial_artifacts.items():
            assert art["seed"] == GOLDEN_POINTS[name].seed
            assert art["params"]["seed"] == GOLDEN_POINTS[name].seed


class TestSerialEqualsParallel:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_pool_matches_serial_byte_for_byte(self, serial_artifacts, jobs):
        tasks = [
            Task(name, run_scenario_task, {"params": params, "telemetry": False})
            for name, params in GOLDEN_POINTS.items()
        ]
        report = run_tasks(tasks, PoolConfig(jobs=jobs))
        assert report.ok
        for name in GOLDEN_POINTS:
            pooled = report.value(name)["result"]
            assert canonical(pooled) == canonical(serial_artifacts[name])


class TestInstrumentedSerialEqualsParallel:
    """Telemetry determinism: the merged causal journal of an
    instrumented pool run, and the session timelines (spans) derived
    from it, are byte-identical to a serial run's — worker journal ids
    are offset past the parent's in task order."""

    @pytest.fixture(scope="class")
    def serial_telemetry(self):
        return serial_telemetry_of(GOLDEN_POINTS)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_merged_journal_and_spans_match_serial(
        self, serial_telemetry, jobs, tmp_path
    ):
        from repro.experiments.runner import run_many
        from repro.obs import Telemetry
        from repro.obs.journal import diff_journals, render_timeline

        pooled = Telemetry()
        run_many(dict(GOLDEN_POINTS), jobs=jobs, telemetry=pooled)
        assert diff_journals(serial_telemetry.journal, pooled.journal) is None
        timeline = render_timeline(pooled.journal)
        assert "port_close" in timeline
        assert timeline == render_timeline(serial_telemetry.journal)
        serial_path = serial_telemetry.journal.write_jsonl(
            tmp_path / "serial.jsonl"
        )
        pooled_path = pooled.journal.write_jsonl(tmp_path / f"pool{jobs}.jsonl")
        with open(serial_path, "rb") as a, open(pooled_path, "rb") as b:
            assert a.read() == b.read()
        assert canonical(pooled.artifact()["metrics"]) == canonical(
            serial_telemetry.artifact()["metrics"]
        )

    def test_journal_covers_every_task(self, serial_telemetry):
        starts = serial_telemetry.journal.find("pool_task_start")
        finishes = serial_telemetry.journal.find("pool_task_finish")
        assert [e.attrs["task"] for e in starts] == list(GOLDEN_POINTS)
        assert [e.attrs["task"] for e in finishes] == list(GOLDEN_POINTS)


# One point per adversary policy (and the reflection workload) at the
# same tiny scale.  Seeds differ per policy so runs don't accidentally
# share RNG state through copy-paste.
POLICY_POINTS = {
    "policy/follower": replace(TINY, seed=17, attacker_policy="follower"),
    "policy/aware": replace(TINY, seed=19, attacker_policy="aware"),
    "policy/probing": replace(TINY, seed=23, attacker_policy="probing"),
    "policy/churn": replace(TINY, seed=29, attacker_policy="churn"),
    "policy/reflection": replace(
        TINY, seed=31, attacker_policy="reflection", n_amplifiers=2
    ),
}


class TestPolicyGoldenJournals:
    """Determinism of the adversary-policy subsystem: every policy's
    instrumented journal is byte-identical serial vs pooled (1, 2, 4
    jobs)."""

    @pytest.fixture(scope="class")
    def serial_policy_telemetry(self):
        return serial_telemetry_of(POLICY_POINTS)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_pool_journal_matches_serial(
        self, serial_policy_telemetry, jobs, tmp_path
    ):
        from repro.experiments.runner import run_many
        from repro.obs import Telemetry
        from repro.obs.journal import diff_journals

        pooled = Telemetry()
        run_many(dict(POLICY_POINTS), jobs=jobs, telemetry=pooled)
        assert diff_journals(serial_policy_telemetry.journal, pooled.journal) is None
        serial_path = serial_policy_telemetry.journal.write_jsonl(
            tmp_path / "serial.jsonl"
        )
        pooled_path = pooled.journal.write_jsonl(tmp_path / f"pool{jobs}.jsonl")
        with open(serial_path, "rb") as a, open(pooled_path, "rb") as b:
            assert a.read() == b.read()

    def test_policy_events_present(self, serial_policy_telemetry):
        journal = serial_policy_telemetry.journal
        # Adaptive policies journal their decisions; reflection also
        # journals the reflect edges and the stage-two traceback.
        assert journal.find("attack_policy")
        hops = journal.find("reflect_hop")
        assert hops and all(e.attrs["gain"] >= 1 for e in hops)
        traces = journal.find("reflector_traceback")
        assert traces and all(e.attrs["sources"] for e in traces)
