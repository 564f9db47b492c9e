"""Tests for the unified telemetry layer (repro.obs)."""

import json

import pytest

from repro.obs import (
    EngineProfiler,
    Journal,
    Telemetry,
    build_tree,
    load_json,
    write_json,
)
from repro.sim.engine import Simulator


class TestMetrics:
    def test_counters_add_and_gauges_keep_the_maximum(self):
        tele = Telemetry()
        tele.add_metrics({"counters": {"c": 2}, "gauges": {"g": 4}})
        tele.add_metrics({"counters": {"c": 3, "d": 0}, "gauges": {"g": 3}})
        tele.add_metrics({"gauges": {"g": 9, "h": 1}})
        tele.add_metrics({})
        assert tele.counters == {"c": 5, "d": 0}
        assert tele.gauges == {"g": 9, "h": 1}

    def test_record_stats_keeps_numbers_only(self):
        tele = Telemetry()
        stats = {"captures": 3, "rate": 0.5, "active": True, "mode": "x", "ids": [1]}
        tele.record_stats(stats, prefix="honeypot_")
        tele.record_stats({"captures": 2}, prefix="honeypot_")
        assert tele.counters == {"honeypot_captures": 5, "honeypot_rate": 0.5}
        assert tele.gauges == {}

    def test_render_prints_one_exact_line_per_metric(self):
        tele = Telemetry()
        tele.add_metrics(
            {"counters": {"b_total": 1226660488, "a_total": 0.25}, "gauges": {"c": 7}}
        )
        assert tele.render() == "a_total 0.25\nb_total 1226660488\nc 7\n"


class TestProfiler:
    def test_profiles_a_run(self):
        sim = Simulator()
        prof = EngineProfiler()
        prof.attach(sim)
        for i in range(100):
            sim.schedule(i * 0.01, lambda: None)
        sim.run()
        d = prof.as_dict()
        assert d["events_processed"] == 100
        assert d["runs"] == 1
        assert d["sim_time_s"] == pytest.approx(0.99)
        assert d["wall_time_s"] > 0
        assert d["heap_hwm_events"] >= 1

    def test_unprofiled_run_matches(self):
        def load(sim):
            for i in range(50):
                sim.schedule(i * 0.01, lambda: None)

        plain = Simulator()
        load(plain)
        plain.run()
        profiled = Simulator()
        EngineProfiler().attach(profiled)
        load(profiled)
        profiled.run()
        assert profiled.events_processed == plain.events_processed
        assert profiled.now == plain.now


class TestExport:
    def test_json_artifact_round_trip(self, tmp_path):
        tele = Telemetry()
        tele.add_metrics({"counters": {"c": 2}, "gauges": {"g": 1.5}})
        root = tele.journal.record("session_open")
        tele.journal.record("session_close", parent=root, at=1.0)
        path = tmp_path / "artifact.json"
        tele.write(path)
        data = load_json(path)
        assert data["schema"] == "repro.obs/2"
        assert data["metrics"] == {"counters": {"c": 2}, "gauges": {"g": 1.5}}
        journal = Journal.from_dicts(data["journal"])
        assert journal.to_dicts() == tele.journal.to_dicts()

    def test_write_json_coerces_numpy(self, tmp_path):
        import numpy as np

        path = write_json(tmp_path / "x.json", {"a": np.float64(1.5), "b": {3, 1}})
        data = load_json(path)
        assert data == {"a": 1.5, "b": [1, 3]}

    def test_json_default_sorts_mixed_type_sets(self):
        from repro.obs.export import json_default

        # A homogeneous set stays value-sorted ...
        assert json_default({3, 1, 2}) == [1, 2, 3]
        # ... and a mixed-type set (unorderable in py3) falls back to a
        # stable repr ordering instead of raising TypeError.
        mixed = json_default({1, "a", (2, 3)})
        assert sorted(map(repr, mixed)) == [repr(v) for v in mixed]
        assert json.loads(json.dumps({"s": {1, "a"}}, default=json_default))


class TestTelemetryIntegration:
    """End-to-end checks on real (small, fixed-seed) simulations."""

    @staticmethod
    def _trial(telemetry):
        from repro.experiments.validation import ValidationParams, run_trial

        params = ValidationParams(hops=3, p=0.5, epoch_len=5.0, runs=1, seed=3)
        return run_trial(params, 0, telemetry=telemetry)

    def test_telemetry_does_not_perturb_the_simulation(self):
        t_plain = self._trial(None)
        t_instr = self._trial(Telemetry())
        assert t_instr == pytest.approx(t_plain)

    def test_fixed_seed_artifact_is_identical(self):
        """Zero-drift regression: same seed, same artifact, bit for bit
        (event ids, times, counter values — everything but wall time)."""
        artifacts = []
        for _ in range(2):
            tele = Telemetry()
            self._trial(tele)
            art = tele.artifact()
            artifacts.append({"metrics": art["metrics"], "journal": art["journal"]})
        assert artifacts[0] == artifacts[1]

    def test_trial_produces_session_journal_and_metrics(self):
        tele = Telemetry()
        captured = self._trial(tele)
        assert captured is not None
        assert tele.counters["node_packets_received_total"] > 0
        assert tele.journal.find("session_open")
        assert tele.journal.find("port_close")

    def test_scenario_has_complete_session_tree(self):
        from dataclasses import replace

        from repro.experiments.scenarios import (
            TreeScenarioParams,
            run_tree_scenario,
        )

        params = TreeScenarioParams(
            n_leaves=30,
            n_attackers=5,
            duration=40.0,
            attack_start=5.0,
            attack_end=35.0,
            seed=2,
        )
        tele = Telemetry()
        res = run_tree_scenario(params, telemetry=tele)
        # At least one honeypot session progressed all the way from
        # open to port close and was torn down: every X_open in its
        # tree has its X_close child.
        roots, children = build_tree(tele.journal)

        def complete(root):
            stack, names = [root], set()
            while stack:
                event = stack.pop()
                kids = children.get(event.event_id, [])
                close = event.name[: -len("open")] + "close"
                if event.name.endswith("_open") and close not in {k.name for k in kids}:
                    return False
                names.add(event.name)
                stack.extend(kids)
            return "port_close" in names

        assert any(complete(r) for r in roots if r.name == "session_open")
        assert res.capture_times
        # Engine self-profile saw the run.
        prof = tele.profiler.as_dict()
        assert prof["events_processed"] > 0
        assert prof["events_per_sec"] > 0
        # The throughput series landed in the artifact extras.
        art = tele.artifact()
        assert art["throughput"]["times"]
        assert "legit" in art["throughput"]["series_bps"]
        assert "attack" in art["throughput"]["series_bps"]
        # Disabled-path equivalence: the same scenario without telemetry
        # produces the same captures.
        res_plain = run_tree_scenario(replace(params))
        assert res_plain.capture_times == res.capture_times


class TestMetricsWrittenAfterRun:
    """No metric is written while a simulator runs: the totals are
    filled after the run from the counts the network and the defense
    keep, so telemetry adds no per-event work."""

    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        hubs = []
        bind, run = Telemetry.bind, Simulator.run

        def tracked_bind(tele, sim):
            hubs.append(tele)
            return bind(tele, sim)

        def metrics():
            return [(dict(t.counters), dict(t.gauges)) for t in hubs]

        def guarded_run(sim, until=None):
            before = metrics()
            run(sim, until)
            assert metrics()[: len(before)] == before, "metric written in a run"

        monkeypatch.setattr(Telemetry, "bind", tracked_bind)
        monkeypatch.setattr(Simulator, "run", guarded_run)

    @pytest.mark.parametrize(
        "defense, profile",
        [("honeypot", True), ("pushback", False), ("none", False)],
    )
    def test_tree_scenario(self, defense, profile):
        from repro.experiments.scenarios import (
            TreeScenarioParams,
            run_tree_scenario,
        )

        params = TreeScenarioParams(
            n_leaves=12,
            n_attackers=3,
            duration=12.0,
            attack_start=2.0,
            attack_end=10.0,
            epoch_len=4.0,
            defense=defense,
        )
        tele = Telemetry()
        run_tree_scenario(params, telemetry=tele, profile=profile)
        assert tele.counters["host_bytes_received_total"] > 0
        if defense == "honeypot":
            assert tele.journal.find("port_close")

    def test_validation_trial(self):
        from repro.experiments.validation import ValidationParams, run_trial

        tele = Telemetry()
        params = ValidationParams(hops=3, p=0.5, epoch_len=5.0, runs=1, seed=3)
        assert run_trial(params, 0, telemetry=tele) is not None
        assert tele.journal.find("port_close")
        assert tele.counters["node_packets_received_total"] > 0

    @pytest.mark.parametrize("engine", ["interas", "hierarchical"])
    def test_as_level_engines(self, engine):
        from .test_policy_equivalence import hierarchical_journal, interas_journal

        build = interas_journal if engine == "interas" else hierarchical_journal
        assert build().find("port_close")


class TestArtifactMerging:
    """repro.parallel.merge: folding worker artifacts into one run."""

    def _worker_artifact(self, seed):
        """Build a small self-consistent artifact like a pool worker's."""
        tele = Telemetry()
        tele.add_metrics(
            {"counters": {"pkts": 10 + seed}, "gauges": {"depth": 5 - seed}}
        )
        root = tele.journal.record("session_open", at=0.0, seed=seed)
        tele.journal.record("port_close", at=1.0, parent=root)
        tele.journal.record("session_close", at=3.0, parent=root)
        tele.profiler.runs += 1
        tele.profiler.events += 100 * (seed + 1)
        tele.profiler.sim_time += 10.0
        tele.profiler.note_heap(50 + seed)
        tele.extra["throughput"] = {"times": [float(seed)]}
        return tele.artifact()

    def test_absorb_merges_metrics_and_profile(self):
        from repro.parallel import absorb_artifact

        parent = Telemetry()
        absorb_artifact(parent, self._worker_artifact(0))
        absorb_artifact(parent, self._worker_artifact(1))
        assert parent.counters == {"pkts": 21}
        assert parent.gauges == {"depth": 5}
        prof = parent.profiler.as_dict()
        assert prof["runs"] == 2
        assert prof["events_processed"] == 300
        assert prof["heap_hwm_events"] == 51

    def test_extras_use_setdefault_semantics(self):
        from repro.parallel import absorb_artifact

        parent = Telemetry()
        absorb_artifact(parent, self._worker_artifact(0))
        absorb_artifact(parent, self._worker_artifact(1))
        # First worker's extras win, matching serial setdefault writes.
        assert parent.extra["throughput"]["times"] == [0.0]

    def test_merge_artifacts_matches_sequential_absorb(self):
        from repro.parallel import absorb_artifact, merge_artifacts

        arts = [self._worker_artifact(s) for s in (0, 1, 2)]
        merged = merge_artifacts(arts)
        seq = Telemetry()
        for a in arts:
            absorb_artifact(seq, a)
        assert merged == seq.artifact()
        # Empty/None entries are skipped, not an error.
        assert merge_artifacts([None, {}, arts[0]]) == merge_artifacts(
            [arts[0]]
        )

    def test_strip_volatile_removes_wall_time_fields_deeply(self):
        from repro.parallel import strip_volatile

        obj = {
            "engine": {"events_processed": 5, "wall_time_s": 1.23,
                       "events_per_sec": 99.0},
            "tasks": [{"value": 1, "wall_time_s": 0.5}],
            "wall_time": 7,
            "keep": [1, 2],
        }
        stripped = strip_volatile(obj)
        assert stripped == {
            "engine": {"events_processed": 5},
            "tasks": [{"value": 1}],
            "keep": [1, 2],
        }
        # Deep copy: the input is untouched.
        assert obj["engine"]["wall_time_s"] == 1.23
