"""Tests for the unified telemetry layer (repro.obs)."""

import json

import pytest

from repro.obs import (
    EngineProfiler,
    Journal,
    MetricsRegistry,
    Telemetry,
    build_tree,
    load_json,
    registry_to_prometheus,
    write_json,
)
from repro.sim.engine import Simulator


class TestRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        reg.counter("pkts", cls="legit").inc(3)
        reg.counter("pkts", cls="legit").inc(2)
        reg.counter("pkts", cls="attack").inc()
        assert reg.value("pkts", cls="legit") == 5
        assert reg.value("pkts", cls="attack") == 1
        assert reg.value("pkts", cls="missing") == 0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("m", a=1, b=2).inc()
        reg.counter("m", b=2, a=1).inc()
        assert reg.value("m", a=1, b=2) == 2

    def test_gauge_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4)
        g.set(9)
        g.set(2)
        assert g.value == 2
        assert g.max_value == 9

    def test_round_trip_exact(self):
        reg = MetricsRegistry()
        reg.counter("c", cls="x").inc(7)
        g = reg.gauge("g")
        g.set(9)
        g.set(4)
        clone = MetricsRegistry.from_dict(reg.as_dict())
        assert clone.as_dict() == reg.as_dict()
        # ... and survives an actual JSON encode/decode.
        again = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.as_dict()))
        )
        assert again.as_dict() == reg.as_dict()

    def test_merge_folds_counts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.merge(b)
        assert a.value("c") == 3


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
        tele.registry.counter("c").inc(2)
        root = tele.journal.record("session_open")
        tele.journal.record("session_close", parent=root, at=1.0)
        path = tmp_path / "artifact.json"
        tele.write(path)
        data = load_json(path)
        assert data["schema"] == "repro.obs/1"
        clone = MetricsRegistry.from_dict(data["metrics"])
        assert clone.as_dict() == tele.registry.as_dict()
        journal = Journal.from_dicts(data["journal"])
        assert journal.to_dicts() == tele.journal.to_dicts()

    def test_write_json_coerces_numpy(self, tmp_path):
        import numpy as np

        path = write_json(tmp_path / "x.json", {"a": np.float64(1.5), "b": {3, 1}})
        data = load_json(path)
        assert data == {"a": 1.5, "b": [1, 3]}

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("pkts_total", cls="legit").inc(5)
        reg.gauge("depth").set(2)
        text = registry_to_prometheus(reg)
        assert "# TYPE repro_pkts_total counter" in text
        assert 'repro_pkts_total{cls="legit"} 5' in text
        assert "repro_depth 2" in text

    def test_prometheus_sanitizes_names(self):
        reg = MetricsRegistry()
        reg.counter("honeypot-backprop_captures").inc(1)
        text = registry_to_prometheus(reg)
        assert "repro_honeypot_backprop_captures 1" in text
        assert "honeypot-backprop" not in text

    def test_json_default_sorts_mixed_type_sets(self):
        from repro.obs.export import json_default

        # A homogeneous set stays value-sorted ...
        assert json_default({3, 1, 2}) == [1, 2, 3]
        # ... and a mixed-type set (unorderable in py3) falls back to a
        # stable repr ordering instead of raising TypeError.
        mixed = json_default({1, "a", (2, 3)})
        assert sorted(map(repr, mixed)) == [repr(v) for v in mixed]
        assert json.loads(json.dumps({"s": {1, "a"}}, default=json_default))


class TestExposition:
    """Parse the emitted exposition text back (the scraper's view)."""

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("pkts_total", cls="legit").inc(5)
        reg.counter("pkts_total", cls="attack").inc(2)
        reg.gauge("depth", queue="q0").set(7)
        return reg

    def test_round_trip_preserves_samples_and_types(self):
        from repro.obs.export import parse_exposition

        doc = parse_exposition(registry_to_prometheus(self._registry()))
        assert doc["types"]["repro_pkts_total"] == "counter"
        assert doc["types"]["repro_depth"] == "gauge"
        by_key = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in doc["samples"]
        }
        assert by_key[("repro_pkts_total", (("cls", "legit"),))] == 5
        assert by_key[("repro_depth", (("queue", "q0"),))] == 7

    def test_label_escaping_round_trips(self):
        from repro.obs.export import parse_exposition

        reg = MetricsRegistry()
        evil = 'a\\b"c\nd,e}f'
        reg.counter("m_total", path=evil).inc(1)
        text = registry_to_prometheus(reg)
        assert "\n" not in text.splitlines()[1]  # newline escaped in place
        doc = parse_exposition(text)
        (sample,) = [s for s in doc["samples"] if s["name"] == "repro_m_total"]
        assert sample["labels"]["path"] == evil

    @pytest.mark.parametrize(
        "bad",
        [
            "# TYPE missing_kind",
            "name_only",
            'm{le="unterminated 1',
            "m notanumber",
        ],
    )
    def test_malformed_lines_are_rejected(self, bad):
        from repro.obs.export import parse_exposition

        with pytest.raises(ValueError):
            parse_exposition(bad)


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
            artifacts.append(
                {"metrics": tele.registry.as_dict(), "journal": tele.journal.to_dicts()}
            )
        assert artifacts[0] == artifacts[1]

    def test_trial_produces_session_journal_and_metrics(self):
        tele = Telemetry()
        captured = self._trial(tele)
        assert captured is not None
        assert tele.registry.value("node_packets_received_total") > 0
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


class TestRegistryWrittenAfterRun:
    """Nothing acquires a registry instrument while a simulator runs:
    the registry is filled after the run from the counts the network
    and the defense keep, so telemetry adds no per-event work."""

    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        running = []
        run = Simulator.run

        def guarded_run(sim, until=None):
            running.append(sim)
            try:
                run(sim, until)
            finally:
                running.pop()

        def refuse_while_running(acquire):
            def guarded(registry, name, **labels):
                assert not running, f"registry write {name!r} during a run"
                return acquire(registry, name, **labels)

            return guarded

        monkeypatch.setattr(Simulator, "run", guarded_run)
        for acquire in ("counter", "gauge"):
            monkeypatch.setattr(
                MetricsRegistry,
                acquire,
                refuse_while_running(getattr(MetricsRegistry, acquire)),
            )

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
        assert tele.registry.value("host_bytes_received_total") > 0
        if defense == "honeypot":
            assert tele.journal.find("port_close")

    def test_validation_trial(self):
        from repro.experiments.validation import ValidationParams, run_trial

        tele = Telemetry()
        params = ValidationParams(hops=3, p=0.5, epoch_len=5.0, runs=1, seed=3)
        assert run_trial(params, 0, telemetry=tele) is not None
        assert tele.journal.find("port_close")
        assert tele.registry.value("node_packets_received_total") > 0

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
        tele.registry.counter("pkts", cls="legit").inc(10 + seed)
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
        assert parent.registry.value("pkts", cls="legit") == 21
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
