"""Attribution profiler (per-dimension engine accounting): accumulator
semantics, journal byte-identity and outcome identity with observers on
vs off, and pooled-vs-serial dimension merging."""

from dataclasses import replace

import pytest

from repro.experiments.runner import result_to_dict, run_many
from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import EngineProfiler, Telemetry
from repro.parallel import strip_volatile
from repro.parallel.merge import absorb_artifact
from repro.sim.engine import Simulator

TINY = TreeScenarioParams(
    n_leaves=12,
    n_attackers=3,
    duration=12.0,
    attack_start=2.0,
    attack_end=10.0,
    epoch_len=4.0,
    seed=1,
)


class Sink:
    def __init__(self, addr):
        self.addr = addr
        self.hits = 0

    def on_packet(self):
        self.hits += 1


class TestDimensionAccumulator:
    def test_counts_cover_every_processed_event(self):
        prof = EngineProfiler().enable_dimensions()
        sim = Simulator()
        prof.attach(sim)
        sinks = [Sink(1), Sink(2)]
        for i in range(10):
            sim.schedule(float(i), sinks[i % 2].on_packet)
        sim.run()
        # Both instances' events land in one (kind, module) cell.
        (row,) = prof.dimension_rows()
        assert row["events"] == prof.events == 10
        assert (row["kind"], row["module"]) == ("Sink.on_packet", __name__)
        assert set(row) == {"kind", "module", "events", "wall_s"}

    def test_plain_functions_and_unsited_instances(self):
        prof = EngineProfiler().enable_dimensions()
        sim = Simulator()
        prof.attach(sim)
        ticks = []
        sim.schedule(0.0, lambda: ticks.append(1))
        sim.schedule(1.0, ticks.append, 2)  # builtin bound to a list
        sim.run()
        kinds = {row["kind"]: row["events"] for row in prof.dimension_rows()}
        assert kinds == {
            "TestDimensionAccumulator.test_plain_functions_and_unsited_"
            "instances.<locals>.<lambda>": 1,
            "list.append": 1,
        }
        assert ticks == [1, 2]

    def test_disabled_profiler_has_no_dimensions(self):
        prof = EngineProfiler()
        sim = Simulator()
        prof.attach(sim)
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert prof.dims is None
        assert "dimensions" not in prof.as_dict()

    def test_merge_accumulates_counts_and_wall(self):
        prof = EngineProfiler()  # merge enables dims implicitly
        rows = [
            {"kind": "k", "module": "m", "events": 2, "wall_s": 0.5},
            {"kind": "k", "module": "m", "events": 3, "wall_s": 0.25},
            # Older artifacts carry a per-shard "site" key; it is
            # ignored, so such rows fold into their (kind, module) cell.
            {"kind": "k", "module": "m", "site": "sub7", "events": 4,
             "wall_s": 1.0},
            {"kind": "k", "module": "m", "site": "core", "events": 1,
             "wall_s": 0.25},
        ]
        prof.merge_dimension_rows(rows)
        (row,) = prof.dimension_rows()
        assert row["events"] == 10
        assert row["wall_s"] == pytest.approx(2.0)
        assert "site" not in row
        assert "per-dimension attribution" in prof.render_dimensions()


class TestJournalByteIdentity:
    def _journal_bytes(self, tmp_path, tag, profile):
        tele = Telemetry()
        run_tree_scenario(TINY, telemetry=tele, profile=profile)
        out = tele.journal.write_jsonl(tmp_path / f"{tag}.jsonl")
        return open(out, "rb").read(), tele

    def test_attribution_never_touches_the_journal(self, tmp_path):
        off, _ = self._journal_bytes(tmp_path, "off", False)
        on, tele = self._journal_bytes(tmp_path, "on", True)
        assert off == on
        rows = tele.profiler.dimension_rows()
        assert rows, "profiled run produced no dimensions"
        assert sum(r["events"] for r in rows) == tele.profiler.events
        keys = [(r["kind"], r["module"]) for r in rows]
        assert len(keys) == len(set(keys))  # one row per (kind, module)

    def test_observers_leave_the_outcome_unchanged(self):
        """Plain, telemetered and attributed runs all go through the one
        dispatch loop; the outcome is identical."""
        plain = result_to_dict(run_tree_scenario(TINY))
        runs = {
            "telemetry": run_tree_scenario(TINY, telemetry=Telemetry()),
            "telemetry+profile": run_tree_scenario(
                TINY, telemetry=Telemetry(), profile=True
            ),
        }
        for name, result in runs.items():
            assert result_to_dict(result) == plain, name


class TestPooledDimensionMerge:
    POINTS = {
        "a": TINY,
        "b": replace(TINY, seed=2),
    }

    def _dims(self, telemetry):
        return strip_volatile(telemetry.profiler.dimension_rows())

    def test_pool_merges_dimension_tables_like_serial(self):
        # Serial reference: one shared telemetry, no pool and no merge.
        serial = Telemetry()
        for params in self.POINTS.values():
            run_tree_scenario(params, telemetry=serial, profile=True)
        pooled = Telemetry()
        run_many(dict(self.POINTS), jobs=2, telemetry=pooled, profile=True)
        assert self._dims(serial) == self._dims(pooled)
        assert serial.profiler.dims, "serial sweep produced no dimensions"

    def test_absorb_artifact_merges_dimensions(self):
        src = Telemetry()
        run_tree_scenario(TINY, telemetry=src, profile=True)
        artifact = src.artifact()
        assert artifact["engine"]["dimensions"]
        dst = Telemetry()
        dst.profiler.enable_dimensions()
        absorb_artifact(dst, artifact)
        assert self._dims(dst) == self._dims(src)
