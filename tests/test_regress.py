"""Tests for the bench regression tracker (repro.obs.regress) and the
``repro regress`` CLI gate."""

import json

import pytest

from repro.cli import main
from repro.obs.regress import (
    REGRESS_SCHEMA,
    baseline_from_summary,
    compare_to_baseline,
    load_baseline,
    load_summary,
    next_trajectory_index,
    write_trajectory_point,
)

SUMMARY = {
    "fig6": {
        "wall_time_s": 6.0,
        "metrics": {"mean_capture_time_s": 44.0, "points_total": 14},
    },
    "hier": {
        "wall_time_s": 0.02,
        "metrics": {"captures": 3},
    },
}

BASELINE = {
    "schema": REGRESS_SCHEMA,
    "default_rel_tol": 0.1,
    "benches": {
        "fig6": {
            "metrics": {
                "mean_capture_time_s": {"value": 44.65},
                "points_total": {"value": 14, "abs_tol": 0},
            }
        },
        "hier": {"metrics": {"captures": {"value": 3}}},
    },
}


class TestCompare:
    def test_all_within_bands(self):
        report = compare_to_baseline(SUMMARY, BASELINE)
        assert report.ok
        assert report.exit_code == 0
        assert {c.status for c in report.checks} == {"ok"}

    def test_rel_tol_violation_fails(self):
        summary = json.loads(json.dumps(SUMMARY))
        summary["fig6"]["metrics"]["mean_capture_time_s"] = 60.0
        report = compare_to_baseline(summary, BASELINE)
        assert not report.ok
        assert report.exit_code == 1
        (failure,) = report.failures
        assert (failure.bench, failure.metric) == ("fig6", "mean_capture_time_s")
        assert failure.value == 60.0 and failure.baseline == 44.65

    def test_abs_tol_is_exact_when_zero(self):
        summary = json.loads(json.dumps(SUMMARY))
        summary["fig6"]["metrics"]["points_total"] = 13  # within 10% rel
        report = compare_to_baseline(summary, BASELINE)
        assert not report.ok  # abs_tol=0 overrides the default band

    def test_new_and_missing_do_not_gate(self):
        summary = json.loads(json.dumps(SUMMARY))
        del summary["fig6"]["metrics"]["points_total"]
        summary["hier"]["metrics"]["extra_metric"] = 1
        summary["brand_new_bench"] = {"metrics": {"m": 2}}
        report = compare_to_baseline(summary, BASELINE)
        assert report.ok
        statuses = {(c.bench, c.metric): c.status for c in report.checks}
        assert statuses[("fig6", "points_total")] == "missing"
        assert statuses[("hier", "extra_metric")] == "new"
        assert statuses[("brand_new_bench", "m")] == "new"

    def test_non_numeric_values_compare_by_equality(self):
        baseline = {
            "schema": REGRESS_SCHEMA,
            "benches": {"b": {"metrics": {"flag": {"value": True}}}},
        }
        ok = compare_to_baseline({"b": {"metrics": {"flag": True}}}, baseline)
        bad = compare_to_baseline({"b": {"metrics": {"flag": False}}}, baseline)
        assert ok.ok and not bad.ok

    def test_bare_number_spec_uses_default_rel_tol(self):
        baseline = {
            "schema": REGRESS_SCHEMA,
            "default_rel_tol": 0.5,
            "benches": {"b": {"metrics": {"m": 10.0}}},
        }
        assert compare_to_baseline({"b": {"metrics": {"m": 14.0}}}, baseline).ok
        assert not compare_to_baseline(
            {"b": {"metrics": {"m": 16.0}}}, baseline
        ).ok

    def test_render_names_every_status(self):
        summary = json.loads(json.dumps(SUMMARY))
        summary["fig6"]["metrics"]["mean_capture_time_s"] = 60.0
        text = compare_to_baseline(summary, BASELINE).render()
        assert "[FAIL" in text
        assert "fig6/mean_capture_time_s" in text
        assert "regress:" in text


class TestBaseline:
    def test_baseline_from_summary_structure(self):
        doc = baseline_from_summary(SUMMARY)
        assert doc["schema"] == REGRESS_SCHEMA
        assert doc["benches"]["fig6"]["metrics"]["points_total"] == {
            "value": 14
        }
        # Wall times are recorded in summaries but never baselined.
        assert "wall_time_s" not in json.dumps(doc["benches"])

    def test_update_preserves_tolerance_overrides(self):
        doc = baseline_from_summary(SUMMARY, existing=BASELINE)
        spec = doc["benches"]["fig6"]["metrics"]["points_total"]
        assert spec == {"value": 14, "abs_tol": 0}

    def test_round_trip_through_compare(self):
        doc = baseline_from_summary(SUMMARY)
        assert compare_to_baseline(SUMMARY, doc).ok

    def test_load_baseline_validates_schema(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"schema": "nope/9"}')
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_load_summary_rejects_non_object(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_summary(path)


class TestTrajectory:
    def test_index_starts_at_one_and_increments(self, tmp_path):
        assert next_trajectory_index(tmp_path) == 1
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored
        assert next_trajectory_index(tmp_path) == 8

    def test_write_trajectory_point(self, tmp_path):
        report = compare_to_baseline(SUMMARY, BASELINE)
        path = write_trajectory_point(SUMMARY, report, tmp_path / "out")
        assert path.endswith("BENCH_1.json")
        doc = json.loads(open(path).read())
        assert doc["schema"] == REGRESS_SCHEMA
        assert doc["index"] == 1
        assert doc["summary"] == SUMMARY
        assert doc["regress"]["ok"] is True
        # No timestamps: the content is deterministic.
        assert "time" not in "".join(doc["regress"].keys())
        second = write_trajectory_point(SUMMARY, report, tmp_path / "out")
        assert second.endswith("BENCH_2.json")


class TestCli:
    @pytest.fixture()
    def files(self, tmp_path):
        summary = tmp_path / "summary.json"
        baseline = tmp_path / "baseline.json"
        summary.write_text(json.dumps(SUMMARY))
        baseline.write_text(json.dumps(BASELINE))
        return summary, baseline, tmp_path / "out"

    def _argv(self, files, *extra):
        summary, baseline, out_dir = files
        return [
            "regress",
            "--summary", str(summary),
            "--baseline", str(baseline),
            "--out-dir", str(out_dir),
            *extra,
        ]

    def test_pass_exits_zero_and_writes_trajectory(self, files, capsys):
        assert main(self._argv(files)) == 0
        out = capsys.readouterr().out
        assert "regress:" in out
        assert (files[2] / "BENCH_1.json").exists()

    def test_fail_exits_one(self, files, capsys):
        summary, _, _ = files
        doc = json.loads(summary.read_text())
        doc["hier"]["metrics"]["captures"] = 0
        summary.write_text(json.dumps(doc))
        assert main(self._argv(files)) == 1
        assert "[FAIL" in capsys.readouterr().out

    def test_no_trajectory_flag(self, files):
        assert main(self._argv(files, "--no-trajectory")) == 0
        assert not (files[2] / "BENCH_1.json").exists()

    def test_missing_summary_exits_two(self, files, capsys):
        _, baseline, out_dir = files
        argv = [
            "regress",
            "--summary", str(out_dir / "nope.json"),
            "--baseline", str(baseline),
        ]
        assert main(argv) == 2
        assert "cannot load summary" in capsys.readouterr().err

    def test_update_baseline_rewrites_values_keeps_bands(self, files, capsys):
        summary, baseline, _ = files
        doc = json.loads(summary.read_text())
        doc["fig6"]["metrics"]["points_total"] = 15
        summary.write_text(json.dumps(doc))
        assert main(self._argv(files, "--update-baseline")) == 0
        updated = json.loads(baseline.read_text())
        spec = updated["benches"]["fig6"]["metrics"]["points_total"]
        assert spec == {"value": 15, "abs_tol": 0}
        # The refreshed baseline now gates cleanly.
        assert main(self._argv(files)) == 0


class TestBenchSummary:
    """``benchmarks/conftest.py`` keeps only entries of benches that exist."""

    @staticmethod
    def _bench_conftest():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_entries_of_deleted_benches_are_dropped(self, tmp_path, monkeypatch):
        conftest = self._bench_conftest()
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_live.py").write_text("")
        live = {
            "wall_time_s": 1.0,
            "metrics": {"x": 1},
            "file": "benchmarks/bench_live.py",
        }
        summary = tmp_path / "summary.json"
        summary.write_text(
            json.dumps(
                {
                    "live": live,
                    "dead": dict(live, file="benchmarks/bench_dead.py"),
                    "unrecorded": {"wall_time_s": 1.0, "metrics": {"x": 3}},
                }
            )
        )
        monkeypatch.setattr(conftest, "ROOT", tmp_path)
        monkeypatch.setattr(conftest, "SUMMARY_PATH", summary)
        fresh = dict(live, metrics={"y": 4})
        conftest._update_summary("fresh", fresh)
        assert json.loads(summary.read_text()) == {"live": live, "fresh": fresh}
