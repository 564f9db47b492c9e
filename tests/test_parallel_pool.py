"""Tests for repro.parallel: pool fault tolerance, checkpoints.

The fault-injection tasks (raise / sleep past the timeout / hard exit)
are module-level functions so worker processes can unpickle them by
reference.
"""

import json
import os
import time
from dataclasses import replace

import pytest

from repro.experiments.runner import result_to_dict, run_sweep
from repro.experiments.scenarios import TreeScenarioParams
from repro.parallel import (
    PARTIAL_FAILURE_EXIT,
    PoolConfig,
    SweepCheckpoint,
    Task,
    TaskOutcome,
    resolve_jobs,
    run_tasks,
)

POOL = PoolConfig(jobs=2, timeout=10.0)


# ----------------------------------------------------------------------
# Task functions shipped to workers (must be module-level)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _raise_on_negative(x):
    if x < 0:
        raise ValueError(f"negative payload {x}")
    return x


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _hard_exit(code):
    os._exit(code)


def _fail_until_marker(path):
    """Fails while the marker file is absent — succeeds on retry."""
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("flaky first attempt")
    return "recovered"


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_rejected(self, monkeypatch, count):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(count)
        monkeypatch.setenv("REPRO_JOBS", str(count))
        with pytest.raises(ValueError, match="REPRO_JOBS must be >= 1"):
            resolve_jobs(None)


class TestInlineExecution:
    def test_basic(self):
        tasks = [Task(f"t{i}", _square, i) for i in range(5)]
        report = run_tasks(tasks, PoolConfig(jobs=1))
        assert report.ok
        assert [report.value(f"t{i}") for i in range(5)] == [0, 1, 4, 9, 16]
        assert report.executed == [f"t{i}" for i in range(5)]

    def test_quarantine_after_retries(self):
        tasks = [Task("bad", _raise_on_negative, -1), Task("good", _square, 2)]
        report = run_tasks(tasks, PoolConfig(jobs=1, max_attempts=3))
        assert report.quarantined == ["bad"]
        assert report.outcomes["bad"].attempts == 3
        assert "negative payload" in report.outcomes["bad"].error
        assert report.value("good") == 4
        assert report.exit_code == PARTIAL_FAILURE_EXIT

    def test_retry_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        report = run_tasks(
            [Task("flaky", _fail_until_marker, marker)],
            PoolConfig(jobs=1, max_attempts=2),
        )
        assert report.ok
        assert report.outcomes["flaky"].attempts == 2
        assert report.value("flaky") == "recovered"


class TestPoolExecution:
    def test_basic_fanout(self):
        tasks = [Task(f"t{i}", _square, i) for i in range(10)]
        report = run_tasks(tasks, PoolConfig(jobs=3))
        assert report.ok
        assert sorted(report.executed) == sorted(t.task_id for t in tasks)
        # Outcomes iterate in task order regardless of completion order.
        assert list(report.outcomes) == [t.task_id for t in tasks]
        assert [report.value(f"t{i}") for i in range(10)] == [
            i * i for i in range(10)
        ]

    def test_single_worker_pool_matches_inline(self):
        # jobs=1 runs in-process; its report equals a two-worker pool's.
        tasks = [Task(f"t{i}", _square, i) for i in range(4)]
        inline = run_tasks(tasks, PoolConfig(jobs=1))
        pooled = run_tasks(tasks, PoolConfig(jobs=2))
        assert inline.as_dict(include_timing=False) == pooled.as_dict(
            include_timing=False
        )

    def test_quarantine_reads_the_same_at_every_job_count(self):
        tasks = [Task("bad", _raise_on_negative, -5), Task("ok", _square, 3)]
        inline = run_tasks(tasks, PoolConfig(jobs=1))
        pooled = run_tasks(tasks, PoolConfig(jobs=2))
        assert inline.quarantined == pooled.quarantined == ["bad"]
        assert inline.outcomes["bad"].as_dict(
            include_timing=False
        ) == pooled.outcomes["bad"].as_dict(include_timing=False)

    def test_raising_task_quarantined_sweep_completes(self):
        tasks = [Task("bad", _raise_on_negative, -5)] + [
            Task(f"ok{i}", _square, i) for i in range(4)
        ]
        report = run_tasks(tasks, PoolConfig(jobs=2, max_attempts=2))
        assert report.quarantined == ["bad"]
        assert report.outcomes["bad"].attempts == 2
        assert "ValueError" in report.outcomes["bad"].error
        for i in range(4):
            assert report.value(f"ok{i}") == i * i
        assert not report.ok and report.exit_code == PARTIAL_FAILURE_EXIT

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_kills_and_quarantines(self, jobs):
        # A timeout holds at jobs=1 too: the tasks then run on one
        # supervised worker, since an in-process task cannot be preempted.
        hang_s = 5.0
        start = time.perf_counter()
        tasks = [Task("hang", _sleep_for, hang_s)] + [
            Task(f"ok{i}", _square, i) for i in range(3)
        ]
        report = run_tasks(
            tasks,
            PoolConfig(jobs=jobs, timeout=0.4, max_attempts=2),
        )
        wall = time.perf_counter() - start
        assert report.quarantined == ["hang"]
        assert "timeout" in report.outcomes["hang"].error
        assert report.outcomes["hang"].attempts == 2
        for i in range(3):
            assert report.value(f"ok{i}") == i * i
        # Two 0.4 s attempts plus supervision slack — less than one hang.
        assert wall < hang_s

    def test_hard_exit_worker_detected(self):
        tasks = [Task("dead", _hard_exit, 13)] + [
            Task(f"ok{i}", _square, i) for i in range(3)
        ]
        report = run_tasks(tasks, PoolConfig(jobs=2, max_attempts=2))
        assert report.quarantined == ["dead"]
        assert "worker died" in report.outcomes["dead"].error
        for i in range(3):
            assert report.value(f"ok{i}") == i * i

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate task id"):
            run_tasks([Task("a", _square, 1), Task("a", _square, 2)], POOL)

    def test_report_as_dict(self):
        report = run_tasks([Task("t", _square, 3)], PoolConfig(jobs=1))
        d = report.as_dict()
        assert d["ok"] and d["quarantined"] == []
        assert d["tasks"][0]["value"] == 9
        assert "wall_time_s" in d["tasks"][0]
        assert "wall_time_s" not in report.as_dict(include_timing=False)["tasks"][0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(jobs=0)
        with pytest.raises(ValueError):
            PoolConfig(max_attempts=0)
        with pytest.raises(ValueError):
            PoolConfig(timeout=-1.0)
        # NaN fails every comparison, so it must not pass as positive:
        # a NaN deadline would never fire.
        with pytest.raises(ValueError):
            PoolConfig(timeout=float("nan"))


class TestCheckpoint:
    def test_record_and_resume(self, tmp_path):
        path = tmp_path / "ck.json"
        tasks = [Task(f"t{i}", _square, i) for i in range(4)]
        first = run_tasks(tasks, PoolConfig(jobs=1), checkpoint=SweepCheckpoint(path))
        assert first.resumed == [] and len(first.executed) == 4

        second = run_tasks(
            tasks, PoolConfig(jobs=1), checkpoint=SweepCheckpoint(path)
        )
        assert second.executed == []
        assert second.resumed == [t.task_id for t in tasks]
        assert [second.value(t.task_id) for t in tasks] == [0, 1, 4, 9]
        assert all(second.outcomes[t.task_id].resumed for t in tasks)

    def test_failures_not_checkpointed(self, tmp_path):
        path = tmp_path / "ck.json"
        tasks = [Task("bad", _raise_on_negative, -1), Task("good", _square, 2)]
        run_tasks(
            tasks,
            PoolConfig(jobs=1, max_attempts=1),
            checkpoint=SweepCheckpoint(path),
        )
        ck = SweepCheckpoint(path)
        assert ck.task_ids() == ["good"]
        # The quarantined task is re-attempted on resume.
        report = run_tasks(
            tasks, PoolConfig(jobs=1, max_attempts=1), checkpoint=ck
        )
        assert report.executed == ["bad"]
        assert report.resumed == ["good"]

    def test_discard_and_clear(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = SweepCheckpoint(path)
        ck.record(TaskOutcome("a", "ok", value=1))
        ck.record(TaskOutcome("b", "ok", value=2))
        assert len(SweepCheckpoint(path)) == 2
        ck.discard(["a"])
        assert SweepCheckpoint(path).task_ids() == ["b"]
        ck.clear()
        assert not path.exists()

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a sweep checkpoint"):
            SweepCheckpoint(path)

    def test_atomic_file_always_loadable(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = SweepCheckpoint(path)
        for i in range(5):
            ck.record(TaskOutcome(f"t{i}", "ok", value=i))
            data = json.loads(path.read_text())
            assert data["schema"] == "repro.parallel/1"
            assert len(data["outcomes"]) == i + 1


class TestCheckpointParams:
    """A checkpointed outcome is reused only under the params it was
    recorded with: ids like ``n_attackers=3/seed=0`` do not encode the
    base params."""

    TASK = "n_attackers=3/seed=0"

    BASE = TreeScenarioParams(
        n_leaves=20,
        n_attackers=3,
        epoch_len=2.0,
        duration=5.0,
        attack_start=1.0,
        attack_end=4.0,
    )

    def _sweep(self, base, path):
        run = run_sweep(
            base, "n_attackers", [3], seeds=[0],
            checkpoint=SweepCheckpoint(path),
        )
        assert run.report.ok
        (result,) = run.results[3]
        return run, result

    def test_changed_params_rerun_instead_of_resuming(self, tmp_path):
        path = tmp_path / "ck.json"
        _, first = self._sweep(self.BASE, path)
        assert first.params.defense == "honeypot"
        run, second = self._sweep(replace(self.BASE, defense="none"), path)
        assert run.report.executed == [self.TASK]
        assert run.report.resumed == []
        assert second.params.defense == "none"
        assert second.capture_times == {}
        stored = SweepCheckpoint(path).get(self.TASK)
        assert stored["value"]["result"]["params"]["defense"] == "none"

    def test_outcome_with_retired_params_fields_is_rerun(self, tmp_path):
        path = tmp_path / "ck.json"
        _, fresh = self._sweep(self.BASE, path)
        run, _ = self._sweep(self.BASE, path)
        assert run.report.resumed == [self.TASK]
        # A checkpoint written while the params carried a field that no
        # longer exists must not reach TreeScenarioParams(**params).
        data = json.loads(path.read_text())
        data["outcomes"][self.TASK]["value"]["result"]["params"]["shards"] = 0
        path.write_text(json.dumps(data))
        run, again = self._sweep(self.BASE, path)
        assert run.report.executed == [self.TASK]
        assert result_to_dict(again) == result_to_dict(fresh)
        stored = SweepCheckpoint(path).get(self.TASK)
        assert "shards" not in stored["value"]["result"]["params"]

    def test_outcome_with_an_older_artifact_schema_is_rerun(self, tmp_path):
        from repro.obs import Telemetry

        path = tmp_path / "ck.json"
        fresh = Telemetry()
        run = run_sweep(
            self.BASE, "n_attackers", [3], seeds=[0],
            checkpoint=SweepCheckpoint(path), telemetry=fresh,
        )
        assert run.report.ok
        # A repro.obs/1 artifact lists its counters; absorbing it as a
        # repro.obs/2 record would fail, so the task runs again.
        data = json.loads(path.read_text())
        artifact = data["outcomes"][self.TASK]["value"]["telemetry"]
        artifact["schema"] = "repro.obs/1"
        artifact["metrics"] = {
            "counters": [{"name": "c", "labels": {}, "value": 1}],
            "gauges": [],
        }
        path.write_text(json.dumps(data))
        merged = Telemetry()
        run = run_sweep(
            self.BASE, "n_attackers", [3], seeds=[0],
            checkpoint=SweepCheckpoint(path), telemetry=merged,
        )
        assert run.report.executed == [self.TASK]
        assert run.report.resumed == []
        assert isinstance(merged.artifact()["metrics"]["counters"], dict)
        assert merged.counters == fresh.counters


class TestSweepCommandExitCodes:
    # Each point fails deterministically, is retried, then quarantined:
    # n_attackers=999 exceeds n_leaves at every scale, and a NaN
    # attacker rate is rejected by the CBR sources (it would otherwise
    # yield NaN event times).
    @pytest.mark.parametrize(
        "field, value",
        [("n_attackers", "999"), ("attacker_rate", "nan")],
        ids=["n_attackers=999", "attacker_rate=nan"],
    )
    def test_partial_failure_exit_code(self, tmp_path, capsys, field, value):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--field", field, "--values", value,
            "--scale", "quick", "--max-attempts", "2",
            "--out", str(out),
        ])
        assert code == PARTIAL_FAILURE_EXIT
        art = json.loads(out.read_text())
        assert art["schema"] == "repro.sweep/1"
        assert art["quarantined"] == [f"{field}={value}/seed=0"]
        assert not art["ok"]
        assert "QUARANTINED" in capsys.readouterr().out

    def test_unknown_field_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--field", "warp_factor", "--values", "9"])
