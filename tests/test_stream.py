"""Tests for live telemetry streaming (repro.obs.stream / .watch).

The load-bearing property checked here is the streaming invariant:
a run with streaming armed produces a *byte-identical* causal journal
to the same run without it, because the streamer only reads.
"""

import io
import json
import os

import pytest

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import Telemetry
from repro.obs.stream import (
    STREAM_SCHEMA,
    StreamConfig,
    StreamError,
    TelemetryStreamer,
    read_stream,
    stream_path_for,
    tail_record,
    validate_stream,
)
from repro.obs.watch import (
    POOL_STATUS_SCHEMA,
    load_pool_status,
    render_pool_view,
    render_snapshot,
    watch_follow,
    watch_once,
)
from repro.sim.engine import Simulator

TINY = TreeScenarioParams(
    n_leaves=12,
    n_attackers=3,
    duration=12.0,
    attack_start=2.0,
    attack_end=10.0,
    epoch_len=4.0,
)


@pytest.fixture(scope="module")
def tiny_stream(tmp_path_factory):
    """One TINY scenario streamed to disk, shared across read-only tests."""
    path = str(tmp_path_factory.mktemp("stream") / "tiny.stream.jsonl")
    cfg = StreamConfig(path=path, interval=2.0)
    result = run_tree_scenario(TINY, stream=cfg)
    return path, result


class TestConfig:
    def test_openmetrics_path_defaults_to_prom_sibling(self, tmp_path):
        cfg = StreamConfig(path=str(tmp_path / "s.jsonl"))
        assert cfg.textfile_path() == str(tmp_path / "s.jsonl") + ".prom"

    def test_empty_openmetrics_path_disables_textfile(self, tmp_path):
        cfg = StreamConfig(path=str(tmp_path / "s.jsonl"), openmetrics_path="")
        assert cfg.textfile_path() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": -1.0},
            {"wall_cap": 0.0},
            {"interval": float("nan")},
            {"interval": float("inf")},
            {"wall_cap": float("nan")},
        ],
    )
    def test_rejects_nonpositive_cadence(self, kwargs, tmp_path):
        with pytest.raises(StreamError):
            StreamConfig(path=str(tmp_path / "s"), **kwargs)

    def test_stream_path_for_sanitizes_task_ids(self, tmp_path):
        d = str(tmp_path)
        assert stream_path_for(d, "(25, 'honeypot')") == os.path.join(
            d, "25_honeypot.stream.jsonl"
        )
        assert stream_path_for(d, "///") == os.path.join(d, "run.stream.jsonl")


class TestStreamFile:
    def test_header_and_records_are_valid(self, tiny_stream):
        path, _ = tiny_stream
        header, records = read_stream(path)
        assert header["schema"] == STREAM_SCHEMA
        assert header["interval"] == 2.0
        assert records, "expected at least the final snapshot"
        summary = validate_stream(path)
        assert summary["final"] is True
        assert summary["records"] == len(records)
        final = records[-1]
        assert final["reason"] == "final"
        assert final["engine"]["events"] > 0
        assert final["obs"]["snapshots"] == len(records) - 1
        # Sim-time ticker actually fired during the run (TINY lasts
        # 12 sim-seconds, the interval is 2).
        assert any(r["reason"] == "tick" for r in records)
        assert final["t"] == pytest.approx(TINY.duration)

    def test_sources_sampled_into_records(self, tiny_stream):
        path, result = tiny_stream
        _, records = read_stream(path)
        final = records[-1]
        progress = final["sources"]["progress"]
        assert progress["attackers_total"] == TINY.n_attackers
        assert progress["duration"] == TINY.duration
        defense = final["sources"]["defense"]
        assert defense["captures"] == len(result.capture_times)
        assert "honeypot_hits" in defense

    def test_openmetrics_textfile_mirrors_final_snapshot(self, tiny_stream):
        from repro.obs.export import parse_exposition

        path, _ = tiny_stream
        with open(path + ".prom", "r", encoding="utf-8") as fh:
            doc = parse_exposition(fh.read())
        assert doc["eof"] is True
        samples = {s["name"]: s["value"] for s in doc["samples"] if not s["labels"]}
        _, records = read_stream(path)
        final = records[-1]
        assert samples["repro_stream_events_total"] == final["engine"]["events"]
        assert samples["repro_stream_sim_time_seconds"] == final["t"]
        assert samples["repro_stream_snapshots_total"] == len(records)
        # The registry itself is in the same exposition (network
        # counters folded in by the final snapshot).
        assert any(
            s["name"] == "repro_channel_packets_sent_total"
            for s in doc["samples"]
        )

    def test_heap_hwm_is_a_running_high_water_mark(self, tmp_path):
        tele = Telemetry()
        cfg = StreamConfig(path=str(tmp_path / "hwm.stream.jsonl"), interval=2.0)
        run_tree_scenario(TINY, telemetry=tele, stream=cfg)
        _, records = read_stream(cfg.path)
        assert len(records) > 2
        marks = [r["engine"]["heap_hwm"] for r in records]
        assert marks == sorted(marks)
        assert all(
            r["engine"]["heap_hwm"] >= r["engine"]["live_pending"]
            for r in records
        )
        assert marks[-1] == tele.profiler.as_dict()["heap_hwm_events"]

    def test_tail_record_reads_only_the_tail(self, tiny_stream):
        path, _ = tiny_stream
        rec = tail_record(path)
        assert rec is not None and rec.get("final") is True
        # A torn (partially written) last line is skipped, not fatal.
        torn = path + ".torn"
        with open(path, "rb") as src, open(torn, "wb") as dst:
            dst.write(src.read())
            dst.write(b'{"seq": 99, "truncat')
        assert tail_record(torn)["final"] is True
        assert tail_record(path + ".missing") is None

    def test_validate_rejects_tampered_seq(self, tiny_stream, tmp_path):
        path, _ = tiny_stream
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        rec = json.loads(lines[-1])
        rec["seq"] += 5
        bad = tmp_path / "bad.stream.jsonl"
        bad.write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")
        with pytest.raises(StreamError, match="seq"):
            validate_stream(str(bad))

    def test_read_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "wrong.jsonl"
        p.write_text('{"schema": "repro.journal/1"}\n')
        with pytest.raises(StreamError, match="schema"):
            read_stream(str(p))
        p2 = tmp_path / "empty.jsonl"
        p2.write_text("")
        with pytest.raises(StreamError, match="empty"):
            read_stream(str(p2))


class TestInvariants:
    def test_journal_byte_identical_streaming_on_vs_off(self, tmp_path):
        def journal_bytes(stream_cfg):
            tele = Telemetry()
            run_tree_scenario(TINY, telemetry=tele, stream=stream_cfg)
            out = tmp_path / ("on.jsonl" if stream_cfg else "off.jsonl")
            tele.journal.write_jsonl(str(out))
            return out.read_bytes()

        off = journal_bytes(None)
        on = journal_bytes(
            StreamConfig(path=str(tmp_path / "run.stream.jsonl"), interval=1.0)
        )
        assert off == on

    def test_results_identical_streaming_on_vs_off(self, tmp_path, tiny_stream):
        """Plain, telemetered, streamed and attributed runs all go
        through the one dispatch loop; the outcome is identical."""
        from repro.experiments.runner import result_to_dict

        _, streamed = tiny_stream
        stream_cfg = StreamConfig(
            path=str(tmp_path / "s.stream.jsonl"), interval=2.0
        )
        plain = result_to_dict(run_tree_scenario(TINY))
        runs = {
            "telemetry": run_tree_scenario(TINY, telemetry=Telemetry()),
            "telemetry+stream": run_tree_scenario(
                TINY, telemetry=Telemetry(), stream=stream_cfg
            ),
            "telemetry+profile": run_tree_scenario(
                TINY, telemetry=Telemetry(), profile=True
            ),
            "stream": streamed,
        }
        for name, result in runs.items():
            assert result_to_dict(result) == plain, name

    def test_wall_cap_fires_when_sim_time_crawls(self, tmp_path):
        cfg = StreamConfig(
            path=str(tmp_path / "wall.stream.jsonl"),
            interval=1e9,  # the sim-time ticker never fires
            wall_cap=1e-9,  # ... but the wall cap always does
        )
        run_tree_scenario(TINY, stream=cfg)
        _, records = read_stream(cfg.path)
        reasons = {r["reason"] for r in records}
        assert "wall" in reasons
        assert "tick" not in reasons

    def test_engine_pulses_stream_without_profiler(self, tmp_path, monkeypatch):
        # sim.profiler stays None; run() pulses the stream on its own.
        import repro.sim.engine as engine

        monkeypatch.setattr(engine, "OBSERVE_STRIDE", 1)  # pulse every event
        sim = Simulator()
        cfg = StreamConfig(
            path=str(tmp_path / "bare.stream.jsonl"), interval=10.0
        )
        streamer = TelemetryStreamer(Telemetry(), cfg).attach(sim)

        def chain(n):
            if n:
                sim.schedule(1.0, chain, n - 1)

        chain(50)
        sim.run()
        streamer.close()
        assert sim.stream is None
        _, records = read_stream(cfg.path)
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert sum(r["reason"] == "tick" for r in records) >= 4
        assert records[-1]["engine"]["events"] == sim.events_processed

    def test_close_is_idempotent_and_detaches(self, tmp_path):
        sim = Simulator()
        cfg = StreamConfig(path=str(tmp_path / "x.stream.jsonl"))
        streamer = TelemetryStreamer(Telemetry(), cfg).attach(sim)
        assert sim.stream is streamer
        streamer.close()
        streamer.close()
        _, records = read_stream(cfg.path)
        assert len(records) == 1 and records[0]["final"] is True

    def test_failing_source_is_captured_not_fatal(self, tmp_path):
        sim = Simulator()
        cfg = StreamConfig(path=str(tmp_path / "src.stream.jsonl"))
        streamer = TelemetryStreamer(Telemetry(), cfg)
        streamer.add_source("boom", lambda: 1 / 0)
        streamer.attach(sim)
        streamer.close()
        _, records = read_stream(cfg.path)
        assert "ZeroDivisionError" in records[-1]["sources"]["boom"]["error"]

    def test_self_cost_reported(self, tiny_stream):
        tele = Telemetry()
        cfg = StreamConfig(path=tiny_stream[0] + ".cost", interval=2.0)
        run_tree_scenario(TINY, telemetry=tele, stream=cfg)
        assert tele.streamer is not None
        cost = tele.streamer.self_cost()
        assert cost["snapshots"] >= 1
        assert 0.0 <= cost["self_frac"] < 1.0
        text = tele.render()
        assert "obs self-cost" in text
        assert "events/sec" in text

    def test_streamer_wall_clock_use_is_whitelisted_with_reason(self):
        from repro.lint.whitelist import whitelisted_reason

        reason = whitelisted_reason("repro/obs/stream.py", "RPL002")
        assert reason is not None
        assert "when" in reason and "byte-identity" in reason


class TestPoolStreams:
    def test_run_many_pool_merges_streams_and_status(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.runner import run_many

        d = str(tmp_path)
        named = {
            "a": TINY,
            "b": replace(TINY, defense="none"),
        }
        results = run_many(
            named, jobs=2, stream={"dir": d, "interval": 2.0}
        )
        assert set(results) == {"a", "b"}
        for name in named:
            summary = validate_stream(stream_path_for(d, name))
            assert summary["final"] is True
        status = load_pool_status(d)
        assert status is not None
        assert status["schema"] == POOL_STATUS_SCHEMA
        assert status["done"] is True
        assert status["tasks"]["total"] == 2
        assert status["tasks"]["done"] == 2
        view = render_pool_view(d)
        assert "2 worker(s)" in view
        rows = view.split("streams:\n", 1)[1].splitlines()
        assert [row.split()[0] for row in rows] == ["a", "b"]
        assert all(row.endswith("[done]") for row in rows)

    def test_run_many_serial_also_streams(self, tmp_path):
        from repro.experiments.runner import run_many

        d = str(tmp_path)
        run_many({"solo": TINY}, jobs=1, stream={"dir": d})
        assert validate_stream(stream_path_for(d, "solo"))["final"] is True
        status = load_pool_status(d)
        assert status["jobs"] == 1 and status["done"] is True
        assert status["tasks"]["done"] == 1

    def test_final_records_match_at_every_job_count(self, tmp_path):
        # Each task streams from its own telemetry: a run never sees an
        # earlier run's totals, so jobs=1 and jobs=2 end on the same
        # record.  Only the final record is compared — the wall cap
        # makes the record count timing-dependent.
        from dataclasses import replace

        from repro.experiments.runner import run_many

        named = {"a": TINY, "b": replace(TINY, seed=2)}
        finals = {}
        for jobs in (1, 2):
            d = str(tmp_path / f"jobs{jobs}")
            run_many(
                named, jobs=jobs, telemetry=Telemetry(),
                stream={"dir": d, "interval": 2.0},
            )
            for name in named:
                _, records = read_stream(stream_path_for(d, name))
                final = records[-1]
                assert final["final"] is True
                finals[jobs, name] = (
                    final["metrics"],
                    final["engine"]["events"],
                    final["engine"]["heap_hwm"],
                )
        for name in named:
            assert finals[1, name] == finals[2, name]

    def test_stream_config_for_round_trip(self):
        from repro.experiments.runner import _stream_config_for

        assert _stream_config_for(None, "t") is None
        cfg = _stream_config_for(
            {"dir": "/tmp/x", "interval": 3.0, "wall_cap": 9.0}, "t 1"
        )
        assert cfg.path == os.path.join("/tmp/x", "t_1.stream.jsonl")
        assert cfg.interval == 3.0
        assert cfg.wall_cap == 9.0


class TestWatch:
    def test_watch_once_renders_stream_file(self, tiny_stream, capsys):
        path, _ = tiny_stream
        assert watch_once(path) == 0
        out = capsys.readouterr().out
        assert "sim time" in out
        assert "engine" in out
        assert "FINAL" in out

    def test_render_snapshot_shows_defense_and_progress(self, tiny_stream):
        path, result = tiny_stream
        _, records = read_stream(path)
        text = render_snapshot(records[-1])
        assert f"captures {len(result.capture_times)}/{TINY.n_attackers}" in text
        assert "100.0%" in text  # final record: full progress bar
        assert "obs cost" in text

    def test_watch_follow_stops_on_final(self, tiny_stream):
        path, _ = tiny_stream
        out = io.StringIO()
        assert watch_follow(path, refresh=0.01, out=out) == 0
        assert "FINAL" in out.getvalue()

    def test_watch_follow_waits_for_missing_stream(self, tmp_path):
        out = io.StringIO()
        rc = watch_follow(
            str(tmp_path / "nope.jsonl"), refresh=0.01, iterations=2, out=out
        )
        assert rc == 0
        assert "waiting for stream" in out.getvalue()

    def test_watch_directory_without_streams(self, tmp_path, capsys):
        assert watch_once(str(tmp_path)) == 0
        assert "no streams yet" in capsys.readouterr().out

    def test_watch_cli_once(self, tiny_stream, capsys):
        from repro.cli import main

        path, _ = tiny_stream
        assert main(["watch", path, "--once"]) == 0
        assert "snapshot" in capsys.readouterr().out

    def test_stats_cli_streams(self, tmp_path, capsys, monkeypatch):
        # `stats` at quick scale is seconds of work; shrink the scenario
        # by monkeypatching the base used by the CLI.
        import repro.experiments.figures as figures
        from repro.cli import main

        monkeypatch.setattr(
            figures, "_scenario_base", lambda scale: TINY
        )
        path = str(tmp_path / "cli.stream.jsonl")
        rc = main(
            ["stats", "--scale", "quick", "--stream-out", path,
             "--stream-interval", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"stream written to {path}" in out
        assert "obs self-cost" in out
        assert validate_stream(path)["final"] is True
        assert os.path.exists(path + ".prom")
