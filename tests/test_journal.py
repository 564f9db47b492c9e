"""Tests for the causal event journal (repro.obs.journal) and its
replay/diff/report machinery, including the CLI wrappers."""

import json

import pytest

from repro.cli import main
from repro.obs import Telemetry
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalEvent,
    build_tree,
    diff_journals,
    load_journal,
    render_html,
    render_timeline,
    render_tree,
    replay_summary,
)


def make_journal():
    """A small causal forest: session -> (hit, hop -> close)."""
    j = Journal()
    now = [0.0]
    j.clock = lambda: now[0]
    root = j.record("session_open", honeypot=9, epoch=2)
    now[0] = 1.0
    hit = j.record("honeypot_hit", parent=root, server=9)
    hop = j.record("hop_relay", parent=hit, router=3)
    now[0] = 2.0
    j.record("port_close", parent=hop, host=17)
    j.record("session_close", parent=root)
    return j


class TestJournal:
    def test_ids_are_dense_and_ordered(self):
        j = make_journal()
        assert [e.event_id for e in j.events] == [0, 1, 2, 3, 4]
        assert len(j) == 5
        assert j.get(2).name == "hop_relay"
        assert j.get(99) is None

    def test_parent_accepts_event_or_id(self):
        j = Journal()
        root = j.record("a")
        by_obj = j.record("b", parent=root)
        by_id = j.record("c", parent=root.event_id)
        assert by_obj.parent_id == by_id.parent_id == 0

    def test_explicit_at_overrides_clock(self):
        j = Journal(clock=lambda: 7.0)
        assert j.record("x").time == 7.0
        assert j.record("y", at=0.0).time == 0.0

    def test_find(self):
        j = make_journal()
        assert [e.event_id for e in j.find("hop_relay")] == [2]
        assert j.find("missing") == []

    def test_dict_round_trip(self):
        j = make_journal()
        clone = Journal.from_dicts(j.to_dicts())
        assert clone.to_dicts() == j.to_dicts()
        again = Journal.from_dicts(json.loads(json.dumps(j.to_dicts())))
        assert again.to_dicts() == j.to_dicts()

    def test_jsonl_round_trip_and_byte_identity(self, tmp_path):
        j = make_journal()
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        j.write_jsonl(p1, meta={"source": "test"})
        Journal.read_jsonl(p1).write_jsonl(p2, meta={"source": "test"})
        assert p1.read_bytes() == p2.read_bytes()
        header = json.loads(p1.read_text().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["events"] == 5
        assert header["source"] == "test"

    def test_read_jsonl_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/1", "events": 0}\n')
        with pytest.raises(JournalError):
            Journal.read_jsonl(path)

    def test_load_journal_from_obs_artifact(self, tmp_path):
        tele = Telemetry()
        tele.journal.record("session_open", honeypot=1, epoch=0)
        path = tele.write(tmp_path / "artifact.json")
        loaded = load_journal(path)
        assert loaded.to_dicts() == tele.journal.to_dicts()

    def test_load_journal_rejects_unrelated_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(JournalError):
            load_journal(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"schema": "repro.journal/1", "events": 1}\n{}\n',
            '{"schema": "repro.journal/1", "events": 1}\n[1, 2]\n',
            "1\n2\n",
            '{"journal": [{"id": "x", "name": "a", "t": 0}]}',
        ],
        ids=["empty-event", "list-event", "non-object-header", "artifact-bad-id"],
    )
    def test_load_journal_rejects_malformed_events(self, text, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(JournalError):
            load_journal(path)


class TestBuildTree:
    def test_roots_and_children(self):
        roots, children = build_tree(make_journal())
        assert [r.event_id for r in roots] == [0]
        assert [c.event_id for c in children[0]] == [1, 4]
        assert [c.event_id for c in children[1]] == [2]

    def test_rejects_sparse_ids(self):
        j = Journal.from_dicts(
            [{"id": 1, "name": "a", "t": 0.0, "parent": None, "attrs": {}}]
        )
        with pytest.raises(JournalError, match="dense"):
            build_tree(j)

    def test_rejects_acausal_parent(self):
        j = Journal.from_dicts(
            [
                {"id": 0, "name": "a", "t": 0.0, "parent": 1, "attrs": {}},
                {"id": 1, "name": "b", "t": 0.0, "parent": None, "attrs": {}},
            ]
        )
        with pytest.raises(JournalError, match="earlier"):
            build_tree(j)


class TestDiff:
    def test_identical(self):
        assert diff_journals(make_journal(), make_journal()) is None

    def test_names_the_diverging_event_and_field(self):
        a, b = make_journal(), make_journal()
        b.events[2].attrs = dict(b.events[2].attrs, router=99)
        d = diff_journals(a, b)
        assert d["index"] == 2
        assert "hop_relay" in d["reason"]
        assert "attrs" in d["reason"]
        assert d["a"]["attrs"]["router"] == 3
        assert d["b"]["attrs"]["router"] == 99

    def test_length_mismatch(self):
        a, b = make_journal(), make_journal()
        b.events.append(JournalEvent(5, "extra", 3.0, None, {}))
        d = diff_journals(a, b)
        assert d["index"] == 5
        assert "ends at event 5" in d["reason"]
        assert d["a"] is None and d["b"]["name"] == "extra"


class TestRendering:
    def test_render_tree_indents_by_causality(self):
        text = render_tree(make_journal())
        lines = text.splitlines()
        assert lines[0].startswith("[0] session_open")
        assert lines[1].startswith("  [1] honeypot_hit")
        assert lines[2].startswith("    [2] hop_relay")
        assert "host=17" in text

    def test_render_tree_truncates(self):
        text = render_tree(make_journal(), max_events=2)
        assert "(3 more events)" in text

    def test_replay_summary_counts_the_cascade(self):
        text = replay_summary(make_journal())
        assert "5 events, 1 root(s)" in text
        assert "sessions opened: 1  closed: 1  captures (port_close): 1" in text

    def test_render_html_is_self_contained(self):
        html_text = render_html(make_journal(), title="t <1>")
        assert html_text.startswith("<!doctype html>")
        assert "t &lt;1&gt;" in html_text
        assert "port_close" in html_text
        assert "http" not in html_text  # no external assets
        assert JOURNAL_SCHEMA in html_text

    def test_render_timeline_shows_tree(self):
        text = render_timeline(make_journal())
        lines = text.splitlines()
        assert lines[0].startswith("session_open [honeypot=9 epoch=2]")
        assert "0.000 ->     2.000" in lines[0]  # bar ends at session_close
        assert "  honeypot_hit" in text  # indented under the root
        assert "      port_close [host=17]" in text
        assert "*" in text  # event marker
        assert "session_close" not in text  # no row of its own

    def test_render_timeline_covers_only_sessions(self):
        j = make_journal()
        j.record("epoch_roll", epoch=3)
        intra = j.record("intra_session_open", parent=0, router=4)
        assert len(render_timeline(j).splitlines()) == 5
        j.record("intra_session_close", parent=intra, ingress_ports=2)
        row = render_timeline(j).splitlines()[-1]
        assert row.startswith("  intra_session_open [router=4 ingress_ports=2]")
        assert render_timeline(Journal()) == ""


class TestTelemetryJournal:
    def test_session_open_close_recorded_once(self):
        tele = Telemetry()
        tele.open_session(9, 2)
        tele.open_session(9, 2)  # idempotent rendezvous
        tele.close_session(9, 2)
        tele.close_session(9, 2)
        names = [e.name for e in tele.journal.events]
        assert names == ["session_open", "session_close"]
        assert tele.journal.events[1].parent_id == 0
        assert tele.journal_root(9, 2).event_id == 0

    def test_open_after_close_returns_the_original_root(self):
        tele = Telemetry()
        tele.open_session(9, 2)
        tele.close_session(9, 2)
        late = tele.open_session(9, 2)
        names = [e.name for e in tele.journal.events]
        assert names == ["session_open", "session_close"]
        assert late.event_id == tele.journal_root(9, 2).event_id == 0

    def test_simulator_journals_run_boundaries(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        tele = Telemetry(sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        start = tele.journal.find("sim_run_start")
        end = tele.journal.find("sim_run_end")
        assert len(start) == len(end) == 1
        assert start[0].attrs == {"pending": 1}
        assert end[0].attrs == {"events": 1}
        assert end[0].time == 1.0

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        from repro.experiments.validation import ValidationParams, run_trial

        paths = []
        for i in range(2):
            tele = Telemetry()
            params = ValidationParams(
                hops=3, p=0.5, epoch_len=5.0, runs=1, seed=3
            )
            run_trial(params, 0, telemetry=tele)
            paths.append(tele.journal.write_jsonl(tmp_path / f"{i}.jsonl"))
        assert (tmp_path / "0.jsonl").read_bytes() == (
            tmp_path / "1.jsonl"
        ).read_bytes()
        journal = load_journal(paths[0])
        assert journal.find("session_open")
        assert journal.find("port_close")
        build_tree(journal)  # parent links are valid

    def test_absorb_offsets_journal_ids_preserving_links(self):
        from repro.parallel import absorb_artifact

        parent = Telemetry()
        for _ in range(2):
            worker = Telemetry()
            root = worker.journal.record("session_open", honeypot=1, epoch=0)
            worker.journal.record("port_close", parent=root, host=5)
            absorb_artifact(parent, worker.artifact())
        assert [e.event_id for e in parent.journal.events] == [0, 1, 2, 3]
        assert [e.parent_id for e in parent.journal.events] == [None, 0, None, 2]
        build_tree(parent.journal)


class TestCli:
    @pytest.fixture()
    def journal_path(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_journal().write_jsonl(path)
        return str(path)

    def test_replay_summary(self, journal_path, capsys):
        assert main(["replay", journal_path]) == 0
        out = capsys.readouterr().out
        assert "5 events, 1 root(s)" in out

    def test_replay_tree(self, journal_path, capsys):
        assert main(["replay", journal_path, "--tree"]) == 0
        assert "[2] hop_relay" in capsys.readouterr().out

    def test_replay_check_identical(self, journal_path, capsys):
        assert main(["replay", "--check", journal_path, journal_path]) == 0
        assert "identical" in capsys.readouterr().out

    def test_replay_check_diverging_exits_nonzero(
        self, journal_path, tmp_path, capsys
    ):
        perturbed = make_journal()
        perturbed.events[3].time += 1.0
        other = tmp_path / "perturbed.jsonl"
        perturbed.write_jsonl(other)
        assert main(["replay", "--check", journal_path, str(other)]) == 1
        out = capsys.readouterr().out
        assert "diverge at event 3" in out
        assert "port_close" in out

    def test_replay_check_needs_two(self, journal_path):
        with pytest.raises(SystemExit):
            main(["replay", "--check", journal_path])

    @pytest.mark.parametrize(
        "command, content",
        [
            pytest.param(command, content, id=f"{''.join(command)}-{content}")
            for content in (
                "not-json",
                "broken-link",
                "missing",
                "directory",
                "random-bytes",
                "gzip-garbage",
                "gzip-corrupt",
            )
            for command in (
                ["replay"],
                ["replay", "--check"],
                ["report"],
                ["report", "--critical"],
                ["report", "--html"],
                ["critical-path"],
            )
            # --check compares events without validating their links.
            if not (content == "broken-link" and "--check" in command)
        ],
    )
    def test_replay_invalid_journal_fails(self, command, content, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        if content == "not-json":
            path.write_text('{"schema": "repro.journal/1", "events": 1}\n{oops\n')
        elif content == "broken-link":  # event 0 links to a later parent
            Journal.from_dicts(
                [{"id": 0, "name": "a", "t": 0.0, "parent": 3, "attrs": {}}]
            ).write_jsonl(path)
        elif content == "directory":
            path.mkdir()
        elif content == "random-bytes":  # not UTF-8, not gzip
            path.write_bytes(bytes(range(56, 256)))
        elif content == "gzip-garbage":  # gzip magic, truncated header
            path.write_bytes(b"\x1f\x8bgarbage")
        elif content == "gzip-corrupt":  # valid header, bad deflate data
            path.write_bytes(b"\x1f\x8b\x08" + bytes(7) + b"garbage-garbage")
        html = tmp_path / "report.html"
        operands = {"--check": [path, path], "--html": [html, path]}
        argv = [*command, *map(str, operands.get(command[-1], [path]))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert not html.exists()

    def test_report_ascii(self, journal_path, capsys):
        assert main(["report", journal_path]) == 0
        assert "[0] session_open" in capsys.readouterr().out

    def test_report_html(self, journal_path, tmp_path, capsys):
        out = tmp_path / "sub" / "report.html"
        assert main(["report", journal_path, "--html", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<!doctype html>")
        assert "session_open" in text


class TestGzipJournals:
    """Transparent .jsonl.gz support: path-extension write, magic-byte
    read, and reproducible bytes (no mtime/filename in the header)."""

    def test_roundtrip_through_gzip(self, tmp_path):
        j = make_journal()
        path = j.write_jsonl(tmp_path / "j.jsonl.gz")
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # actually gzip on disk
        loaded = load_journal(path)
        assert diff_journals(j, loaded) is None

    def test_gzip_bytes_are_path_and_time_independent(self, tmp_path):
        j = make_journal()
        a = j.write_jsonl(tmp_path / "first-name.jsonl.gz")
        b = j.write_jsonl(tmp_path / "second" / "other.jsonl.gz")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_read_sniffs_magic_without_extension(self, tmp_path):
        import shutil

        src = make_journal().write_jsonl(tmp_path / "j.jsonl.gz")
        plainly_named = tmp_path / "renamed.jsonl"
        shutil.copy(src, plainly_named)
        loaded = load_journal(plainly_named)
        assert diff_journals(make_journal(), loaded) is None

    def test_replay_cli_reads_gzip(self, tmp_path, capsys):
        path = make_journal().write_jsonl(tmp_path / "j.jsonl.gz")
        assert main(["replay", str(path)]) == 0
        assert "5 events" in capsys.readouterr().out

    def test_replay_check_mixed_compression(self, tmp_path, capsys):
        j = make_journal()
        plain = j.write_jsonl(tmp_path / "a.jsonl")
        gz = j.write_jsonl(tmp_path / "b.jsonl.gz")
        assert main(["replay", "--check", plain, gz]) == 0
        assert "identical" in capsys.readouterr().out
