"""Tests for the CLI and the figure-regeneration functions."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import FIGURES, fig5, fig9, figure


class TestFigureFunctions:
    def test_fig5_text(self):
        txt = fig5()
        assert "continuous floor: 27.5 s" in txt
        assert "t_off=5" in txt and "t_off=10" in txt

    def test_fig9_text(self):
        txt = fig9()
        assert "attacker location" in txt
        assert "N=5, k=3" in txt

    def test_fig7_quick(self):
        txt = figure("fig7", "quick")
        assert "hop" in txt.lower()
        assert "degree" in txt.lower()

    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "policies",
        }

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure("fig99")


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_analyze_progressive_onoff(self, capsys):
        assert main([
            "analyze", "--scheme", "progressive",
            "--t-on", "3", "--t-off", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "onoff" in out and "325.0" in out

    def test_analyze_unbounded(self, capsys):
        assert main(["analyze", "--scheme", "basic"]) == 0
        assert "unbounded" in capsys.readouterr().out

    def test_analyze_follower(self, capsys):
        assert main([
            "analyze", "--scheme", "progressive", "--d-follow", "2.2",
        ]) == 0
        assert "follower" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option",
        [
            ["--p", "0"],
            ["--p", "1.5"],
            ["--p", "nan"],
            ["--r", "0"],
            ["--m", "-1"],
            ["--h", "0"],
            ["--t-on", "0", "--t-off", "5"],
        ],
        ids=["p=0", "p=1.5", "p=nan", "r=0", "m=-1", "h=0", "t-on=0"],
    )
    def test_analyze_bad_parameter_is_a_usage_error(self, option):
        # A string SystemExit prints "error: ..." and no traceback.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *option])
        assert str(exc.value.code).startswith("error: ")

    def test_fig9_command(self, capsys):
        assert main(["fig9"]) == 0
        assert "simulation parameters" in capsys.readouterr().out

    def test_scale_choices_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig8", "--scale", "gigantic"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestJobsAndSweepParsing:
    def test_jobs_flag_on_figures(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args([name, "--jobs", "4"])
            assert args.jobs == 4
            assert parser.parse_args([name]).jobs is None

    def test_jobs_must_be_int(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--jobs", "many"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--field", "n_attackers", "--values", "5,10"]
        )
        assert args.field == "n_attackers"
        assert args.values == "5,10"
        assert args.seeds == "0"
        assert args.max_attempts == 2
        assert args.jobs is None
        assert args.timeout is None
        assert args.checkpoint is None
        assert args.out is None

    def test_sweep_requires_field_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--values", "5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--field", "n_attackers"])

    def test_sweep_value_casting(self):
        from repro.cli import _parse_sweep_values
        from repro.experiments.scenarios import TreeScenarioParams

        base = TreeScenarioParams()
        assert _parse_sweep_values(base, "n_attackers", "5, 10") == [5, 10]
        assert _parse_sweep_values(base, "attacker_rate", "1e6") == [1.0e6]
        assert _parse_sweep_values(base, "defense", "none,pushback") == [
            "none", "pushback",
        ]
        # None-defaulted fields cast by their declared Optional[float].
        for field in ("t_on", "t_off"):
            assert _parse_sweep_values(base, field, "3,5") == [3.0, 5.0]
        with pytest.raises(SystemExit):
            _parse_sweep_values(base, "nope", "1")
        with pytest.raises(SystemExit):
            _parse_sweep_values(base, "n_attackers", " , ")

    def test_sweep_command_end_to_end(self, tmp_path, capsys):
        import json

        out = tmp_path / "sweep.json"
        ck = tmp_path / "ck.json"
        argv = [
            "sweep", "--field", "n_attackers", "--values", "1,2",
            "--scale", "quick", "--defense", "none",
            "--checkpoint", str(ck), "--out", str(out),
        ]
        assert main(argv) == 0
        art = json.loads(out.read_text())
        assert art["schema"] == "repro.sweep/1"
        assert art["ok"] and art["quarantined"] == []
        assert len(art["tasks"]) == 2
        # Second run resumes everything from the checkpoint.
        capsys.readouterr()
        assert main(argv) == 0
        assert "[resumed]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option",
        [
            ["--timeout", "0"],
            ["--timeout", "nan"],
            ["--max-attempts", "0"],
            ["--values", "1,x"],
            ["--field", "attack_start", "--values", "1.0,abc"],
            ["--seeds", "0,x"],
            ["--seeds", ","],
            ["--field", "seed", "--values", "1,2"],
            ["--field", "n_clients"],
            ["--field", "honeypot_probability", "--values", "0.5"],
            ["--field", "placement", "--values", "bogus"],
            ["--field", "defense", "--values", "foo"],
            ["--field", "attacker_policy", "--values", "bogus"],
            ["--jobs", "0"],
        ],
        ids=[
            "timeout=0",
            "timeout=nan",
            "max-attempts=0",
            "values=1,x",
            "attack_start=1.0,abc",
            "seeds=0,x",
            "seeds=empty",
            "field=seed",
            "field=n_clients",
            "field=honeypot_probability",
            "placement=bogus",
            "defense=foo",
            "attacker_policy=bogus",
            "jobs=0",
        ],
    )
    def test_sweep_bad_option_is_a_usage_error(self, option, monkeypatch):
        # A string SystemExit prints "error: ..." and no traceback; a
        # later --field/--values overrides the defaults below.
        import repro.experiments.runner as runner

        def no_run(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(runner, "run_tasks", no_run)
        argv = [
            "sweep", "--field", "n_attackers", "--values", "1",
            "--scale", "quick", "--defense", "none", *option,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith("error: ")

    def test_bad_jobs_env_fails_before_any_run(self, monkeypatch):
        import repro.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setenv("REPRO_JOBS", "x")
        monkeypatch.setattr(cli, "figure", no_run)
        with pytest.raises(SystemExit) as exc:
            main(["fig11", "--scale", "quick"])
        assert str(exc.value.code).startswith("error: ")

    def test_zero_jobs_fails_before_any_run(self, monkeypatch):
        import repro.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(cli, "figure", no_run)
        with pytest.raises(SystemExit) as exc:
            main(["fig10", "--jobs", "0", "--scale", "quick"])
        assert str(exc.value.code).startswith("error: ")


class TestKindsCommand:
    def test_kinds_lists_the_vocabulary(self, capsys):
        from repro.obs.journal import JOURNAL_KINDS, JOURNAL_SCHEMA

        assert main(["kinds"]) == 0
        out = capsys.readouterr().out
        assert JOURNAL_SCHEMA in out
        for kind in JOURNAL_KINDS:
            assert kind in out
        assert "port_close" in out


class TestProfileCommand:
    def test_profile_quick_with_all_artifacts(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        journal = tmp_path / "journal.jsonl.gz"
        trace = tmp_path / "trace.json"
        argv = [
            "profile", "--scale", "quick", "--defense", "honeypot",
            "--metrics-out", str(metrics),
            "--journal-out", str(journal),
            "--trace", str(trace),
            "--top", "5",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-dimension attribution" in out
        assert "legit throughput during attack" in out
        art = json.loads(metrics.read_text())
        dims = art["engine"]["dimensions"]
        assert dims and all("wall_s" in row for row in dims)
        # The journal comes out gzip-compressed and feeds the other
        # analysis commands transparently.
        capsys.readouterr()
        assert main(["critical-path", str(journal)]) == 0
        assert "available parallelism" in capsys.readouterr().out
        from repro.obs.traceexport import validate_trace

        counts = validate_trace(json.loads(trace.read_text()))
        assert counts["slices"] > 0

    def test_profile_journal_matches_stats_run(self, tmp_path, capsys):
        """Attribution on (profile) vs off (stats): byte-identical
        journals for the same scenario parameters."""
        a = tmp_path / "profiled.jsonl"
        b = tmp_path / "plain.jsonl"
        assert main([
            "profile", "--scale", "quick", "--defense", "honeypot",
            "--journal-out", str(a),
        ]) == 0
        capsys.readouterr()
        assert main([
            "stats", "--scale", "quick", "--defense", "honeypot",
            "--journal-out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()
        # stats draws one gantt per honeypot session, a row per capture.
        rows = capsys.readouterr().out.splitlines()
        assert sum(r.startswith("session_open [") for r in rows) == 5
        assert sum(r.lstrip().startswith("port_close [") for r in rows) == 25
