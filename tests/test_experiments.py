"""Tests for experiment scenarios, validation harness, and runners.

These use scaled-down workloads (few leaves, short durations) so the
whole file runs in well under a minute.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import (
    render_series,
    render_table,
    result_to_dict,
    run_many,
    run_sweep,
    summarize,
)
from repro.experiments.scenarios import (
    PARAMETER_TABLE,
    TreeScenarioParams,
    paper_scale,
    run_tree_scenario,
)
from repro.experiments.validation import ValidationParams, run_trial, run_validation

FAST = TreeScenarioParams(
    n_leaves=30,
    n_attackers=8,
    duration=35.0,
    attack_start=5.0,
    attack_end=30.0,
    epoch_len=5.0,
    seed=0,
)


class TestTreeScenario:
    def test_honeypot_run_captures_attackers(self):
        res = run_tree_scenario(replace(FAST, defense="honeypot"))
        assert len(res.capture_times) == 8
        assert res.false_captures == 0
        assert all(t >= 0 for t in res.capture_times.values())

    def test_honeypot_beats_no_defense(self):
        none = run_tree_scenario(replace(FAST, defense="none"))
        hp = run_tree_scenario(replace(FAST, defense="honeypot"))
        assert hp.legit_pct_during_attack > none.legit_pct_during_attack + 10

    def test_no_defense_legit_share_roughly_proportional(self):
        res = run_tree_scenario(replace(FAST, defense="none"))
        # 9 Mb/s legit vs 8 Mb/s attack into a 10 Mb/s bottleneck:
        # proportional share ~53%.
        offered_attack = 8 * res.params.attacker_rate
        expected = 100 * 0.9 * 10e6 / (0.9 * 10e6 + offered_attack)
        assert res.legit_pct_during_attack == pytest.approx(expected, abs=12)

    def test_pushback_run_completes_with_stats(self):
        res = run_tree_scenario(replace(FAST, defense="pushback"))
        assert res.defense_stats["defense"] == "pushback"
        assert res.defense_stats["control_messages"] > 0

    def test_series_lengths_consistent(self):
        res = run_tree_scenario(replace(FAST, defense="none"))
        assert len(res.times) == len(res.legit_pct) == len(res.attack_pct)

    def test_throughput_recovers_after_attack(self):
        res = run_tree_scenario(replace(FAST, defense="none"))
        post = [v for t, v in zip(res.times, res.legit_pct) if t > 32.0]
        assert post and sum(post) / len(post) > 70

    def test_onoff_params_forwarded(self):
        res = run_tree_scenario(
            replace(FAST, defense="honeypot", t_on=2.0, t_off=3.0)
        )
        assert res.params.t_on == 2.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            run_tree_scenario(replace(FAST, n_attackers=999))
        with pytest.raises(ValueError):
            run_tree_scenario(replace(FAST, attack_start=50.0))
        with pytest.raises(ValueError):
            run_tree_scenario(replace(FAST, defense="voodoo"))

    def test_derived_properties(self):
        p = TreeScenarioParams(n_leaves=100, n_attackers=25, legit_load=0.9)
        assert p.n_clients == 75
        assert p.client_rate == pytest.approx(0.9 * 10e6 / 75)
        assert p.honeypot_probability == pytest.approx(0.4)

    def test_paper_scale(self):
        p = paper_scale(TreeScenarioParams())
        assert p.n_leaves == 1000
        assert p.duration == 1000.0
        assert p.attack_start == 50.0

    def test_parameter_table_nonempty(self):
        assert len(PARAMETER_TABLE) >= 5
        assert all(len(row) == 3 for row in PARAMETER_TABLE)

    def test_reproducible_given_seed(self):
        a = run_tree_scenario(replace(FAST, defense="honeypot"))
        b = run_tree_scenario(replace(FAST, defense="honeypot"))
        assert a.legit_pct == b.legit_pct
        assert a.capture_times == b.capture_times


class TestValidation:
    PARAMS = ValidationParams(hops=4, p=0.5, epoch_len=5.0, runs=3, seed=1)

    def test_trial_produces_capture_time(self):
        t = run_trial(self.PARAMS, 0)
        assert t is not None and t > 0

    def test_validation_within_eq3_bound(self):
        out = run_validation(self.PARAMS)
        assert len(out.capture_times) == 3
        assert out.predicted == pytest.approx(10.0)  # m/p
        assert out.within_bound

    def test_trials_vary_with_index(self):
        # Different run indices use different schedules/phases; over a
        # handful of trials the capture times are not all identical.
        times = {run_trial(self.PARAMS, i) for i in range(6)}
        assert len(times) >= 2

    def test_rate_pps(self):
        p = ValidationParams(rate_bps=1e5, packet_size=500)
        assert p.rate_pps == pytest.approx(25.0)


class TestRunnerHelpers:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["mean"] == 2.0
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["n"] == 3

    def test_summarize_empty(self):
        import math

        assert math.isnan(summarize([])["mean"])

    def test_summarize_single(self):
        assert summarize([5.0])["std"] == 0.0

    def test_render_table_alignment(self):
        txt = render_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert "1.50" in txt
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_render_series(self):
        txt = render_series("capture", [1, 2], [3.0, 4.0], unit="s")
        assert "capture" in txt and "[s]" in txt and "1:3.00" in txt

    def test_replicate_and_sweep(self):
        fast = replace(
            FAST, n_leaves=12, n_attackers=3, duration=12.0,
            attack_start=2.0, attack_end=10.0, defense="none",
        )
        reps = run_many({s: replace(fast, seed=s) for s in (0, 1)})
        assert [r.params.seed for r in reps.values()] == [0, 1]
        swept = run_sweep(fast, "n_attackers", [1, 2], seeds=[0]).results
        assert set(swept) == {1, 2}
        assert all(len(v) == 1 for v in swept.values())


class TestConfidenceInterval:
    def test_interval_contains_mean(self):
        from repro.experiments.runner import confidence_interval

        lo, hi = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert lo < 2.5 < hi

    def test_single_sample_degenerate(self):
        from repro.experiments.runner import confidence_interval

        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_narrows_with_more_samples(self):
        import numpy as np

        from repro.experiments.runner import confidence_interval

        rng = np.random.default_rng(0)
        few = rng.normal(0, 1, size=5)
        many = rng.normal(0, 1, size=200)
        lo1, hi1 = confidence_interval(list(few))
        lo2, hi2 = confidence_interval(list(many))
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validation(self):
        import pytest as _pytest

        from repro.experiments.runner import confidence_interval

        with _pytest.raises(ValueError):
            confidence_interval([])
        with _pytest.raises(ValueError):
            confidence_interval([1.0], confidence=2.0)


class TestResultSerialization:
    TINY = replace(
        FAST, n_leaves=12, n_attackers=3, duration=12.0,
        attack_start=2.0, attack_end=10.0, seed=7,
    )

    def test_result_to_dict_surfaces_seed_and_ids(self):
        from repro.experiments.runner import result_to_dict

        res = run_tree_scenario(self.TINY)
        d = result_to_dict(res)
        assert d["seed"] == 7
        assert d["params"]["seed"] == 7
        assert sorted(d["attacker_ids"]) == sorted(res.attacker_ids)
        assert sorted(d["client_ids"]) == sorted(res.client_ids)

    def test_round_trip_is_lossless(self):
        from repro.experiments.runner import result_from_dict, result_to_dict

        res = run_tree_scenario(self.TINY)
        back = result_from_dict(result_to_dict(res))
        assert back.params == res.params
        assert back.capture_times == res.capture_times
        assert back.legit_pct == res.legit_pct
        assert result_to_dict(back) == result_to_dict(res)


class TestParallelRunner:
    TINY = replace(
        FAST, n_leaves=12, n_attackers=3, duration=12.0,
        attack_start=2.0, attack_end=10.0, defense="none",
    )

    def test_pooled_replicate_matches_serial(self):
        named = {s: replace(self.TINY, seed=s) for s in (0, 1)}
        serial = run_many(named, jobs=1)
        pooled = run_many(named, jobs=2)
        assert {k: result_to_dict(r) for k, r in serial.items()} == {
            k: result_to_dict(r) for k, r in pooled.items()
        }

    def test_pooled_sweep_matches_serial(self):
        from repro.parallel import strip_volatile

        serial = run_sweep(self.TINY, "n_attackers", [1, 2], seeds=[0], jobs=1)
        pooled = run_sweep(self.TINY, "n_attackers", [1, 2], seeds=[0], jobs=2)
        assert {
            v: [result_to_dict(r) for r in rs] for v, rs in serial.results.items()
        } == {
            v: [result_to_dict(r) for r in rs] for v, rs in pooled.results.items()
        }
        assert strip_volatile(serial.artifact()) == strip_volatile(
            pooled.artifact()
        )

    def test_multi_run_scenario_summary_keeps_the_first_run(self):
        # The merged artifact's per-defense "scenario" entry is the first
        # honeypot run's, whole: a later reflection run's extra keys must
        # not fill it in, at any job count.
        from repro.obs import Telemetry
        from repro.parallel import strip_volatile

        continuous = replace(self.TINY, defense="honeypot", epoch_len=4.0, seed=3)
        named = {
            "continuous": continuous,
            "reflection": replace(
                continuous, attacker_policy="reflection", n_amplifiers=2
            ),
        }
        artifacts = {}
        for jobs in (1, 2):
            telemetry = Telemetry()
            run_many(named, jobs=jobs, telemetry=telemetry)
            artifacts[jobs] = strip_volatile(telemetry.artifact())
        assert artifacts[1] == artifacts[2]
        alone = Telemetry()
        run_tree_scenario(continuous, telemetry=alone)
        assert (
            artifacts[1]["scenario"]["honeypot"]
            == alone.extra["scenario"]["honeypot"]
        )
