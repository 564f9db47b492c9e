"""Property-based tests for sweep merge semantics (hypothesis).

These drive the *real* sweep pipeline — task planning, the pool,
checkpoint JSON round trips, result collection — but substitute a stub
scenario function for ``run_tree_scenario`` so hundreds of examples run
in seconds.  The stub derives its output purely from the task's params
(including its seed), exactly like the real function, which is the
property the merge guarantees rely on.

Properties:

* planning emits exactly one task per (value, seed) pair — none
  dropped, none duplicated, ids independent of input order;
* merged sweep results are independent of task order and worker count;
* resume-after-kill executes exactly the missing tasks and the final
  results are complete.
"""

import os
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import plan_sweep_tasks, run_sweep
from repro.experiments.scenarios import TreeScenarioParams
from repro.parallel import PoolConfig, SweepCheckpoint, run_tasks

BASE = TreeScenarioParams(n_leaves=64)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

values_strategy = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=5, unique=True
)
seeds_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=4, unique=True
)


def stub_scenario_task(payload):
    """A cheap stand-in for ``run_scenario_task``: output is a pure
    function of the params (seed included), like the real thing."""
    params = payload["params"]
    signal = float(params.seed % 97) + params.n_attackers / 100.0
    return {
        "result": {
            "params": asdict(params),
            "seed": params.seed,
            "times": [0.0, 1.0],
            "legit_pct": [signal, signal + 1.0],
            "attack_pct": [0.0, 0.0],
            "legit_pct_during_attack": signal,
            "defense_stats": {"defense": params.defense},
            "capture_times": {},
            "false_captures": 0,
            "attacker_ids": [],
            "client_ids": [],
            "events_processed": int(params.seed) % 1000,
        },
        "telemetry": None,
    }


def results_fingerprint(run):
    """The (value, seed) -> result mapping — the thing that must be
    invariant under input order, scheduling, and worker count."""
    return {
        (value, r.params.seed): (r.legit_pct_during_attack, r.events_processed)
        for value, results in run.results.items()
        for r in results
    }


class TestTaskPlanning:
    @SETTINGS
    @given(values=values_strategy, seeds=seeds_strategy)
    def test_no_dropped_or_duplicated_pairs(self, values, seeds):
        tasks = plan_sweep_tasks(
            BASE, "n_attackers", values, seeds, task_fn=stub_scenario_task
        )
        assert len(tasks) == len(values) * len(seeds)
        ids = [t.task_id for t in tasks]
        assert len(set(ids)) == len(ids)
        expected = {
            f"n_attackers={v!r}/seed={s}" for v in values for s in seeds
        }
        assert set(ids) == expected

    @SETTINGS
    @given(values=values_strategy, seeds=seeds_strategy)
    def test_ids_independent_of_input_order(self, values, seeds):
        forward = plan_sweep_tasks(
            BASE, "n_attackers", values, seeds, task_fn=stub_scenario_task
        )
        backward = plan_sweep_tasks(
            BASE,
            "n_attackers",
            list(reversed(values)),
            list(reversed(seeds)),
            task_fn=stub_scenario_task,
        )
        assert {t.task_id for t in forward} == {t.task_id for t in backward}

    @pytest.mark.parametrize(
        "field_name, values",
        [
            ("seed", [1, 2]),
            ("n_clients", [1]),
            ("honeypot_probability", [0.5]),
            ("placement", ["bogus"]),
            ("defense", ["foo"]),
            ("attacker_policy", ["bogus"]),
        ],
        ids=lambda case: case if isinstance(case, str) else ",".join(map(str, case)),
    )
    def test_unsweepable_field_or_value_is_rejected(self, field_name, values):
        # seed is swept by ``seeds``; n_clients and honeypot_probability
        # are properties; the others are outside the field's choices.
        with pytest.raises(ValueError):
            plan_sweep_tasks(BASE, field_name, values, [0])

    def test_duplicate_pair_rejected_by_pool(self):
        tasks = plan_sweep_tasks(
            BASE, "n_attackers", [3, 3], [0], task_fn=stub_scenario_task
        )
        try:
            run_tasks(tasks, PoolConfig(jobs=1))
        except ValueError as exc:
            assert "duplicate task id" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("duplicate (value, seed) pair not rejected")


class TestMergeSemantics:
    @SETTINGS
    @given(values=values_strategy, seeds=seeds_strategy)
    def test_order_independence(self, values, seeds):
        forward = run_sweep(
            BASE, "n_attackers", values, seeds, task_fn=stub_scenario_task
        )
        backward = run_sweep(
            BASE,
            "n_attackers",
            list(reversed(values)),
            list(reversed(seeds)),
            task_fn=stub_scenario_task,
        )
        assert results_fingerprint(forward) == results_fingerprint(backward)

    @SETTINGS
    @given(values=values_strategy, seeds=seeds_strategy)
    def test_worker_count_independence(self, values, seeds):
        inline = run_sweep(
            BASE, "n_attackers", values, seeds, task_fn=stub_scenario_task
        )
        pooled = run_sweep(
            BASE,
            "n_attackers",
            values,
            seeds,
            pool_config=PoolConfig(jobs=3),
            task_fn=stub_scenario_task,
        )
        assert results_fingerprint(inline) == results_fingerprint(pooled)
        # The artifact is identical too, modulo wall-time fields.
        from repro.parallel import strip_volatile

        assert strip_volatile(inline.artifact()) == strip_volatile(
            pooled.artifact()
        )

    @SETTINGS
    @given(values=values_strategy, seeds=seeds_strategy)
    def test_every_pair_lands_exactly_once(self, values, seeds):
        run = run_sweep(
            BASE, "n_attackers", values, seeds, task_fn=stub_scenario_task
        )
        assert run.report.ok
        fp = results_fingerprint(run)
        assert set(fp) == {(v, s) for v in values for s in seeds}
        # and within one value, results come back in seed order
        for v in values:
            assert [r.params.seed for r in run.results[v]] == list(seeds)


class TestResumeAfterKill:
    @SETTINGS
    @given(
        values=values_strategy,
        seeds=seeds_strategy,
        data=st.data(),
    )
    def test_resume_completes_exactly_the_missing_tasks(
        self, values, seeds, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck.json")
            full = run_sweep(
                BASE,
                "n_attackers",
                values,
                seeds,
                checkpoint=SweepCheckpoint(path),
                task_fn=stub_scenario_task,
            )
            all_ids = [t.task_id for t in full.tasks]
            # "Kill" the first run mid-flight: drop a random subset of
            # completed tasks from the checkpoint.
            lost = data.draw(
                st.sets(st.sampled_from(all_ids)), label="lost_tasks"
            )
            ck = SweepCheckpoint(path)
            ck.discard(lost)

            resumed = run_sweep(
                BASE,
                "n_attackers",
                values,
                seeds,
                checkpoint=SweepCheckpoint(path),
                task_fn=stub_scenario_task,
            )
            assert sorted(resumed.report.executed) == sorted(lost)
            assert sorted(resumed.report.resumed) == sorted(
                set(all_ids) - set(lost)
            )
            assert results_fingerprint(resumed) == results_fingerprint(full)
