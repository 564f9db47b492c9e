"""Parallel run pool — serial vs pooled wall time and determinism.

Runs the same batch of independent scenarios once serially and once
through :mod:`repro.parallel` worker processes, reports the speedup,
and asserts the pooled results are byte-identical to the serial ones
(the pool's determinism contract).

The speedup floor (>= 2x with 4 workers, per the acceptance criteria)
is only asserted on runners with >= 4 cores; on smaller boxes the
bench still reports the measured ratio so the trend is tracked.
"""

import json
import os
import time
from dataclasses import replace

from repro.experiments.runner import result_to_dict, run_many
from repro.experiments.scenarios import TreeScenarioParams

BASE = TreeScenarioParams(
    n_leaves=30,
    n_attackers=8,
    attacker_rate=1.0e6,
    placement="even",
    duration=35.0,
    attack_start=5.0,
    attack_end=30.0,
    seed=2,
)

# Eight independent cells: 4 seeds x 2 defenses.
BATCH = {
    (defense, seed): replace(BASE, defense=defense, seed=seed)
    for defense in ("honeypot", "none")
    for seed in (0, 1, 2, 3)
}

JOBS = 4


def _canonical(results):
    return {
        key: json.dumps(result_to_dict(res), sort_keys=True)
        for key, res in results.items()
    }


def test_parallel_pool_speedup(benchmark, report):
    report.name = "parallel_pool"

    def run_both():
        t0 = time.perf_counter()
        serial = run_many(BATCH, jobs=1)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled = run_many(BATCH, jobs=JOBS)
        t_pooled = time.perf_counter() - t0
        return serial, t_serial, pooled, t_pooled

    serial, t_serial, pooled, t_pooled = benchmark.pedantic(
        run_both, iterations=1, rounds=1
    )
    speedup = t_serial / t_pooled if t_pooled > 0 else float("inf")
    cores = os.cpu_count() or 1

    report(f"batch: {len(BATCH)} independent scenario runs, {JOBS} workers")
    report(f"serial wall time: {t_serial:.2f} s")
    report(f"pooled wall time: {t_pooled:.2f} s  ({cores} core(s) available)")
    report(f"speedup: {speedup:.2f}x")
    report.metric("batch_size", len(BATCH))
    report.metric("jobs", JOBS)
    report.metric("cores", cores)
    report.metric("serial_wall_s", round(t_serial, 3))
    report.metric("pooled_wall_s", round(t_pooled, 3))
    report.metric("speedup", round(speedup, 2))

    # --- Determinism: pooled results byte-identical to serial ---------
    assert _canonical(pooled) == _canonical(serial)
    # --- Speedup floor, only meaningful with real parallelism ---------
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {JOBS} workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
