"""Attribution-profiler self-cost — the dimension accumulator budget.

Dimensional attribution in the engine's dispatch loop
(``Simulator.run`` with ``EngineProfiler.enable_dimensions``) promises
two things: it is cheap (one ``perf_counter`` read plus one charge call
— a dict upsert, with the ``(kind, module)`` key memoized per function —
per event, in the loop's observer slot), and it is inert (the causal journal is byte-identical with
attribution on or off, because the accumulator only observes callback
timing and never touches simulation state).  This bench measures the
first promise and asserts the second.

Both arms run with full telemetry so the measured delta is exactly the
attribution increment: telemetry-with-journal vs telemetry-with-journal
plus per-dimension timing.  Expected shape: overhead stays inside the
gated band in ``baseline.json`` (``overhead_pct`` carries a generous
``abs_tol`` because per-event ``perf_counter`` cost is machine-noisy),
and ``journal_identical`` is exactly 1.
"""

import tempfile
import time
from pathlib import Path

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import Telemetry

PARAMS = TreeScenarioParams(
    n_leaves=50,
    n_attackers=10,
    duration=60.0,
    attack_start=10.0,
    attack_end=50.0,
    seed=4,
)

ROUNDS = 3


def _best_wall(profile):
    """Best-of-N wall seconds for one telemetered scenario run (lowest
    is the least-noise estimate on a shared machine)."""
    best = float("inf")
    dimensions = 0
    for _ in range(ROUNDS):
        tele = Telemetry()
        started = time.perf_counter()
        run_tree_scenario(PARAMS, telemetry=tele, profile=profile)
        wall = time.perf_counter() - started
        best = min(best, wall)
        if profile:
            dimensions = len(tele.profiler.dimension_rows())
    return best, dimensions


def _journal_bytes(profile):
    tele = Telemetry()
    run_tree_scenario(PARAMS, telemetry=tele, profile=profile)
    with tempfile.TemporaryDirectory() as td:
        out = tele.journal.write_jsonl(str(Path(td) / "journal.jsonl"))
        return Path(out).read_bytes()


def run_measurement():
    off, _ = _best_wall(False)
    on, dimensions = _best_wall(True)
    overhead_pct = 100.0 * (on - off) / off
    identical = _journal_bytes(False) == _journal_bytes(True)
    return off, on, overhead_pct, dimensions, identical


def test_profile_overhead_under_budget(benchmark, report):
    report.name = "profile_overhead"
    off, on, overhead_pct, dimensions, identical = benchmark.pedantic(
        run_measurement, iterations=1, rounds=1
    )
    report("Attribution profiler self-cost (best of", ROUNDS, "runs each)")
    report(f"  profile off: {off:.3f} s wall")
    report(f"  profile on:  {on:.3f} s wall ({dimensions} dimensions)")
    report(f"  overhead:    {overhead_pct:+.2f}%")
    report(f"  journal byte-identical on vs off: {identical}")
    assert identical, "attribution perturbed the causal journal"
    assert dimensions > 0, "attribution produced no dimension rows"
    report.metric("overhead_pct", round(overhead_pct, 2))
    report.metric("journal_identical", int(identical))
    report.metric("dimensions", dimensions)
