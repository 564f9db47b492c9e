"""Live-streaming telemetry self-cost — the <2% overhead budget.

The in-run streamer (``repro.obs.stream``) promises two things: it is
cheap, and it is inert (the causal journal is byte-identical with
streaming on or off, because the streamer only reads).  Both arms run
the engine's one dispatch loop and pay its one observer test per
event.  The streamed arm adds no per-event work: every 1024 events the
observer slot samples the pending high-water mark and pulses the
stream (a float compare), with snapshot I/O amortized over thousands
of events.  This bench measures the first promise and asserts the
second.

Expected shape: wall-clock overhead of an armed streamer stays under
the documented 2% budget (gated via ``baseline.json``:
``overhead_pct`` has ``abs_tol`` 1.5 around 0.5, so anything above
2.0% regresses), and ``journal_identical`` is exactly 1.
"""

import tempfile
import time
from pathlib import Path

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import Telemetry
from repro.obs.stream import StreamConfig, validate_stream

PARAMS = TreeScenarioParams(
    n_leaves=50,
    n_attackers=10,
    duration=60.0,
    attack_start=10.0,
    attack_end=50.0,
    seed=4,
)

ROUNDS = 3


def _best_wall(stream_dir):
    """Best-of-N wall seconds for one scenario run (lowest is the
    least-noise estimate on a shared machine)."""
    best = float("inf")
    snapshots = 0
    for i in range(ROUNDS):
        cfg = None
        if stream_dir is not None:
            cfg = StreamConfig(
                path=str(Path(stream_dir) / f"r{i}.stream.jsonl"),
                interval=5.0,
            )
        started = time.perf_counter()
        run_tree_scenario(PARAMS, stream=cfg)
        wall = time.perf_counter() - started
        best = min(best, wall)
        if cfg is not None:
            snapshots = validate_stream(cfg.path)["records"]
    return best, snapshots


def _journal_lines(stream_dir):
    tele = Telemetry()
    cfg = None
    if stream_dir is not None:
        cfg = StreamConfig(
            path=str(Path(stream_dir) / "identity.stream.jsonl"), interval=5.0
        )
    run_tree_scenario(PARAMS, telemetry=tele, stream=cfg)
    with tempfile.TemporaryDirectory() as td:
        out = tele.journal.write_jsonl(str(Path(td) / "journal.jsonl"))
        return Path(out).read_bytes()


def run_measurement():
    with tempfile.TemporaryDirectory() as td:
        off, _ = _best_wall(None)
        on, snapshots = _best_wall(td)
        overhead_pct = 100.0 * (on - off) / off
        identical = _journal_lines(None) == _journal_lines(td)
    return off, on, overhead_pct, snapshots, identical


def test_stream_overhead_under_budget(benchmark, report):
    report.name = "stream_overhead"
    off, on, overhead_pct, snapshots, identical = benchmark.pedantic(
        run_measurement, iterations=1, rounds=1
    )
    report("Streaming telemetry self-cost (best of", ROUNDS, "runs each)")
    report(f"  streaming off: {off:.3f} s wall")
    report(f"  streaming on:  {on:.3f} s wall ({snapshots} snapshots)")
    report(f"  overhead:      {overhead_pct:+.2f}%  (budget: < 2%)")
    report(f"  journal byte-identical on vs off: {identical}")
    assert identical, "streaming perturbed the causal journal"
    report.metric("overhead_pct", round(overhead_pct, 2))
    report.metric("journal_identical", int(identical))
    report.metric("snapshots", snapshots)
