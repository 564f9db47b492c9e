"""One benchmark sample, run by ``run.py`` in a fresh process.

Usage: ``python child.py <workload> <seed> <trace 0|1> <setups> <sim seconds>``
with ``src`` on ``PYTHONPATH``.  Prints one JSON line: the sample, or
``{"error": ...}`` if the scenario raised.

The child calibrates, runs an untimed warm-up scenario (so lazy imports
and first-call costs stay out of ``setup_s``), times ``setups`` set-up
phases that stop where the event loop would start, then runs the timed
scenario once, traced or not.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from tracer import SetupOnly, Tracer, network_counts

import repro
from repro.experiments.runner import result_to_dict
from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario

SRC = Path(__file__).resolve().parents[2] / "src"

# Scenario fields that differ between workloads; everything else is the
# Fig. 9 default, spelled out in scenario_params.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig10-honeypot": {"defense": "honeypot", "n_leaves": 100},
    "fig10-pushback": {"defense": "pushback", "n_leaves": 100},
    "fig10-nodefense": {"defense": "none", "n_leaves": 100},
    "tree1000-honeypot": {"defense": "honeypot", "n_leaves": 1000},
}

WARMUP_SECONDS = 2.0


def scenario_params(workload: str, seed: int, duration: float) -> TreeScenarioParams:
    """The workload's scenario: Fig. 9 defaults, attack over the middle
    80 % of the timeline (10 s to 90 s of the 100 s run)."""
    return TreeScenarioParams(
        n_servers=5,
        n_active=3,
        epoch_len=10.0,
        n_attackers=25,
        attacker_rate=1.0e6,
        placement="even",
        legit_load=0.9,
        duration=duration,
        attack_start=0.1 * duration,
        attack_end=0.9 * duration,
        seed=seed,
        **WORKLOADS[workload],
    )


def outcome_digest(result: Any) -> str:
    """SHA-256 of the scenario outcome.  ``params`` and ``scheduler``
    describe the input, and the event count is an implementation detail
    an optimisation may change, so all three are left out."""
    payload = result_to_dict(result)
    for key in ("params", "scheduler", "events_processed"):
        del payload[key]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed fingerprint."""
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - t0


def _setup_s(probe: Tracer, t0: float) -> float:
    if probe.loop_start is None:
        raise RuntimeError("the scenario did not enter its event loop via Network.run")
    return probe.loop_start - t0


def time_setup(params: TreeScenarioParams) -> float:
    """Seconds from the scenario call to the event-loop start."""
    with Tracer(setup_only=True) as probe:
        t0 = perf_counter()
        try:
            run_tree_scenario(params)
        except SetupOnly:
            pass
    gc.collect()
    return _setup_s(probe, t0)


def sample(workload: str, seed: int, trace: bool, setups: int, duration: float) -> Dict[str, Any]:
    """Warm up, time ``setups`` set-up passes, then run the scenario once.

    ``setup_s`` is the timed run's own set-up; ``setup_samples_s`` adds
    the set-up-only passes before it.
    """
    params = scenario_params(workload, seed, duration)
    run_tree_scenario(scenario_params(workload, seed, WARMUP_SECONDS))
    setup_samples = [time_setup(params) for _ in range(setups)]
    gc.collect()
    with Tracer(layers=trace) as tracer:
        t0 = perf_counter()
        result = run_tree_scenario(params)
        t1 = perf_counter()
    setup_samples.append(_setup_s(tracer, t0))
    out: Dict[str, Any] = {
        "wall_s": t1 - t0,
        "setup_s": setup_samples[-1],
        "setup_samples_s": setup_samples,
        "loop_s": tracer.loop_s,
        "sim_s": duration,
        "counts": network_counts(tracer.net),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": outcome_digest(result),
        "false_captures": result.false_captures,
    }
    if trace:
        out.update(tracer.raw())
    return out


def main(argv: List[str]) -> int:
    workload, seed, trace, setups, duration = argv
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    calibration_s = calibrate()
    try:
        out = sample(workload, int(seed), trace == "1", int(setups), float(duration))
    except Exception:
        out = {"error": traceback.format_exc()}
    out["calibration_s"] = calibration_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
