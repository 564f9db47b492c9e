"""End-to-end benchmark of the paper's tree scenario (``run_tree_scenario``).

Two ways to run it, both from the repository root:

* One measured run of one workload (the form ``BENCHMARK.json`` names)::

      python3 benchmarks/e2e/run.py --workload fig10-honeypot --seed 0 \
          --seconds 20 --trace 0

  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
  ``--trace 1`` its per-layer metrics.  The last line of the output is
  one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

* One set: five rounds over every workload plus one traced run each,
  written with the machine fingerprint to a file ``compare.py`` reads::

      python3 benchmarks/e2e/run.py --seed 0 --out set.json

Every sample is a fresh child process (``child.py``) with
``PYTHONHASHSEED=0``, ``src`` on ``PYTHONPATH`` and no ``REPRO_*``
variables, so the default code path is measured.  One child runs at a
time.  See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"

# Scenario length the digest pins hold for; --sim-seconds other than
# this is a quick check (the smoke test) and skips the pins.
FULL_SIM_SECONDS = 100.0
ROUNDS = 5
# Set-up-only phases per untraced child, on top of the timed run's own.
SETUPS = 4
# A measured run must end within 180 s; stop children well before that.
RUN_DEADLINE_S = 170.0
SET_CHILD_TIMEOUT_S = 900.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed scenario)."""


def load_spec() -> Dict[str, Any]:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {SPEC_PATH}: {exc}") from exc


def load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS_PATH.read_text())


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(
    workload: str, seed: int, trace: bool, setups: int, sim_s: float, timeout: float
) -> Dict[str, Any]:
    """One sample from a fresh child process.  A scenario that raised or
    timed out comes back as ``{"error": ...}``; a child that could not
    run at all raises :class:`HarnessError`."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        str(seed),
        "1" if trace else "0",
        str(setups),
        repr(sim_s),
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise HarnessError(f"child printed no result: {lines[-1][:200]}") from exc


def problems(
    s: Dict[str, Any], workload: str, seed: int, sim_s: float, pins: Dict[str, Dict[str, str]]
) -> List[str]:
    """Why a sample counts as failed (empty when it passed)."""
    if "error" in s:
        return [s["error"].strip().splitlines()[-1]]
    found = []
    pin = pins.get(workload, {}).get(str(seed)) if sim_s == FULL_SIM_SECONDS else None
    if pin is not None and s["digest"] != pin:
        found.append(f"outcome digest {s['digest'][:12]} differs from pin {pin[:12]}")
    if s["false_captures"] > 0:
        found.append(f"{s['false_captures']} false captures")
    return found


def e2e_values(s: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end metrics of one untraced sample."""
    return {
        "wall_s": s["wall_s"],
        "setup_s": median(s["setup_samples_s"]),
        "wall_per_sim_s": s["loop_s"] / s["sim_s"],
        "pkt_hops_per_s": s["counts"]["pkts_sent"] / s["loop_s"],
        "peak_rss_mb": s["peak_rss_mb"],
    }


def summary(values: List[float]) -> Dict[str, Any]:
    if len(values) > 1:
        q1, med, q3 = quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def median_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: median(row[name] for row in rows) for name in rows[0]}


# ----------------------------------------------------------------------
# One measured run (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def measured_run(
    spec: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool, sim_s: float
) -> Tuple[Dict[str, Any], List[str]]:
    """Repeat samples until ``seconds`` have passed (at least one).

    Untraced, a sample is one child.  Traced, it is an untraced twin and
    a traced child of the same scenario: the twin is the base of
    ``trace.overhead_pct`` and the traced digest must equal its digest.
    """
    pins = load_pins()
    start = monotonic()
    rows: List[Dict[str, float]] = []
    notes: List[str] = []
    attempted = failed = 0
    longest = 0.0

    def remaining() -> float:
        return max(1.0, RUN_DEADLINE_S - (monotonic() - start))

    while True:
        unit_start = monotonic()
        if trace:
            twin = run_child(workload, seed, False, 0, sim_s, remaining())
            traced = run_child(workload, seed, True, 0, sim_s, remaining())
            twin_found = problems(twin, workload, seed, sim_s, pins)
            found = problems(traced, workload, seed, sim_s, pins)
            if not (found or twin_found) and traced["digest"] != twin["digest"]:
                found.append("traced digest differs from the untraced twin")
            if not (found or twin_found):
                rows.append(layer_metrics(traced, twin["loop_s"]))
            attempted += 2
            failed += bool(twin_found) + bool(found)
            found += twin_found
            children = [twin, traced]
        else:
            s = run_child(workload, seed, False, SETUPS, sim_s, remaining())
            found = problems(s, workload, seed, sim_s, pins)
            if not found:
                rows.append(e2e_values(s))
            attempted += 1
            failed += bool(found)
            children = [s]
        notes += found
        notes += [
            f"child calibration_s={c['calibration_s']!r} loop_s={c.get('loop_s')!r}"
            for c in children
        ]
        now = monotonic()
        longest = max(longest, now - unit_start)
        if now - start >= seconds or now - start + longest > RUN_DEADLINE_S:
            break
    defs = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    if rows:
        values = median_metrics(rows)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs}
    result = {
        "correct": failed == 0 and bool(rows),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


# ----------------------------------------------------------------------
# One set (README: "Comparing two commits")
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(calibration: List[float]) -> Dict[str, Any]:
    status = _git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "src_dirty": bool(status) if status is not None else None,
        "calibration_s": summary(calibration),
    }


def run_set(spec: Dict[str, Any], seed: int, sim_s: float) -> Dict[str, Any]:
    """Five rounds over every workload, rotating the first one so drift
    hits all workloads alike, then one traced run per workload."""
    pins = load_pins()
    names = [w["name"] for w in spec["workloads"]]
    untraced: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for r in range(ROUNDS):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            untraced[name].append(
                run_child(name, seed, False, SETUPS, sim_s, SET_CHILD_TIMEOUT_S)
            )
    traced = {n: run_child(n, seed, True, 0, sim_s, SET_CHILD_TIMEOUT_S) for n in names}

    calibration = [
        s["calibration_s"] for n in names for s in untraced[n] + [traced[n]]
    ]
    out: Dict[str, Any] = {
        "schema": "repro.e2e-set/1",
        "seed": seed,
        "sim_seconds": sim_s,
        "fingerprint": fingerprint(calibration),
        "workloads": {},
    }
    for name in names:
        samples = untraced[name]
        notes: List[str] = []
        ok = []
        for s in samples:
            found = problems(s, name, seed, sim_s, pins)
            if not found and ok and s["digest"] != ok[0]["digest"]:
                found.append("outcome digest differs between untraced runs")
            notes += found
            if not found:
                ok.append(s)
        t = traced[name]
        found = problems(t, name, seed, sim_s, pins)
        if not found and ok and t["digest"] != ok[0]["digest"]:
            found.append("traced digest differs from the untraced runs")
        notes += found
        attempted = len(samples) + 1
        failed = len(samples) - len(ok) + (1 if found else 0)
        entry: Dict[str, Any] = {
            "attempted": attempted,
            "failed": failed,
            "failed_runs_pct": 100.0 * failed / attempted,
            "notes": notes,
            "digest": ok[0]["digest"] if ok else None,
            "end_to_end": {},
            "per_layer": {},
        }
        if ok:
            rows = [e2e_values(s) for s in ok]
            for m in spec["end_to_end"]:
                entry["end_to_end"][m["name"]] = {
                    "unit": m["unit"],
                    **summary([row[m["name"]] for row in rows]),
                }
        if ok and not found:
            loop = median(s["loop_s"] for s in ok)
            values = layer_metrics(t, loop)
            entry["per_layer"] = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]
            }
        out["workloads"][name] = entry
    return out


def print_set(result: Dict[str, Any]) -> None:
    for name, entry in result["workloads"].items():
        print(
            f"== {name}: failed_runs_pct {entry['failed_runs_pct']:.1f} % "
            f"({entry['failed']}/{entry['attempted']})"
        )
        for note in entry["notes"]:
            print(f"   ! {note}")
        for metric, m in entry["end_to_end"].items():
            print(
                f"   {metric:<16} {m['median']:.6g} {m['unit']} "
                f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
            )
        for metric, m in entry["per_layer"].items():
            print(f"   {metric:<24} {m['value']:.6g} {m['unit']}")


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one workload (with --seconds)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="run one set and write it to this file")
    parser.add_argument(
        "--sim-seconds",
        type=float,
        default=FULL_SIM_SECONDS,
        help="simulated scenario length (quick checks only; skips the pins)",
    )
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.out is None):
        parser.error("give exactly one of --workload and --out")
    try:
        if not (SRC / "repro" / "experiments" / "scenarios.py").is_file():
            raise HarnessError(f"no simulator source under {SRC}")
        spec = load_spec()
        if args.out is not None:
            result = run_set(spec, args.seed, args.sim_seconds)
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
            print_set(result)
            return 0
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise HarnessError(f"unknown workload {args.workload!r}")
        result, notes = measured_run(
            spec, args.workload, args.seed, args.seconds, bool(args.trace), args.sim_seconds
        )
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
