"""Compare two benchmark sets written by ``run.py --out``.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per (workload, end-to-end metric) with both medians and
quartiles, the change of B against A, the metric's bound from
``BENCHMARK.json`` and a verdict for B:

* ``worse``      -- the median worsened by more than the bound;
* ``better``     -- the median improved by more than the quartile spread;
* ``unchanged``  -- neither;
* ``unresolved`` -- the spread of A or B exceeds the bound, so the sets
  cannot tell; unless every run of B beats every run of A (``better``),
  or loses to every run of A by more than the bound (``worse``).

``failed_runs_pct`` must stay 0: any failed run in B is ``worse``.  The
tool warns when the machine fingerprints differ, and exits 1 when any
row is ``worse``.  Two sets of the same code should compare clean.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
IDENTITY = ("nproc", "python", "platform", "cpu_model")
# Calibration-loop medians further apart than this mean the machine ran
# at a different speed, so time metrics are not comparable as they stand.
CALIBRATION_TOLERANCE = 0.10


def rel_spread(m: Dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / m["median"]


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(rel_spread(a), rel_spread(b))
    if spread > bound:
        pairs = [(sign * va, sign * vb) for va in a["values"] for vb in b["values"]]
        if all(vb < va for va, vb in pairs):
            return "better"
        if all(vb > va for va, vb in pairs) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread:
        return "better"
    return "unchanged"


def fingerprint_warnings(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    fa, fb = a["fingerprint"], b["fingerprint"]
    warnings = [
        f"fingerprint {key} differs: {fa.get(key)!r} vs {fb.get(key)!r}"
        for key in IDENTITY
        if fa.get(key) != fb.get(key)
    ]
    ca, cb = fa["calibration_s"]["median"], fb["calibration_s"]["median"]
    if abs(cb / ca - 1.0) > CALIBRATION_TOLERANCE:
        warnings.append(
            f"calibration loop {ca:.4g} s vs {cb:.4g} s: the machine ran at a "
            "different speed"
        )
    for key in ("seed", "sim_seconds"):
        if a[key] != b[key]:
            warnings.append(f"{key} differs ({a[key]} vs {b[key]}): inputs differ")
    return warnings


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            rows.append({"workload": workload, "metric": "-", "verdict": "missing in B"})
            continue
        failed = wb["failed"] > 0
        rows.append(
            {
                "workload": workload,
                "metric": "failed_runs_pct",
                "a": wa["failed_runs_pct"],
                "b": wb["failed_runs_pct"],
                "verdict": "worse" if failed else "unchanged",
            }
        )
        for m in spec["end_to_end"]:
            ma = wa["end_to_end"].get(m["name"])
            mb = wb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                rows.append({"workload": workload, "metric": m["name"], "verdict": "missing"})
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "bound": m["bound"],
                    "a": ma,
                    "b": mb,
                    "change": (mb["median"] - ma["median"]) / ma["median"],
                    "verdict": verdict(ma, mb, m["better"], m["bound"]),
                }
            )
    return rows


def _fmt(m: Dict[str, Any]) -> str:
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(
        f"{'workload':<18} {'metric':<16} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'change':>8} {'bound':>6}  verdict"
    )
    for r in rows:
        if "change" in r:
            print(
                f"{r['workload']:<18} {r['metric']:<16} {_fmt(r['a']):<30} "
                f"{_fmt(r['b']):<30} {r['change']:>+8.2%} {r['bound']:>6.0%}  {r['verdict']}"
            )
        elif "a" in r:
            print(
                f"{r['workload']:<18} {r['metric']:<16} {r['a']:<30.3g} "
                f"{r['b']:<30.3g} {'':>8} {'0':>6}  {r['verdict']}"
            )
        else:
            print(f"{r['workload']:<18} {r['metric']:<16} {r['verdict']}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(SPEC_PATH.read_text())
    for warning in fingerprint_warnings(a, b):
        print(f"warning: {warning}")
    rows = compare(a, b, spec)
    print_rows(rows)
    worse = [r for r in rows if r["verdict"] in ("worse", "missing", "missing in B")]
    print(f"{len(worse)} of {len(rows)} rows worse or missing")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
