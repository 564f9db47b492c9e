"""Figure regeneration as plain functions (shared by the CLI).

Each ``figN`` function runs the corresponding experiment at a chosen
scale and returns the formatted text the paper's figure reports.  The
benchmark suite (``benchmarks/bench_*.py``) layers shape *assertions*
on top of the same underlying scenarios.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict

import numpy as np

from ..analysis.capture_time import progressive_continuous, progressive_onoff
from ..sim.rng import RngRegistry
from ..topology.distributions import PAPER_HOP_COUNT_DIST
from ..topology.tree import TreeParams, build_tree_topology
from .runner import render_table, run_many
from .scenarios import (
    PARAMETER_TABLE,
    TreeScenarioParams,
    paper_scale,
)
from .validation import ValidationParams, run_validation

__all__ = ["FIGURES", "figure"]


def _scenario_base(scale: str) -> TreeScenarioParams:
    base = TreeScenarioParams(seed=1)
    if scale == "paper":
        return paper_scale(base)
    if scale == "quick":
        return replace(
            base, n_leaves=50, duration=60.0, attack_start=10.0, attack_end=50.0
        )
    return base


def fig5(scale: str = "default", telemetry=None, jobs=None) -> str:
    m, p, h, r, tau = 10.0, 0.4, 10, 10.0, 1.0
    lines = [
        "Fig. 5 — analytical capture time, progressive back-propagation",
        f"continuous floor: {progressive_continuous(m, p, h, r, tau):.1f} s",
    ]
    for t_off in (5.0, 10.0):
        pts = []
        for t_on in np.arange(2.4, 60.0, 3.2):
            ct = progressive_onoff(m, p, h, r, tau, float(t_on), t_off)
            pts.append(f"{t_on:.0f}:{'inf' if math.isinf(ct) else f'{ct:.0f}'}")
        lines.append(f"on-off t_off={t_off:g}s  " + "  ".join(pts))
    return "\n".join(lines)


def fig6(scale: str = "default", telemetry=None, jobs=None) -> str:
    runs = 3 if scale == "quick" else 8
    base = ValidationParams(hops=10, p=0.3, epoch_len=10.0, runs=runs, seed=7)
    lines = ["Fig. 6 — Eq. (3) validation (sim mean vs m/p bound)"]
    sweeps = {
        "p": ("p", [0.2, 0.4, 0.8], base),
        "m": ("epoch_len", [5.0, 10.0, 20.0], replace(base, hops=20)),
        "h": ("hops", [2, 10, 20], replace(base, epoch_len=30.0)),
    }
    for label, (field, values, b) in sweeps.items():
        rows = []
        for v in values:
            out = run_validation(replace(b, **{field: v}))
            rows.append([v, f"{out.mean_capture_time:.2f}", f"{out.predicted:.2f}"])
        lines.append(render_table([label, "sim (s)", "Eq.3 (s)"], rows))
        lines.append("")
    return "\n".join(lines)


def fig7(scale: str = "default", telemetry=None, jobs=None) -> str:
    n_leaves = 100 if scale == "quick" else 400
    topo = build_tree_topology(
        TreeParams(n_leaves=n_leaves), RngRegistry(0).stream("fig7.topology")
    )
    hops = topo.hop_count_histogram()
    total = sum(hops.values())
    rows = [
        [h, n, f"{n / total:.3f}", f"{PAPER_HOP_COUNT_DIST.pmf().get(h, 0):.3f}"]
        for h, n in hops.items()
    ]
    lines = [
        "Fig. 7 — topology distributions",
        render_table(["hops", "count", "fraction", "target"], rows),
        "",
        render_table(
            ["degree", "count"], [[d, n] for d, n in topo.degree_histogram().items()]
        ),
    ]
    return "\n".join(lines)


def fig8(scale: str = "default", telemetry=None, jobs=None) -> str:
    base = _scenario_base(scale)
    lines = [
        "Fig. 8 — legitimate throughput (%) over time, "
        f"attack in [{base.attack_start:.0f}, {base.attack_end:.0f}] s"
    ]
    # Telemetry instruments the honeypot run (the defense under study);
    # the baselines run uninstrumented on their own simulators.
    results = run_many(
        {
            name: replace(base, defense=name)
            for name in ("honeypot", "pushback", "none")
        },
        jobs=jobs,
        telemetry=telemetry,
        instrument=lambda name: telemetry is not None and name == "honeypot",
    )
    lines.append("t(s)  " + "  ".join(f"{n:>9s}" for n in results))
    times = results["none"].times
    step = max(1, len(times) // 20)
    for i in range(0, len(times), step):
        lines.append(
            f"{times[i]:5.0f} "
            + "  ".join(f"{results[n].legit_pct[i]:9.1f}" for n in results)
        )
    hp = results["honeypot"]
    lines.append(
        f"captures: {len(hp.capture_times)}/{base.n_attackers}, "
        f"false: {hp.false_captures}"
    )
    if telemetry is not None:
        telemetry.extra["fig8"] = {
            "times": list(times),
            "legit_pct": {n: list(r.legit_pct) for n, r in results.items()},
            "attack_pct": {n: list(r.attack_pct) for n, r in results.items()},
        }
    return "\n".join(lines)


def fig9(scale: str = "default", telemetry=None, jobs=None) -> str:
    return "Fig. 9 — simulation parameters\n" + render_table(
        ["parameter", "values studied", "default"], PARAMETER_TABLE
    )


def fig10(scale: str = "default", telemetry=None, jobs=None) -> str:
    base = _scenario_base(scale)
    placements = ("far", "even", "close")
    defenses = ("honeypot", "pushback", "none")
    results = run_many(
        {
            (p, d): replace(base, placement=p, defense=d)
            for p in placements
            for d in defenses
        },
        jobs=jobs,
        telemetry=telemetry,
        instrument=lambda key: telemetry is not None and key[1] == "honeypot",
    )
    rows = [
        [p] + [f"{results[(p, d)].legit_pct_during_attack:.1f}" for d in defenses]
        for p in placements
    ]
    return "Fig. 10 — client throughput (%) vs attacker location\n" + render_table(
        ["location", "honeypot", "pushback", "none"], rows
    )


def fig11(scale: str = "default", telemetry=None, jobs=None) -> str:
    base = replace(_scenario_base(scale), attacker_rate=0.5e6)
    counts = (5, 25) if scale == "quick" else (5, 10, 25, 50)
    defenses = ("honeypot", "pushback", "none")
    results = run_many(
        {
            (n, d): replace(base, n_attackers=n, defense=d)
            for n in counts
            for d in defenses
        },
        jobs=jobs,
        telemetry=telemetry,
        instrument=lambda key: telemetry is not None and key[1] == "honeypot",
    )
    rows = [
        [n] + [f"{results[(n, d)].legit_pct_during_attack:.1f}" for d in defenses]
        for n in counts
    ]
    return "Fig. 11 — client throughput (%) vs number of attackers\n" + render_table(
        ["# attackers", "honeypot", "pushback", "none"], rows
    )


def policies(scale: str = "default", telemetry=None, jobs=None) -> str:
    """Capture-rate curves per adversary policy (beyond the paper).

    Runs every :data:`~repro.traffic.policies.POLICY_NAMES` policy
    (plus a reflection/amplification workload) on the honeypot defense
    at the same scale, and tabulates the cumulative fraction of
    bots/reflectors captured over time since attack start — the
    adaptive-adversary companion to the paper's Figs. 10/11.
    """
    base = _scenario_base(scale)
    n_amp = max(2, base.n_attackers // 5)
    points = {
        "continuous": base,
        "onoff": replace(base, attacker_policy="onoff", t_on=5.0, t_off=5.0),
        "follower": replace(base, attacker_policy="follower"),
        "aware": replace(base, attacker_policy="aware"),
        "probing": replace(base, attacker_policy="probing"),
        "churn": replace(base, attacker_policy="churn"),
        "reflection": replace(
            base, attacker_policy="reflection", n_amplifiers=n_amp
        ),
    }
    results = run_many(
        points,
        jobs=jobs,
        telemetry=telemetry,
        instrument=lambda name: telemetry is not None,
    )
    horizon = base.attack_end - base.attack_start
    steps = [horizon * i / 8.0 for i in range(1, 9)]
    rows = []
    for name, res in results.items():
        # Reflection captures reflectors (the spoofed signature points
        # there); every other policy captures the bots themselves.
        denom = max(
            res.params.n_amplifiers if name == "reflection" else res.params.n_attackers,
            1,
        )
        times = sorted(res.capture_times.values())
        rows.append(
            [name]
            + [
                f"{100.0 * sum(1 for ct in times if ct <= t) / denom:.0f}"
                for t in steps
            ]
            + [f"{res.legit_pct_during_attack:.1f}", res.false_captures]
        )
    lines = [
        "Adversary policies — cumulative capture rate (%) vs time since "
        f"attack start, attack window {horizon:.0f} s",
        render_table(
            ["policy"] + [f"{t:.0f}s" for t in steps] + ["legit%", "false"],
            rows,
        ),
    ]
    refl = results["reflection"]
    traced = sum(len(v) for v in refl.traced_sources.values())
    lines.append(
        f"reflection: {refl.reflector_captures}/{len(refl.amplifier_ids)} "
        f"reflectors captured; stage-two trigger logs traced {traced} "
        f"source(s) behind them"
    )
    if telemetry is not None:
        telemetry.extra["policies"] = {
            name: {
                "capture_times": {str(k): v for k, v in r.capture_times.items()},
                "legit_pct_during_attack": r.legit_pct_during_attack,
                "false_captures": r.false_captures,
                "reflector_captures": r.reflector_captures,
            }
            for name, r in results.items()
        }
    return "\n".join(lines)


FIGURES: Dict[str, Callable[[str], str]] = {
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "policies": policies,
}


def figure(
    name: str,
    scale: str = "default",
    telemetry=None,
    jobs=None,
) -> str:
    """Regenerate one figure by name ('fig5' ... 'fig11').

    ``telemetry`` (a :class:`repro.obs.Telemetry` or None) instruments
    the figure's runs; figures without a simulation component accept
    and ignore it.  ``jobs`` fans the figure's independent scenario
    runs out over a :mod:`repro.parallel` worker pool (default:
    ``$REPRO_JOBS`` or serial); results are identical either way.
    """
    try:
        fn = FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        ) from None
    return fn(scale, telemetry=telemetry, jobs=jobs)
