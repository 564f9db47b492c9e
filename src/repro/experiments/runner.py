"""Experiment running utilities: replication, sweeps, text tables.

Benchmarks and examples print the same rows/series the paper reports;
these helpers keep that rendering consistent.

Replication and sweeps run through :mod:`repro.parallel` when asked
(``jobs`` argument, ``--jobs`` on the CLI, or ``$REPRO_JOBS``): tasks
carry their own seed, so serial and N-worker runs produce identical
results; a :class:`~repro.parallel.SweepCheckpoint` resumes a killed
sweep with exactly the missing tasks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..parallel import (
    PoolConfig,
    PoolReport,
    SweepCheckpoint,
    Task,
    absorb_artifact,
    replicate_seeds,
    resolve_jobs,
    run_tasks,
)
from .scenarios import TreeScenarioParams, TreeScenarioResult, run_tree_scenario

__all__ = [
    "SweepRun",
    "confidence_interval",
    "plan_sweep_tasks",
    "render_series",
    "render_table",
    "replicate_scenario",
    "result_from_dict",
    "result_to_dict",
    "run_many",
    "run_scenario_task",
    "run_sweep",
    "summarize",
    "sweep_scenario",
]


def result_to_dict(result: TreeScenarioResult) -> Dict[str, Any]:
    """A :class:`TreeScenarioResult` as a JSON-ready artifact payload.

    ``seed`` is surfaced top-level (it also lives inside ``params``) so
    artifact consumers can group replications without digging into the
    parameter dict; the id lists make the payload a lossless round trip
    through :func:`result_from_dict`.
    """
    return {
        "params": asdict(result.params),
        "seed": result.params.seed,
        # Constant since the engine has one scheduler; kept because
        # artifact readers, the e2e benchmark's outcome digest among
        # them, expect the key.
        "scheduler": "heap",
        "times": list(result.times),
        "legit_pct": list(result.legit_pct),
        "attack_pct": list(result.attack_pct),
        "legit_pct_during_attack": result.legit_pct_during_attack,
        "defense_stats": dict(result.defense_stats),
        "capture_times": {str(k): v for k, v in result.capture_times.items()},
        "false_captures": result.false_captures,
        "attacker_ids": list(result.attacker_ids),
        "client_ids": list(result.client_ids),
        "events_processed": result.events_processed,
        "amplifier_ids": list(result.amplifier_ids),
        "reflector_captures": result.reflector_captures,
        "traced_sources": {str(k): list(v) for k, v in result.traced_sources.items()},
    }


def result_from_dict(d: Dict[str, Any]) -> TreeScenarioResult:
    """Inverse of :func:`result_to_dict` (pool workers ship dicts)."""
    return TreeScenarioResult(
        params=TreeScenarioParams(**d["params"]),
        times=list(d["times"]),
        legit_pct=list(d["legit_pct"]),
        attack_pct=list(d["attack_pct"]),
        legit_pct_during_attack=d["legit_pct_during_attack"],
        defense_stats=dict(d["defense_stats"]),
        capture_times={int(k): v for k, v in d["capture_times"].items()},
        false_captures=d["false_captures"],
        attacker_ids=list(d.get("attacker_ids", ())),
        client_ids=list(d.get("client_ids", ())),
        events_processed=d["events_processed"],
        amplifier_ids=list(d.get("amplifier_ids", ())),
        reflector_captures=d.get("reflector_captures", 0),
        traced_sources={
            int(k): list(v) for k, v in d.get("traced_sources", {}).items()
        },
    )


def _stream_config_for(stream: Optional[Dict[str, Any]], task_id: str):
    """Per-task :class:`~repro.obs.stream.StreamConfig` (or None).

    ``stream`` is the plain-dict form that crosses the pool's pickle
    boundary: ``{"dir": ..., "interval": ..., "wall_cap": ...}`` — each
    task gets its own ``<task>.stream.jsonl`` under ``dir``, which is
    also where the supervisor maintains ``pool.status.json``.
    """
    if not stream:
        return None
    from ..obs.stream import StreamConfig, stream_path_for

    kwargs: Dict[str, Any] = {}
    if stream.get("interval") is not None:
        kwargs["interval"] = float(stream["interval"])
    if "wall_cap" in stream:
        kwargs["wall_cap"] = stream["wall_cap"]
    return StreamConfig(
        path=stream_path_for(stream["dir"], task_id), **kwargs
    )


def run_scenario_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool task function: one scenario run -> JSON-ready envelope.

    Module-level so worker processes can unpickle it by reference.
    ``payload`` is ``{"params": TreeScenarioParams, "telemetry": bool,
    "task": str}`` plus an optional ``"stream"`` dict (see
    :func:`_stream_config_for`) that arms a live per-task telemetry
    stream; when telemetry is requested the worker builds its
    own :class:`~repro.obs.Telemetry` and ships the artifact dict back
    for the parent to merge (a live telemetry cannot cross the process
    boundary — its journal clock closes over the worker's simulator).
    The run is bracketed with ``pool_task_start`` / ``pool_task_finish``
    journal events, mirrored exactly by :func:`run_many`'s serial path
    so serial and pool journals stay byte-identical.
    """
    from ..obs import Telemetry  # local import keeps workers lean

    params: TreeScenarioParams = payload["params"]
    telemetry = Telemetry() if payload.get("telemetry") else None
    if telemetry is not None:
        # at=0.0: the scenario's simulator clock starts there; a serial
        # run's shared clock would otherwise read the *previous*
        # scenario's final time here.
        telemetry.journal.record(
            "pool_task_start", at=0.0, task=payload.get("task")
        )
    stream = _stream_config_for(
        payload.get("stream"), str(payload.get("task") or "run")
    )
    result = run_tree_scenario(
        params,
        telemetry=telemetry,
        stream=stream,
        profile=bool(payload.get("profile")) and telemetry is not None,
    )
    if telemetry is not None:
        telemetry.journal.record("pool_task_finish", task=payload.get("task"))
    return {
        "result": result_to_dict(result),
        "telemetry": telemetry.artifact() if telemetry is not None else None,
    }


def _scenario_tasks(
    named_params: Sequence[tuple],
    instrument: Callable[[Any], bool],
    task_fn: Callable[[Dict[str, Any]], Dict[str, Any]],
    stream: Optional[Dict[str, Any]] = None,
    profile: bool = False,
) -> List[Task]:
    return [
        Task(
            task_id=str(key),
            fn=task_fn,
            payload={
                "params": params,
                "telemetry": bool(instrument(key)),
                "task": str(key),
                "stream": stream,
                "profile": profile,
            },
        )
        for key, params in named_params
    ]


def _discard_stale(
    checkpoint: Optional[SweepCheckpoint], tasks: Sequence[Task]
) -> None:
    """Forget checkpointed outcomes recorded under other params.

    Task ids such as ``seed=0`` do not encode the base params, so an id
    match alone could resume a different scenario's result.  An outcome
    whose recorded ``params`` differ from the task's — including one
    written when the params had other fields — is run again.
    """
    if checkpoint is None:
        return
    stale = []
    for task in tasks:
        done = checkpoint.get(task.task_id)
        if done is None:
            continue
        value = done.get("value")
        result = value.get("result") if isinstance(value, dict) else None
        recorded = result.get("params") if isinstance(result, dict) else None
        if recorded != asdict(task.payload["params"]):
            stale.append(task.task_id)
    if stale:
        checkpoint.discard(stale)


def _raise_on_quarantine(report: PoolReport, what: str) -> None:
    if not report.ok:
        details = "; ".join(
            f"{t}: {report.outcomes[t].error}".splitlines()[0]
            for t in report.quarantined
        )
        raise RuntimeError(f"{what}: {len(report.quarantined)} task(s) quarantined ({details})")


def run_many(
    named_params: Dict[Any, TreeScenarioParams],
    jobs: Optional[int] = None,
    pool_config: Optional[PoolConfig] = None,
    telemetry: Any = None,
    instrument: Optional[Callable[[Any], bool]] = None,
    stream: Optional[Dict[str, Any]] = None,
    profile: bool = False,
) -> Dict[Any, TreeScenarioResult]:
    """Run several named scenarios, serially or on the pool.

    ``instrument(key)`` selects which runs feed ``telemetry`` (default:
    all, when a telemetry is given).  Worker telemetry artifacts are
    absorbed in ``named_params`` order, so the consolidated artifact is
    identical to a serial instrumented run.  ``stream`` (a
    ``{"dir", "interval", "wall_cap"}`` dict) arms one live telemetry
    stream per run under ``dir`` — on the pool the supervisor also
    maintains the merged ``pool.status.json`` view there.
    ``profile=True`` enables per-dimension engine attribution on every
    instrumented run; worker dimension tables merge into ``telemetry``
    alongside the scalar engine counters, so a pooled sweep aggregates
    per-task profiles exactly like a serial one.  Raises if any run is
    quarantined — figures need every cell.
    """
    if instrument is None:
        instrument = lambda key: telemetry is not None
    jobs = pool_config.jobs if pool_config is not None else resolve_jobs(jobs)
    if jobs <= 1 and pool_config is None:
        out_serial: Dict[Any, TreeScenarioResult] = {}
        for key, params in named_params.items():
            run_telemetry = telemetry if instrument(key) else None
            if run_telemetry is not None:
                run_telemetry.journal.record(
                    "pool_task_start", at=0.0, task=str(key)
                )
            out_serial[key] = run_tree_scenario(
                params,
                telemetry=run_telemetry,
                stream=_stream_config_for(stream, str(key)),
                profile=profile and run_telemetry is not None,
            )
            if run_telemetry is not None:
                run_telemetry.journal.record("pool_task_finish", task=str(key))
        return out_serial
    tasks = _scenario_tasks(
        [(k, p) for k, p in named_params.items()],
        instrument if telemetry is not None else (lambda key: False),
        run_scenario_task,
        stream=stream,
        profile=profile,
    )
    config = pool_config or PoolConfig(jobs=jobs)
    if stream and config.status_dir is None:
        config.status_dir = stream["dir"]
    report = run_tasks(tasks, config)
    _raise_on_quarantine(report, "scenario batch")
    out: Dict[Any, TreeScenarioResult] = {}
    for key, task in zip(named_params, tasks):
        envelope = report.value(task.task_id)
        out[key] = result_from_dict(envelope["result"])
        if telemetry is not None and envelope.get("telemetry"):
            absorb_artifact(telemetry, envelope["telemetry"])
    return out


def replicate_scenario(
    params: TreeScenarioParams,
    seeds: Optional[Sequence[int]] = None,
    n: Optional[int] = None,
    jobs: Optional[int] = None,
    pool_config: Optional[PoolConfig] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
) -> List[TreeScenarioResult]:
    """Run the same scenario under several seeds.

    With ``seeds=None``, ``n`` replication seeds are derived
    deterministically from ``params.seed`` (SHA-256 keyed on the
    replicate index) — and every result records the seed that produced
    it (``result.params.seed``, surfaced by :func:`result_to_dict`).
    """
    if seeds is None:
        if n is None:
            raise ValueError("need seeds or n")
        seeds = replicate_seeds(params.seed, n)
    seeds = [int(s) for s in seeds]
    jobs = pool_config.jobs if pool_config is not None else resolve_jobs(jobs)
    if jobs <= 1 and pool_config is None and checkpoint is None:
        return [run_tree_scenario(replace(params, seed=s)) for s in seeds]
    tasks = [
        Task(
            task_id=f"seed={s}",
            fn=run_scenario_task,
            payload={"params": replace(params, seed=s), "telemetry": False},
        )
        for s in seeds
    ]
    _discard_stale(checkpoint, tasks)
    report = run_tasks(
        tasks, pool_config or PoolConfig(jobs=jobs), checkpoint=checkpoint
    )
    _raise_on_quarantine(report, "replication")
    return [
        result_from_dict(report.value(t.task_id)["result"]) for t in tasks
    ]


def plan_sweep_tasks(
    base: TreeScenarioParams,
    field_name: str,
    values: Sequence[Any],
    seeds: Sequence[int],
    task_fn: Callable[[Dict[str, Any]], Dict[str, Any]] = run_scenario_task,
    telemetry: bool = False,
    stream: Optional[Dict[str, Any]] = None,
    profile: bool = False,
) -> List[Task]:
    """One task per (value, seed) pair, under stable ids.

    Ids are pure functions of the sweep coordinates — never of order or
    worker — so checkpoints match across runs and duplicate (value,
    seed) pairs are rejected by the pool.  ``telemetry=True`` makes
    every worker build and ship back a telemetry artifact; ``stream``
    arms one live per-task telemetry stream under its ``dir``;
    ``profile=True`` adds per-dimension engine attribution to each
    instrumented task's artifact.
    """
    if not hasattr(base, field_name):
        raise ValueError(f"unknown sweep field {field_name!r}")
    return [
        Task(
            task_id=f"{field_name}={v!r}/seed={int(s)}",
            fn=task_fn,
            payload={
                "params": replace(base, **{field_name: v}, seed=int(s)),
                "telemetry": telemetry,
                "task": f"{field_name}={v!r}/seed={int(s)}",
                "stream": stream,
                "profile": profile,
            },
        )
        for v in values
        for s in seeds
    ]


@dataclass
class SweepRun:
    """A completed (possibly partially failed) sweep."""

    base: TreeScenarioParams
    field_name: str
    values: List[Any]
    seeds: List[int]
    tasks: List[Task]
    report: PoolReport

    @property
    def results(self) -> Dict[Any, List[TreeScenarioResult]]:
        """value -> results in seed order; quarantined points omitted."""
        out: Dict[Any, List[TreeScenarioResult]] = {v: [] for v in self.values}
        for v, task_ids in zip(self.values, self._ids_by_value()):
            for task_id in task_ids:
                outcome = self.report.outcomes[task_id]
                if outcome.ok:
                    out[v].append(result_from_dict(outcome.value["result"]))
        return out

    def _ids_by_value(self) -> List[List[str]]:
        n = len(self.seeds)
        ids = [t.task_id for t in self.tasks]
        return [ids[i * n : (i + 1) * n] for i in range(len(self.values))]

    def artifact(self) -> Dict[str, Any]:
        """JSON-ready sweep artifact: params, per-task outcomes (in task
        order), quarantine/resume bookkeeping.  Deterministic modulo
        wall-time fields (see :func:`repro.parallel.strip_volatile`)."""
        return {
            "schema": "repro.sweep/1",
            "field": self.field_name,
            "values": list(self.values),
            "seeds": list(self.seeds),
            "base_params": asdict(self.base),
            **self.report.as_dict(),
        }


def run_sweep(
    base: TreeScenarioParams,
    field_name: str,
    values: Iterable[Any],
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = None,
    pool_config: Optional[PoolConfig] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    task_fn: Callable[[Dict[str, Any]], Dict[str, Any]] = run_scenario_task,
    on_outcome: Optional[Callable[[Any], None]] = None,
    telemetry: Any = None,
    stream: Optional[Dict[str, Any]] = None,
    profile: bool = False,
) -> SweepRun:
    """Sweep one parameter over the pool; quarantine-tolerant.

    Unlike :func:`sweep_scenario` this never raises on a poisoned
    point: the :class:`SweepRun` reports quarantined tasks and its
    ``report.exit_code`` reflects partial failure.  With a
    ``telemetry``, every task is instrumented and worker artifacts are
    absorbed in *task* order (never completion order), so the merged
    metrics/journal match a serial instrumented sweep.  With a
    ``stream`` dict every task writes a live ``<task>.stream.jsonl``
    under ``stream["dir"]`` and the supervisor maintains the merged
    ``pool.status.json`` there (watch with ``repro watch DIR``).
    """
    values = list(values)
    seeds = [int(s) for s in seeds]
    tasks = plan_sweep_tasks(
        base,
        field_name,
        values,
        seeds,
        task_fn=task_fn,
        telemetry=telemetry is not None,
        stream=stream,
        profile=profile,
    )
    config = pool_config or PoolConfig(jobs=resolve_jobs(jobs))
    if stream and config.status_dir is None:
        config.status_dir = stream["dir"]
    _discard_stale(checkpoint, tasks)
    report = run_tasks(tasks, config, checkpoint=checkpoint, on_outcome=on_outcome)
    if telemetry is not None:
        for task in tasks:
            outcome = report.outcomes.get(task.task_id)
            if outcome is not None and outcome.ok and outcome.value.get("telemetry"):
                absorb_artifact(telemetry, outcome.value["telemetry"])
    return SweepRun(
        base=base,
        field_name=field_name,
        values=values,
        seeds=seeds,
        tasks=tasks,
        report=report,
    )


def sweep_scenario(
    base: TreeScenarioParams,
    field_name: str,
    values: Iterable[Any],
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = None,
    pool_config: Optional[PoolConfig] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
) -> Dict[Any, List[TreeScenarioResult]]:
    """Sweep one parameter, replicating each point over ``seeds``.

    Raises if any task ends quarantined; use :func:`run_sweep` for
    partial-failure tolerance and the machine-readable sweep artifact.
    """
    values = list(values)
    jobs = pool_config.jobs if pool_config is not None else resolve_jobs(jobs)
    if jobs <= 1 and pool_config is None and checkpoint is None:
        out: Dict[Any, List[TreeScenarioResult]] = {}
        for v in values:
            params = replace(base, **{field_name: v})
            out[v] = replicate_scenario(params, seeds)
        return out
    run = run_sweep(
        base,
        field_name,
        values,
        seeds,
        pool_config=pool_config or PoolConfig(jobs=jobs),
        checkpoint=checkpoint,
    )
    _raise_on_quarantine(run.report, f"sweep over {field_name}")
    return run.results


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / std / min / max of a metric across replications."""
    if not values:
        return {"mean": float("nan"), "std": float("nan"), "min": float("nan"), "max": float("nan"), "n": 0}
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "n": len(arr),
    }


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple:
    """(low, high) t-based confidence interval on the mean.

    Falls back to the normal quantile when scipy is unavailable;
    returns (mean, mean) for a single sample.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1) (got {confidence})")
    if not values:
        raise ValueError("need at least one sample")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    n = len(arr)
    if n == 1:
        return (mean, mean)
    sem = float(arr.std(ddof=1)) / np.sqrt(n)
    try:
        from scipy import stats

        t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    except ImportError:  # pragma: no cover - scipy is a dev dependency
        t = 1.96
    return (mean - t * sem, mean + t * sem)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text table with aligned columns."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    label: str, xs: Sequence[float], ys: Sequence[float], unit: str = ""
) -> str:
    """One named (x, y) series as compact text."""
    pairs = "  ".join(f"{x:g}:{y:.2f}" for x, y in zip(xs, ys))
    suffix = f" [{unit}]" if unit else ""
    return f"{label}{suffix}: {pairs}"


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
