"""Experiment running utilities: scenario batches, sweeps, text tables.

Benchmarks and examples print the same rows/series the paper reports;
these helpers keep that rendering consistent.

Every batch of scenario runs — a figure's grid (:func:`run_many`) or a
parameter sweep (:func:`run_sweep`) — goes through
:func:`repro.parallel.run_tasks`, in-process when ``jobs`` is 1 and on
worker processes otherwise (``jobs`` argument, ``--jobs`` on the CLI,
or ``$REPRO_JOBS``).  Each task carries its own seed and builds its
own telemetry, and artifacts are absorbed in task order, so every job
count produces identical results; a
:class:`~repro.parallel.SweepCheckpoint` resumes a killed sweep with
exactly the missing tasks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Literal,
    Optional,
    Sequence,
    Tuple,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from ..obs.telemetry import ARTIFACT_SCHEMA
from ..parallel import (
    PoolConfig,
    PoolReport,
    SweepCheckpoint,
    Task,
    absorb_artifact,
    resolve_jobs,
    run_tasks,
)
from ..traffic.policies import POLICY_NAMES
from .scenarios import TreeScenarioParams, TreeScenarioResult, run_tree_scenario

__all__ = [
    "SweepRun",
    "check_sweep_values",
    "confidence_interval",
    "plan_sweep_tasks",
    "render_series",
    "render_table",
    "result_from_dict",
    "result_to_dict",
    "run_many",
    "run_scenario_task",
    "run_sweep",
    "summarize",
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


def run_scenario_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool task function: one scenario run -> JSON-ready envelope.

    Module-level so worker processes can unpickle it by reference.
    ``payload`` is ``{"params": TreeScenarioParams, "telemetry": bool,
    "task": str, "profile": bool}``; when telemetry is requested the
    worker builds its own :class:`~repro.obs.Telemetry` and ships the
    artifact dict back for the parent to merge (a live telemetry cannot
    cross the process boundary — its journal clock closes over the
    worker's simulator).
    The run is bracketed with ``pool_task_start`` / ``pool_task_finish``
    journal events; the same function runs in-process at ``jobs=1`` and
    in workers otherwise, so every job count yields the same journal.
    """
    from ..obs import Telemetry  # local import keeps workers lean

    params: TreeScenarioParams = payload["params"]
    telemetry = Telemetry() if payload.get("telemetry") else None
    if telemetry is not None:
        # at=0.0: the scenario's simulator clock starts there; a
        # telemetry reused across runs would otherwise stamp the
        # previous run's final time.
        telemetry.journal.record(
            "pool_task_start", at=0.0, task=payload.get("task")
        )
    result = run_tree_scenario(
        params,
        telemetry=telemetry,
        profile=bool(payload.get("profile")) and telemetry is not None,
    )
    if telemetry is not None:
        telemetry.journal.record("pool_task_finish", task=payload.get("task"))
    return {
        "result": result_to_dict(result),
        "telemetry": telemetry.artifact() if telemetry is not None else None,
    }


def _scenario_tasks(
    named_params: Sequence[Tuple[Any, TreeScenarioParams]],
    task_fn: Callable[[Dict[str, Any]], Dict[str, Any]],
    instrument: Callable[[Any], bool],
    profile: bool,
) -> List[Task]:
    """One pool task per ``(key, params)`` pair, under id ``str(key)``."""
    return [
        Task(
            task_id=str(key),
            fn=task_fn,
            payload={
                "params": params,
                "telemetry": bool(instrument(key)),
                "task": str(key),
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
    written when the params had other fields — is run again, and so is
    one whose telemetry artifact has another schema than
    :data:`~repro.obs.telemetry.ARTIFACT_SCHEMA`, which
    :func:`~repro.parallel.absorb_artifact` could not fold.
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
        artifact = value.get("telemetry") if isinstance(value, dict) else None
        if recorded != asdict(task.payload["params"]) or (
            artifact and artifact.get("schema") != ARTIFACT_SCHEMA
        ):
            stale.append(task.task_id)
    if stale:
        checkpoint.discard(stale)


def _run_batch(
    tasks: List[Task],
    jobs: Optional[int],
    pool_config: Optional[PoolConfig],
    telemetry: Any,
    checkpoint: Optional[SweepCheckpoint] = None,
    on_outcome: Optional[Callable[[Any], None]] = None,
) -> PoolReport:
    """Run scenario ``tasks`` through :func:`run_tasks`, then absorb
    their telemetry artifacts into ``telemetry`` in *task* order (never
    completion order)."""
    config = pool_config or PoolConfig(jobs=resolve_jobs(jobs))
    _discard_stale(checkpoint, tasks)
    report = run_tasks(tasks, config, checkpoint=checkpoint, on_outcome=on_outcome)
    if telemetry is not None:
        for task in tasks:
            outcome = report.outcomes[task.task_id]
            if outcome.ok and outcome.value.get("telemetry"):
                absorb_artifact(telemetry, outcome.value["telemetry"])
    return report


def run_many(
    named_params: Dict[Any, TreeScenarioParams],
    jobs: Optional[int] = None,
    pool_config: Optional[PoolConfig] = None,
    telemetry: Any = None,
    instrument: Optional[Callable[[Any], bool]] = None,
    profile: bool = False,
) -> Dict[Any, TreeScenarioResult]:
    """Run several named scenarios as one batch of pool tasks.

    ``instrument(key)`` selects which runs feed ``telemetry`` (default:
    all, when a telemetry is given); each instrumented run builds its
    own telemetry and the artifacts are absorbed in ``named_params``
    order, so the consolidated artifact is the same at every job count.
    ``profile=True`` enables per-dimension engine attribution on every
    instrumented run; the dimension tables merge into ``telemetry``
    alongside the scalar engine counters.  A raising run is retried up to
    ``PoolConfig.max_attempts``; raises if any run is quarantined —
    figures need every cell.
    """
    if telemetry is None:
        instrument = lambda key: False
    elif instrument is None:
        instrument = lambda key: True
    tasks = _scenario_tasks(
        list(named_params.items()), run_scenario_task, instrument, profile
    )
    report = _run_batch(tasks, jobs, pool_config, telemetry)
    if not report.ok:
        details = "; ".join(
            f"{t}: {report.outcomes[t].error}".splitlines()[0]
            for t in report.quarantined
        )
        raise RuntimeError(
            f"scenario batch: {len(report.quarantined)} task(s) "
            f"quarantined ({details})"
        )
    return {
        key: result_from_dict(report.value(task.task_id)["result"])
        for key, task in zip(named_params, tasks)
    }


def check_sweep_values(field_name: str, values: Sequence[Any]) -> None:
    """Raise :class:`ValueError` unless ``field_name`` is a sweepable
    :class:`TreeScenarioParams` field and it accepts every value.

    ``seed`` is not one (seeds are swept by their own argument), nor is
    a derived property such as ``n_clients``.  A ``Literal`` field
    takes only its choices and ``attacker_policy`` only
    :data:`~repro.traffic.policies.POLICY_NAMES`, so a bad value fails
    here, before any task, not inside every task of the sweep.
    """
    if field_name not in {f.name for f in fields(TreeScenarioParams)} - {"seed"}:
        raise ValueError(f"unknown sweep field {field_name!r}")
    hint = get_type_hints(TreeScenarioParams)[field_name]
    if field_name == "attacker_policy":
        choices: Tuple[Any, ...] = POLICY_NAMES
    elif get_origin(hint) is Literal:
        choices = get_args(hint)
    else:
        return
    for value in values:
        if value not in choices:
            raise ValueError(
                f"{field_name} value {value!r} is not one of "
                f"{', '.join(map(str, choices))}"
            )


def plan_sweep_tasks(
    base: TreeScenarioParams,
    field_name: str,
    values: Sequence[Any],
    seeds: Sequence[int],
    task_fn: Callable[[Dict[str, Any]], Dict[str, Any]] = run_scenario_task,
    telemetry: bool = False,
    profile: bool = False,
) -> List[Task]:
    """One task per (value, seed) pair, under stable ids.

    Ids are pure functions of the sweep coordinates — never of order or
    worker — so checkpoints match across runs and duplicate (value,
    seed) pairs are rejected by the pool.  ``telemetry=True`` makes
    every task build and ship back a telemetry artifact; ``profile=True``
    adds per-dimension engine attribution to each instrumented task's
    artifact.
    """
    check_sweep_values(field_name, values)
    named = [
        (f"{field_name}={v!r}/seed={int(s)}",
         replace(base, **{field_name: v}, seed=int(s)))
        for v in values
        for s in seeds
    ]
    return _scenario_tasks(named, task_fn, lambda key: telemetry, profile)


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
    profile: bool = False,
) -> SweepRun:
    """Sweep one parameter over ``seeds``; quarantine-tolerant.

    Unlike :func:`run_many` this never raises on a poisoned point: the
    :class:`SweepRun` reports quarantined tasks and its
    ``report.exit_code`` reflects partial failure.  A ``checkpoint``
    resumes the tasks it holds, unless they were recorded under other
    params.  With a ``telemetry``, every task is instrumented and the
    artifacts are absorbed in task order.
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
        profile=profile,
    )
    report = _run_batch(
        tasks, jobs, pool_config, telemetry, checkpoint, on_outcome
    )
    return SweepRun(
        base=base,
        field_name=field_name,
        values=values,
        seeds=seeds,
        tasks=tasks,
        report=report,
    )


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
