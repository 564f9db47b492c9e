"""repro.parallel — deterministic multiprocessing fan-out for sweeps.

Every paper figure is a set of *independent* ``run_tree_scenario``
calls, so reproducing the figure set parallelizes embarrassingly.  This
package provides the substrate:

* :class:`Task` / :class:`TaskOutcome` — the unit of work (a picklable
  module-level function plus payload, under a stable string id) and its
  recorded result;
* :func:`run_tasks` / :class:`PoolConfig` — a supervised worker pool
  with per-task timeout, bounded retry, and poison-task quarantine, so
  one pathological parameter point can neither hang nor kill a sweep;
  ``jobs=1`` runs the same tasks in-process;
* :class:`SweepCheckpoint` — JSON checkpoint/resume of partially
  completed sweeps (only the missing tasks re-run);
* :func:`absorb_artifact` / :func:`merge_artifacts` — fold per-worker
  telemetry artifacts (:mod:`repro.obs`) into one consolidated run
  artifact, deterministically (merge order = task order).

Determinism contract: a task carries its full parameter set including
its seed, workers never share RNG state, and all merges happen
in task-list order — so serial and N-worker runs produce byte-identical
artifacts modulo wall-time fields (:func:`strip_volatile` removes
those for comparisons).
"""

from .checkpoint import SweepCheckpoint
from .merge import absorb_artifact, merge_artifacts, strip_volatile
from .pool import (
    PARTIAL_FAILURE_EXIT,
    PoolConfig,
    PoolReport,
    resolve_jobs,
    run_tasks,
)
from .tasks import Task, TaskOutcome

__all__ = [
    "PARTIAL_FAILURE_EXIT",
    "PoolConfig",
    "PoolReport",
    "SweepCheckpoint",
    "Task",
    "TaskOutcome",
    "absorb_artifact",
    "merge_artifacts",
    "resolve_jobs",
    "run_tasks",
    "strip_volatile",
]
