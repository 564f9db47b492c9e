"""JSON checkpoint/resume for partially completed sweeps.

The checkpoint is a plain JSON artifact (same writer as every other
artifact in the repo, :func:`repro.obs.export.write_json`) mapping task
ids to their "ok" outcome dicts.  The pool records each completed task
as it lands and the file is replaced atomically (write-tmp + rename),
so a sweep killed at any instant leaves a loadable checkpoint holding
exactly the tasks that finished.

Resume semantics:

* only ``status == "ok"`` outcomes are checkpointed — quarantined
  tasks are re-attempted on the next run (their failure may have been
  environmental);
* a resumed task's outcome is bit-identical to a fresh run's because
  task values are JSON-ready dicts and Python's JSON float round-trip
  is exact;
* the checkpoint knows nothing about the task *list* — re-running with
  a different sweep simply finds no matching ids and runs everything.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Optional, Union

from ..obs.export import write_json
from .tasks import STATUS_OK, TaskOutcome

__all__ = ["SweepCheckpoint", "CHECKPOINT_SCHEMA"]

CHECKPOINT_SCHEMA = "repro.parallel/1"


class SweepCheckpoint:
    """Load-on-open, record-as-you-go sweep checkpoint."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self._outcomes: Dict[str, Dict[str, Any]] = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            schema = data.get("schema")
            if schema != CHECKPOINT_SCHEMA:
                raise ValueError(
                    f"{self.path}: not a sweep checkpoint "
                    f"(schema {schema!r}, expected {CHECKPOINT_SCHEMA!r})"
                )
            self._outcomes = dict(data.get("outcomes", {}))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._outcomes)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._outcomes

    def task_ids(self) -> list:
        return sorted(self._outcomes)

    def get(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The stored outcome dict for ``task_id`` (None if not done)."""
        return self._outcomes.get(task_id)

    # ------------------------------------------------------------------
    def record(self, outcome: TaskOutcome) -> None:
        """Persist one completed task (no-op for non-"ok" outcomes)."""
        if outcome.status != STATUS_OK:
            return
        self._outcomes[outcome.task_id] = outcome.as_dict()
        self._flush()

    def discard(self, task_ids: Iterable[str]) -> None:
        """Forget selected tasks, so a resumed sweep runs them again
        (the runner's stale-outcome check)."""
        for task_id in task_ids:
            self._outcomes.pop(task_id, None)
        self._flush()

    def clear(self) -> None:
        self._outcomes = {}
        if os.path.exists(self.path):
            os.remove(self.path)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        tmp = self.path + ".tmp"
        write_json(tmp, {"schema": CHECKPOINT_SCHEMA, "outcomes": self._outcomes})
        os.replace(tmp, self.path)
