"""Experiment scenarios, validation harness, and batch runners."""

from .runner import (
    confidence_interval,
    render_series,
    render_table,
    summarize,
)
from .scenarios import (
    PARAMETER_TABLE,
    TreeScenarioParams,
    TreeScenarioResult,
    paper_scale,
    run_tree_scenario,
)
from .validation import (
    ValidationOutcome,
    ValidationParams,
    run_trial,
    run_validation,
)

__all__ = [
    "PARAMETER_TABLE",
    "confidence_interval",
    "TreeScenarioParams",
    "TreeScenarioResult",
    "ValidationOutcome",
    "ValidationParams",
    "paper_scale",
    "render_series",
    "render_table",
    "run_tree_scenario",
    "run_trial",
    "run_validation",
    "summarize",
]
