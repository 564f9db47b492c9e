"""repro.obs — unified observability: metrics, journal, self-profiling.

The measurement layer under every experiment: a causal
:class:`Journal` that records the defense lifecycle as one event tree
per honeypot session (the text gantt of :func:`render_timeline` is
derived from it), an :class:`EngineProfiler` for simulator
self-profiling, counter and gauge totals filled once after the run
from the network's and the defense's own counts, and a JSON artifact
writer so every run can leave a machine-readable record.

:class:`Telemetry` bundles the four and is what scenarios, defenses,
and benchmarks thread through the stack; components treat a ``None``
telemetry as "observability off" and skip all instrumentation.

:mod:`repro.obs.critical` and :mod:`repro.obs.traceexport` are the
*replay-side* analysis layer: work/span/available-parallelism and
per-capture causal chains over the journal, and Chrome trace-event
export for Perfetto — both computed from journal files after the run,
never from the engine.  Nothing is exported while a run executes: the
journal and the ``--metrics-out`` artifact hold its facts once it ends.
"""

from .critical import (
    CRITICAL_SCHEMA,
    causal_chain,
    critical_report,
    render_critical,
)
from .export import load_json, write_json
from .journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalEvent,
    build_tree,
    diff_journals,
    load_journal,
    render_html,
    render_timeline,
    render_tree,
    replay_summary,
)
from .profile import EngineProfiler
from .regress import (
    REGRESS_SCHEMA,
    RegressReport,
    compare_to_baseline,
    load_baseline,
    write_trajectory_point,
)
from .telemetry import Telemetry
from .traceexport import (
    TRACE_SCHEMA,
    journal_to_trace,
    validate_trace,
    write_trace,
)

__all__ = [
    "CRITICAL_SCHEMA",
    "EngineProfiler",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalEvent",
    "REGRESS_SCHEMA",
    "RegressReport",
    "TRACE_SCHEMA",
    "Telemetry",
    "build_tree",
    "causal_chain",
    "compare_to_baseline",
    "critical_report",
    "diff_journals",
    "journal_to_trace",
    "load_baseline",
    "load_journal",
    "load_json",
    "render_critical",
    "render_html",
    "render_timeline",
    "render_tree",
    "replay_summary",
    "validate_trace",
    "write_json",
    "write_trace",
    "write_trajectory_point",
]
