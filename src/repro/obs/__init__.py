"""repro.obs — unified observability: metrics, journal, self-profiling.

The measurement layer under every experiment: a labeled
:class:`MetricsRegistry` (counters / gauges / fixed-bucket histograms),
a causal :class:`Journal` that records the defense lifecycle as one
event tree per honeypot session (the text gantt of
:func:`render_timeline` is derived from it), an :class:`EngineProfiler`
for simulator self-profiling, and exporters (JSON / Prometheus text)
so every run can leave a machine-readable artifact.

:class:`Telemetry` bundles the four and is what scenarios, defenses,
and benchmarks thread through the stack; components treat a ``None``
telemetry as "observability off" and skip all instrumentation.

:mod:`repro.obs.stream` adds the *live* dimension: a
:class:`TelemetryStreamer` the engine pulses during the run, appending
``repro.stream/1`` snapshots and an OpenMetrics textfile that
``repro watch`` (:mod:`repro.obs.watch`) renders as a refreshing
terminal view.  Streaming is strictly read-only — journals are
byte-identical with it on or off.

:mod:`repro.obs.critical` and :mod:`repro.obs.traceexport` are the
*replay-side* analysis layer: work/span/available-parallelism and
per-capture causal chains over the journal, and Chrome trace-event
export for Perfetto — both computed from journal files after the run,
never from the engine.
"""

from .critical import (
    CRITICAL_SCHEMA,
    causal_chain,
    critical_report,
    render_critical,
)
from .export import (
    load_json,
    parse_exposition,
    registry_to_openmetrics,
    registry_to_prometheus,
    write_json,
    write_textfile_atomic,
)
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
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .stream import (
    STREAM_SCHEMA,
    StreamConfig,
    StreamError,
    TelemetryStreamer,
    read_stream,
    stream_path_for,
    tail_record,
    validate_stream,
)
from .telemetry import Telemetry
from .traceexport import (
    TRACE_SCHEMA,
    journal_to_trace,
    validate_trace,
    write_trace,
)
from .watch import (
    POOL_STATUS_FILE,
    POOL_STATUS_SCHEMA,
    render_pool_view,
    render_snapshot,
    watch_follow,
    watch_once,
)

__all__ = [
    "CRITICAL_SCHEMA",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalEvent",
    "MetricsRegistry",
    "POOL_STATUS_FILE",
    "POOL_STATUS_SCHEMA",
    "REGRESS_SCHEMA",
    "RegressReport",
    "STREAM_SCHEMA",
    "StreamConfig",
    "StreamError",
    "TRACE_SCHEMA",
    "Telemetry",
    "TelemetryStreamer",
    "build_tree",
    "causal_chain",
    "compare_to_baseline",
    "critical_report",
    "diff_journals",
    "journal_to_trace",
    "load_baseline",
    "load_journal",
    "load_json",
    "parse_exposition",
    "read_stream",
    "render_critical",
    "registry_to_openmetrics",
    "registry_to_prometheus",
    "render_html",
    "render_pool_view",
    "render_snapshot",
    "render_timeline",
    "render_tree",
    "replay_summary",
    "stream_path_for",
    "tail_record",
    "validate_stream",
    "validate_trace",
    "watch_follow",
    "watch_once",
    "write_json",
    "write_textfile_atomic",
    "write_trace",
    "write_trajectory_point",
]
