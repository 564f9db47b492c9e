"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's tables/figures and
prints the rows/series the paper reports.  Output lands in
``benchmarks/out/<name>.txt`` (human-readable) and
``benchmarks/out/<name>.json`` (machine-readable: wall time + the
headline metrics the benchmark registered via ``report.metric``).
Every flush also folds the bench's entry into the consolidated
``benchmarks/out/summary.json``, so one file carries the whole
suite's wall-time and headline-metric trajectory.  Each entry records
its bench file, relative to the repo root, and an entry whose file is
gone is dropped at the next flush.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).parent / "out"
SUMMARY_PATH = OUT_DIR / "summary.json"


def _update_summary(name: str, entry: dict) -> None:
    """Load-modify-write one bench's entry in the consolidated summary.

    Entries whose recorded bench file no longer exists, or that record
    none, are dropped: ``repro regress`` would otherwise gate a deleted
    bench's stale values, and ``--update-baseline`` would copy them back
    into the committed baseline."""
    summary = {}
    if SUMMARY_PATH.exists():
        try:
            summary = json.loads(SUMMARY_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            summary = {}
    summary = {
        bench: old
        for bench, old in summary.items()
        if isinstance(old, dict)
        and isinstance(old.get("file"), str)
        and (ROOT / old["file"]).is_file()
    }
    summary[name] = entry
    SUMMARY_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture()
def report(request):
    """Collect lines + headline metrics, then print and persist them."""
    bench_file = pathlib.Path(request.path).resolve().relative_to(ROOT).as_posix()

    class Reporter:
        def __init__(self) -> None:
            self.lines: list[str] = []
            self.metrics: dict[str, object] = {}
            self.name = "report"
            self._started = time.perf_counter()

        def __call__(self, *parts: object) -> None:
            line = " ".join(str(p) for p in parts)
            self.lines.append(line)

        def metric(self, name: str, value: object) -> None:
            """Register a headline metric for the machine-readable
            artifact (e.g. captures, mean throughput %, events/s)."""
            self.metrics[name] = value

        def flush(self) -> None:
            wall = time.perf_counter() - self._started
            text = "\n".join(self.lines) + "\n"
            print("\n" + text)
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"{self.name}.txt").write_text(text)
            entry = {
                "wall_time_s": round(wall, 3),
                "metrics": self.metrics,
                "file": bench_file,
            }
            (OUT_DIR / f"{self.name}.json").write_text(
                json.dumps(entry, indent=2, sort_keys=True) + "\n"
            )
            _update_summary(self.name, entry)

    reporter = Reporter()
    yield reporter
    reporter.flush()
