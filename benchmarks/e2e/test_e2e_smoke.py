"""Smoke test of the end-to-end benchmark at a 3 s simulated duration.

Runs every workload through the benchmark command, untraced and traced,
and checks the output contract; checks in-process that tracing leaves
the scenario outcome unchanged; and checks that the tracer refuses a
stale entry-point table.  Run with ``pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_SECONDS = 3.0


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    proc = _bench(
        ROOT,
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--sim-seconds", str(SIM_SECONDS),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    defs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in defs]
    for m in defs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_the_outcome_unchanged(workload: str) -> None:
    untraced = child.sample(workload, 0, False, 0, SIM_SECONDS)
    traced = child.sample(workload, 0, True, 0, SIM_SECONDS)
    assert traced["digest"] == untraced["digest"]
    assert traced["counts"] == untraced["counts"]
    # Tracing is uninstalled afterwards: the classes hold their own code.
    from repro.sim.link import Channel

    assert vars(Channel)["send"].__module__ == "repro.sim.link"


def test_stale_table_entry_fails_loudly(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.sim.network import Network

    run = vars(Network)["run"]
    stale = tracer.LAYER_TABLE + (("repro.sim.link", "Channel", "_renamed", "link"),)
    monkeypatch.setattr(tracer, "LAYER_TABLE", stale)
    with pytest.raises(tracer.TableError, match="Channel._renamed"):
        tracer.Tracer(layers=True).install()
    assert vars(Network)["run"] is run


def test_without_the_simulator_source_no_result_is_printed(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
