"""Chrome trace-event export (repro.obs.traceexport): structural
validity of the Perfetto document, overlay categories, and the write
path."""

import json

import pytest

from repro.obs import Journal
from repro.obs.traceexport import (
    TRACE_SCHEMA,
    journal_to_trace,
    validate_trace,
    write_trace,
)


def make_journal():
    j = Journal(clock=lambda: 0.0)
    a = j.record("session_open", at=0.0, honeypot=7)
    hit = j.record("honeypot_hit", parent=a, at=1.0, server=7)
    j.record("port_close", parent=hit, at=1.5, host=3)
    b = j.record("session_open", at=5.0, honeypot=8)
    j.record("port_close", parent=b, at=5.25, host=4)
    return j


class TestJournalToTrace:
    def test_structure_and_counts(self):
        doc = journal_to_trace(make_journal())
        counts = validate_trace(doc)
        # 1 process_name + 2 thread_name meta, 2 roots, 3 edges.
        assert counts == {
            "events": 8,
            "slices": 3,
            "instants": 2,
            "metadata": 3,
        }
        assert doc["otherData"]["schema"] == TRACE_SCHEMA
        assert doc["otherData"]["trees"] == 2

    def test_slices_span_causal_edges_in_microseconds(self):
        doc = journal_to_trace(make_journal())
        hit = next(
            e for e in doc["traceEvents"] if e["name"] == "honeypot_hit"
        )
        assert hit["ph"] == "X"
        assert hit["ts"] == pytest.approx(0.0)
        assert hit["dur"] == pytest.approx(1.0e6)
        assert hit["args"]["server"] == 7

    def test_trees_get_separate_named_lanes(self):
        doc = journal_to_trace(make_journal())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert names == {"[0] session_open", "[3] session_open"}
        by_name = {}
        for e in doc["traceEvents"]:
            if e["ph"] in ("X", "i"):
                by_name.setdefault(e["name"], set()).add(e["tid"])
        assert len(by_name["session_open"]) == 2  # one lane per tree

    def test_critical_overlay_category(self):
        doc = journal_to_trace(make_journal(), critical_ids=(1,))
        cats = {e["args"]["id"]: e["cat"] for e in doc["traceEvents"] if "cat" in e}
        assert cats == {
            0: "journal",
            1: "critical",
            2: "journal",
            3: "journal",
            4: "journal",
        }
        assert doc["otherData"]["critical_events"] == 1

    def test_write_trace_roundtrip(self, tmp_path):
        path = write_trace(tmp_path / "trace.json", journal_to_trace(make_journal()))
        loaded = json.loads(open(path).read())
        assert validate_trace(loaded)["events"] == 8


class TestValidateTrace:
    def test_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            validate_trace({})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_trace(
                {
                    "traceEvents": [
                        {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
                    ]
                }
            )  # X slice missing dur
        with pytest.raises(ValueError):
            validate_trace(
                {
                    "traceEvents": [
                        {"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1}
                    ]
                }
            )  # unknown phase
        with pytest.raises(ValueError):
            validate_trace(
                {
                    "traceEvents": [
                        {"name": "x", "ph": "i", "ts": -1, "pid": 1, "tid": 1}
                    ]
                }
            )  # negative timestamp
