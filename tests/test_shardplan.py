"""Shard-cut advisor (repro.obs.shardplan): assignment, inheritance,
lookahead, validation, and the accounting identities the artifact
promises — plus a fuzzed-forest property pass and the CLI wrapper."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import Journal
from repro.obs.shardplan import (
    SHARDPLAN_SCHEMA,
    ShardPlanError,
    assign_shards,
    render_shardplan,
    shard_plan,
    validate_shardplan,
)


def make_as_journal():
    """Two AS subtrees plus an unattributed run bracket.

    as1: 1 -> 2 -> 3; as2: 4 (child of 2, cross edge dt=0.5);
    event 5 has no attrs and inherits as2 from its parent 4.
    """
    j = Journal(clock=lambda: 0.0)
    run = j.record("sim_run_start", at=0.0)
    a = j.record("as_session_open", parent=run, at=1.0, asn=1)
    b = j.record("frontier_add", parent=a, at=1.2, asn=1)
    j.record("inter_as_hop", parent=b, at=1.4, from_as=1)
    c = j.record("as_session_open", parent=b, at=1.7, asn=2)
    j.record("port_close", parent=c, at=2.0)
    return j


class TestAssignShards:
    def test_attribute_probes_and_inheritance(self):
        shards = assign_shards(make_as_journal(), by="as")
        assert shards == ["core", "as1", "as1", "as1", "as2", "as2"]

    def test_minus_one_is_the_none_marker(self):
        j = Journal(clock=lambda: 0.0)
        root = j.record("x", at=0.0, asn=-1)
        j.record("y", parent=root, at=1.0, asn=3)
        assert assign_shards(j, by="as") == ["core", "as3"]

    def test_attr_mode_uses_named_attribute(self):
        j = Journal(clock=lambda: 0.0)
        root = j.record("x", at=0.0, lane="left")
        j.record("y", parent=root, at=1.0)
        assert assign_shards(j, by="attr:lane") == ["lane=left", "lane=left"]

    def test_unknown_mode_raises(self):
        with pytest.raises(ShardPlanError):
            assign_shards(make_as_journal(), by="galaxy")
        with pytest.raises(ShardPlanError):
            assign_shards(make_as_journal(), by="attr:")

    def test_router_and_honeypot_modes(self):
        j = Journal(clock=lambda: 0.0)
        root = j.record("x", at=0.0, router=4)
        j.record("y", parent=root, at=1.0, honeypot=9)
        assert assign_shards(j, by="router") == ["r4", "r4"]
        assert assign_shards(j, by="honeypot") == ["core", "hp9"]


class TestShardPlan:
    def test_artifact_numbers(self):
        doc = shard_plan(make_as_journal(), by="as")
        assert doc["schema"] == SHARDPLAN_SCHEMA
        assert doc["n_shards"] == 3
        assert doc["shards"]["as1"]["events"] == 3
        assert doc["shards"]["as2"]["events"] == 2
        # Cross edges: run->as1 (dt 1.0) and as1->as2 (dt 0.5).
        assert doc["cross_edges"] == 2
        assert doc["cross_pairs"] == {"as1->as2": 1, "core->as1": 1}
        assert doc["local_edges"] == 3
        assert doc["lookahead"] == pytest.approx(0.5)
        assert doc["lookahead_positive"] == pytest.approx(0.5)
        assert doc["work_total"] == pytest.approx(2.2)

    def test_no_cross_edges_has_null_lookahead(self):
        j = Journal(clock=lambda: 0.0)
        root = j.record("x", at=0.0)
        j.record("y", parent=root, at=1.0)
        doc = shard_plan(j, by="as")
        assert doc["n_shards"] == 1
        assert doc["lookahead"] is None
        assert doc["balance_speedup_bound"] == 1.0

    def test_validate_roundtrip_and_summary(self):
        doc = shard_plan(make_as_journal(), by="as")
        summary = validate_shardplan(doc)
        assert summary == {
            "shards": 3,
            "events": 6,
            "cross_edges": 2,
            "lookahead": pytest.approx(0.5),
        }

    def test_validate_rejects_tampering(self):
        doc = shard_plan(make_as_journal(), by="as")
        with pytest.raises(ShardPlanError):
            validate_shardplan({**doc, "schema": "repro.shardplan/0"})
        with pytest.raises(ShardPlanError):
            validate_shardplan({k: v for k, v in doc.items() if k != "by"})
        with pytest.raises(ShardPlanError):
            validate_shardplan({**doc, "events": doc["events"] + 1})
        with pytest.raises(ShardPlanError):
            validate_shardplan({**doc, "cross_edges": 99})

    def test_render_lists_shards_and_pairs(self):
        text = render_shardplan(shard_plan(make_as_journal(), by="as"))
        assert "3 shard(s)" in text
        assert "as1->as2" in text
        assert "lookahead" in text


@st.composite
def attr_journals(draw):
    """Fuzzed forests where some events carry a ``lane`` attribute."""
    n = draw(st.integers(min_value=1, max_value=30))
    j = Journal(clock=lambda: 0.0)
    for i in range(n):
        parent = None
        if i > 0 and draw(st.booleans()):
            parent = draw(st.integers(min_value=0, max_value=i - 1))
        attrs = {}
        if draw(st.booleans()):
            attrs["lane"] = draw(st.integers(min_value=0, max_value=3))
        t = draw(
            st.floats(
                min_value=0.0, max_value=50.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        j.record("ev", parent=parent, at=t, **attrs)
    return j


class TestShardPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(attr_journals())
    def test_accounting_identities_always_hold(self, journal):
        doc = shard_plan(journal, by="attr:lane")
        validate_shardplan(doc)
        edges = sum(1 for e in journal.events if e.parent_id is not None)
        assert doc["local_edges"] + doc["cross_edges"] == edges
        assert doc["work_total"] <= sum(
            max(0.0, e.time - journal.events[e.parent_id].time)
            for e in journal.events
            if e.parent_id is not None
        ) + 1e-9
        assert doc["balance_speedup_bound"] >= 1.0 - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(attr_journals())
    def test_children_inherit_when_unattributed(self, journal):
        shards = assign_shards(journal, by="attr:lane")
        for event, shard in zip(journal.events, shards):
            if "lane" in event.attrs:
                assert shard == f"lane={event.attrs['lane']}"
            elif event.parent_id is not None:
                assert shard == shards[event.parent_id]
            else:
                assert shard == "core"


class TestShardPlanCli:
    def test_shardplan_command_validates_and_writes(self, tmp_path, capsys):
        path = make_as_journal().write_jsonl(tmp_path / "j.jsonl")
        out = tmp_path / "plan.json"
        assert (
            main(["shardplan", str(path), "--by", "as", "--out", str(out)]) == 0
        )
        printed = capsys.readouterr().out
        assert "shard plan (by=as)" in printed
        doc = json.loads(out.read_text())
        assert validate_shardplan(doc)["shards"] == 3

    def test_shardplan_trace_carries_shard_categories(self, tmp_path):
        path = make_as_journal().write_jsonl(tmp_path / "j.jsonl.gz")
        trace = tmp_path / "trace.json"
        assert (
            main(["shardplan", str(path), "--by", "as", "--trace", str(trace)])
            == 0
        )
        doc = json.loads(trace.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] != "M"}
        assert {"as1", "as2"} <= cats

    def test_unknown_mode_fails_cleanly(self, tmp_path, capsys):
        path = make_as_journal().write_jsonl(tmp_path / "j.jsonl")
        assert main(["shardplan", str(path), "--by", "galaxy"]) != 0
