"""Tests for the exporters of repro.util.tracing: Chrome trace events
and the nested span tree."""

import json

import pytest

from repro.core.spec import JoinSpec
from repro.shard import ShardRouterJoin
from repro.util.obs import Observer, SpanRecord
from repro.util.telemetry import TraceContext
from repro.util.tracing import (
    chrome_trace,
    gauge_counter_events,
    instant_events,
    observer_trace,
    sort_events,
    span_record_events,
    span_tree,
    summary_records,
    write_chrome_trace,
)

from tests.conftest import make_points, make_tree

VALID_PHASES = {"X", "B", "E", "C", "i", "M"}


def traced_observer():
    obs = Observer(trace=TraceContext.mint())
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    obs.record_span("io", 0.25)
    obs.gauge("queue", 3.0)
    obs.gauge("queue", 7.0)
    obs.event("milestone", label="first-pair", value=1.0)
    return obs


class TestSpanEvents:
    def test_complete_events_have_duration_phase(self):
        obs = traced_observer()
        events = span_record_events(obs.records)
        assert len(events) == 3  # one per occurrence: outer, inner, io
        assert all(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0.0 for e in events)
        assert all(e["ts"] >= 0.0 for e in events)
        assert {e["name"] for e in events} == {"outer", "inner", "io"}

    def test_ids_and_attrs_ride_in_args(self):
        record = SpanRecord(
            "n", "a" * 16, "b" * 16, 1.0, 2.0, {"k": "v"},
        )
        (event,) = span_record_events([record], trace_id="t" * 32)
        assert event["ts"] == 1e6 and event["dur"] == 2e6
        assert event["args"] == {
            "span_id": "a" * 16, "parent_id": "b" * 16,
            "trace_id": "t" * 32, "k": "v",
        }

    def test_untraced_observer_yields_no_records(self):
        obs = Observer()
        with obs.span("a"):
            pass
        assert span_record_events(obs.records) == []


class TestObserverTrace:
    def test_round_trips_through_json(self):
        obs = traced_observer()
        events = observer_trace(obs)
        trace = chrome_trace(events, metadata={"suite": "t"})
        clone = json.loads(json.dumps(trace))
        assert clone["metadata"] == {"suite": "t"}
        assert len(clone["traceEvents"]) == len(events)

    def test_phases_are_valid_and_metadata_first(self):
        events = observer_trace(traced_observer())
        assert all(e["ph"] in VALID_PHASES for e in events)
        phases = [e["ph"] for e in events]
        first_non_meta = next(
            i for i, ph in enumerate(phases) if ph != "M"
        )
        assert all(ph != "M" for ph in phases[first_non_meta:])

    def test_timestamps_monotonic_within_track(self):
        events = observer_trace(traced_observer())
        by_track = {}
        for event in events:
            if event["ph"] == "M":
                continue
            by_track.setdefault(
                (event["pid"], event["tid"]), []
            ).append(event["ts"])
        for track_ts in by_track.values():
            assert track_ts == sorted(track_ts)

    def test_gauges_become_counter_events(self):
        events = gauge_counter_events(traced_observer())
        assert [e["args"]["queue"] for e in events] == [3.0, 7.0]
        assert all(e["ph"] == "C" for e in events)

    def test_instants_are_the_event_log(self):
        obs = traced_observer()
        events = instant_events(obs)
        assert [e["name"] for e in events] == ["first-pair"]
        assert events[0]["args"]["kind"] == "milestone"
        assert events[0]["args"]["trace_id"] == obs.trace.trace_id

    def test_traced_observer_carries_its_identity(self):
        obs = traced_observer()
        complete = [e for e in observer_trace(obs) if e["ph"] == "X"]
        assert {e["name"] for e in complete} == \
            {"request", "outer", "inner", "io"}
        for event in complete:
            assert event["args"]["trace_id"] == obs.trace.trace_id
        by_name = {e["name"]: e["args"] for e in complete}
        assert by_name["inner"]["parent_id"] == \
            by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] == \
            by_name["request"]["span_id"] == obs.trace.span_id

    def test_aggregate_fallback_without_a_trace(self):
        obs = Observer()
        obs.record_span("b", 0.25)
        obs.record_span("b", 0.25)
        obs.record_span("a", 0.25)
        events = [
            e for e in observer_trace(obs) if e["ph"] == "X"
        ]
        # Summary timeline: name order, laid end to end.
        assert [e["name"] for e in events] == ["a", "b"]
        assert events[1]["ts"] == pytest.approx(
            events[0]["ts"] + events[0]["dur"]
        )
        assert events[0]["args"]["count"] == 1

    def test_write_chrome_trace_is_loadable(self, tmp_path):
        path = str(tmp_path / "trace.json")
        out = write_chrome_trace(
            path, observer_trace(traced_observer()),
            metadata={"k": "v"},
        )
        assert out == path
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["metadata"] == {"k": "v"}
        assert trace["traceEvents"]


class TestAggregateTracks:
    def _snapshot(self, spans):
        obs = Observer()
        for name, seconds in spans:
            obs.record_span(name, seconds)
        return obs.snapshot()

    def test_summary_timeline_is_monotonic(self):
        snap = self._snapshot(
            [("c", 0.1), ("a", 0.2), ("b", 0.3), ("a", 0.05)]
        )
        records = summary_records(snap, parent_id="p" * 16, t0=1.0)
        assert [r.name for r in records] == ["a", "b", "c"]
        assert records[0].attrs["count"] == 2
        assert all(r.parent_id == "p" * 16 for r in records)
        assert len({r.span_id for r in records}) == 3
        cursor = 1.0
        for record in records:
            assert record.t0 == pytest.approx(cursor)
            cursor += record.dur

    def test_router_trace_end_to_end(self, tmp_path):
        tree_a = make_tree(make_points(60, seed=61))
        tree_b = make_tree(make_points(60, seed=62))
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=50), shards=2,
        )
        list(join)
        assert set(join.stage_breakdown()) == {"partition", "merge"}
        path = str(tmp_path / "router.json")
        join.write_trace(path)
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["metadata"] == {"shards": 2, "tasks": len(join.pairs)}
        events = trace["traceEvents"]
        assert all(e["ph"] in VALID_PHASES for e in events)
        # One track: the route and the merge, both on the driver.
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"shard.route", "shard.merge"}
        assert {(e["pid"], e["tid"]) for e in spans} == {(1, 1)}


class TestSpanTree:
    def test_tree_is_connected_and_rooted(self):
        obs = traced_observer()
        tree = span_tree(obs)
        assert tree["name"] == "request"
        assert tree["trace_id"] == obs.trace.trace_id
        assert tree["span_id"] == obs.trace.span_id
        assert tree["dropped_spans"] == 0
        # "io" took 0.25 s and ended now: it is clamped to start at 0.
        assert [c["name"] for c in tree["children"]] == ["io", "outer"]
        outer = tree["children"][1]
        assert [c["name"] for c in outer["children"]] == ["inner"]
        assert set(outer) == {"name", "span_id", "parent_id", "t0",
                              "dur", "attrs", "children"}

    def test_orphans_reattach_to_root(self):
        obs = Observer(trace=TraceContext.mint())
        orphan = SpanRecord(
            "orphan", "1" * 16, "feedfacefeedface", 0.0, 0.1, {},
        )
        tree = span_tree(obs, [orphan])
        assert [c["name"] for c in tree["children"]] == ["orphan"]

    def test_events_ride_on_the_root(self):
        tree = span_tree(traced_observer())
        (event,) = tree["events"]
        assert event["name"] == "milestone"
        assert event["attrs"] == {"label": "first-pair", "value": 1.0}

    def test_export_is_pure(self):
        obs = traced_observer()
        first, second = span_tree(obs), span_tree(obs)
        first.pop("dur"), second.pop("dur")  # the root ends "now"
        assert first == second


class TestSortEvents:
    def test_metadata_sorts_first_then_time(self):
        events = [
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 9.0},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "p"}},
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 1.0},
        ]
        ordered = sort_events(events)
        assert ordered[0]["ph"] == "M"
        assert [e["name"] for e in ordered[1:]] == ["a", "b"]
