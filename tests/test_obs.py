"""Unit tests for the observability layer (repro.util.obs)."""

import json
import pickle
import time

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.spec import JoinSpec
from repro.util.counters import CounterRegistry
from repro.util.obs import (
    KEEP_FIRST,
    KEEP_LAST,
    MAX_GAUGE_SAMPLES,
    NULL_OBSERVER,
    EventLog,
    ObsSnapshot,
    Observer,
    SpanRecord,
    SpanStats,
    metrics_records,
    prometheus_text,
    write_metrics,
)
from repro.util.telemetry import TraceContext

from tests.conftest import make_points, make_tree


class TestSpans:
    def test_span_records_count_and_total(self):
        obs = Observer()
        for __ in range(3):
            with obs.span("phase"):
                pass
        assert obs.span_count("phase") == 3
        assert obs.span_seconds("phase") >= 0.0

    def test_span_stats_extrema(self):
        stats = SpanStats("x")
        stats.record(0.5)
        stats.record(0.1)
        stats.record(0.9)
        assert stats.count == 3
        assert stats.total_s == pytest.approx(1.5)
        assert stats.min_s == pytest.approx(0.1)
        assert stats.max_s == pytest.approx(0.9)
        assert stats.mean_s == pytest.approx(0.5)

    def test_record_span_folds_external_measurement(self):
        obs = Observer()
        obs.record_span("io", 0.25)
        obs.record_span("io", 0.75)
        assert obs.span_count("io") == 2
        assert obs.span_seconds("io") == pytest.approx(1.0)

    def test_unknown_span_is_zero(self):
        obs = Observer()
        assert obs.span_seconds("never") == 0.0
        assert obs.span_count("never") == 0

    def test_disabled_span_is_noop(self):
        obs = Observer(enabled=False)
        with obs.span("phase"):
            pass
        assert obs.span_count("phase") == 0

    def test_null_observer_records_nothing(self):
        with NULL_OBSERVER.span("x"):
            pass
        NULL_OBSERVER.gauge("g", 1.0)
        NULL_OBSERVER.event("e")
        snap = NULL_OBSERVER.snapshot()
        assert snap.spans == {}
        assert snap.gauges == {}
        assert NULL_OBSERVER.events.total == 0

    def test_null_observer_span_is_shared_singleton(self):
        # The disabled path must be allocation-free.
        assert NULL_OBSERVER.span("a") is NULL_OBSERVER.span("b")


class TestGauges:
    def test_gauge_tracks_last_and_extrema(self):
        obs = Observer()
        for value in (3.0, 1.0, 7.0):
            obs.gauge("g", value)
        assert obs.gauge_value("g") == 7.0
        timeline = obs.gauge_timeline("g")
        assert [v for __, v in timeline] == [3.0, 1.0, 7.0]
        snap = obs.snapshot()
        count, last, mn, mx = snap.gauges["g"]
        assert (count, last, mn, mx) == (3, 7.0, 1.0, 7.0)

    def test_gauge_timeline_is_bounded(self):
        obs = Observer()
        for i in range(MAX_GAUGE_SAMPLES + 100):
            obs.gauge("g", float(i))
        timeline = obs.gauge_timeline("g")
        assert len(timeline) == MAX_GAUGE_SAMPLES
        # newest retained
        assert timeline[-1][1] == float(MAX_GAUGE_SAMPLES + 99)

    def test_unknown_gauge_is_none(self):
        assert Observer().gauge_value("never") is None


class TestEventLog:
    def test_keep_first_policy(self):
        log = EventLog(max_events=3, policy=KEEP_FIRST)
        for i in range(10):
            log.append(0.0, "k", label=str(i))
        assert log.total == 10
        assert len(log) == 3
        assert [e.label for e in log] == ["0", "1", "2"]

    def test_ring_policy_keeps_last(self):
        log = EventLog(max_events=3, policy=KEEP_LAST)
        for i in range(10):
            log.append(0.0, "k", label=str(i))
        assert log.total == 10
        assert [e.label for e in log] == ["7", "8", "9"]

    def test_sequence_numbers_are_global(self):
        log = EventLog(max_events=2, policy=KEEP_LAST)
        for i in range(5):
            log.append(0.0, "k")
        assert [e.seq for e in log] == [3, 4]

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            EventLog(policy="sometimes")

    def test_observer_event_api(self):
        obs = Observer(max_events=4)
        obs.event("pop", label="pair", value=1.5)
        event = obs.events.as_list()[0]
        assert event.kind == "pop"
        assert event.label == "pair"
        assert event.value == 1.5
        assert event.t >= 0.0


class TestSnapshots:
    def test_snapshot_pickles(self):
        obs = Observer()
        with obs.span("a"):
            pass
        obs.gauge("g", 2.0)
        snap = obs.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, ObsSnapshot)
        assert clone.span_count("a") == 1
        assert clone.gauge_last("g") == 2.0

    def test_merge_reconstructs_totals_from_deltas(self):
        # Snapshots of disjoint stretches of work, merged, add up to
        # the observer that saw all of it (restore() folds a suspended
        # observer's aggregates in the same way).
        whole = Observer()
        merged = Observer()
        for seconds in (0.5, 0.25, 0.75):
            part = Observer()
            for obs in (whole, part):
                obs.record_span("join.expand", seconds)
                obs.gauge("queue", seconds * 4)
            merged.merge(part.snapshot())
        assert merged.span_count("join.expand") == 3
        assert merged.snapshot().spans["join.expand"] == pytest.approx(
            whole.snapshot().spans["join.expand"]
        )
        assert merged.snapshot().gauges["queue"] == \
            whole.snapshot().gauges["queue"]

    def test_merge_accepts_observer(self):
        a = Observer()
        b = Observer()
        b.record_span("x", 0.25)
        b.gauge("g", 4.0)
        a.merge(b)
        assert a.span_count("x") == 1
        assert a.gauge_value("g") == 4.0


class TestMetricsExport:
    def _sample(self):
        counters = CounterRegistry()
        counters.add("dist_calcs", 42)
        counters.observe("queue_size", 17)
        obs = Observer()
        for __ in range(10):
            obs.record_span("join.expand", 0.05)
        obs.gauge("pq_adaptive_dt", 0.37)
        return counters, obs

    def test_records_cover_all_types(self):
        counters, obs = self._sample()
        records = metrics_records(counters, obs, labels={"run": "t"})
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert {r["metric"] for r in by_type["counter"]} == {"dist_calcs"}
        assert {r["metric"] for r in by_type["peak"]} >= {"queue_size"}
        assert by_type["span"][0]["seconds"] == pytest.approx(0.5)
        assert by_type["span"][0]["count"] == 10
        assert by_type["gauge"][0]["value"] == pytest.approx(0.37)
        assert all(r["labels"] == {"run": "t"} for r in records)

    def test_prometheus_text_shape(self):
        counters, obs = self._sample()
        text = prometheus_text(metrics_records(counters, obs))
        assert "# TYPE repro_dist_calcs counter" in text
        assert "repro_dist_calcs 42" in text
        assert "repro_queue_size_peak 17" in text
        assert "repro_join_expand_seconds" in text
        assert "repro_join_expand_count 10" in text

    def test_write_metrics_emits_jsonl_and_prom(self, tmp_path):
        counters, obs = self._sample()
        path = str(tmp_path / "metrics.jsonl")
        written = write_metrics(path, counters, obs,
                                labels={"bench": "smoke"})
        lines = [
            json.loads(line)
            for line in open(path).read().splitlines() if line
        ]
        assert lines == written
        assert all(r["labels"] == {"bench": "smoke"} for r in lines)
        prom = open(path + ".prom").read()
        assert "repro_dist_calcs" in prom

    def test_label_values_escaped_per_exposition_format(self):
        # Regression: label values holding backslashes, quotes, or
        # newlines must be escaped, else the text format is corrupt
        # (a label like sql='SELECT "x"' used to split the line).
        counters, obs = self._sample()
        text = prometheus_text(metrics_records(
            counters, obs,
            labels={"sql": 'SELECT "d"\nSTOP', "path": "C:\\tmp"},
        ))
        assert '\\"d\\"' in text
        assert "\\n" in text
        assert "C:\\\\tmp" in text
        # No raw newline may survive inside a label block.
        for line in text.splitlines():
            if "{" in line:
                assert line.count("{") == 1 and "}" in line

    def test_escaped_labels_stay_parseable(self):
        counters, obs = self._sample()
        text = prometheus_text(metrics_records(
            counters, obs, labels={"q": 'a"b\\c\nd'},
        ))
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_dist_calcs{")
        )
        # value part after the label block is still a bare number
        assert line.rsplit(" ", 1)[1] == "42"

    def test_write_metrics_append(self, tmp_path):
        counters, obs = self._sample()
        path = str(tmp_path / "metrics.jsonl")
        write_metrics(path, counters, labels={"run": "1"})
        write_metrics(path, counters, labels={"run": "2"}, append=True)
        lines = [
            json.loads(line)
            for line in open(path).read().splitlines() if line
        ]
        runs = {r["labels"]["run"] for r in lines}
        assert runs == {"1", "2"}
        # The .prom dump is rewritten whole and covers both runs.
        prom = open(path + ".prom").read()
        assert 'run="1"' in prom and 'run="2"' in prom


def traced(max_events=8, policy=KEEP_LAST, spans=()):
    obs = Observer(
        max_events=max_events, event_policy=policy,
        trace=TraceContext.mint(),
    )
    for name, seconds in spans:
        obs.record_span(name, seconds)
    return obs


class TestRecords:
    """A traced observer keeps one SpanRecord per occurrence, parented
    by the stack of spans open on it."""

    def test_untraced_observer_keeps_aggregates_only(self):
        obs = Observer()
        with obs.span("phase"):
            pass
        assert obs.records == []
        assert obs.span_count("phase") == 1

    def test_nested_spans_form_a_stack(self):
        obs = traced()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        with obs.span("sibling"):
            pass
        by_name = {}
        for record in obs.records:
            by_name.setdefault(record.name, []).append(record)
        (outer,), (sibling,) = by_name["outer"], by_name["sibling"]
        assert outer.parent_id == sibling.parent_id == obs.trace.span_id
        for inner in by_name["inner"]:
            assert inner.parent_id == outer.span_id
            assert outer.t0 <= inner.t0
            assert inner.t0 + inner.dur <= outer.t0 + outer.dur
        ids = [record.span_id for record in obs.records]
        assert len(set(ids)) == 4 and all(len(i) == 16 for i in ids)
        # Records and aggregates are the same occurrences.
        assert obs.span_count("inner") == 2
        assert obs.span_seconds("inner") == pytest.approx(
            sum(record.dur for record in by_name["inner"])
        )

    def test_a_raising_body_still_closes_its_span(self):
        obs = traced()
        with pytest.raises(KeyError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise KeyError("boom")
        with obs.span("after"):
            pass
        after = obs.records[-1]
        assert after.name == "after"
        assert after.parent_id == obs.trace.span_id

    def test_span_attributes_ride_on_the_record(self):
        obs = traced()
        with obs.span("q", session="s1", quantum=0):
            pass
        assert obs.records[0].attrs == {"session": "s1", "quantum": 0}
        assert obs.records[0].as_dict()["attrs"] == {
            "session": "s1", "quantum": 0,
        }

    def test_ids_do_not_change_between_reads(self):
        obs = traced(spans=[("a", 0.1), ("b", 0.2)])
        assert obs.records == obs.records
        assert all(isinstance(r, SpanRecord) for r in obs.records)

    def test_record_span_is_an_occurrence_that_ended_now(self):
        obs = traced()
        with obs.span("outer"):
            obs.record_span("io", 1e-9)
        io, outer = obs.records
        assert io.name == "io" and io.parent_id == outer.span_id
        assert io.dur == 1e-9
        assert io.t0 + io.dur <= obs.now()

    def test_ring_keeps_the_last_and_counts_the_rest(self):
        obs = traced(max_events=8, policy=KEEP_LAST)
        for __ in range(20):
            obs.record_span("join.expand", 0.01)
        assert len(obs.records) == 8
        assert obs.dropped_spans == 12
        assert [int(r.span_id, 16) for r in obs.records] == \
            list(range(13, 21))
        # Spans no longer take slots of the event log.
        assert obs.events.total == 0
        assert obs.span_count("join.expand") == 20

    def test_prefix_policy_keeps_the_first(self):
        obs = traced(max_events=2, policy=KEEP_FIRST)
        for __ in range(5):
            with obs.span("s"):
                pass
        assert [int(r.span_id, 16) for r in obs.records] == [1, 2]
        assert obs.dropped_spans == 3

    def test_clock_is_monotone_and_shared(self):
        obs = traced()
        before = obs.now()
        with obs.span("s"):
            pass
        obs.gauge("g", 1.0)
        obs.event("e")
        after = obs.now()
        record = obs.records[0]
        (sample_t, __), = obs.gauge_timeline("g")
        assert before <= record.t0 <= record.t0 + record.dur \
            <= sample_t <= obs.events[0].t <= after


class TestStateRestore:
    def roundtrip(self, obs):
        return Observer.restore(pickle.loads(pickle.dumps(obs.state())))

    def test_state_restore_preserves_identity_and_history(self):
        obs = traced(max_events=16)
        with obs.span("before", k=1):
            pass
        obs.event("mark", label="m", value=2.0)
        obs.gauge("g", 3.0)
        resumed = self.roundtrip(obs)
        assert resumed.trace == obs.trace
        assert resumed.records == obs.records
        assert resumed.events.as_list() == obs.events.as_list()
        assert resumed.events.total == obs.events.total
        assert resumed.events.policy == KEEP_LAST
        assert resumed.events.max_events == 16
        assert resumed.snapshot() == obs.snapshot()
        assert resumed.dropped_spans == obs.dropped_spans

    def test_restored_clock_and_ids_only_move_forward(self):
        obs = traced()
        with obs.span("before"):
            pass
        suspended_at = obs.now()
        resumed = self.roundtrip(obs)
        assert resumed.now() >= suspended_at
        with resumed.span("after"):
            pass
        before, after = resumed.records
        assert after.t0 >= before.t0 + before.dur
        assert int(after.span_id, 16) > int(before.span_id, 16)
        assert after.parent_id == obs.trace.span_id

    def test_dropped_count_survives(self):
        obs = traced(max_events=2)
        for __ in range(5):
            obs.record_span("s", 0.0)
        resumed = self.roundtrip(obs)
        assert resumed.dropped_spans == 3
        resumed.record_span("s", 0.0)
        assert resumed.dropped_spans == 4 and len(resumed.records) == 2

    def test_untraced_state_restores_untraced(self):
        obs = Observer(max_events=4)
        obs.record_span("a", 0.5)
        resumed = self.roundtrip(obs)
        assert resumed.trace is None and resumed.records == []
        assert resumed.span_seconds("a") == 0.5

    def test_restore_rejects_foreign_state(self):
        with pytest.raises(ValueError):
            Observer.restore({"format": "something-else"})


class TestTraceAnnotatedMerge:
    """Observer.merge with trace-recording observers: aggregates fold
    correctly while each observer's trace identity and record timeline
    stay its own."""

    def test_merge_adds_aggregates_not_records(self):
        left = traced(spans=[("join.expand", 0.2)])
        right = traced(spans=[("join.expand", 0.3), ("pq.refill", 0.1)])
        left_trace, records_before = left.trace, left.records
        left.merge(right)
        assert left.span_count("join.expand") == 2
        assert left.span_seconds("join.expand") == pytest.approx(0.5)
        assert left.span_seconds("pq.refill") == pytest.approx(0.1)
        # Merging folds aggregates only: the record timeline and the
        # trace identity belong to the recording observer.
        assert left.records == records_before
        assert left.trace is left_trace
        assert right.trace is not left_trace

    def test_merge_accepts_snapshots_from_traced_observers(self):
        worker = traced(spans=[("worker.join", 0.4)])
        parent = Observer(max_events=0)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        assert parent.span_count("worker.join") == 2
        assert parent.span_seconds("worker.join") == pytest.approx(0.8)


class TestCostOfWatching:
    """Disabled path free, enabled path bounded -- as counts, so no
    wall-clock gate can flake."""

    @pytest.fixture
    def clock_reads(self, monkeypatch):
        reads = []
        real = time.perf_counter

        def counted():
            reads.append(1)
            return real()

        monkeypatch.setattr(time, "perf_counter", counted)
        return reads

    def test_recorded_span_two_clock_reads_one_record(self, clock_reads):
        obs = traced(max_events=64)
        del clock_reads[:]
        for n in range(1, 6):
            with obs.span("join.expand"):
                pass
            assert len(clock_reads) == 2 * n
            assert len(obs.records) == n
        assert obs.events.total == 0

    def test_aggregate_span_reads_the_clock_twice_too(self, clock_reads):
        obs = Observer()
        del clock_reads[:]
        with obs.span("join.expand"):
            pass
        assert len(clock_reads) == 2 and obs.records == []

    def test_disabled_traced_observer_hands_out_the_null_span(
        self, clock_reads
    ):
        obs = Observer(enabled=False, trace=TraceContext.mint())
        del clock_reads[:]
        assert obs.span("a") is NULL_OBSERVER.span("b")
        with obs.span("a", k=1):
            pass
        obs.record_span("a", 1.0)
        obs.gauge("g", 1.0)
        obs.event("e")
        assert clock_reads == []
        assert obs.records == [] and obs.snapshot() == ObsSnapshot()
        assert obs.events.total == 0

    def test_unobserved_join_reads_enabled_and_nothing_else(
        self, monkeypatch
    ):
        """A join built with no observer holds the shared disabled one
        and, per pair, only reads its ``enabled``.  The one call it
        does make is ``span("join.init")`` at construction, which the
        disabled observer answers with the shared no-op span."""

        class Untouchable(Observer):
            def span(self, name, **attrs):
                assert name == "join.init", name
                return NULL_OBSERVER.span(name)

            def forbidden(self, *args, **kwargs):
                raise AssertionError("disabled observer was used")

            record_span = gauge = event = now = forbidden
            snapshot = merge = state = forbidden

        null = Untouchable(enabled=False)
        monkeypatch.setattr("repro.core.distance_join.NULL_OBSERVER", null)
        monkeypatch.setattr("repro.core.pqueue.NULL_OBSERVER", null)
        join = IncrementalDistanceJoin(
            make_tree(make_points(150, seed=5)),
            make_tree(make_points(150, seed=6)), JoinSpec(max_pairs=400),
            counters=CounterRegistry(),
        )
        assert join.obs is null
        assert len(list(join)) == 400


class TestLongRunBoundedness:
    """Ring EventLog and GaugeTimeline over service-shaped long runs:
    memory stays bounded, totals and extrema stay exact."""

    def test_event_ring_over_many_quanta(self):
        log = EventLog(max_events=64, policy=KEEP_LAST)
        for quantum in range(5000):
            log.append(quantum * 0.01, "flight", f"q{quantum}", 1.0)
        assert len(log) == 64
        assert log.total == 5000
        assert [e.seq for e in log] == list(range(4936, 5000))
        assert log[0].label == "q4936"

    def test_keep_first_log_over_many_quanta(self):
        log = EventLog(max_events=64, policy=KEEP_FIRST)
        for quantum in range(5000):
            log.append(quantum * 0.01, "flight", f"q{quantum}", 1.0)
        assert len(log) == 64
        assert log.total == 5000
        assert [e.seq for e in log] == list(range(64))

    def test_gauge_timeline_bounded_with_exact_extrema(self):
        obs = Observer()
        for quantum in range(4000):
            obs.gauge("service.queue_len", float(quantum % 977))
        timeline = obs.gauge_timeline("service.queue_len")
        assert len(timeline) == MAX_GAUGE_SAMPLES
        snapshot = obs.snapshot()
        count, last, mn, mx = snapshot.gauges["service.queue_len"]
        assert count == 4000
        assert mn == 0.0 and mx == 976.0
        assert last == float(3999 % 977)
