"""Service observability end to end: trace propagation through the
scheduler and over HTTP, the per-session flight recorder, slow-quantum
dumps, /debug introspection, structured request logs, and the metrics
exposition's content type and label escaping."""

import http.client
import io
import json
import pickle

import pytest

from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service.cursor import CursorStore
from repro.service.scheduler import JoinScheduler
from repro.service.session import QuerySource, Session
from repro.util.counters import CounterRegistry
from repro.util.obs import prometheus_text
from repro.util.telemetry import TraceContext

from tests.conftest import make_points

SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 40"
)


def build_db():
    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(90, seed=81))
    db.create_relation("b", make_points(110, seed=82))
    return db


def build_scheduler(tmp_path=None, **kwargs):
    store = CursorStore(str(tmp_path / "spool")) \
        if tmp_path is not None else None
    kwargs.setdefault("telemetry", True)
    return JoinScheduler(
        quantum_pairs=5, cursor_store=store, **kwargs
    )


class TestSchedulerTelemetry:
    def test_admit_adopts_trace_context(self):
        scheduler = build_scheduler()
        ctx = TraceContext.mint()
        session = scheduler.admit(
            QuerySource(build_db(), SQL), trace_ctx=ctx
        )
        assert session.tel.enabled
        assert session.tel.ctx is ctx
        # The operator observer is injected and trace-stamped.
        assert session.source.join_kwargs["observer"] is session.obs
        assert session.obs.trace_ctx is ctx
        assert session.obs.trace_spans

    def test_admit_mints_when_no_context_given(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        assert session.tel.enabled
        assert len(session.tel.ctx.trace_id) == 32

    def test_telemetry_off_keeps_null_path(self):
        scheduler = JoinScheduler(quantum_pairs=5, telemetry=False)
        session = scheduler.admit(QuerySource(build_db(), SQL))
        assert not session.tel.enabled
        assert "observer" not in session.source.join_kwargs
        with pytest.raises(ServiceError):
            scheduler.trace_dump(session.id)

    def test_quanta_record_telemetry_spans(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 12)
        quanta = [r for r in session.tel.spans
                  if r.name == "service.quantum"]
        assert len(quanta) == session.quanta >= 3
        assert all(r.attrs["session"] == session.id for r in quanta)
        # Quantum numbers are consecutive from 0.
        assert [r.attrs["quantum"] for r in quanta] == \
            list(range(session.quanta))

    def test_trace_dump_is_connected_and_idempotent(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 12)
        tree = scheduler.trace_dump(session.id)
        assert tree["name"] == "request"
        assert tree["trace_id"] == session.tel.ctx.trace_id
        quanta = [c for c in tree["children"]
                  if c["name"] == "service.quantum"]
        assert len(quanta) == session.quanta
        # Operator spans grafted under the quanta that ran them.
        assert any(c["children"] for c in quanta)
        # Stitching is pure: dumping twice yields the same shape.
        again = scheduler.trace_dump(session.id)
        assert len(again["children"]) == len(tree["children"])

    def test_chrome_dump_is_loadable_shape(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 8)
        dump = scheduler.trace_dump(session.id, fmt="chrome")
        assert "traceEvents" in dump
        names = {e["name"] for e in dump["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"request", "service.quantum"} <= names
        with pytest.raises(ServiceError):
            scheduler.trace_dump(session.id, fmt="svg")

    def test_progress_and_debug_sessions(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 10)
        progress = scheduler.progress()[session.id]
        assert progress["lower_bound"] == pytest.approx(10 / 40)
        (record,) = scheduler.debug_sessions()
        assert record["session"] == session.id
        assert record["trace_id"] == session.tel.ctx.trace_id
        assert record["progress"]["lower_bound"] == \
            progress["lower_bound"]
        assert record["trace_spans"] == len(session.tel.spans)

    def test_flight_recorder_ring_stays_bounded(self):
        """Satellite: over a long multi-quantum run the per-session
        ring (KEEP_LAST event log) and gauge timelines stay bounded
        while totals keep counting every sample."""
        scheduler = JoinScheduler(quantum_pairs=1, telemetry=True)
        sql = SQL.replace("STOP AFTER 40", "STOP AFTER 600")
        session = scheduler.admit(QuerySource(build_db(), sql))
        scheduler.fetch(session.id, 600)
        assert session.quanta >= 600
        obs = session.obs
        assert obs.events.policy == "ring"
        assert len(obs.events) <= obs.events.max_events == 256
        assert obs.events.total > 256  # every append still counted
        # The newest events are retained (flight recorder, not prefix).
        flights = [e for e in obs.events if e.kind == "flight"]
        assert flights and flights[-1].seq == max(
            e.seq for e in obs.events
        )
        for name in ("service.queue_len", "service.head_distance"):
            timeline = obs.gauge_timeline(name)
            assert 0 < len(timeline) <= 256  # bounded deque
        # Telemetry spans hit their own bound without growing past it.
        assert len(session.tel.spans) <= session.tel.max_spans
        assert session.tel.dropped > 0

    def test_latency_budget_dumps_slow_quanta(self, tmp_path):
        counters = CounterRegistry()
        scheduler = JoinScheduler(
            quantum_pairs=5, telemetry=True, counters=counters,
            latency_budget_seconds=1e-9,  # everything is slow
            dump_dir=str(tmp_path / "dumps"),
        )
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 10)
        assert counters.value("service_slow_quanta") == session.quanta
        dumps = sorted((tmp_path / "dumps").glob("slow-*.json"))
        assert len(dumps) == session.quanta
        payload = json.loads(dumps[0].read_text())
        assert payload["session"] == session.id
        assert payload["trace_id"] == session.tel.ctx.trace_id
        assert payload["elapsed_s"] > payload["budget_s"]
        assert payload["trace"]["name"] == "request"
        assert any(e["kind"] == "flight" for e in payload["ring"])

    def test_no_budget_means_no_slow_counter(self):
        counters = CounterRegistry()
        scheduler = JoinScheduler(
            quantum_pairs=5, telemetry=True, counters=counters
        )
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 10)
        assert "service_slow_quanta" not in counters.snapshot()


class TestSuspendResumeTrace:
    def test_trace_survives_cross_process_resume(self):
        """The acceptance path: suspend to a pickled cursor, rebuild
        the session in a 'fresh process' (a new Session with no live
        telemetry), and the request still renders as one connected
        trace with monotone time."""
        db = build_db()
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(db, SQL))
        scheduler.fetch(session.id, 10)
        floor_before = session.progress_est.lower_bound
        spans_before = len(session.tel.spans)
        state = pickle.loads(pickle.dumps(session.suspend_to_state()))

        fresh = Session("resumed", QuerySource(db, SQL))
        assert not fresh.tel.enabled
        fresh.resume_from_state(state)
        assert fresh.tel.enabled
        assert fresh.tel.ctx == session.tel.ctx
        assert len(fresh.tel.spans) == spans_before
        assert fresh.progress_est.lower_bound == floor_before
        # Time keeps moving forward after the resume.
        with fresh.tel.span("service.quantum"):
            pass
        last = fresh.tel.spans[-1]
        assert all(
            last.t0 >= r.t0 for r in fresh.tel.spans[:-1]
        )

    def test_scheduler_eviction_roundtrip_keeps_trace(self, tmp_path):
        scheduler = build_scheduler(tmp_path)
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 10)
        trace_id = session.tel.ctx.trace_id
        quanta_before = session.quanta
        assert scheduler.evict_idle(0.0) == [session.id]
        assert session.evicted
        assert session.spooled_bytes > 0
        scheduler.fetch(session.id, 10)
        assert not session.evicted
        assert session.tel.ctx.trace_id == trace_id
        tree = scheduler.trace_dump(session.id)
        assert tree["trace_id"] == trace_id
        quanta = [c for c in tree["children"]
                  if c["name"] == "service.quantum"]
        # Pre- and post-eviction quanta in one tree, in time order.
        assert len(quanta) > quanta_before
        starts = [c["t0"] for c in quanta]
        assert starts == sorted(starts)

    def test_progress_floor_never_regresses_across_eviction(
        self, tmp_path
    ):
        scheduler = build_scheduler(tmp_path)
        session = scheduler.admit(QuerySource(build_db(), SQL))
        bounds = []
        for __ in range(4):
            scheduler.fetch(session.id, 5)
            bounds.append(
                session.progress_report()["lower_bound"]
            )
            scheduler.evict_idle(0.0)
        assert bounds == sorted(bounds)
        assert bounds[-1] == pytest.approx(0.5)


@pytest.fixture
def served(serve):
    """A telemetry-enabled JoinService with a JSON request log;
    yields (service, client, log_buffer)."""
    log = io.StringIO()
    service, client = serve(
        build_db(), quantum_pairs=5, log_json=True, log_stream=log
    )
    return service, client, log


TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


class TestHTTPTracePropagation:
    def test_query_adopts_traceparent(self, served):
        __, client, __log = served
        reply = client.admit(SQL, traceparent=TRACEPARENT)
        assert reply["trace_id"] == "ab" * 16
        assert reply["traceparent"].startswith("00-" + "ab" * 16)
        assert reply["status"]["trace_id"] == "ab" * 16

    def test_malformed_traceparent_mints_fresh(self, served):
        __, client, __log = served
        reply = client.admit(SQL, traceparent="00-bogus-bogus-01")
        assert len(reply["trace_id"]) == 32
        assert reply["trace_id"] != "ab" * 16

    def test_debug_trace_over_http(self, served):
        __, client, __log = served
        reply = client.admit(SQL, traceparent=TRACEPARENT)
        sid = reply["session"]
        client.next(sid, k=10)
        tree = client.debug_trace(sid)
        assert tree["trace_id"] == "ab" * 16
        assert tree["parent_id"] == "cd" * 8
        assert [c["name"] for c in tree["children"]].count(
            "service.quantum"
        ) >= 2
        chrome = client.debug_trace(sid, fmt="chrome")
        assert chrome["traceEvents"]

    def test_progress_endpoint_is_monotone(self, served):
        __, client, __log = served
        sid = client.query(SQL)
        bounds = []
        for __i in range(3):
            client.next(sid, k=8)
            bounds.append(
                client.progress(sid)["progress"]["lower_bound"]
            )
        assert bounds == sorted(bounds)
        assert bounds[-1] == pytest.approx(24 / 40)
        everyone = client.progress()
        assert sid in everyone["sessions"]

    def test_debug_sessions_endpoint(self, served):
        __, client, __log = served
        sid = client.query(SQL)
        client.next(sid, k=5)
        (record,) = client.debug_sessions()
        assert record["session"] == sid
        assert record["quanta"] >= 1
        assert "progress" in record and "spooled_bytes" in record

    def test_structured_log_carries_trace_ids(self, served):
        __, client, log = served
        reply = client.admit(SQL, traceparent=TRACEPARENT)
        sid = reply["session"]
        client.next(sid, k=5)
        client.progress(sid)
        lines = [json.loads(line)
                 for line in log.getvalue().splitlines()]
        assert len(lines) == 3
        for line in lines:
            assert {"ts", "method", "path", "status", "dur_ms",
                    "session", "trace_id"} <= set(line)
            assert line["status"] == 200
            assert line["trace_id"] == "ab" * 16
            assert line["session"] == sid
        assert [line["path"] for line in lines] == \
            ["/query", "/next", "/progress"]


class TestMetricsExposition:
    def test_metrics_content_type_is_prometheus(self, served):
        """Satellite regression: the exposition must declare the
        Prometheus text format version, not bare text/plain."""
        service, client, __log = served
        sid = client.query(SQL)
        client.next(sid, k=5)
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=10
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "text/plain; version=0.0.4"
            assert "repro_service_sessions" in body
        finally:
            conn.close()

    def test_session_labels_are_escaped(self):
        """Satellite regression: label values with quotes, backslashes
        and newlines must render escaped per the exposition format."""
        scheduler = build_scheduler()
        hostile = 'x"y\\z\nw'
        scheduler.admit(
            QuerySource(build_db(), SQL), session_id=hostile
        )
        scheduler.fetch(hostile, 5)
        text = prometheus_text(
            scheduler.metrics(labels={"query": 'a"b'})
        )
        assert 'session="x\\"y\\\\z\\nw"' in text
        assert 'query="a\\"b"' in text
        # No raw newline may survive inside any label value.
        for line in text.splitlines():
            assert line == "" or line.startswith("#") or " " in line
