"""Service observability end to end: trace propagation through the
scheduler and over HTTP, the per-session flight recorder, slow-quantum
dumps, /debug introspection, structured request logs, and the metrics
exposition's content type and label escaping."""

import asyncio
import http.client
import io
import json
import os
import pickle
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.spec import JoinSpec
from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service import JoinService, LiveSource, dumps, loads
from repro.service.cursor import CursorStore
from repro.service.scheduler import JoinScheduler
from repro.service.session import QuerySource, Session
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer, prometheus_text
from repro.util.telemetry import TraceContext

from tests.conftest import make_points

SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 40"
)

#: The planner runs SQL under Simultaneous, which expands everything it
#: needs in quantum 0; the tests that look for expansions in later
#: quanta pin the incremental Even traversal.
EVEN = "even"


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
            QuerySource(build_db(), SQL), trace=ctx
        )
        assert session.obs.trace is ctx
        # The session's one recorder is the operator's observer.
        assert session.source.observer is session.obs

    def test_admit_mints_when_no_context_given(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        assert len(session.obs.trace.trace_id) == 32

    def test_telemetry_off_keeps_null_path(self):
        scheduler = JoinScheduler(quantum_pairs=5, telemetry=False)
        session = scheduler.admit(QuerySource(build_db(), SQL))
        assert session.obs.trace is None
        assert session.source.observer is None
        scheduler.fetch(session.id, 12)
        assert session.obs.records == []
        assert session.obs.span_count("service.quantum") == \
            session.quanta
        with pytest.raises(ServiceError):
            scheduler.trace_dump(session.id)

    def test_one_span_per_quantum(self):
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 12)
        quanta = [r for r in session.obs.records
                  if r.name == "service.quantum"]
        assert len(quanta) == session.quanta >= 3
        assert session.obs.span_count("service.quantum") == \
            session.quanta
        assert all(r.attrs["session"] == session.id for r in quanta)
        # Quantum numbers are consecutive from 0.
        assert [r.attrs["quantum"] for r in quanta] == \
            list(range(session.quanta))

    def test_trace_dump_is_connected_and_idempotent(self):
        scheduler = build_scheduler()
        session = scheduler.admit(
            QuerySource(build_db(), SQL, node_policy=EVEN)
        )
        scheduler.fetch(session.id, 12)
        tree = scheduler.trace_dump(session.id)
        assert tree["name"] == "request"
        assert tree["trace_id"] == session.obs.trace.trace_id
        quanta = [c for c in tree["children"]
                  if c["name"] == "service.quantum"]
        assert len(quanta) == session.quanta
        # The first quantum owns the work of opening the plan ...
        (op,) = [c for c in quanta[0]["children"]
                 if c["name"] == "op.DistanceJoin"]
        assert [c["name"] for c in op["children"]] == ["join.init"]
        # ... and every quantum the expansions it ran.
        assert all(
            c["name"] == "join.expand"
            for quantum in quanta[1:] for c in quantum["children"]
        )
        assert any(quantum["children"] for quantum in quanta[1:])
        # Dumping is pure: a second dump has the same spans.
        again = scheduler.trace_dump(session.id)
        tree.pop("dur"), again.pop("dur")
        assert again == tree

    def test_plan_opening_counts_against_the_budget(self, monkeypatch):
        """Opening the plan is quantum 0's work: it sits inside that
        quantum's span and in the time the latency budget judges."""
        real_open = QuerySource.open

        def slow_open(source):
            time.sleep(0.05)
            return real_open(source)

        monkeypatch.setattr(QuerySource, "open", slow_open)
        counters = CounterRegistry()
        scheduler = JoinScheduler(
            quantum_pairs=1, telemetry=True, counters=counters,
            latency_budget_seconds=0.04,
        )
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 3)
        records = session.obs.records
        opening = next(r for r in records if r.name == "op.DistanceJoin")
        quantum0, quantum1 = [
            r for r in records if r.name == "service.quantum"
        ][:2]
        assert quantum0.attrs["quantum"] == 0
        assert quantum0.parent_id == session.obs.trace.span_id
        assert opening.parent_id == quantum0.span_id
        assert quantum0.dur >= 0.05
        assert counters.value("service_slow_quanta") >= 1
        slow = next(e for e in session.obs.events
                    if e.kind == "slow_quantum")
        assert quantum0.t0 + quantum0.dur <= slow.t <= quantum1.t0

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
        assert record["trace_id"] == session.obs.trace.trace_id
        assert record["progress"]["lower_bound"] == \
            progress["lower_bound"]
        assert record["trace_spans"] == len(session.obs.records) > 0

    def test_flight_recorder_ring_stays_bounded(self):
        """Over 2 000 quanta the per-session rings stay bounded while
        totals keep counting; the event ring holds events only, the
        span store spans only, each up to the one bound."""
        scheduler = JoinScheduler(
            quantum_pairs=1, telemetry=True,
            latency_budget_seconds=1e-9,  # every quantum is slow
        )
        sql = SQL.replace("STOP AFTER 40", "STOP AFTER 2000")
        session = scheduler.admit(QuerySource(build_db(), sql))
        scheduler.fetch(session.id, 2000)
        assert session.quanta >= 2000
        obs = session.obs
        assert obs.events.policy == "ring"
        assert len(obs.events) == obs.events.max_events == 256
        assert obs.events.total >= 2 * session.quanta
        assert {e.kind for e in obs.events} == {"flight", "slow_quantum"}
        # The newest events are retained (flight recorder, not prefix).
        assert obs.events[-1].seq == obs.events.total - 1
        for name in ("service.queue_len", "service.head_distance"):
            timeline = obs.gauge_timeline(name)
            assert 0 < len(timeline) <= 256  # bounded deque
        # The span store has the same bound, and counts what it let go.
        records = obs.records
        assert len(records) == 256
        recorded = sum(
            obs.span_count(name) for name in obs.snapshot().spans
        )
        assert obs.dropped_spans == recorded - 256 > 0
        assert records[-1].name == "service.quantum"
        assert records[-1].attrs["quantum"] == session.quanta - 1

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
        assert payload["trace_id"] == session.obs.trace.trace_id
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
        the session in a 'fresh process' (a new Session whose recorder
        has no trace), and the request still renders as one connected
        trace with monotone time -- which the rebuilt operator keeps
        recording into."""
        db = build_db()
        scheduler = build_scheduler()
        session = scheduler.admit(QuerySource(db, SQL, node_policy=EVEN))
        scheduler.fetch(session.id, 10)
        floor_before = session.progress_est.lower_bound
        before = session.obs.records
        state = pickle.loads(pickle.dumps(session.suspend_to_state()))

        fresh = Session("resumed", QuerySource(db, SQL, node_policy=EVEN))
        assert fresh.obs.trace is None
        fresh.resume_from_state(state)
        assert fresh.obs.trace == session.obs.trace
        # History first, then the rebuild of the operator itself.
        assert fresh.obs.records[:len(before)] == before
        assert [r.name for r in fresh.obs.records[len(before):]] == \
            ["op.DistanceJoin"]
        assert fresh.progress_est.lower_bound == floor_before
        assert fresh.source.observer is fresh.obs
        # Ten more rows: the rebuilt join records into the restored
        # trace, later than everything before the suspend.
        with fresh.obs.span("service.quantum", quantum=99):
            rows = fresh.rows()
            for __ in range(10):
                next(rows)
        added = fresh.obs.records[len(before):]
        assert added[-1].name == "service.quantum"
        joins = [r for r in added if r.name.startswith("join.")]
        assert joins
        by_id = {r.span_id: r for r in fresh.obs.records}
        for record in joins:
            assert record.t0 >= max(r.t0 + r.dur for r in before)
            while record.parent_id in by_id:
                record = by_id[record.parent_id]
            assert record.parent_id == fresh.obs.trace.span_id

    def test_scheduler_eviction_roundtrip_keeps_trace(self, tmp_path):
        scheduler = build_scheduler(tmp_path)
        session = scheduler.admit(QuerySource(build_db(), SQL))
        scheduler.fetch(session.id, 10)
        trace_id = session.obs.trace.trace_id
        quanta_before = session.quanta
        assert scheduler.evict_idle(0.0) == [session.id]
        assert session.evicted
        assert session.spooled_bytes > 0
        scheduler.fetch(session.id, 10)
        assert not session.evicted
        assert session.obs.trace.trace_id == trace_id
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


# ----------------------------------------------------------------------
# the tree is the contract
# ----------------------------------------------------------------------

STATEMENTS = {
    "join": SQL,
    "semi": (
        "SELECT *, MIN(d) FROM a, b, DISTANCE(a.geom, b.geom) AS d "
        "GROUP BY a.geom ORDER BY d STOP AFTER 40"
    ),
    "shards": SQL + " SHARDS 4",
    "watch": (
        "WATCH SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
        "ORDER BY d STOP AFTER 6 NOTIFY"
    ),
}

EVICT, MIGRATE, UPDATE = "evict", "migrate", "update"


class Driven:
    """A JoinService driven through ``_dispatch`` (no sockets): one
    traced session of ``kind``, every quantum over budget so each one
    leaves a slow-quantum dump."""

    def __init__(self, root, kind, quantum_pairs):
        self.kind = kind
        self.db = build_db()
        self.dumps = root + "/dumps"
        self.service = JoinService(
            self.db, spool_dir=root + "/spool",
            quantum_pairs=quantum_pairs,
            latency_budget_seconds=1e-9, dump_dir=self.dumps,
        )
        self.loop = asyncio.new_event_loop()
        self.done = False
        self.next_oid = 50_000
        reply = self.call(
            "POST", "/query", {"sql": STATEMENTS[kind]},
            {"traceparent": TRACEPARENT},
        )
        self.sid = reply["session"]

    def call(self, method, path, body=None, headers=None):
        status, payload, __ = self.loop.run_until_complete(
            self.service._dispatch(
                method, path, json.dumps(body or {}).encode(), headers
            )
        )
        assert status == 200, payload
        return payload

    @property
    def session(self):
        return self.service.scheduler.session(self.sid)

    def page(self, k):
        reply = self.call("GET", f"/next?session={self.sid}&k={k}")
        self.done = reply["done"]

    def evict(self):
        self.service.scheduler.evict_idle(0.0)

    def migrate(self):
        """Suspend to bytes and resume in a Session that has never
        seen the request, as another process would."""
        old = self.session
        if old.evicted:
            return
        state = loads(dumps(old.suspend_to_state()))
        if self.kind == "watch":
            source = LiveSource(
                self.db, old.source.sql,
                counters=self.service.scheduler.counters,
            )
        else:
            source = QuerySource(self.db, old.source.sql)
        fresh = Session(self.sid, source)
        fresh.resume_from_state(state)
        fresh.quanta = old.quanta
        fresh.emitted_total = old.emitted_total
        self.service.scheduler._sessions[self.sid] = fresh

    def update(self):
        self.next_oid += 1
        self.call("POST", "/update", {
            "relation": "a", "op": "insert", "oid": self.next_oid,
            "point": [0.5, 0.5],
        })

    def trace(self, fmt="json"):
        return self.call(
            "GET", f"/debug/trace?session={self.sid}&format={fmt}"
        )

    def newest_dump(self):
        names = sorted(os.listdir(self.dumps))
        with open(os.path.join(self.dumps, names[-1])) as handle:
            return json.load(handle)

    def close(self):
        self.loop.close()


def walk(tree):
    """``(node, parent)`` for every span node beneath the root."""
    stack = [(child, tree) for child in tree["children"]]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        stack.extend((child, node) for child in node["children"])


def identities(tree):
    return sorted(
        (n["name"], n["span_id"], n["parent_id"], n["t0"], n["dur"])
        for n, __ in walk(tree)
    )


def check_tree(driven):
    tree = driven.trace()
    session = driven.session
    # Rooted at the incoming traceparent.
    assert tree["trace_id"] == "ab" * 16
    assert tree["parent_id"] == "cd" * 8
    assert tree["span_id"] == session.obs.trace.span_id
    nodes = list(walk(tree))
    # Connected by recorded parentage: no node was re-hung on the
    # root for want of its parent, and none was lost.
    (record,) = driven.call("GET", "/debug/sessions")["sessions"]
    assert len(nodes) == record["trace_spans"]
    assert len({node["span_id"] for node, __ in nodes}) == len(nodes)
    for node, parent in nodes:
        assert node["parent_id"] == parent["span_id"]
        # One clock, so containment needs no tolerance.
        assert parent["t0"] <= node["t0"]
        assert node["t0"] + node["dur"] <= parent["t0"] + parent["dur"]
    # Quanta are numbered as they ran.
    quanta = sorted(
        (node["t0"], node["attrs"]["quantum"]) for node, parent in nodes
        if node["name"] == "service.quantum"
    )
    numbers = [number for __, number in quanta]
    assert numbers == list(
        range(session.quanta - len(numbers), session.quanta)
    )
    if tree["dropped_spans"] == 0:
        assert len(numbers) == session.quanta
    assert all(parent is tree for node, parent in nodes
               if node["name"] == "service.quantum")
    # Operator work hangs off the scheduler span that ran it (a
    # subscription also works at admission and on /update, between
    # quanta: there the root is the honest parent).
    if driven.kind != "watch":
        for node, parent in nodes:
            if node["name"].startswith(("join.", "pq.")):
                assert parent is not tree
    # Only events in the event ring.
    for event in session.obs.events:
        assert event.kind in ("flight", "slow_quantum") \
            or event.kind.startswith(("pq.", "live.")), event.kind
    assert len(session.obs.events) <= session.obs.events.max_events
    # Every surface names a span the same way.
    again = driven.trace()
    assert identities(again) == identities(tree)
    chrome = driven.trace("chrome")["traceEvents"]
    assert {e["ph"] for e in chrome} <= {"X", "i", "M"}
    spans = [e for e in chrome if e["ph"] == "X"]
    assert all(e["args"]["trace_id"] == "ab" * 16 for e in spans)
    assert sorted(
        (e["name"], e["args"]["span_id"], e["args"]["parent_id"])
        for e in spans if e["name"] != "request"
    ) == [identity[:3] for identity in identities(tree)]
    return tree


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(sorted(STATEMENTS)),
    quantum_pairs=st.integers(min_value=1, max_value=9),
    steps=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=13),
            st.sampled_from([EVICT, MIGRATE, UPDATE]),
        ),
        min_size=1, max_size=8,
    ),
)
def test_a_request_is_one_tree(kind, quantum_pairs, steps):
    with tempfile.TemporaryDirectory() as root:
        driven = Driven(root, kind, quantum_pairs)
        try:
            for step in steps:
                if driven.done:
                    break
                if step == EVICT:
                    driven.evict()
                elif step == MIGRATE:
                    driven.migrate()
                elif step == UPDATE:
                    if kind != "watch":
                        continue  # a mutation would void a pull cursor
                    driven.update()
                else:
                    quanta_before = driven.session.quanta
                    driven.page(step)
                    if driven.done:
                        break  # the finished session is gone
                    if (
                        driven.session.quanta > quanta_before
                        and kind != "watch"  # no budget on delta pages
                    ):
                        # The slow-quantum dump taken at the end of
                        # the last quantum carries the same ids.
                        dump = driven.newest_dump()
                        assert dump["trace_id"] == "ab" * 16
                        assert identities(dump["trace"]) == \
                            identities(driven.trace())
                check_tree(driven)
        finally:
            driven.close()


class TestOneSchema:
    """Every surface that emits metrics is built by metrics_records,
    every one that emits spans by span_record_events / span_tree: the
    keys are the documented ones and a span has one spelling."""

    KEYS = {
        "counter": {"metric", "type", "value", "labels"},
        "peak": {"metric", "type", "value", "labels"},
        "span": {"metric", "type", "count", "seconds", "min_s",
                 "max_s", "labels"},
        "gauge": {"metric", "type", "value", "count", "min", "max",
                  "labels"},
    }

    def check(self, records):
        assert records
        for record in records:
            assert set(record) == self.KEYS[record["type"]], record
        return {r["metric"] for r in records if r["type"] == "span"}

    def test_keys_and_span_names_agree(self, tmp_path):
        from repro import cli
        from repro.bench.reporting import run_metrics
        from repro.bench.runner import run_join
        from repro.core.distance_join import IncrementalDistanceJoin
        from repro.util.obs import metrics_records

        db = build_db()
        # EXPLAIN ANALYZE
        analyzed = db.explain_analyze("EXPLAIN ANALYZE " + SQL)
        analyze_spans = self.check(analyzed.metrics())
        # the service: /metrics, /debug/trace, the slow-quantum dump
        driven = Driven(str(tmp_path), "join", 5)
        try:
            driven.page(12)
            service_spans = self.check(driven.service.scheduler.metrics())
            status, text, ctype = driven.loop.run_until_complete(
                driven.service._dispatch("GET", "/metrics", b"")
            )
            tree_names = {n["name"] for n, __ in walk(driven.trace())}
            dump_names = {
                n["name"] for n, __ in walk(driven.newest_dump()["trace"])
            }
        finally:
            driven.close()
        assert status == 200
        exposed = {
            line.split("{")[0][len("repro_"):-len("_seconds")]
            for line in text.splitlines()
            if not line.startswith("#")
            and line.split("{")[0].endswith("_seconds")
        }
        assert exposed == {
            name.replace(".", "_") for name in service_spans
        }
        assert tree_names == dump_names == service_spans
        # CLI --metrics
        for name in "ab":
            points = make_points(60, seed=ord(name))
            (tmp_path / f"{name}.csv").write_text("".join(
                f"{i},{p.coords[0]},{p.coords[1]}\n"
                for i, p in enumerate(points)
            ))
        metrics = tmp_path / "m.jsonl"
        assert cli.main([
            "query", SQL, "--metrics", str(metrics),
            "--relation", f"a={tmp_path / 'a.csv'}",
            "--relation", f"b={tmp_path / 'b.csv'}",
        ]) == 0
        cli_spans = self.check([
            json.loads(line) for line in metrics.read_text().splitlines()
        ])
        # the benchmark harness
        counters = CounterRegistry()
        run = run_join(
            lambda: IncrementalDistanceJoin(
                db.relation("a"), db.relation("b"), JoinSpec(max_pairs=20),
                counters=counters,
            ),
            20, counters,
        )
        bench_spans = self.check(run_metrics(run))
        assert bench_spans == {"bench.run"}
        # One spelling: what the operator calls a phase is what every
        # surface that saw the operator calls it.
        operator = {"join.init", "join.expand"}
        assert operator <= analyze_spans
        assert operator <= cli_spans
        assert operator <= service_spans
        assert self.check(metrics_records(
            counters, Observer(), labels={"k": "v"}
        )) == set()
