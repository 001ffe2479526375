"""HTTP serving layer, end to end over a real socket: admit, page a
STOP AFTER k join across several quanta, observe status/metrics, and
exercise the API's error paths."""

import asyncio
import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service import JoinService, ServiceClient
from repro.service.server import MAX_BODY_BYTES
from repro.util.counters import CounterRegistry

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


@pytest.fixture
def served(tmp_path):
    """A JoinService on an ephemeral port with its loop in a thread;
    yields (service, client)."""
    service = JoinService(
        build_db(),
        quantum_pairs=5,  # small quanta force multi-quantum paging
        spool_dir=str(tmp_path / "spool"),
        idle_evict_seconds=1e9,  # the evictor stays quiet in tests
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start(port=0))
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield service, ServiceClient(port=service.port, timeout=30)
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class TestPaging:
    def test_stop_after_join_pages_across_quanta(self, served):
        """The acceptance path: a STOP AFTER k join paged over HTTP
        in >= 3 quanta, bit-identical to direct execution."""
        __, client = served
        reference = [
            {"d": r.d, "oid1": r.oid1, "oid2": r.oid2}
            for r in build_db().physical_plan(SQL).rows()
        ]

        session_id = client.query(SQL)
        rows, pages, quanta = [], 0, 0
        while True:
            reply = client.next(session_id, k=13)
            rows.extend(reply["rows"])
            pages += 1
            quanta = reply["quanta"]
            if reply["done"]:
                break
        assert pages >= 3
        assert quanta >= 3  # the 5-pair quantum forces preemption
        assert [
            {"d": r["d"], "oid1": r["oid1"], "oid2": r["oid2"]}
            for r in rows
        ] == reference
        # Geometry coordinates ride along as JSON arrays.
        assert all(len(r["geom1"]) == 2 for r in rows)

    def test_concurrent_sessions_share_rounds(self, served):
        __, client = served
        first = client.query(SQL)
        second = client.query(SQL)
        a = client.next(first, k=10)
        b = client.next(second, k=10)
        assert len(a["rows"]) == 10 and len(b["rows"]) == 10
        assert a["rows"] == b["rows"]
        client.delete(first)
        client.delete(second)

    def test_finished_session_frees_slot(self, served):
        service, client = served
        rows = client.rows(SQL, k=50)
        assert len(rows) == 40
        assert service.scheduler.status()["session_count"] == 0


class TestIntrospection:
    def test_status_and_metrics(self, served):
        __, client = served
        session_id = client.query(SQL)
        client.next(session_id, k=7)

        status = client.status()
        assert status["session_count"] == 1
        assert status["sessions"][0]["emitted"] == 7

        text = client.metrics_text()
        assert "repro_service_quanta" in text
        assert "repro_service_rows" in text
        client.delete(session_id)


class TestErrors:
    def test_bad_sql_is_a_client_error(self, served):
        __, client = served
        with pytest.raises(ServiceError) as err:
            client.query("SELECT FROM nothing")
        assert "400" in str(err.value)

    def test_unknown_session_is_not_found(self, served):
        __, client = served
        with pytest.raises(ServiceError) as err:
            client.next("missing", k=1)
        assert "404" in str(err.value)

    def test_unknown_route(self, served):
        __, client = served
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert "404" in str(err.value)

    def test_bad_strategy_rejected(self, served):
        __, client = served
        with pytest.raises(ServiceError) as err:
            client.query(SQL, strategy="quantum-leap")
        assert "400" in str(err.value)

    def test_k_bounds_enforced(self, served):
        __, client = served
        session_id = client.query(SQL)
        with pytest.raises(ServiceError):
            client.next(session_id, k=0)
        client.delete(session_id)


def raw_exchange(port, request: bytes):
    """Send ``request`` as is and read the reply to end of stream;
    returns (status, parsed JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed on our unread body, after the reply
            if not chunk:
                break
            chunks.append(chunk)
    head, __, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n")[0].decode("latin-1")
    assert status_line.startswith("HTTP/1.1 ")
    return int(status_line.split()[1]), json.loads(body)


class TestContentLength:
    """``Content-Length`` is outside input: a value the server cannot
    honour is a JSON 4xx sent before any body is read -- no traceback,
    no handler parked on a body that never comes, no session."""

    @pytest.mark.parametrize("declared,status", [
        ("-1", 400),
        ("12abc", 400),
        ("", 400),
        ("9" * 5000, 400),  # beyond int()'s digit limit
        ("99999999999", 413),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_rejected_before_the_body(self, served, declared, status):
        service, client = served
        got, payload = raw_exchange(service.port, (
            "POST /query HTTP/1.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n"
            "\r\n"
        ).encode("latin-1") + json.dumps({"sql": SQL}).encode())
        assert got == status
        assert set(payload) == {"error"}
        assert service.scheduler.status()["session_count"] == 0
        # The next ordinary request, on a fresh connection, is served.
        assert len(client.rows(SQL, k=50)) == 40

    def test_largest_allowed_length_is_read(self, served):
        service, __ = served
        body = json.dumps({"sql": SQL}).encode().ljust(MAX_BODY_BYTES)
        got, payload = raw_exchange(service.port, (
            "POST /query HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1") + body)
        assert got == 200
        assert service.scheduler.status()["session_count"] == 1
        ServiceClient(port=service.port).delete(payload["session"])
