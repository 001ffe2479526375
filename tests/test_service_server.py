"""HTTP serving layer, end to end over a real socket: admit, page a
STOP AFTER k join across several quanta, observe status/metrics, and
exercise the API's error paths."""

import json
import logging
import socket

import pytest

from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service import ServiceClient
from repro.service.server import MAX_BODY_BYTES, MAX_HEADER_LINES
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
def served(serve):
    """(service, client); small quanta force multi-quantum paging."""
    return serve(build_db(), quantum_pairs=5)


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


class TestRequestHead:
    """The request line and the headers are outside input too: a line
    the stream reader cannot hold, or more header lines than
    ``MAX_HEADER_LINES``, is a JSON 431 sent before any dispatch --
    not a ``ValueError`` out of the connection callback and an empty
    reply, nor twenty thousand headers parsed into a dict."""

    @pytest.mark.parametrize("head", [
        b"GET /status HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n",
        b"POST /query HTTP/1.1\r\n" + b"X-Same: v\r\n" * 20_000,
        b"POST /query HTTP/1.1\r\n" + b"".join(
            b"X-%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1)
        ),
    ], ids=["long-header", "long-request-line", "20000-headers", "one-over"])
    def test_oversized_head_is_a_431(self, served, head, caplog, capfd):
        service, client = served
        body = json.dumps({"sql": SQL}).encode()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            got, payload = raw_exchange(service.port, (
                head + b"Content-Length: %d\r\n\r\n" % len(body) + body
            ))
            assert got == 431
            assert set(payload) == {"error"}
            assert service.scheduler.status()["session_count"] == 0
            # The next ordinary request, on a fresh connection, is served.
            assert len(client.rows(SQL, k=50)) == 40
        assert not caplog.records
        assert capfd.readouterr().err == ""

    def test_the_cap_itself_is_served(self, served):
        service, __ = served
        got, payload = raw_exchange(service.port, (
            b"GET /status HTTP/1.1\r\n" + b"".join(
                b"X-%d: v\r\n" % i for i in range(MAX_HEADER_LINES)
            ) + b"\r\n"
        ))
        assert got == 200
        assert payload["session_count"] == 0
