"""HTTP serving layer, end to end over a real socket: admit, page a
STOP AFTER k join across several quanta, observe status/metrics, and
exercise the API's error paths."""

import gc
import json
import logging
import random
import socket
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service import ServiceClient, server
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


class Wire:
    """A raw socket to the service: bytes go out as given, replies
    come back framed by their ``Content-Length``."""

    def __init__(self, port, timeout=10):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout
        )
        self.file = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()
        self.sock.close()

    def send(self, data: bytes):
        self.sock.sendall(data)

    def reply(self):
        """(status, headers, body bytes); ``None`` at end of stream."""
        status_line = self.file.readline()
        if not status_line:
            return None
        assert status_line.startswith(b"HTTP/1.1 ")
        headers = {}
        while True:
            line = self.file.readline()
            if line in (b"\r\n", b""):
                break
            name, __, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.file.read(int(headers["content-length"]))
        return int(status_line.split()[1]), headers, body


def request_bytes(method, path, body=None, version="HTTP/1.1", extra=""):
    payload = json.dumps(body).encode() if body is not None else b""
    length = f"Content-Length: {len(payload)}\r\n" if payload else ""
    return (
        f"{method} {path} {version}\r\n{length}{extra}\r\n"
    ).encode("latin-1") + payload


def raw_exchange(port, request: bytes):
    """Send ``request`` as is on a fresh connection and read one
    reply; returns (status, parsed JSON body)."""
    with Wire(port) as wire:
        wire.send(request)
        status, __, body = wire.reply()
    return status, json.loads(body)


def gone(service, within=2.0):
    """True once the service holds no connection handler."""
    deadline = time.perf_counter() + within
    while service._connections and time.perf_counter() < deadline:
        time.sleep(0.005)
    return not service._connections


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


STATUS = request_bytes("GET", "/status")


class TestErrorStatusByType:
    """``_dispatch`` maps a ``ServiceError`` by its type: 409 only for
    a full service, whatever a session is called."""

    def test_full_service_is_a_conflict(self, serve):
        __, client = serve(build_db(), max_sessions=1)
        client.query(SQL)
        with pytest.raises(ServiceError, match="-> 409: service full"):
            client.query(SQL)

    @pytest.mark.parametrize("name", ["missing", "full"])
    def test_unknown_session_is_not_found(self, served, name):
        __, client = served
        with pytest.raises(ServiceError, match="-> 404: unknown session"):
            client.next(name, k=1)

    def test_unknown_trace_format_is_a_bad_request(self, served):
        __, client = served
        session_id = client.query(SQL)
        with pytest.raises(ServiceError, match="-> 400: unknown trace"):
            client.debug_trace(session_id, fmt="svg")
        client.delete(session_id)


class TestConnection:
    """The connection contract, over raw sockets."""

    def test_two_requests_on_one_socket(self, served):
        service, __ = served
        with Wire(service.port) as wire:
            wire.send(request_bytes("POST", "/query", {"sql": SQL}))
            status, headers, body = wire.reply()
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert headers["keep-alive"] == (
                f"timeout={server.IDLE_TIMEOUT:g}, "
                f"max={server.MAX_REQUESTS - 1}"
            )
            session_id = json.loads(body)["session"]
            wire.send(request_bytes(
                "GET", f"/next?session={session_id}&k=50"
            ))
            status, headers, body = wire.reply()
            assert status == 200 and json.loads(body)["done"]
            assert headers["keep-alive"].endswith(
                f"max={server.MAX_REQUESTS - 2}"
            )

    def test_pipelined_requests_are_answered_in_order(self, served):
        service, __ = served
        with Wire(service.port) as wire:
            wire.send(
                request_bytes("POST", "/query", {"sql": SQL})
                + request_bytes("GET", "/next?session=s000001&k=7")
                + STATUS
            )
            admitted, page, status = (
                json.loads(wire.reply()[2]) for __ in range(3)
            )
        assert admitted["session"] == "s000001"
        assert len(page["rows"]) == 7
        assert status["sessions"][0]["emitted"] == 7

    @pytest.mark.parametrize("version,extra,kept", [
        ("HTTP/1.1", "", True),
        ("HTTP/1.1", "Connection: close\r\n", False),
        ("HTTP/1.1", "Connection: Close\r\n", False),
        ("HTTP/1.0", "", False),
        ("HTTP/1.0", "Connection: keep-alive\r\n", True),
    ])
    def test_who_keeps_the_connection(self, served, version, extra, kept):
        service, __ = served
        request = request_bytes(
            "GET", "/status", version=version, extra=extra
        )
        with Wire(service.port) as wire:
            wire.send(request)
            status, headers, __ = wire.reply()
            assert status == 200
            if kept:
                assert headers["connection"] == "keep-alive"
                wire.send(request)
                assert wire.reply()[0] == 200
            else:
                assert headers["connection"] == "close"
                assert "keep-alive" not in headers
                assert wire.reply() is None

    def test_idle_connection_is_closed_without_a_byte(
        self, served, monkeypatch
    ):
        service, __ = served
        monkeypatch.setattr(server, "IDLE_TIMEOUT", 0.05)
        with Wire(service.port) as fresh, Wire(service.port) as used:
            used.send(STATUS)
            assert used.reply()[1]["keep-alive"].startswith("timeout=0.05,")
            began = time.perf_counter()
            assert used.reply() is None
            assert fresh.reply() is None
            assert time.perf_counter() - began < 1.0
        assert gone(service)

    @pytest.mark.parametrize("stalled", [
        b"GET /status HTTP/1.1\r\nHost: x\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"sql\": ",
    ], ids=["head", "body"])
    def test_stalled_sender_gets_408(self, served, monkeypatch, stalled):
        service, client = served
        monkeypatch.setattr(server, "READ_TIMEOUT", 0.25)
        with Wire(service.port) as wire:
            wire.send(stalled)
            began = time.perf_counter()
            # A second connection is served meanwhile.
            assert client.status()["session_count"] == 0
            assert time.perf_counter() - began < 0.25
            status, headers, body = wire.reply()
            assert time.perf_counter() - began < 1.0
            assert status == 408
            assert headers["connection"] == "close"
            assert set(json.loads(body)) == {"error"}
            assert wire.reply() is None
        assert service.scheduler.status()["session_count"] == 0
        client.close()
        assert gone(service)

    def test_dispatch_is_not_under_the_read_deadline(
        self, served, monkeypatch
    ):
        service, client = served
        monkeypatch.setattr(server, "READ_TIMEOUT", 0.05)
        run_round = service.scheduler.run_round

        def slow_round():
            time.sleep(0.02)
            return run_round()

        monkeypatch.setattr(service.scheduler, "run_round", slow_round)
        began = time.perf_counter()
        assert len(client.rows(SQL, k=40)) == 40
        assert time.perf_counter() - began > 2 * 0.05

    def test_the_last_reply_of_the_cap_says_close(
        self, served, monkeypatch
    ):
        service, __ = served
        monkeypatch.setattr(server, "MAX_REQUESTS", 3)
        with Wire(service.port) as wire:
            wire.send(STATUS * 4)
            replies = [wire.reply() for __ in range(3)]
            assert [r[0] for r in replies] == [200, 200, 200]
            assert [r[1].get("keep-alive", "")[-5:] for r in replies] \
                == ["max=2", "max=1", ""]
            assert replies[-1][1]["connection"] == "close"
            assert wire.reply() is None  # the fourth is never answered

    @pytest.mark.parametrize("refused,status", [
        (b"POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        (b"POST /query HTTP/1.1\r\nContent-Length: 3\r\n"
         b"Content-Length: 4\r\n\r\n", 400),
        (b"GARBAGE\r\n\r\n", 400),
        (b"\r\n", 400),
        (b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"5\r\nhello\r\n0\r\n\r\n", 501),
        (b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
        (b"POST /query HTTP/1.1\r\n" + b"X: v\r\n" * 101 + b"\r\n", 431),
    ], ids=["bad-length", "two-lengths", "one-token", "blank-line",
            "chunked", "too-long", "too-many-headers"])
    def test_nothing_after_a_refusal_is_dispatched(
        self, served, refused, status
    ):
        service, client = served
        with Wire(service.port) as wire:
            wire.send(
                refused + request_bytes("POST", "/query", {"sql": SQL})
            )
            got, headers, body = wire.reply()
            assert got == status
            assert headers["connection"] == "close"
            assert set(json.loads(body)) == {"error"}
            assert wire.reply() is None
        assert service.scheduler.status()["session_count"] == 0
        assert len(client.rows(SQL, k=50)) == 40

    def test_a_repeated_equal_length_is_served(self, served):
        service, __ = served
        body = json.dumps({"sql": SQL}).encode()
        got, payload = raw_exchange(service.port, (
            b"POST /query HTTP/1.1\r\n"
            + b"Content-Length: %d\r\n" % len(body) * 2 + b"\r\n" + body
        ))
        assert got == 200 and payload["session"]

    def test_a_peer_that_just_leaves_gets_no_reply(self, served):
        service, __ = served
        with Wire(service.port) as wire:
            wire.sock.shutdown(socket.SHUT_WR)
            assert wire.reply() is None
        assert gone(service)

    def test_a_refusal_arrives_whole_while_the_body_is_still_coming(
        self, served
    ):
        service, __ = served
        body = b"x" * (2 << 20)
        with Wire(service.port) as wire:
            wire.send(
                b"POST /query HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            wire.send(body)
            status, __, raw = wire.reply()
            assert status == 413
            assert json.loads(raw) == {
                "error": f"request body exceeds {MAX_BODY_BYTES} bytes"
            }
            assert wire.reply() is None  # a close, not a reset
        assert gone(service, within=server.LINGER_TIMEOUT)
        assert service.scheduler.status()["session_count"] == 0

    def test_lingering_is_bounded_in_time(self, served, monkeypatch):
        service, __ = served
        monkeypatch.setattr(server, "LINGER_TIMEOUT", 0.05)
        with Wire(service.port) as wire:
            wire.send(b"GET /status HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
            assert wire.reply()[0] == 400
            # The peer neither sends nor closes; the handler goes anyway.
            assert gone(service, within=1.0)


class TestStop:
    def test_stop_finishes_with_clients_connected(
        self, serve, caplog, capfd
    ):
        """One connection idle between requests, one in the middle of
        a ``/next``: ``stop()`` returns promptly, the in-flight reply
        arrives, and nothing is left pending for the loop to report."""
        service, idle = serve(build_db(), quantum_pairs=5)
        idle.status()
        in_round = threading.Event()
        run_round = service.scheduler.run_round

        def slow_round():
            in_round.set()
            time.sleep(0.03)
            return run_round()

        service.scheduler.run_round = slow_round
        replies = []
        with ServiceClient(port=service.port) as busy, \
                caplog.at_level(logging.WARNING, logger="asyncio"):
            session_id = busy.query(SQL)
            thread = threading.Thread(
                target=lambda: replies.append(busy.next(session_id, k=40))
            )
            thread.start()
            assert in_round.wait(5)
            assert len(service._connections) == 2
            took = serve.stop(service)
            thread.join(5)
            assert not thread.is_alive()
            gc.collect()
        assert took < 2.0
        assert len(replies[0]["rows"]) == 40
        assert not service._connections
        assert not caplog.records
        assert capfd.readouterr().err == ""


def build_maps_db():
    """``water`` and ``roads`` with the attributes the benchmark's
    statements filter on, small."""
    rng = random.Random(93)
    db = Database(counters=CounterRegistry())
    water, roads = make_points(60, seed=91), make_points(80, seed=92)
    db.create_relation("water", water, attributes={
        "area": [rng.uniform(0.0, 100.0) for __ in water]
    })
    db.create_relation("roads", roads, attributes={
        "lanes": [float(rng.randint(1, 8)) for __ in roads]
    })
    return db


def drive_both_workloads(send):
    """The benchmark's two service workloads in miniature (see
    ``perf/workloads.py``): the thirteen ``service_sql_mix`` statements
    paged to the end, then one ``live_churn`` block -- WATCH, six
    updates, the deltas drained after each.  ``send(method, path,
    body)`` returns a reply body as bytes; returns them all."""
    head = ("SELECT * FROM water, roads, "
            "DISTANCE(water.geom, roads.geom) AS d ")
    tail = "ORDER BY d STOP AFTER "
    statements = [
        (f"{head}WHERE d >= {x} {tail}10", "auto")
        for x in (0, 5, 10, 20, 40, 80)
    ] + [
        (f"{head}{tail}300", "auto"),
        (f"{head}WHERE d >= 2 {tail}300", "auto"),
        (f"{head}WHERE d <= 12 ORDER BY d", "auto"),
        ("SELECT *, MIN(d) FROM water, roads, "
         "DISTANCE(water.geom, roads.geom) AS d "
         f"GROUP BY water.geom {tail}50", "auto"),
        (f"{head}WHERE water.area > 90 {tail}100", "prefilter"),
        (f"{head}WHERE roads.lanes >= 6 {tail}100", "pipeline"),
        (f"{head}{tail}300 SHARDS 4", "auto"),
    ]
    bodies = []

    def call(method, path, body=None):
        bodies.append(send(method, path, body))
        return json.loads(bodies[-1])

    for sql, strategy in statements:
        session_id = call(
            "POST", "/query", {"sql": sql, "strategy": strategy}
        )["session"]
        while not call("GET", f"/next?session={session_id}&k=64")["done"]:
            pass
    watch = call(
        "POST", "/query", {"sql": f"WATCH {head}{tail}10 NOTIFY"}
    )["session"]
    bootstrap = call("GET", f"/next?session={watch}&k=512")["rows"]
    victim = (bootstrap[0]["oid2"], bootstrap[0]["geom2"])
    near = bootstrap[0]["geom1"]
    a, b = (9001, [near[0] + 0.5, near[1]]), (9002, [near[0], near[1] + 0.25])
    for op, (oid, point) in [
        ("insert", a), ("insert", b), ("delete", victim),
        ("delete", a), ("insert", victim), ("delete", b),
    ]:
        call("POST", "/update", {
            "relation": "roads", "op": op, "oid": oid, "point": point,
        })
        call("GET", f"/next?session={watch}&k=512")
    return bodies


class TestTransportEquivalence:
    def test_reply_bodies_do_not_depend_on_the_connection(self, serve):
        """One persistent client, a fresh ``Connection: close`` socket
        per request, and HTTP/1.0 carry byte-equal reply bodies."""
        def boot():
            # No trace ids, no clock-cut quanta: nothing in a reply
            # but what the request sequence determines.
            return serve(build_maps_db(), telemetry=False,
                         quantum_seconds=60.0)

        __, client = boot()

        def persistent(method, path, body):
            # The server writes json.dumps(payload); a parsed reply
            # dumps back to the same bytes.
            return json.dumps(client._request(method, path, body)).encode()

        def one_shot(service, version, extra):
            def send(method, path, body):
                with Wire(service.port) as wire:
                    wire.send(request_bytes(
                        method, path, body, version=version, extra=extra
                    ))
                    status, headers, raw = wire.reply()
                    assert status == 200
                    assert headers["connection"] == "close"
                    assert wire.reply() is None
                return raw
            return send

        def comparable(raw):
            # An admission reply carries the session's idle time,
            # rounded to a millisecond: the one clock reading in a body.
            parsed = json.loads(raw)
            if "status" in parsed:
                del parsed["status"]["idle_seconds"]
                return parsed
            return raw

        kept = drive_both_workloads(persistent)
        assert client._conn is not None
        closing = drive_both_workloads(
            one_shot(boot()[0], "HTTP/1.1", "Connection: close\r\n")
        )
        old = drive_both_workloads(one_shot(boot()[0], "HTTP/1.0", ""))
        assert len(kept) >= 13 * 2 + 14
        assert [comparable(raw) for raw in kept] \
            == [comparable(raw) for raw in closing] \
            == [comparable(raw) for raw in old]
        deltas = [json.loads(raw)["rows"] for raw in kept[-11::2]]
        assert all(deltas), "every update of the block repairs the result"
