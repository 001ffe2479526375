"""``ServiceClient`` on its one kept connection: shared between
threads, reconnecting when the connection is gone, and never sending a
request twice."""

import asyncio
import gc
import socket
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service import ServiceClient, client as client_module, server
from repro.util.counters import CounterRegistry

from tests.conftest import make_points

# A socket or reader the client leaks fails the test that leaked it.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    ),
]

SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "WHERE d >= {low} ORDER BY d STOP AFTER 40"
)


def build_db():
    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(90, seed=81))
    db.create_relation("b", make_points(110, seed=82))
    return db


def reference(sql):
    return [(r.d, r.oid1, r.oid2) for r in build_db().physical_plan(sql).rows()]


def keys(rows):
    return [(r["d"], r["oid1"], r["oid2"]) for r in rows]


def count_next(service):
    """Count the ``/next`` requests the server dispatches."""
    seen = []
    get_next = service._get_next

    async def counting(params):
        seen.append(params["session"])
        return await get_next(params)

    service._get_next = counting
    return seen


def test_threads_share_one_client(serve):
    service, client = serve(build_db(), quantum_pairs=5)
    queries = [SQL.format(low=low) for low in (0, 2, 4, 8)]
    paged = {}

    def page(sql):
        paged[sql] = keys(client.rows(sql, k=7))

    threads = [threading.Thread(target=page, args=(sql,)) for sql in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for sql in queries:
        assert paged[sql] == reference(sql)
    assert len(service._connections) == 1


@pytest.mark.parametrize("margin", [1.0, -60.0], ids=["expiry", "eof"])
def test_reconnects_without_repeating_a_request(serve, monkeypatch, margin):
    """The server drops the idle connection between pages.  The client
    notices before it sends -- by the advertised timeout, or (with the
    timeout believed longer than it is) by the socket's EOF -- and
    every page is requested exactly once."""
    monkeypatch.setattr(server, "IDLE_TIMEOUT", 0.03)
    monkeypatch.setattr(client_module, "EXPIRY_MARGIN", margin)
    service, client = serve(build_db())
    seen = count_next(service)
    sql = SQL.format(low=0)
    session_id = client.query(sql)
    rows, connections = [], set()
    for __ in range(4):
        connections.add(client._conn)
        time.sleep(0.1)
        assert not service._connections  # the server hung up
        rows += client.next(session_id, k=10)["rows"]
    assert keys(rows) == reference(sql)
    assert len(connections) == 4
    assert seen == [session_id] * 4


def test_a_cut_connection_is_an_error_not_a_retry(serve):
    """The connection dies after the request went out: the outcome is
    unknown, so the client raises instead of sending ``/next`` again;
    the server advanced the session once, and the next call (on a new
    connection) carries on from there."""
    service, client = serve(build_db())
    seen = count_next(service)
    counted = service._get_next
    cut = [True]

    async def cutting(params):
        reply = await counted(params)
        if cut:  # once: the request is acted on, its reply never leaves
            cut.clear()
            service._connections[asyncio.current_task()].transport.abort()
        return reply

    service._get_next = cutting
    sql = SQL.format(low=0)
    session_id = client.query(sql)
    with pytest.raises(ServiceError, match="unknown"):
        client.next(session_id, k=10)
    assert client._conn is None
    assert seen == [session_id]
    assert service.scheduler.session(session_id).emitted_total == 10
    page = client.next(session_id, k=10)
    assert keys(page["rows"]) == reference(sql)[10:20]
    assert seen == [session_id] * 2


def test_a_refused_connect_raises_as_it_is():
    """Nothing was sent, so nothing is unknown: the ``OSError`` comes
    through, and the client is as good as new."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = ServiceClient(port=port)
    with pytest.raises(ConnectionRefusedError):
        client.status()
    assert client._conn is None


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_close_and_with_leave_no_socket(serve):
    service, __ = serve(build_db())
    with ServiceClient(port=service.port) as client:
        client.status()
        sock = client._conn.sock
        assert sock.fileno() != -1
    assert client._conn is None and sock.fileno() == -1
    client.close()
    client.close()
    # Closed is not finished: the next call opens a new connection.
    assert client.status()["session_count"] == 0
    client.close()
    # A client that is dropped without close() releases its socket too.
    dropped = ServiceClient(port=service.port)
    dropped.status()
    sock = dropped._conn.sock
    del dropped
    gc.collect()
    assert sock.fileno() == -1


# ----------------------------------------------------------------------
# the reader, against a scripted server (raw bytes, no JoinService)
# ----------------------------------------------------------------------

KEPT = b"Connection: keep-alive\r\nKeep-Alive: timeout=5, max=3\r\n"


def reply(head=KEPT, body=b'{"ok": true}'):
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n" % len(body) + head + b"\r\n" + body
    )


class ScriptedServer:
    """A bare socket server: it answers the requests it reads, in
    order, with scripted ``(reply bytes, hang up after)`` entries, and
    records each request as ``"METHOD /path"``."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.accepted = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = []
        self._conns = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._start(self._accept)

    def _start(self, target, *args):
        thread = threading.Thread(target=target, args=args, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept(self):
        with self._listener:
            while not self._stop.is_set():
                try:
                    conn, __ = self._listener.accept()
                except socket.timeout:
                    continue
                self.accepted += 1
                self._conns.append(conn)
                self._start(self._serve, conn)

    def _serve(self, conn):
        with conn, conn.makefile("rb") as reader:
            while True:
                line = reader.readline()
                if not line:
                    return
                length = 0
                while (header := reader.readline()) not in (b"\r\n", b""):
                    name, __, value = header.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                with self._lock:
                    self.requests.append(
                        " ".join(line.decode().split()[:2])
                    )
                    data, hang_up = self.script.pop(0)
                conn.sendall(data)
                if hang_up:
                    return

    def close(self):
        self._stop.set()
        for conn in self._conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(5)


@pytest.fixture
def scripted():
    servers = []

    def start(script):
        servers.append(ScriptedServer(script))
        return servers[-1]

    yield start
    for server_ in servers:
        server_.close()


@pytest.mark.parametrize("bad", [
    (reply()[:-4], True),
    (b"garbage\r\n", False),
    (b"HTTP/1.1 200 OK\r\nContent-Le", True),
    (reply().replace(b"Content-Length", b"X-Length"), False),
], ids=["short-body", "garbage-status-line", "short-head", "no-length"])
def test_an_unreadable_reply_is_unknown_not_resent(scripted, bad):
    """The request left, the reply cannot be read: the client raises
    the "unknown" error, drops the connection and sends nothing again;
    the next call reconnects."""
    server = scripted([bad, (reply(), False)])
    with ServiceClient(port=server.port, timeout=5) as client:
        with pytest.raises(ServiceError, match="unknown"):
            client.insert("a", 7, [1.0, 2.0])
        assert client._conn is None
        assert server.requests == ["POST /update"]
        assert client.status() == {"ok": True}
    assert server.requests == ["POST /update", "GET /status"]
    assert server.accepted == 2


@pytest.mark.parametrize("head, connections", [
    (b"Connection: close\r\n", 2),
    (b"Connection: close\r\nKeep-Alive: timeout=5, max=3\r\n", 2),
    (b"Connection: keep-alive\r\nKeep-Alive: timeout=5, max=0\r\n", 2),
    (KEPT, 1),
], ids=["close", "close-over-keep-alive", "max=0", "kept"])
def test_the_reply_says_whether_to_reconnect(scripted, head, connections):
    """The server keeps the socket open whatever it said, so only the
    reply's headers can make the client reconnect."""
    server = scripted([(reply(head), False), (reply(), False)])
    with ServiceClient(port=server.port, timeout=5) as client:
        assert client.status() == {"ok": True}
        assert (client._conn is None) == (connections == 2)
        assert client.status() == {"ok": True}
    assert server.requests == ["GET /status"] * 2
    assert server.accepted == connections


@pytest.mark.parametrize("call", [
    lambda client: client.admit("SELECT", traceparent="00\r\nX-Injected: 1"),
    lambda client: client.next("a b"),
], ids=["header", "target"])
def test_a_request_that_would_break_framing_is_never_sent(scripted, call):
    server = scripted([(reply(), False)])
    with ServiceClient(port=server.port, timeout=5) as client:
        with pytest.raises(ValueError, match="unsafe"):
            call(client)
        assert client._conn is None
        assert client.status() == {"ok": True}
    assert server.requests == ["GET /status"]
