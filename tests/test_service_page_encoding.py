"""A ``/next`` body is byte for byte what ``json.dumps`` wrote for the
page built as a dict: the server writes rows as text, pasting in each
point's coordinates from a bounded memo, and neither the memo nor the
hand-spelled numbers may change a byte."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.executor import Database
from repro.query.physical import Row
from repro.service import JoinService, server
from repro.util.counters import CounterRegistry

from tests.conftest import make_points

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

JOIN = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 40"
)
SEMI = (
    "SELECT *, MIN(d) FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "GROUP BY a.geom ORDER BY d STOP AFTER 30"
)
WATCH = (
    "WATCH SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 6 NOTIFY"
)
ALL = "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d ORDER BY d"


def oracle_row(row):
    """The row as the dict a ``/next`` page used to carry."""
    def geom(value):
        coords = getattr(value, "coords", None)
        return list(coords) if coords is not None else None

    op = getattr(row, "op", None)
    if op is not None:
        return {
            "op": op,
            "seq": row.seq,
            "d": row.distance,
            "oid1": row.oid1,
            "geom1": geom(row.obj1),
            "oid2": row.oid2,
            "geom2": geom(row.obj2),
        }
    return {
        "d": row.d,
        "oid1": row.oid1,
        "geom1": geom(row.geom1),
        "oid2": row.oid2,
        "geom2": geom(row.geom2),
    }


def database(a, b):
    db = Database(counters=CounterRegistry())
    db.create_relation("a", a)
    db.create_relation("b", b)
    return db


def record_pages(scheduler):
    """A list that receives ``(rows, done, session)`` for every page
    the scheduler hands out."""
    taken = []
    take = scheduler.take

    def recording(session_id, k=None):
        rows, done = take(session_id, k)
        taken.append((rows, done, scheduler.session(session_id)))
        return rows, done

    scheduler.take = recording
    return taken


def oracle_payload(sid, rows, done, session):
    return {
        "session": sid,
        "rows": [oracle_row(r) for r in rows],
        "done": done,
        "emitted_total": session.emitted_total,
        "quanta": session.quanta,
    }


class Pages:
    """A JoinService driven through ``_dispatch`` (no sockets) whose
    every ``/next`` body is checked against the oracle page."""

    def __init__(self, db, **keywords):
        self.service = JoinService(db, **keywords)
        self.loop = asyncio.new_event_loop()
        self.taken = record_pages(self.service.scheduler)

    def close(self):
        self.loop.close()

    def call(self, method, path, body=None):
        status, payload, __ = self.loop.run_until_complete(
            self.service._dispatch(
                method, path, json.dumps(body or {}).encode()
            )
        )
        assert status == 200, payload
        return payload

    def admit(self, sql):
        return self.call("POST", "/query", {"sql": sql})["session"]

    def next(self, sid, k):
        """One page: its rows and ``done``, after the body check."""
        body = self.call("GET", f"/next?session={sid}&k={k}")
        rows, done, session = self.taken[-1]
        assert body == json.dumps(oracle_payload(sid, rows, done, session))
        return rows, done

    def drain(self, sid, k):
        """Every page of a finite stream; the rows and each ``done``."""
        rows, flags = [], []
        while not flags or not flags[-1]:
            page, done = self.next(sid, k)
            rows += page
            flags.append(done)
        return rows, flags


@pytest.fixture
def pages():
    opened = []

    def make(db, **keywords):
        keywords.setdefault("quantum_pairs", 8)
        opened.append(Pages(db, **keywords))
        return opened[-1]

    yield make
    for driven in opened:
        driven.close()


@pytest.fixture(autouse=True)
def cold_memo():
    server._point_text.cache_clear()
    yield
    server._point_text.cache_clear()


@pytest.mark.parametrize("sql", [JOIN, SEMI, JOIN + " SHARDS 4"],
                         ids=["join", "semi", "shards"])
@pytest.mark.parametrize("k", [1, 7, 64])
def test_seeded_query_pages(pages, sql, k):
    db = database(make_points(60, seed=31), make_points(70, seed=32))
    driven = pages(db)
    rows, flags = driven.drain(driven.admit(sql), k)
    assert [(r.d, r.oid1, r.oid2) for r in rows] == [
        (r.d, r.oid1, r.oid2) for r in db.physical_plan(sql).rows()
    ]
    assert flags[-1] is True and not any(flags[:-1])
    # The second reading of the same points is served from the memo.
    again, __ = driven.drain(driven.admit(sql), k)
    assert again == rows
    assert server._point_text.cache_info().hits > 0


def test_watch_delta_pages(pages):
    db = database(make_points(60, seed=41), make_points(70, seed=42))
    driven = pages(db)
    sid = driven.admit(WATCH)
    boot, done = driven.next(sid, 16)
    assert len(boot) == 6 and not done
    partners = make_points(70, seed=42)
    ops = set()
    for step in range(8):
        coords = [c + 1e-4 * (step + 1) for c in partners[step].coords]
        point = {"relation": "a", "oid": 9000 + step, "point": coords}
        driven.call("POST", "/update", dict(point, op="insert"))
        if step % 3 == 2:
            driven.call("POST", "/update", dict(point, op="delete"))
        deltas, done = driven.next(sid, 5)
        assert not done
        ops.update(r.op for r in deltas)
    assert ops == {"+", "-"}
    # An empty delta page is encoded too.
    assert driven.next(sid, 4) == ([], False)


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["zero", "minus_zero"])
@pytest.mark.parametrize("k", [1, 8])
def test_signed_zero_both_orders(pages, first, k):
    """``(0.0, y) == (-0.0, y)`` and they hash alike: whichever comes
    first must not lend its text to the other."""
    second = -first
    a = [Point((first, 1.0)), Point((second, 1.0)),
         Point((2.0, first)), Point((2.0, second))]
    b = [Point((0.5, 0.5))]
    driven = pages(database(a, b))
    rows, __ = driven.drain(driven.admit(ALL), k)
    spelled = [json.dumps(list(r.geom1.coords)) for r in rows]
    assert sorted(spelled) == sorted(
        ["[0.0, 1.0]", "[-0.0, 1.0]", "[2.0, 0.0]", "[2.0, -0.0]"]
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_3d_and_extreme_coordinates(pages):
    a = [Point((1e-320, 2.0, 3.0)), Point((1e300, -1e300, 0.5)),
         Point((-1e300, 3.0, 1e-320)), Point((0.1, 0.2, 0.3))]
    b = [Point((0.0, 0.0, 0.0)), Point((1.5, -2.5, 1e300)),
         Point((5e-324, 1.0 / 3.0, 2.0 ** 60))]
    driven = pages(database(a, b))
    rows, __ = driven.drain(driven.admit(ALL), 5)
    assert len(rows) == len(a) * len(b)
    assert any(r.d == float("inf") for r in rows)


def test_non_point_geometry_is_null(pages):
    a = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((2.0, 2.0), (3.0, 4.0))]
    b = [Point((5.0, 5.0)), Point((0.5, 2.0))]
    driven = pages(database(a, b))
    rows, __ = driven.drain(driven.admit(ALL), 3)
    assert len(rows) == 4
    assert all(oracle_row(r)["geom1"] is None for r in rows)


def test_fallback_values(pages):
    """Distances and oids json.dumps spells otherwise than ``repr``
    (NaN, infinities, bools, float subclasses, strings, floats as
    oids) take the ``json.dumps`` path and still match; so do
    non-finite coordinates."""
    class Real(float):
        def __repr__(self):
            return "Real(...)"

    a, b = Point((1.0, 2.0)), Point((-0.0, 0.0))
    odd = Point((float("nan"), -float("inf"), float("inf")))
    scripted = [
        Row(float("nan"), 1, a, 2, b),
        Row(float("inf"), 3, a, 4, None),
        Row(-float("inf"), "x\"yé", a, 5.0, b),
        Row(Real(2.5), True, a, 2 ** 70, Rect((0.0, 0.0), (1.0, 1.0))),
        Row(0.1, -7, a, None, b),
        Row(0.2, 8, odd, 9, odd),
    ]
    driven = pages(database(make_points(5, seed=1), make_points(5, seed=2)))
    sid = driven.admit(JOIN)
    # Rows already buffered are served without running the join.
    driven.service.scheduler.session(sid).buffer.extend(scripted)
    rows, done = driven.next(sid, len(scripted))
    assert rows == scripted and not done


def test_memo_stays_at_its_bound():
    info = server._point_text.cache_info
    for i in range(server.GEOMETRY_MEMO + 500):
        point = Point((float(i) + 0.5, 1.5))
        text = server.row_to_json(Row(1.0, i, point, i, point))
        assert text == json.dumps(oracle_row(Row(1.0, i, point, i, point)))
    assert info().currsize == info().maxsize == server.GEOMETRY_MEMO


def test_body_on_the_wire(serve):
    """Over a socket, the reply body is the encoded oracle page."""
    db = database(make_points(30, seed=51), make_points(30, seed=52))
    service, client = serve(db)
    taken = record_pages(service.scheduler)
    sid = client.query(JOIN)
    with socket.create_connection(("127.0.0.1", service.port)) as conn:
        conn.sendall(
            f"GET /next?session={sid}&k=12 HTTP/1.1\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        reply = b""
        while chunk := conn.recv(1 << 16):
            reply += chunk
    head, __, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert f"Content-Length: {len(body)}".encode() in head
    assert body == json.dumps(oracle_payload(sid, *taken[-1])).encode()
