"""The standing-subscription path through the service layers.

Bottom-up: :class:`~repro.service.live.LiveSource` as a unit, the
scheduler paging a subscription through live quanta, and the full
HTTP lifecycle over a real socket -- ``WATCH`` admission, delta
paging, ``POST /update`` fan-out, eviction/resume of a spooled
subscription, and the ``live_*`` counters on ``/metrics``.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.core import cursor
from repro.errors import CursorError, ServiceError
from repro.geometry.point import Point
from repro.live import ADD, StandingJoin
from repro.query.executor import Database
from repro.service import LiveSource, ServiceClient
from repro.service.scheduler import JoinScheduler
from repro.util.counters import CounterRegistry
from tests.conftest import make_points

WATCH_SQL = (
    "WATCH SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 6 NOTIFY"
)
PULL_SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 6"
)


def build_db():
    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(60, seed=11))
    db.create_relation("b", make_points(70, seed=12))
    return db


def apply_deltas(held, rows):
    """Replay JSON delta rows into a subscriber's result copy."""
    for row in rows:
        key = (row["oid1"], row["oid2"])
        if row["op"] == "+":
            assert key not in held
            held[key] = row["d"]
        else:
            del held[key]
    return held


def recompute(db):
    return {
        (r.oid1, r.oid2): r.d
        for r in db.physical_plan(PULL_SQL).rows()
    }


class TestLiveSource:
    def test_source_shape(self):
        db = build_db()
        source = LiveSource(db, WATCH_SQL)
        assert source.strategy == "live"
        assert source.plan is None
        assert source.query.relation1 == "a"
        assert source.query.relation2 == "b"
        standing = source.open()
        assert isinstance(standing, StandingJoin)
        assert source.open() is standing  # registered once
        assert source.pending() == 6
        assert len(source.poll(2)) == 2
        assert source.pending() == 4

    def test_notify_routes_by_side(self):
        db = build_db()
        source = LiveSource(db, WATCH_SQL)
        source.poll(None)
        point = Point((1.0, 2.0))
        db.relation("b").insert(obj=point, oid=9000)
        deltas = source.notify_insert(9000, point, side=2)
        assert all(d.op in "+-" for d in deltas)
        db.relation("b").delete(9000, db.relation("b")._rect_of(point))
        source.notify_delete(9000, side=2)
        assert source.standing.updates == 2

    def test_save_load_round_trip(self):
        db = build_db()
        source = LiveSource(db, WATCH_SQL)
        source.open()
        source.poll(3)
        state = source.save()
        assert state["format"] == cursor.FORMAT
        assert state["version"] == cursor.VERSION
        assert state["kind"] == "live-source"
        remaining = [d.key for d in source.poll(None)]
        source.release()
        assert source._standing is None
        clone = LiveSource(db, WATCH_SQL)
        clone.load(state)
        assert clone.pending() == 3
        assert [d.key for d in clone.poll(None)] == remaining

    def test_load_rejects_bad_envelopes(self):
        db = build_db()
        source = LiveSource(db, WATCH_SQL)
        with pytest.raises(CursorError, match="not a live"):
            source.load({"format": "repro-service-session"})
        state = LiveSource(db, WATCH_SQL).save()
        with pytest.raises(CursorError, match="version"):
            source.load(dict(state, version=99))

    def test_load_rejects_mutated_trees(self):
        db = build_db()
        source = LiveSource(db, WATCH_SQL)
        state = source.save()
        db.relation("a").insert(obj=Point((5.0, 5.0)), oid=9100)
        with pytest.raises(CursorError, match="does not match"):
            LiveSource(db, WATCH_SQL).load(state)


class TestSchedulerLiveQuanta:
    def test_subscription_pages_and_never_finishes(self):
        db = build_db()
        scheduler = JoinScheduler(
            quantum_pairs=4, counters=CounterRegistry()
        )
        session = scheduler.admit(LiveSource(db, WATCH_SQL))
        session.source.open()
        rows, done = scheduler.fetch(session.id, k=4)
        assert len(rows) == 4 and not done
        assert all(d.op == ADD for d in rows)
        rows, done = scheduler.fetch(session.id, k=4)
        assert len(rows) == 2 and not done  # outbox drained
        assert not session.done
        # No pending repairs: an empty fetch, still not done.
        session.demand = 0
        rows, done = scheduler.fetch(session.id, k=4)
        assert rows == [] and not done
        assert session.quanta >= 3

    def test_update_between_quanta_pages_repairs(self):
        db = build_db()
        scheduler = JoinScheduler(
            quantum_pairs=16, counters=CounterRegistry()
        )
        session = scheduler.admit(LiveSource(db, WATCH_SQL))
        session.source.open()
        scheduler.fetch(session.id, k=16)
        session.demand = 0
        dup = make_points(60, seed=11)[0]  # duplicates an "a" point
        db.relation("b").insert(obj=dup, oid=9000)
        emitted = session.source.notify_insert(9000, dup, side=2)
        assert len(emitted) == 2  # one ADD (d=0) + one REMOVE
        rows, done = scheduler.fetch(session.id, k=16)
        assert [r.op for r in rows] == ["-", "+"]
        assert not done


@pytest.fixture
def served(serve):
    """A JoinService over a live-enabled database; yields
    (service, client, db)."""
    db = build_db()
    return (*serve(db), db)


class TestHttpSubscription:
    def test_watch_bootstrap_and_update_lifecycle(self, served):
        """The acceptance path: WATCH over HTTP, scripted updates via
        POST /update, delta pages keeping the client's copy equal to
        a full recompute."""
        __, client, db = served
        sid = client.watch(WATCH_SQL)
        boot = client.deltas(sid, k=16)
        assert len(boot) == 6 and all(r["op"] == "+" for r in boot)
        held = apply_deltas({}, boot)
        assert held == recompute(db)

        # An empty page is fine and never done.
        page = client.next(sid, k=8)
        assert page["rows"] == [] and page["done"] is False

        pts_b = make_points(70, seed=12)
        for step in range(9):
            # Perturbed copies of b-points into "a": distinct small
            # distances, so every insert cracks the top-6 and no
            # distance ties make the pull-join oracle ambiguous.
            pt = [c + 1e-4 * (step + 1) for c in pts_b[step].coords]
            receipt = client.insert("a", 9100 + step, pt)
            assert receipt["watchers"] == 1
            if step < 6:
                # Early steps must crack the top-6 (one retraction,
                # one admission); later tiny pairs may rank behind
                # the six already-held tiny ones.
                assert receipt["deltas"] == 2
            if step % 3 == 2:
                client.remove("a", 9100 + step - 2, [
                    c + 1e-4 * (step - 1) for c in pts_b[step - 2].coords
                ])
            apply_deltas(held, client.deltas(sid, k=32))
            assert held == recompute(db)
        client.delete(sid)

    def test_updates_racing_delta_polls_on_one_subscription(self, served):
        """Two persistent clients in two threads: one replays 60
        scripted updates, the other polls ``deltas()`` without pause.
        Kept connections make the interleaving reachable (connection
        set-up used to serialise it).  No delta is lost, repeated or
        reordered: ``seq`` rises by one, and the replayed deltas end
        in the query's fresh result."""
        service, writer, db = served
        sid = writer.watch(WATCH_SQL)
        rng = random.Random(5)
        pts_b = make_points(70, seed=12)
        script, live = [], []
        for step in range(60):
            if live and rng.random() < 0.4:
                script.append(("delete", *live.pop(rng.randrange(len(live)))))
            else:
                near = pts_b[rng.randrange(len(pts_b))].coords
                point = [c + 1e-4 * (step + 1) for c in near]
                live.append((9100 + step, point))
                script.append(("insert", 9100 + step, point))
        polled, stop = [], threading.Event()

        def poll():
            with ServiceClient(port=service.port) as reader:
                while not stop.is_set():
                    polled.extend(reader.deltas(sid, k=3))

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            for op, oid, point in script:
                writer.update("a", op, oid, point)
        finally:
            stop.set()
            thread.join(20)
        assert not thread.is_alive()
        while True:
            page = writer.deltas(sid, k=64)
            polled.extend(page)
            if not page:
                break
        assert [row["seq"] for row in polled] \
            == list(range(polled[0]["seq"], polled[0]["seq"] + len(polled)))
        assert len(polled) > 6 + 60
        assert apply_deltas({}, polled) == recompute(db)
        writer.delete(sid)

    def test_update_without_watchers(self, served):
        __, client, db = served
        receipt = client.insert("a", 9500, [50.0, 50.0])
        assert receipt == {
            "relation": "a", "op": "insert", "oid": 9500,
            "watchers": 0, "deltas": 0,
        }
        assert len(db.relation("a")) == 61

    def test_watch_session_shows_live_strategy(self, served):
        __, client, __ = served
        sid = client.watch(WATCH_SQL)
        status = client.status()
        record = next(
            s for s in status["sessions"] if s["session"] == sid
        )
        assert record["strategy"] == "live"
        assert record["done"] is False
        client.delete(sid)

    def test_metrics_expose_live_counters(self, served):
        __, client, __ = served
        sid = client.watch(WATCH_SQL)
        client.deltas(sid, k=16)
        client.insert("b", 9200, [10.0, 20.0])
        client.deltas(sid, k=16)
        text = client.metrics_text()
        assert "repro_live_repairs" in text
        client.delete(sid)

    def test_evicted_subscription_resumes_on_update(self, served):
        service, client, __ = served
        sid = client.watch(WATCH_SQL)
        client.deltas(sid, k=16)
        evicted = service.scheduler.evict_idle(0.0)
        assert sid in evicted
        assert service.scheduler.session(sid).evicted
        # The update must resume the spooled subscription *before*
        # mutating the tree (else the cursor fingerprint goes stale).
        receipt = client.insert("b", 9300, [30.0, 40.0])
        assert receipt["watchers"] == 1
        assert not service.scheduler.session(sid).evicted
        assert service.scheduler.counters.value("service_resumes") >= 1
        client.delete(sid)

    def test_eviction_before_every_update_changes_no_delta(
        self, served, monkeypatch
    ):
        """Two identical subscriptions, one of them spooled to disk
        before *every* update of a script that keeps retracting
        reported pairs, small pages interleaved: the cursor (store,
        its oid index rebuilt on load, the half-drained outbox)
        carries everything, so both streams are byte-equal and end at
        a fresh execution of the query."""
        service, client, db = served
        sql = WATCH_SQL.replace("STOP AFTER 6", "STOP AFTER 50")
        kept, spooled = client.watch(sql), client.watch(sql)
        scheduler = service.scheduler
        # Pin the control session in memory; everything else idles out.
        monkeypatch.setattr(
            scheduler.session(kept), "idle_seconds", lambda: -1.0
        )
        streams = {kept: [], spooled: []}
        for sid in (kept, spooled):
            while len(streams[sid]) < 50:  # the bootstrap
                streams[sid] += client.deltas(sid, k=3)
        held = apply_deltas({}, streams[kept])
        applied = len(streams[kept])
        points_b = make_points(70, seed=12)
        rng = random.Random(40)
        def script():
            """Forty updates: a reported b-object goes (its pairs are
            retracted, runners-up promoted), a near-duplicate of a
            b-point cracks the top 50, the b-object comes back, the
            duplicate leaves."""
            for block in range(10):
                victim = rng.choice(sorted({b for __, b in held}))
                home = list(points_b[victim].coords)
                near = [
                    c + 1e-3 * (block + 1)
                    for c in points_b[rng.randrange(70)].coords
                ]
                yield "b", "delete", victim, home
                yield "a", "insert", 9400 + block, near
                yield "b", "insert", victim, home
                yield "a", "delete", 9400 + block, near

        updates = 0
        for relation, op, oid, point in script():
            assert scheduler.evict_idle(0.0) == [spooled]
            receipt = client.update(relation, op, oid, point)
            updates += 1
            assert receipt["watchers"] == 2
            assert not scheduler.session(spooled).evicted
            for sid in (kept, spooled):
                streams[sid] += client.deltas(sid, k=3)
            apply_deltas(held, streams[kept][applied:])
            applied = len(streams[kept])
        for sid in (kept, spooled):
            while True:
                page = client.deltas(sid, k=3)
                streams[sid] += page
                if not page:
                    break
        assert sum(r["op"] == "-" for r in streams[kept]) > 20
        assert json.dumps(streams[spooled]) == json.dumps(streams[kept])
        fresh = {
            (r.oid1, r.oid2): r.d
            for r in db.physical_plan(
                PULL_SQL.replace("STOP AFTER 6", "STOP AFTER 50")
            ).rows()
        }
        assert apply_deltas({}, streams[spooled]) == fresh
        assert updates == 40
        assert scheduler.counters.value("service_resumes") >= updates
        client.delete(kept)
        client.delete(spooled)

    def test_invalid_watch_rolls_back_admission(self, served):
        service, client, __ = served
        before = service.scheduler.status()["session_count"]
        with pytest.raises(ServiceError, match="400"):
            client.watch(
                "WATCH SELECT * FROM a, missing, "
                "DISTANCE(a.geom, missing.geom) AS d "
                "ORDER BY d STOP AFTER 3"
            )
        assert service.scheduler.status()["session_count"] == before

    @pytest.mark.parametrize("body", [
        {"op": "insert", "oid": 1, "point": [1.0, 2.0]},
        {"relation": "missing", "op": "insert", "oid": 1,
         "point": [1.0, 2.0]},
        {"relation": "a", "op": "upsert", "oid": 1,
         "point": [1.0, 2.0]},
        {"relation": "a", "op": "insert", "oid": "one",
         "point": [1.0, 2.0]},
        {"relation": "a", "op": "insert", "oid": 1, "point": []},
        {"relation": "a", "op": "insert", "oid": 1,
         "point": ["x", "y"]},
    ])
    def test_bad_updates_rejected(self, served, body):
        __, client, __ = served
        with pytest.raises(ServiceError, match="400"):
            client._request("POST", "/update", body)

    @pytest.mark.parametrize("point", [
        [float("nan"), 5.0],
        [float("inf"), 5.0],
        [5.0, float("-inf")],
        [True, False],
        [10 ** 400, 5.0],
        [5.0],
        [5.0, 5.0, 5.0],
    ])
    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_unusable_point_rejected_before_any_effect(
        self, served, op, point
    ):
        """Non-finite, boolean and wrong-dimension coordinates are a
        400 decided before watchers are resumed or the tree is touched:
        an evicted subscription stays evicted, the tree keeps its size
        and mutation counter, and no delta is published."""
        service, client, db = served
        sid = client.watch(WATCH_SQL)
        held = apply_deltas({}, client.deltas(sid, k=16))
        assert sid in service.scheduler.evict_idle(0.0)
        tree = db.relation("a")
        size, mutations = len(tree), tree._mutations
        with pytest.raises(ServiceError, match="400"):
            client._request("POST", "/update", {
                "relation": "a", "op": op, "oid": 9500, "point": point,
            })
        assert service.scheduler.session(sid).evicted
        assert (len(tree), tree._mutations) == (size, mutations)
        assert client.deltas(sid, k=16) == []
        # Every ancestor rectangle is still finite: a later valid
        # update repairs to exactly the recomputed result.
        client.insert("a", 9501, [1.0, 1.5])
        apply_deltas(held, client.deltas(sid, k=64))
        assert held == recompute(db)
        client.delete(sid)

    def test_duplicate_watch_oid_insert_rejected(self, served):
        """A duplicate insert / missing delete is rejected *before*
        the tree mutates: no second entry lands, no watcher observes
        anything, and the subscription keeps repairing correctly."""
        __, client, db = served
        sid = client.watch(WATCH_SQL)
        held = apply_deltas({}, client.deltas(sid, k=16))
        client.insert("a", 9400, [1.0, 1.0])
        apply_deltas(held, client.deltas(sid, k=32))
        size = len(db.relation("a"))
        mutations = db.relation("a")._mutations
        with pytest.raises(ServiceError, match="409"):
            client.insert("a", 9400, [2.0, 2.0])
        with pytest.raises(ServiceError, match="404"):
            client.remove("a", 424242, [1.0, 1.0])
        # Point mismatch on a real oid: also a 404, tree untouched.
        with pytest.raises(ServiceError, match="404"):
            client.remove("a", 9400, [3.0, 3.0])
        assert len(db.relation("a")) == size
        assert db.relation("a")._mutations == mutations
        # The subscription stayed in sync: a later valid update still
        # repairs, and the repaired copy matches a full recompute.
        receipt = client.insert("a", 9401, [1.0, 1.5])
        assert receipt["watchers"] == 1
        assert "invalidated" not in receipt
        apply_deltas(held, client.deltas(sid, k=64))
        assert held == recompute(db)
        client.delete(sid)

    def test_rejected_updates_without_watchers(self, served):
        """The freshness checks hold with zero subscriptions too: the
        tree refuses a duplicate insert (409) and a no-op delete is a
        404, not a silent 200."""
        __, client, db = served
        size = len(db.relation("a"))
        with pytest.raises(ServiceError, match="409"):
            client.insert("a", 0, [5.0, 5.0])  # oid 0 is seeded
        with pytest.raises(ServiceError, match="404"):
            client.remove("a", 424242, [1.0, 1.0])
        assert len(db.relation("a")) == size

    def test_desynced_watcher_invalidated_not_stale(self, served):
        """A watcher that cannot observe an applied mutation (its
        trees moved out of band) is removed, not left silently
        serving a stale result."""
        service, client, db = served
        sid = client.watch(WATCH_SQL)
        client.deltas(sid, k=16)
        # Out-of-band mutation the subscription never observes.
        db.relation("b").insert(
            obj=Point((77.0, 77.0)), oid=9700
        )
        receipt = client.insert("b", 9701, [60.0, 60.0])
        assert receipt["watchers"] == 1
        assert receipt["deltas"] == 0
        invalidated = receipt["invalidated"]
        assert [entry["session"] for entry in invalidated] == [sid]
        assert "outside the standing" in invalidated[0]["error"]
        with pytest.raises(ServiceError, match="unknown session"):
            service.scheduler.session(sid)
