"""Scheduler semantics: round-robin fairness under concurrent
mixed-cost sessions, slot lifecycle for finished STOP AFTER k
streams, admission control, and eviction/resume through the spool."""

import pytest

from repro.errors import ServiceError
from repro.query.executor import Database
from repro.service import CursorStore, JoinScheduler, QuerySource
from repro.util.counters import CounterRegistry

from tests.conftest import make_points


def build_db():
    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(100, seed=61))
    db.create_relation("b", make_points(120, seed=62))
    return db


def sql(stop_after):
    return (
        "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
        f"ORDER BY d STOP AFTER {stop_after}"
    )


@pytest.fixture
def db():
    return build_db()


class TestFairness:
    def test_every_pending_session_progresses_each_round(self, db):
        """No starvation: with N sessions of very different cost all
        demanding rows, every session gains rows on every full round
        until it is done."""
        sched = JoinScheduler(quantum_pairs=4, quantum_seconds=10.0)
        stops = [8, 40, 120, 300]  # mixed-cost STOP AFTER k streams
        sessions = [
            sched.admit(QuerySource(db, sql(k), strategy="pipeline"))
            for k in stops
        ]
        for session in sessions:
            sched.request(session.id, 10_000)

        rounds = 0
        while any(s.pending for s in sessions):
            was_pending = [s.pending for s in sessions]
            before = [s.emitted_total + len(s.buffer) for s in sessions]
            sched.run_round()
            rounds += 1
            after = [s.emitted_total + len(s.buffer) for s in sessions]
            for session, live, b, a in zip(
                sessions, was_pending, before, after
            ):
                # A pending session either gains rows this round or its
                # stream ended at the quantum boundary -- never stalls.
                if live and not session.done:
                    assert a > b, (
                        f"session {session.id} starved in round "
                        f"{rounds}"
                    )
            assert rounds < 1000
        # The cheap stream finished long before the expensive one.
        assert sessions[0].done and sessions[-1].done
        counts = [len(sched.take(s.id)[0]) for s in sessions]
        assert counts == stops

    def test_quantum_bounds_rows_per_turn(self, db):
        sched = JoinScheduler(quantum_pairs=5, quantum_seconds=10.0)
        session = sched.admit(QuerySource(db, sql(50)))
        sched.request(session.id, 50)
        produced = sched.run_quantum(session)
        assert produced == 5
        assert len(session.buffer) == 5

    def test_fetch_interleaves_other_sessions(self, db):
        """fetch() for one session still advances the others --
        clients cannot monopolize the scheduler."""
        sched = JoinScheduler(quantum_pairs=5, quantum_seconds=10.0)
        foreground = sched.admit(QuerySource(db, sql(60)))
        background = sched.admit(QuerySource(db, sql(60)))
        sched.request(background.id, 30)

        rows, done = sched.fetch(foreground.id, 30)
        assert len(rows) == 30 and not done
        assert len(background.buffer) == 30  # rode along fairly


class TestLifecycle:
    def test_finished_stream_reports_done_and_frees_slot(self, db):
        sched = JoinScheduler(quantum_pairs=64, max_sessions=2)
        session = sched.admit(QuerySource(db, sql(12)))
        rows, done = sched.fetch(session.id, 100)
        assert len(rows) == 12 and done
        sched.remove(session.id)
        # The slot is free again: two more admissions succeed.
        sched.admit(QuerySource(db, sql(5)))
        sched.admit(QuerySource(db, sql(5)))

    def test_admission_cap(self, db):
        sched = JoinScheduler(max_sessions=2)
        sched.admit(QuerySource(db, sql(5)))
        sched.admit(QuerySource(db, sql(5)))
        with pytest.raises(ServiceError):
            sched.admit(QuerySource(db, sql(5)))

    def test_unknown_session(self, db):
        sched = JoinScheduler()
        with pytest.raises(ServiceError):
            sched.fetch("nope", 1)

    def test_duplicate_session_id(self, db):
        sched = JoinScheduler()
        sched.admit(QuerySource(db, sql(5)), session_id="x")
        with pytest.raises(ServiceError):
            sched.admit(QuerySource(db, sql(5)), session_id="x")


class TestEviction:
    def test_idle_session_spools_and_resumes(self, db, tmp_path):
        store = CursorStore(str(tmp_path / "spool"))
        sched = JoinScheduler(
            quantum_pairs=7, quantum_seconds=10.0, cursor_store=store
        )
        reference_rows = list(
            build_db().physical_plan(sql(40), strategy="pipeline").rows()
        )
        session = sched.admit(QuerySource(db, sql(40),
                                          strategy="pipeline"))
        first, __ = sched.fetch(session.id, 15)

        session.last_touch -= 1_000.0  # long idle
        assert sched.evict_idle(60.0) == [session.id]
        assert session.evicted
        assert store.exists(session.id)
        assert session.source.plan is None  # plan truly dropped

        rest, done = sched.fetch(session.id, 100)
        assert done
        assert list(first) + list(rest) == reference_rows
        assert not store.exists(session.id)  # consumed on resume

    def test_parallel_session_spools_and_resumes(self, db, tmp_path):
        """``PARALLEL 2`` spells ``SHARDS 2``: the shard router runs
        inline, so the session spools and resumes byte-identical."""
        store = CursorStore(str(tmp_path / "spool"))
        sched = JoinScheduler(
            quantum_pairs=7, quantum_seconds=10.0, cursor_store=store
        )
        query = sql(40) + " PARALLEL 2"
        reference = list(build_db().physical_plan(query).rows())
        session = sched.admit(QuerySource(db, query))
        first, __ = sched.fetch(session.id, 15)

        session.last_touch -= 1_000.0  # long idle
        assert sched.evict_idle(60.0) == [session.id]
        assert store.exists(session.id)
        assert session.source.plan is None

        rest, done = sched.fetch(session.id, 100)
        assert done
        assert repr(list(first) + list(rest)) == repr(reference)

    def test_busy_or_fresh_sessions_not_evicted(self, db, tmp_path):
        store = CursorStore(str(tmp_path / "spool"))
        sched = JoinScheduler(cursor_store=store)
        fresh = sched.admit(QuerySource(db, sql(20)))
        busy = sched.admit(QuerySource(db, sql(20)))
        sched.request(busy.id, 5)
        busy.last_touch -= 1_000.0
        assert sched.evict_idle(60.0) == []
        assert not fresh.evicted and not busy.evicted

    def test_eviction_disabled_without_store(self, db):
        sched = JoinScheduler()
        session = sched.admit(QuerySource(db, sql(10)))
        session.last_touch -= 1_000.0
        assert sched.evict_idle(1.0) == []


class TestObservability:
    def test_status_and_metrics_cover_sessions(self, db):
        sched = JoinScheduler(quantum_pairs=5, quantum_seconds=10.0)
        session = sched.admit(QuerySource(db, sql(20)))
        sched.fetch(session.id, 20)

        status = sched.status()
        assert status["session_count"] == 1
        stats = status["sessions"][0]
        assert stats["session"] == session.id
        assert stats["quanta"] >= 4  # 20 rows / 5-pair quanta

        records = sched.metrics(labels={"suite": "test"})
        names = {r["metric"] for r in records}
        assert "service_quanta" in names
        assert "service.quantum_pairs" in names
        assert any(r["labels"].get("session") == session.id
                   for r in records if r.get("labels"))
