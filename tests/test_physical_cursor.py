"""Plan-level cursors: PhysicalPlan.save()/restore() across the whole
operator tree, the service QuerySource wrapper, and the CLI's
``query --page`` / ``--resume`` interactive paging."""

import pickle

import pytest

from repro.cli import main as cli_main
from repro.errors import CursorError
from repro.query.executor import Database
from repro.query.physical import OperatorState
from repro.service.session import QuerySource
from repro.util.counters import CounterRegistry

from tests.conftest import make_points

SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "WHERE a.w < 7 AND d <= 40 ORDER BY d STOP AFTER 60"
)


def build_db():
    import random

    rng = random.Random(55)
    points_a = make_points(110, seed=51)
    points_b = make_points(130, seed=52)
    db = Database(counters=CounterRegistry())
    db.create_relation(
        "a", points_a,
        attributes={"w": [rng.randint(0, 9) for __ in points_a]},
    )
    db.create_relation("b", points_b)
    return db


@pytest.fixture(scope="module")
def reference():
    db = build_db()
    return [r for r in db.physical_plan(SQL, strategy="pipeline").rows()]


class TestPlanCursor:
    @pytest.mark.parametrize("strategy", ["pipeline", "prefilter"])
    def test_paged_equals_oneshot(self, strategy, reference):
        """Page through the plan 13 rows at a time, rebuilding the
        whole Database and plan from the pickled cursor each page."""
        db = build_db()
        plan = db.physical_plan(SQL, strategy=strategy)
        rows_iter = plan.rows()
        got = []
        while True:
            page = []
            for row in rows_iter:
                page.append(row)
                if len(page) >= 13:
                    break
            got.extend(page)
            if len(page) < 13:
                break
            state = pickle.loads(pickle.dumps(plan.save()))
            db = build_db()  # a cold process would rebuild everything
            plan = db.physical_plan(SQL, strategy=strategy)
            plan.restore(state)
            rows_iter = plan.rows()
        assert got == reference

    def test_state_shape_is_versioned(self):
        db = build_db()
        plan = db.physical_plan(SQL, strategy="pipeline")
        next(plan.rows())
        state = plan.save()
        assert isinstance(state, OperatorState)
        assert state.version == 1
        assert state.operator

    def test_mismatched_relation_rejected(self):
        db = build_db()
        plan = db.physical_plan(SQL, strategy="pipeline")
        next(plan.rows())
        state = plan.save()

        other = Database()
        other.create_relation("a", make_points(40, seed=1),
                              attributes={"w": [1] * 40})
        other.create_relation("b", make_points(45, seed=2))
        other_plan = other.physical_plan(SQL, strategy="pipeline")
        with pytest.raises(CursorError):
            other_plan.restore(state)


class TestQuerySource:
    def test_save_load_resumes_stream(self, reference):
        db = build_db()
        source = QuerySource(db, SQL, strategy="pipeline")
        rows = source.open()
        got = [next(rows) for __ in range(17)]
        state = pickle.loads(pickle.dumps(source.save()))

        db2 = build_db()
        source2 = QuerySource(db2, SQL, strategy="pipeline")
        source2.load(state)
        got.extend(source2.open())
        assert got == reference

    def test_load_rejects_foreign_state(self):
        db = build_db()
        source = QuerySource(db, SQL)
        with pytest.raises(CursorError):
            source.load({"format": "something-else"})


class TestParallelSuspension:
    def test_parallel_plan_saves_and_resumes(self):
        """``PARALLEL 2`` is ``SHARDS 2``: the router runs inline, so
        its plan has a cursor like any other."""
        sql = SQL + " PARALLEL 2"
        whole = list(build_db().physical_plan(sql).rows())
        source = QuerySource(build_db(), sql)
        rows = source.open()
        got = [next(rows) for __ in range(17)]
        state = pickle.loads(pickle.dumps(source.save()))
        resumed = QuerySource(build_db(), sql)
        resumed.load(state)
        got.extend(resumed.open())
        assert got == whole


class TestCliPaging:
    def run(self, capsys, *argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture
    def relations(self, tmp_path, capsys):
        w = str(tmp_path / "w.csv")
        r = str(tmp_path / "r.csv")
        self.run(capsys, "generate", "water", "--count", "150",
                 "--out", w)
        self.run(capsys, "generate", "roads", "--count", "200",
                 "--out", r)
        return w, r

    CLI_SQL = (
        "SELECT * FROM w, r, DISTANCE(w.geom, r.geom) AS d "
        "ORDER BY d STOP AFTER 25"
    )

    def test_paged_run_matches_oneshot(
        self, relations, tmp_path, capsys
    ):
        w, r = relations
        bind = ["--relation", f"w={w}", "--relation", f"r={r}"]
        cursor = str(tmp_path / "c.bin")

        code, full, __ = self.run(
            capsys, "query", self.CLI_SQL, *bind
        )
        assert code == 0

        code, p1, err = self.run(
            capsys, "query", self.CLI_SQL, *bind,
            "--page", "10", "--cursor", cursor,
        )
        assert code == 0 and "cursor ->" in err
        code, p2, __ = self.run(
            capsys, "query", "--resume", cursor, *bind, "--page", "10"
        )
        assert code == 0
        code, p3, err = self.run(
            capsys, "query", "--resume", cursor, *bind, "--page", "10"
        )
        assert code == 0 and "done" in err
        assert p1 + p2 + p3 == full
        # The cursor file is cleaned up once the stream is exhausted.
        assert not (tmp_path / "c.bin").exists()

    def test_resume_guards_against_other_query(
        self, relations, tmp_path, capsys
    ):
        w, r = relations
        bind = ["--relation", f"w={w}", "--relation", f"r={r}"]
        cursor = str(tmp_path / "c.bin")
        self.run(
            capsys, "query", self.CLI_SQL, *bind,
            "--page", "5", "--cursor", cursor,
        )
        other = self.CLI_SQL.replace("25", "30")
        with pytest.raises(SystemExit):
            self.run(
                capsys, "query", other, *bind, "--resume", cursor
            )

    def test_missing_sql_without_resume_fails(self, capsys):
        with pytest.raises(SystemExit):
            self.run(capsys, "query", "--page", "5")
