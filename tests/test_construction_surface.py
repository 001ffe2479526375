"""One typed path from SQL to operator.

Every operator takes ``(tree1, tree2, spec=None, *, <engine
arguments>)``; every ``Database`` entry point and service source takes
a ``spec`` plus named arguments.  No signature has a ``**`` catch-all
that a :class:`~repro.core.spec.JoinSpec` field could slip through,
and a caller's spec cannot change what the SQL says.
"""

import inspect

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.knn_join import KNearestNeighborJoin
from repro.core.pairs import NODE
from repro.core.reverse import ReverseDistanceJoin, ReverseDistanceSemiJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.core.variations import all_nearest_neighbors, closest_pairs
from repro.datasets import uniform_points
from repro.errors import QueryError
from repro.geometry.metrics import MANHATTAN
from repro.live import StandingJoin
from repro.query.executor import Database
from repro.query.physical import build_physical_plan
from repro.service import LiveSource, QuerySource, resumed_join
from repro.service.cursor import dumps, loads
from repro.shard.router import ShardRouterJoin, ShardRouterSemiJoin

HEAD = "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
WATCH = f"WATCH {HEAD}ORDER BY d STOP AFTER 5 NOTIFY"
PREDICATE = f"{HEAD}WHERE a.score <= 0.1 ORDER BY d STOP AFTER 10"

OPERATORS = [
    IncrementalDistanceJoin,
    IncrementalDistanceSemiJoin,
    KNearestNeighborJoin,
    ReverseDistanceJoin,
    ReverseDistanceSemiJoin,
    ShardRouterJoin,
    ShardRouterSemiJoin,
    StandingJoin,
]


def build_db():
    db = Database()
    points = uniform_points(300, seed=1)
    db.create_relation("a", points, attributes={
        "score": [i / len(points) for i in range(len(points))],
    })
    db.create_relation("b", uniform_points(300, seed=2))
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


def spelled(rows):
    """Rows as bytes: distance bits, ids and both geometries."""
    return "\n".join(
        f"{r.d.hex()} {r.oid1} {r.oid2} "
        + " ".join(c.hex() for c in r.geom1.coords + r.geom2.coords)
        for r in rows
    ).encode()


def entry_points(db):
    """Every way into a join, called with a JoinSpec field as a
    keyword."""
    sql = f"{HEAD}ORDER BY d STOP AFTER 5"

    def a():
        return db.relation("a")

    def b():
        return db.relation("b")

    calls = {
        cls.__name__: (lambda cls=cls: cls(a(), b(), max_pairs=5))
        for cls in OPERATORS
    }
    calls.update({
        "Database.physical_plan": lambda: db.physical_plan(
            sql, max_pairs=5),
        "Database.execute": lambda: db.execute(sql, max_pairs=5),
        "Database.watch": lambda: db.watch(WATCH, max_pairs=5),
        "Database.explain": lambda: db.explain(sql, max_pairs=5),
        "Database.explain_analyze": lambda: db.explain_analyze(
            sql, max_pairs=5),
        "build_physical_plan": lambda: build_physical_plan(
            db, sql, max_pairs=5),
        "QuerySource": lambda: QuerySource(db, sql, max_pairs=5),
        "LiveSource": lambda: LiveSource(db, WATCH, max_pairs=5),
        "resumed_join": lambda: resumed_join(a(), b(), max_pairs=5),
        "closest_pairs": lambda: closest_pairs(a(), max_pairs=5),
        "all_nearest_neighbors": lambda: all_nearest_neighbors(
            a(), max_pairs=5),
    })
    return calls


CALLABLES = [
    *OPERATORS,
    Database.physical_plan,
    Database.execute,
    Database.watch,
    Database.explain,
    Database.explain_analyze,
    build_physical_plan,
    QuerySource,
    LiveSource,
    resumed_join,
    closest_pairs,
    all_nearest_neighbors,
]


class TestConstructionSurface:
    @pytest.mark.parametrize("name", sorted(entry_points(None)))
    def test_a_spec_field_keyword_is_a_type_error(self, db, name):
        with pytest.raises(TypeError, match="max_pairs"):
            entry_points(db)[name]()

    @pytest.mark.parametrize(
        "target", CALLABLES,
        ids=[getattr(c, "__qualname__", str(c)) for c in CALLABLES],
    )
    def test_no_keyword_catch_all(self, target):
        parameters = inspect.signature(target).parameters.values()
        assert not [
            p.name for p in parameters if p.kind is p.VAR_KEYWORD
        ]

    @pytest.mark.parametrize("cls", OPERATORS[:-1])
    def test_operators_take_a_spec_third(self, cls):
        names = list(inspect.signature(cls).parameters)
        assert names[:3] == ["tree1", "tree2", "spec"]


class TestTheSqlOwnsWhatItSays:
    """A caller's spec may set what the SQL leaves open; a field the
    statement states (metric, distance range, STOP AFTER, direction,
    and for pull plans the traversal) is a QueryError unless the spec
    leaves it at its default, in which case the SQL's value is used."""

    def test_a_default_field_takes_the_sql_value(self, db):
        rows = list(db.execute(
            f"{HEAD}WHERE d <= 0.01 ORDER BY d STOP AFTER 20",
            spec=JoinSpec(max_distance=float("inf")),
        ))
        assert rows == []

    @pytest.mark.parametrize("field, value", [
        ("metric", MANHATTAN),
        ("max_pairs", 3),
        ("max_distance", 5.0),
        ("min_distance", 1.0),
        ("descending", True),
        ("node_policy", "basic"),
    ])
    def test_a_stated_field_is_refused(self, db, field, value):
        spec = JoinSpec(**{field: value})
        sql = f"{HEAD}ORDER BY d STOP AFTER 20"
        with pytest.raises(QueryError, match=field):
            db.execute(sql, spec=spec)
        with pytest.raises(QueryError, match=field):
            QuerySource(db, sql, spec=spec).open()

    def test_watch_refuses_a_stated_field(self):
        with pytest.raises(QueryError, match="max_pairs"):
            build_db().watch(WATCH, spec=JoinSpec(max_pairs=3))

    def test_watch_takes_the_callers_traversal(self):
        standing = build_db().watch(
            WATCH, spec=JoinSpec(node_policy="basic")
        )
        assert standing.spec.node_policy == "basic"
        assert standing.spec.max_pairs == 5

    def test_unstated_knobs_reach_the_operator(self, db):
        plan = db.physical_plan(
            f"{HEAD}ORDER BY d STOP AFTER 20",
            spec=JoinSpec(queue="hybrid", queue_dt=10.0, kernel="scalar"),
        )
        join = plan.open_join()
        assert (join.queue_kind, join.spec.kernel) == ("hybrid", "scalar")
        assert join.max_pairs >= 20


def keep_all(pair):
    return True


def drop_odd_inner(pair):
    return pair.item2.kind == NODE or pair.item2.oid % 2 == 0


class TestCallerFilterComposes:
    """A caller's pair_filter adds to the WHERE predicate; it never
    replaces it."""

    def paged(self, db, strategy, spec, page):
        rows = []
        source = QuerySource(db, PREDICATE, strategy, spec=spec)
        while True:
            chunk = [row for __, row in zip(range(page), source.open())]
            rows += chunk
            if len(chunk) < page:
                return rows
            state = loads(dumps(source.save()))
            source = QuerySource(db, PREDICATE, strategy, spec=spec)
            source.load(state)

    def test_a_keep_all_filter_changes_nothing(self, db):
        reference = list(db.execute(PREDICATE, "pipeline"))
        assert len(reference) == 10
        assert all(r.oid1 < 30 for r in reference)
        spec = JoinSpec(pair_filter=keep_all)
        for strategy in ("pipeline", "prefilter"):
            rows = list(db.execute(PREDICATE, strategy, spec=spec))
            assert spelled(rows) == spelled(reference), strategy

    @pytest.mark.parametrize("strategy", ["pipeline", "prefilter"])
    @pytest.mark.parametrize("page", [1, 3, 7])
    def test_saved_and_loaded_at_every_page(self, db, strategy, page):
        reference = list(db.execute(PREDICATE, "pipeline"))
        spec = JoinSpec(pair_filter=keep_all)
        assert spelled(self.paged(db, strategy, spec, page)) \
            == spelled(reference)

    def test_both_filters_hold(self, db):
        spec = JoinSpec(pair_filter=drop_odd_inner)
        pipeline = list(db.execute(PREDICATE, "pipeline", spec=spec))
        prefilter = list(db.execute(PREDICATE, "prefilter", spec=spec))
        assert len(pipeline) == 10
        assert all(r.oid1 < 30 and r.oid2 % 2 == 0 for r in pipeline)
        assert spelled(prefilter) == spelled(pipeline)


class TestExplainTakesThePin:
    def test_explain_reports_the_callers_policy(self, db):
        sql = f"{HEAD}ORDER BY d STOP AFTER 10"
        explained = db.explain(sql, node_policy="even").traversal
        assert str(explained) == "even (caller)"
        assert explained == db.physical_plan(
            sql, node_policy="even"
        ).explanation.traversal
        assert db.explain(sql).traversal.policy == "simultaneous"
