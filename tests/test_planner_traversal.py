"""The planner's traversal choice and the tie contract that makes it
invisible: which node policy each statement shape runs, that the
choice costs no stats walk and no counter, and that every plan -- any
node policy, SHARDS, PARALLEL, a cursor saved and loaded at every
page -- returns the same rows, byte for byte, on data full of distance
ties."""

import random

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.datasets.tiger_like import (
    ROADS_FULL_SIZE,
    WATER_FULL_SIZE,
    roads_points,
    water_points,
)
from repro.errors import CursorError
from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.query import costmodel
from repro.query.executor import Database
from repro.query.physical import SIMULTANEOUS_LEAF_FRACTION, Traversal
from repro.rtree.bulk import bulk_load_str
from repro.service.cursor import dumps, loads
from repro.service.session import QuerySource
from repro.shard import clear_caches
from repro.util.counters import CounterRegistry

HEAD = "SELECT * FROM water, roads, DISTANCE(water.geom, roads.geom) AS d "
SEMI = (
    "SELECT *, MIN(d) FROM water, roads, "
    "DISTANCE(water.geom, roads.geom) AS d GROUP BY water.geom "
)


@pytest.fixture(scope="module")
def maps_db():
    """Water x Roads at the benchmark's scale 0.05 (1 874 x 10 024),
    with the service workload's two attributes."""
    counters = CounterRegistry()
    db = Database(counters=counters)
    rng = random.Random(1999)
    for name, points, attribute, draw in (
        ("water", water_points(int(WATER_FULL_SIZE * 0.05)), "area",
         lambda: rng.uniform(0.0, 100.0)),
        ("roads", roads_points(int(ROADS_FULL_SIZE * 0.05)), "lanes",
         lambda: float(rng.randint(1, 8))),
    ):
        tree = bulk_load_str(
            points, max_entries=50, buffer_pages=256, counters=counters,
        )
        db.create_relation(
            name, tree, attributes={attribute: [draw() for __ in points]}
        )
    return db


#: The thirteen statements of the service benchmark, the live
#: workload's ad-hoc read, and the policy the planner picks for each.
STATEMENTS = [
    (f"{HEAD}WHERE d >= {x} ORDER BY d STOP AFTER 10", "auto",
     "simultaneous")
    for x in (0, 5, 10, 20, 40, 80)
] + [
    (f"{HEAD}ORDER BY d STOP AFTER 1000", "auto", "simultaneous"),
    (f"{HEAD}WHERE d >= 2 ORDER BY d STOP AFTER 1000", "auto",
     "simultaneous"),
    (f"{HEAD}WHERE d <= 25 ORDER BY d", "auto", "simultaneous"),
    (f"{SEMI}ORDER BY d STOP AFTER 500", "auto", "even"),
    (f"{HEAD}WHERE water.area > 90 ORDER BY d STOP AFTER 500",
     "prefilter", "simultaneous"),
    (f"{HEAD}WHERE roads.lanes >= 6 ORDER BY d STOP AFTER 500",
     "pipeline", "even"),
    (f"{HEAD}ORDER BY d STOP AFTER 1000 SHARDS 4", "auto", "even"),
    (f"{HEAD}ORDER BY d STOP AFTER 10", "auto", "simultaneous"),
]


class TestTraversalChoice:
    @pytest.mark.parametrize(
        "sql, strategy, policy", STATEMENTS,
        ids=[f"stmt{i}" for i in range(len(STATEMENTS))],
    )
    def test_statement_shapes(self, maps_db, sql, strategy, policy):
        plan = maps_db.physical_plan(sql, strategy=strategy)
        assert plan.join_op.traversal.policy == policy
        assert plan.join_op.spec.node_policy == policy

    @pytest.mark.parametrize("sql, reason, policy", [
        (f"{HEAD}ORDER BY d STOP AFTER 10000", "D ~ 130.2 > ", "even"),
        (f"{HEAD}WHERE d <= 200 ORDER BY d", "D ~ 200.0 > ", "even"),
        (f"{HEAD}WHERE d <= 100 ORDER BY d", "D ~ 100.0 <= ",
         "simultaneous"),
        (f"{HEAD}ORDER BY d", "unbounded", "even"),
        (f"{HEAD}ORDER BY d DESC STOP AFTER 10", "DESC", "even"),
        (f"{HEAD}ORDER BY d STOP AFTER 10 PARALLEL 2", "SHARDS", "even"),
        (f"{SEMI}ORDER BY d STOP AFTER 10", "semi-join", "even"),
        (f"{HEAD}WHERE water.area > 90 ORDER BY d STOP AFTER 10",
         "pushed-down predicate", "even"),
    ])
    def test_bound_against_leaf(self, maps_db, sql, reason, policy):
        traversal = maps_db.physical_plan(
            sql, strategy="pipeline"
        ).join_op.traversal
        assert traversal.policy == policy
        assert traversal.reason.startswith(reason)

    def test_explain_prints_the_plans_choice(self, maps_db):
        plan = maps_db.physical_plan(f"{HEAD}ORDER BY d STOP AFTER 10")
        line = (
            f"  traversal: simultaneous (D ~ 4.1 <= "
            f"{SIMULTANEOUS_LEAF_FRACTION:g} x leaf 591)"
        )
        assert line in plan.explanation.pretty().splitlines()
        assert plan.explanation.traversal is plan.join_op.traversal

    @pytest.mark.parametrize("policy, shown", [
        ("even", "even (caller)"),
        ("basic", "basic (caller)"),
    ])
    def test_an_explicit_policy_wins(self, maps_db, policy, shown):
        plan = maps_db.physical_plan(
            f"{HEAD}ORDER BY d STOP AFTER 10", node_policy=policy
        )
        assert str(plan.join_op.traversal) == shown
        assert plan.open_join().node_policy == policy

    def test_quadtree_relations_keep_even(self):
        db = Database()
        db.create_relation("a", grid_points(30, 1), index="quadtree")
        db.create_relation("b", grid_points(30, 2))
        plan = db.physical_plan(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d STOP AFTER 5"
        )
        assert plan.join_op.traversal == Traversal(
            "even", "no R-tree fan-out"
        )

    def test_choosing_walks_nothing_and_charges_nothing(
        self, maps_db, monkeypatch
    ):
        def walk(tree):
            raise AssertionError("the traversal choice walked a tree")

        monkeypatch.setattr(costmodel, "collect_stats", walk)
        counters = maps_db.counters
        before = counters.full_snapshot()
        plan = maps_db.physical_plan(f"{HEAD}ORDER BY d STOP AFTER 10")
        assert counters.full_snapshot().delta_from(before).values == {}
        assert len(list(plan.rows())) == 10
        assert plan.join_op.traversal.policy == "simultaneous"


# ----------------------------------------------------------------------
# the tie contract
# ----------------------------------------------------------------------


def grid_points(count, seed, side=9):
    """Points on an integer lattice, duplicates included: nearly every
    distance is shared by many pairs."""
    rng = random.Random(seed)
    return [
        Point((float(rng.randrange(side)), float(rng.randrange(side))))
        for __ in range(count)
    ]


GRID_A = grid_points(60, 71)
GRID_B = grid_points(75, 72)

#: Every pair in canonical (distance, oid1, oid2) order.
TRUTH = sorted(
    (EUCLIDEAN.distance(a, b), i, j)
    for i, a in enumerate(GRID_A)
    for j, b in enumerate(GRID_B)
)


def inside_tie_group(k):
    """The first cap at or after ``k`` that splits a tie group."""
    while TRUTH[k - 1][0] != TRUTH[k][0]:
        k += 1
    return k


GRID_HEAD = "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
CAP = inside_tie_group(150)
GRID_QUERIES = [
    f"{GRID_HEAD}ORDER BY d STOP AFTER {CAP}",
    f"{GRID_HEAD}ORDER BY d STOP AFTER {inside_tie_group(7)}",
    f"{GRID_HEAD}WHERE d >= 2 AND d <= 3 ORDER BY d",
    f"{GRID_HEAD}ORDER BY d",
]

#: Every way to run the statements: SQL hint suffix, join keywords.
VARIANTS = [("", None)] + [
    (f" {hint}", None) for hint in ("SHARDS 2", "SHARDS 4", "PARALLEL 2")
] + [("", policy) for policy in ("basic", "even", "simultaneous")]


def grid_db():
    db = Database()
    db.create_relation("a", GRID_A)
    db.create_relation("b", GRID_B)
    return db


def spelled(rows):
    """Rows as bytes: distance bits, ids and both geometries."""
    return "\n".join(
        f"{r.d.hex()} {r.oid1} {r.oid2} "
        + " ".join(c.hex() for c in r.geom1.coords + r.geom2.coords)
        for r in rows
    ).encode()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestTiesAreCanonical:
    def test_the_data_ties(self):
        assert TRUTH[CAP - 1][0] == TRUTH[CAP][0]
        assert len({d for d, __, ___ in TRUTH}) < len(TRUTH) / 50

    @pytest.mark.parametrize("sql", GRID_QUERIES)
    def test_every_plan_returns_the_same_bytes(self, sql):
        db = grid_db()
        low, high = db.physical_plan(sql).query.distance_bounds()
        stop = db.physical_plan(sql).query.stop_after
        truth = [t for t in TRUTH if low <= t[0] <= high][:stop]
        reference = None
        for hint, policy in VARIANTS:
            rows = list(db.execute(sql + hint, node_policy=policy))
            assert [(r.d, r.oid1, r.oid2) for r in rows] == truth, (
                hint, policy
            )
            if reference is None:
                reference = spelled(rows)
            assert spelled(rows) == reference, (hint, policy)

    @pytest.mark.parametrize("policy", ["even", "simultaneous"])
    @pytest.mark.parametrize("page", [1, 7, 40])
    def test_saved_and_loaded_at_every_page(self, policy, page):
        sql = GRID_QUERIES[0]
        db = grid_db()
        whole = list(db.execute(sql, node_policy=policy))
        paged = []
        source = QuerySource(db, sql, node_policy=policy)
        while True:
            rows = source.open()
            chunk = [row for __, row in zip(range(page), rows)]
            paged += chunk
            if len(chunk) < page:
                break
            state = loads(dumps(source.save()))
            source = QuerySource(db, sql, node_policy=policy)
            source.load(state)
        assert spelled(paged) == spelled(whole)
        assert len(whole) == CAP

    def test_semi_join_rows_agree_but_partners_may_not(self):
        sql = (
            "SELECT *, MIN(d) FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "GROUP BY a.geom ORDER BY d STOP AFTER 25"
        )
        db = grid_db()
        nearest = sorted(
            (min(EUCLIDEAN.distance(a, b) for b in GRID_B), i)
            for i, a in enumerate(GRID_A)
        )[:25]
        for hint, policy in VARIANTS:
            rows = list(db.execute(sql + hint, node_policy=policy))
            assert [(r.d, r.oid1) for r in rows] == nearest, (hint, policy)

    def test_cap_completes_the_group_before_truncating(self):
        """The tie tail past the cap is read (the join's bound rises),
        then the Limit keeps the canonical first K."""
        db = grid_db()
        plan = db.physical_plan(GRID_QUERIES[0], node_policy="even")
        rows = list(plan.rows())
        join = plan.open_join()
        assert isinstance(join, IncrementalDistanceJoin)
        assert join.max_pairs > CAP
        assert len(rows) == CAP

    def test_an_older_plan_cursor_is_refused(self):
        db = grid_db()
        plan = db.physical_plan(GRID_QUERIES[0])
        rows = plan.rows()
        next(rows)
        state = plan.save()

        def downgrade(node):
            version = 1 if node.operator == "DistanceJoinOp" \
                else node.version
            return node._replace(
                version=version,
                children=tuple(downgrade(c) for c in node.children),
            )

        with pytest.raises(CursorError, match="version 1"):
            db.physical_plan(GRID_QUERIES[0]).restore(downgrade(state))
