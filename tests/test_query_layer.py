"""Tests for the SQL dialect: lexer, parser, executor."""

import pytest

from repro.errors import QueryError, QuerySyntaxError
from repro.geometry.point import Point
from repro.query.executor import Database
from repro.query.lexer import tokenize
from repro.query.parser import parse
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_nn, brute_force_pairs, make_points

JOIN_SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d ORDER BY d"
)
SEMI_SQL = (
    "SELECT *, MIN(d) FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "GROUP BY a.geom ORDER BY d"
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_preserve_case(self):
        tokens = tokenize("MyRel")
        assert tokens[0].type == "IDENT"
        assert tokens[0].text == "MyRel"

    def test_numbers(self):
        tokens = tokenize("3 3.5 1e3 2.5e-2")
        values = [float(t.text) for t in tokens[:-1]]
        assert values == [3.0, 3.5, 1000.0, 0.025]

    def test_operators(self):
        tokens = tokenize("< <= > >= =")
        assert [t.text for t in tokens[:-1]] == ["<", "<=", ">", ">=", "="]

    def test_punctuation(self):
        tokens = tokenize("(a, b.*)")
        assert [t.text for t in tokens[:-1]] == [
            "(", "a", ",", "b", ".", "*", ")"
        ]

    def test_junk_rejected_with_position(self):
        with pytest.raises(QuerySyntaxError) as info:
            tokenize("SELECT @")
        assert info.value.position == 7

    def test_eof_token(self):
        assert tokenize("")[-1].type == "EOF"


class TestParser:
    def test_join_query(self):
        q = parse(JOIN_SQL)
        assert (q.relation1, q.relation2) == ("a", "b")
        assert not q.is_semi_join
        assert q.alias == "d"
        assert q.stop_after is None

    def test_semi_join_query(self):
        q = parse(SEMI_SQL)
        assert q.is_semi_join
        assert q.select_min

    def test_stop_after(self):
        q = parse(JOIN_SQL + " STOP AFTER 42")
        assert q.stop_after == 42

    def test_stop_after_requires_positive_integer(self):
        with pytest.raises(QuerySyntaxError):
            parse(JOIN_SQL + " STOP AFTER 2.5")
        with pytest.raises(QuerySyntaxError):
            parse(JOIN_SQL + " STOP AFTER 0")

    def test_where_range(self):
        q = parse(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
            "WHERE d >= 2 AND d <= 8"
        )
        assert q.distance_bounds() == (2.0, 8.0)

    def test_where_between(self):
        q = parse(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
            "WHERE d BETWEEN 1 AND 3"
        )
        assert q.distance_bounds() == (1.0, 3.0)

    def test_where_flipped_operands(self):
        q = parse(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d WHERE 5 >= d"
        )
        assert q.distance_bounds() == (0.0, 5.0)

    def test_order_desc(self):
        q = parse(JOIN_SQL + " DESC")
        assert q.descending

    def test_custom_alias(self):
        q = parse(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS dist "
            "WHERE dist <= 4 ORDER BY dist"
        )
        assert q.alias == "dist"
        assert q.distance_bounds() == (0.0, 4.0)

    def test_order_by_wrong_alias_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse("SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d ORDER BY x")

    def test_where_wrong_alias_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse("SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d WHERE x <= 3")

    def test_distance_args_must_match_from_order(self):
        with pytest.raises(QuerySyntaxError):
            parse("SELECT * FROM a, b, DISTANCE(b.g, a.g) AS d")

    def test_group_by_must_target_first_relation(self):
        with pytest.raises(QuerySyntaxError):
            parse(
                "SELECT *, MIN(d) FROM a, b, DISTANCE(a.g, b.g) AS d "
                "GROUP BY b.g"
            )

    def test_contradictory_range_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse(
                "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
                "WHERE d >= 9 AND d <= 2"
            )

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse(JOIN_SQL + " banana")

    def test_missing_from_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse("SELECT *")


class TestExecutor:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database(counters=CounterRegistry())
        self.points_a = make_points(25, seed=91)
        self.points_b = make_points(30, seed=92)
        database.create_relation("a", self.points_a)
        database.create_relation("b", self.points_b)
        database._test_points = (self.points_a, self.points_b)
        return database

    def test_join_matches_brute_force(self, db):
        points_a, points_b = db._test_points
        rows = list(db.execute(JOIN_SQL + " STOP AFTER 40"))
        truth = brute_force_pairs(points_a, points_b)[:40]
        assert [r.d for r in rows] == pytest.approx([t[0] for t in truth])

    def test_semi_join(self, db):
        points_a, points_b = db._test_points
        rows = list(db.execute(SEMI_SQL))
        nn = brute_force_nn(points_a, points_b)
        assert len(rows) == len(points_a)
        for row in rows:
            assert row.d == pytest.approx(nn[row.oid1][0])

    def test_stop_after_is_lazy(self, db):
        counters = db.counters
        counters.reset()
        rows = list(db.execute(JOIN_SQL + " STOP AFTER 1"))
        cost_one = counters.value("dist_calcs")
        counters.reset()
        list(db.execute(JOIN_SQL + " STOP AFTER 300"))
        cost_many = counters.value("dist_calcs")
        assert len(rows) == 1
        assert cost_one <= cost_many

    def test_where_range_execution(self, db):
        points_a, points_b = db._test_points
        rows = list(db.execute(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "WHERE d BETWEEN 10 AND 20 ORDER BY d"
        ))
        truth = [
            t for t in brute_force_pairs(points_a, points_b)
            if 10.0 <= t[0] <= 20.0
        ]
        assert len(rows) == len(truth)

    def test_order_desc_execution(self, db):
        rows = list(db.execute(JOIN_SQL + " DESC STOP AFTER 10"))
        ds = [r.d for r in rows]
        assert ds == sorted(ds, reverse=True)

    def test_join_kwargs_forwarded(self, db):
        rows = list(db.execute(
            JOIN_SQL + " STOP AFTER 5", node_policy="simultaneous"
        ))
        assert len(rows) == 5

    def test_unknown_relation(self, db):
        with pytest.raises(QueryError):
            list(db.execute(
                "SELECT * FROM nope, b, DISTANCE(nope.g, b.g) AS d"
            ))

    def test_duplicate_relation_rejected(self, db):
        with pytest.raises(QueryError):
            db.create_relation("a", [Point((0, 0))])

    def test_drop_relation(self):
        db = Database()
        db.create_relation("x", [Point((0, 0))])
        db.drop_relation("x")
        assert db.relations() == []
        with pytest.raises(QueryError):
            db.drop_relation("x")

    def test_create_without_bulk(self):
        db = Database()
        tree = db.create_relation("x", make_points(20, seed=93), bulk=False)
        assert len(tree) == 20

    def test_plan_returns_configured_join(self, db):
        from repro.core.distance_join import IncrementalDistanceJoin
        from repro.core.semi_join import IncrementalDistanceSemiJoin

        join = db.physical_plan(JOIN_SQL + " STOP AFTER 7").open_join()
        assert isinstance(join, IncrementalDistanceJoin)
        assert join.max_pairs == 7
        semi = db.physical_plan(SEMI_SQL).open_join()
        assert isinstance(semi, IncrementalDistanceSemiJoin)

    def test_segment_relations(self):
        """Relations of extended objects flow through the SQL layer."""
        from repro.datasets.tiger_like import (
            roads_segments,
            water_segments,
        )
        water = water_segments(15)
        roads = roads_segments(25)
        db = Database()
        db.create_relation("water", water)
        db.create_relation("roads", roads)
        rows = list(db.execute(
            "SELECT * FROM water, roads, "
            "DISTANCE(water.geom, roads.geom) AS d "
            "ORDER BY d STOP AFTER 10"
        ))
        truth = sorted(
            w.distance_to(r) for w in water for r in roads
        )[:10]
        assert [r.d for r in rows] == pytest.approx(truth)

    def test_rows_carry_geometry(self, db):
        points_a, points_b = db._test_points
        row = next(iter(db.execute(JOIN_SQL + " STOP AFTER 1")))
        assert row.geom1 == points_a[row.oid1]
        assert row.geom2 == points_b[row.oid2]
