"""Tests for the join cost model and EXPLAIN (Section 5 future work).

The model assumes uniform data, so the tests check the properties an
optimizer needs -- monotonicity, sane bounds, and correct *ranking*
against measured counters -- rather than absolute accuracy.
"""

import pytest

from repro.bench.runner import run_join
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.spec import JoinSpec
from repro.query.costmodel import JoinCostModel, collect_stats
from repro.query.executor import Database
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree


@pytest.fixture(scope="module")
def model_setup():
    counters = CounterRegistry()
    points_a = make_points(300, seed=171)
    points_b = make_points(400, seed=172)
    tree_a = make_tree(points_a, counters=counters)
    tree_b = make_tree(points_b, counters=counters)
    return tree_a, tree_b, points_a, points_b, counters


class TestStats:
    def test_collect_stats_shape(self, model_setup):
        tree_a, *__ = model_setup
        stats = collect_stats(tree_a)
        assert stats.size == 300
        assert stats.height == tree_a.height
        assert len(stats.levels) == stats.height
        assert stats.levels[0].level == 0
        assert sum(
            l.nodes for l in stats.levels
        ) >= stats.height  # at least one node per level

    def test_empty_tree_stats(self):
        from repro.rtree.rstar import RStarTree
        stats = collect_stats(RStarTree(dim=2, max_entries=4))
        assert stats.size == 0


class TestSelectivity:
    def test_expected_pairs_monotone_in_distance(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        model = JoinCostModel(tree_a, tree_b)
        previous = -1.0
        for distance in (0.0, 1.0, 5.0, 20.0, 100.0):
            estimate = model.expected_pairs_within(distance)
            assert estimate >= previous
            previous = estimate

    def test_expected_pairs_capped_by_product(self, model_setup):
        tree_a, tree_b, points_a, points_b, __ = model_setup
        model = JoinCostModel(tree_a, tree_b)
        cap = len(points_a) * len(points_b)
        assert model.expected_pairs_within(float("inf")) == cap
        assert model.expected_pairs_within(1e9) == cap

    def test_expected_pairs_roughly_right_on_uniform_data(
        self, model_setup
    ):
        tree_a, tree_b, points_a, points_b, __ = model_setup
        from repro.geometry.metrics import EUCLIDEAN
        model = JoinCostModel(tree_a, tree_b)
        distance = 10.0
        actual = sum(
            1
            for a in points_a
            for b in points_b
            if EUCLIDEAN.distance(a, b) <= distance
        )
        predicted = model.expected_pairs_within(distance)
        # Uniform data, so the model should land within 2x.
        assert actual / 2 <= predicted <= actual * 2

    def test_distance_for_pairs_inverts(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        model = JoinCostModel(tree_a, tree_b)
        for pairs in (10, 1000, 50_000):
            distance = model.distance_for_pairs(pairs)
            back = model.expected_pairs_within(distance)
            assert back == pytest.approx(pairs, rel=0.05)


class TestCostRanking:
    def test_cost_monotone_in_distance_bound(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        model = JoinCostModel(tree_a, tree_b)
        costs = [
            model.estimate(max_distance=d).total_cost()
            for d in (1.0, 5.0, 25.0, float("inf"))
        ]
        assert costs == sorted(costs)

    def test_semi_join_cheaper_than_full_join(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        model = JoinCostModel(tree_a, tree_b)
        semi = model.estimate(semi_join=True)
        full = model.estimate()
        assert semi.total_cost() <= full.total_cost()

    def test_ranking_agrees_with_measurement(self, model_setup):
        """The model must rank a narrow-range join cheaper than a wide
        one, and the measurement must agree."""
        tree_a, tree_b, __, ___, counters = model_setup
        model = JoinCostModel(tree_a, tree_b)
        predicted_narrow = model.estimate(max_distance=2.0).total_cost()
        predicted_wide = model.estimate(max_distance=30.0).total_cost()
        assert predicted_narrow < predicted_wide

        measured = {}
        for label, dmax in (("narrow", 2.0), ("wide", 30.0)):
            run = run_join(
                lambda: IncrementalDistanceJoin(
                    tree_a, tree_b, JoinSpec(max_distance=dmax),
                    counters=counters,
                ),
                None,
                counters,
            )
            measured[label] = run.dist_calcs
        assert measured["narrow"] < measured["wide"]


class TestExplain:
    def test_explain_join(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        db = Database()
        db.create_relation("a", tree_a)
        db.create_relation("b", tree_b)
        plan = db.explain(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
            "WHERE d <= 5 ORDER BY d STOP AFTER 10"
        )
        assert plan.operator == "IncrementalDistanceJoin"
        assert plan.max_distance == 5.0
        assert plan.stop_after == 10
        assert plan.estimated_result_pairs <= 10
        assert plan.estimated_cost > 0
        assert "IncrementalDistanceJoin" in plan.pretty()

    def test_explain_semi_join(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        db = Database()
        db.create_relation("a", tree_a)
        db.create_relation("b", tree_b)
        plan = db.explain(
            "SELECT *, MIN(d) FROM a, b, DISTANCE(a.g, b.g) AS d "
            "GROUP BY a.g ORDER BY d"
        )
        assert plan.operator == "IncrementalDistanceSemiJoin"
        assert plan.estimated_result_pairs <= len(tree_a)

    def test_explain_reverse(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        db = Database()
        db.create_relation("a", tree_a)
        db.create_relation("b", tree_b)
        plan = db.explain(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d ORDER BY d DESC"
        )
        assert plan.operator == "ReverseDistanceJoin"

    def test_explain_does_not_execute(self, model_setup):
        tree_a, tree_b, __, ___, counters = model_setup
        db = Database()
        db.create_relation("a", tree_a)
        db.create_relation("b", tree_b)
        counters.reset()
        db.explain("SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d")
        assert counters.value("dist_calcs") == 0
        assert counters.value("pairs_reported") == 0

    def test_stop_after_lowers_estimated_cost(self, model_setup):
        tree_a, tree_b, *__ = model_setup
        db = Database()
        db.create_relation("a", tree_a)
        db.create_relation("b", tree_b)
        bounded = db.explain(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d STOP AFTER 10"
        )
        unbounded = db.explain(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d"
        )
        assert bounded.estimated_cost < unbounded.estimated_cost