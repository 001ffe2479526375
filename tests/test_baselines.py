"""Tests for the non-incremental baselines and their equivalence to
the incremental algorithms."""

import pytest

from repro.baselines.nested_loop import nested_loop_join, nested_loop_join_iter
from repro.baselines.nn_semijoin import nn_semi_join
from repro.baselines.within_join import within_join, within_join_adaptive
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.util.counters import CounterRegistry

from tests.conftest import (
    brute_force_nn,
    brute_force_pairs,
    make_points,
    make_tree,
)


@pytest.fixture(scope="module")
def base_setup():
    points_a = make_points(30, seed=81)
    points_b = make_points(40, seed=82)
    return (
        points_a,
        points_b,
        make_tree(points_a),
        make_tree(points_b),
        brute_force_pairs(points_a, points_b),
    )


class TestNestedLoop:
    def test_full_join(self, base_setup):
        points_a, points_b, __, ___, truth = base_setup
        got = nested_loop_join(points_a, points_b)
        assert len(got) == len(truth)
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth]
        )

    def test_max_pairs_bounded_heap(self, base_setup):
        points_a, points_b, __, ___, truth = base_setup
        got = nested_loop_join(points_a, points_b, max_pairs=17)
        assert len(got) == 17
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth[:17]]
        )

    def test_distance_range(self, base_setup):
        points_a, points_b, __, ___, truth = base_setup
        got = nested_loop_join(
            points_a, points_b, min_distance=10.0, max_distance=20.0
        )
        expected = [t for t in truth if 10.0 <= t[0] <= 20.0]
        assert len(got) == len(expected)

    def test_counts_all_distances(self, base_setup):
        points_a, points_b, *__ = base_setup
        counters = CounterRegistry()
        nested_loop_join(points_a, points_b, counters=counters)
        assert counters.value("dist_calcs") == len(points_a) * len(points_b)

    def test_iter_variant_pays_everything_up_front(self, base_setup):
        points_a, points_b, *__ = base_setup
        counters = CounterRegistry()
        iterator = nested_loop_join_iter(
            points_a, points_b, counters=counters
        )
        next(iterator)
        # Even one result costs the full Cartesian product.
        assert counters.value("dist_calcs") == len(points_a) * len(points_b)

    def test_agrees_with_incremental(self, base_setup):
        points_a, points_b, tree_a, tree_b, __ = base_setup
        incremental = list(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=50), counters=CounterRegistry(),
        ))
        brute = nested_loop_join(points_a, points_b, max_pairs=50)
        assert [r.distance for r in incremental] == pytest.approx(
            [r.distance for r in brute]
        )


class TestNNSemiJoin:
    def test_matches_brute_force(self, base_setup):
        points_a, points_b, __, tree_b, ___ = base_setup
        nn = brute_force_nn(points_a, points_b)
        got = nn_semi_join(list(enumerate(points_a)), tree_b)
        assert len(got) == len(points_a)
        for result in got:
            assert result.distance == pytest.approx(nn[result.oid1][0])

    def test_sorted_output(self, base_setup):
        points_a, __, ___, tree_b, ____ = base_setup
        got = nn_semi_join(list(enumerate(points_a)), tree_b)
        ds = [r.distance for r in got]
        assert ds == sorted(ds)

    def test_max_pairs_truncates(self, base_setup):
        points_a, __, ___, tree_b, ____ = base_setup
        got = nn_semi_join(list(enumerate(points_a)), tree_b, max_pairs=5)
        assert len(got) == 5

    def test_agrees_with_incremental_semi_join(self, base_setup):
        points_a, __, tree_a, tree_b, ___ = base_setup
        incremental = list(IncrementalDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ))
        baseline = nn_semi_join(list(enumerate(points_a)), tree_b)
        assert [r.distance for r in incremental] == pytest.approx(
            [r.distance for r in baseline]
        )

    def test_empty_outer(self, base_setup):
        __, ___, ____, tree_b, _____ = base_setup
        assert nn_semi_join([], tree_b) == []


class TestWithinJoin:
    def test_matches_brute_force(self, base_setup):
        __, ___, tree_a, tree_b, truth = base_setup
        got = within_join(tree_a, tree_b, distance=15.0)
        expected = [t for t in truth if t[0] <= 15.0]
        assert len(got) == len(expected)
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in expected]
        )

    def test_min_distance(self, base_setup):
        __, ___, tree_a, tree_b, truth = base_setup
        got = within_join(
            tree_a, tree_b, distance=15.0, min_distance=5.0
        )
        expected = [t for t in truth if 5.0 <= t[0] <= 15.0]
        assert len(got) == len(expected)

    def test_zero_distance_finds_coincident_only(self, base_setup):
        __, ___, tree_a, tree_b, truth = base_setup
        got = within_join(tree_a, tree_b, distance=0.0)
        expected = [t for t in truth if t[0] == 0.0]
        assert len(got) == len(expected)

    def test_adaptive_restarts_until_enough(self, base_setup):
        __, ___, tree_a, tree_b, truth = base_setup
        counters = CounterRegistry()
        got = within_join_adaptive(
            tree_a, tree_b, max_pairs=20, initial_distance=0.01,
            counters=counters,
        )
        assert len(got) == 20
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth[:20]]
        )
        assert counters.value("within_join_restarts") > 0

    def test_empty_tree(self):
        from repro.rtree.rstar import RStarTree
        empty = RStarTree(dim=2, max_entries=4)
        other = make_tree(make_points(5, seed=1))
        assert within_join(empty, other, distance=10.0) == []
