"""Tests for the reverse (farthest-first) join variants."""

import pytest

from repro.core.reverse import ReverseDistanceJoin, ReverseDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.metrics import EUCLIDEAN
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_pairs, make_points, make_tree


def take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) == n:
            break
    return out


@pytest.fixture(scope="module")
def reverse_setup():
    points_a = make_points(40, seed=71)
    points_b = make_points(50, seed=72)
    tree_a = make_tree(points_a)
    tree_b = make_tree(points_b)
    truth = brute_force_pairs(points_a, points_b)
    return tree_a, tree_b, points_a, points_b, truth


class TestReverseJoin:
    def test_farthest_pairs_first(self, reverse_setup):
        tree_a, tree_b, __, ___, truth = reverse_setup
        join = ReverseDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        got = take(join, 100)
        expected = [t[0] for t in truth[::-1][:100]]
        assert [r.distance for r in got] == pytest.approx(expected)

    def test_full_reverse_join(self, reverse_setup):
        tree_a, tree_b, points_a, points_b, truth = reverse_setup
        got = list(ReverseDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ))
        assert len(got) == len(points_a) * len(points_b)
        ds = [r.distance for r in got]
        assert ds == sorted(ds, reverse=True)

    def test_range_restriction(self, reverse_setup):
        tree_a, tree_b, __, ___, truth = reverse_setup
        join = ReverseDistanceJoin(
            tree_a, tree_b, JoinSpec(min_distance=40.0, max_distance=80.0),
            counters=CounterRegistry(),
        )
        got = list(join)
        expected = [t[0] for t in truth if 40.0 <= t[0] <= 80.0]
        assert len(got) == len(expected)
        assert got[0].distance == pytest.approx(max(expected))

    def test_max_pairs(self, reverse_setup):
        tree_a, tree_b, __, ___, truth = reverse_setup
        got = list(ReverseDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=7), counters=CounterRegistry(),
        ))
        assert len(got) == 7
        assert got[0].distance == pytest.approx(truth[-1][0])

    def test_hybrid_queue_degenerates_safely(self, reverse_setup):
        """Descending keys are negative, so the hybrid queue's bands
        never activate -- it must still produce correct order (it
        simply behaves like the memory queue)."""
        tree_a, tree_b, __, ___, truth = reverse_setup
        join = ReverseDistanceJoin(
            tree_a, tree_b, JoinSpec(queue="hybrid", queue_dt=10.0),
            counters=CounterRegistry(),
        )
        got = take(join, 50)
        expected = [t[0] for t in truth[::-1][:50]]
        assert [r.distance for r in got] == pytest.approx(expected)

    def test_breadth_first_tie_break(self, reverse_setup):
        tree_a, tree_b, __, ___, truth = reverse_setup
        join = ReverseDistanceJoin(
            tree_a, tree_b, JoinSpec(tie_break="breadth_first"),
            counters=CounterRegistry(),
        )
        got = take(join, 50)
        expected = [t[0] for t in truth[::-1][:50]]
        assert [r.distance for r in got] == pytest.approx(expected)


class TestReverseSemiJoin:
    def test_farthest_neighbor_per_outer(self, reverse_setup):
        tree_a, tree_b, points_a, points_b, __ = reverse_setup
        got = list(ReverseDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ))
        assert len(got) == len(points_a)
        for result in got:
            farthest = max(
                EUCLIDEAN.distance(points_a[result.oid1], b)
                for b in points_b
            )
            assert result.distance == pytest.approx(farthest)

    def test_descending_order(self, reverse_setup):
        tree_a, tree_b, *__ = reverse_setup
        ds = [
            r.distance
            for r in ReverseDistanceSemiJoin(
                tree_a, tree_b, counters=CounterRegistry()
            )
        ]
        assert ds == sorted(ds, reverse=True)

    def test_unique_outer_objects(self, reverse_setup):
        tree_a, tree_b, points_a, __, ___ = reverse_setup
        got = list(ReverseDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ))
        oids = [r.oid1 for r in got]
        assert sorted(oids) == list(range(len(points_a)))

    def test_pipelined(self, reverse_setup):
        tree_a, tree_b, points_a, __, ___ = reverse_setup
        semi = ReverseDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        first = take(semi, 3)
        rest = list(semi)
        assert len(first) + len(rest) == len(points_a)
