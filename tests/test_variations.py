"""Tests for the Section 1 / 2.2.5 variations: closest pair, all
nearest neighbours, and the reference-ordered intersection join."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.spec import JoinSpec
from repro.core.variations import (
    IntersectionJoin,
    all_nearest_neighbors,
    closest_pair,
    closest_pairs,
    intersection_join,
)
from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.geometry.shapes import LineSegment
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree


def brute_closest_pair(points):
    return min(
        (EUCLIDEAN.distance(a, b), i, j)
        for i, a in enumerate(points)
        for j, b in enumerate(points)
        if i < j
    )


class TestClosestPair:
    def test_matches_brute_force(self):
        points = make_points(80, seed=121)
        tree = make_tree(points)
        result = closest_pair(tree)
        expected = brute_closest_pair(points)
        assert result.distance == pytest.approx(expected[0])
        assert {result.oid1, result.oid2} == {expected[1], expected[2]}

    def test_too_few_objects(self):
        tree = RStarTree(dim=2, max_entries=4)
        assert closest_pair(tree) is None
        tree.insert_point((0, 0))
        assert closest_pair(tree) is None

    def test_closest_pairs_enumerates_all_unordered(self):
        points = make_points(15, seed=122)
        tree = make_tree(points, max_entries=4)
        got = list(closest_pairs(tree))
        n = len(points)
        assert len(got) == n * (n - 1) // 2
        assert all(r.oid1 < r.oid2 for r in got)
        ds = [r.distance for r in got]
        assert ds == sorted(ds)

    def test_no_self_pairs_even_with_duplicates(self):
        tree = RStarTree(dim=2, max_entries=4)
        for __ in range(4):
            tree.insert_point((1.0, 1.0))
        result = closest_pair(tree)
        assert result.distance == 0.0
        assert result.oid1 != result.oid2

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)),
            min_size=2, max_size=40, unique=True,
        )
    )
    def test_property_closest_pair(self, raw):
        points = [Point(xy) for xy in raw]
        tree = make_tree(points, max_entries=4)
        result = closest_pair(tree)
        assert result.distance == pytest.approx(
            brute_closest_pair(points)[0]
        )


class TestAllNearestNeighbors:
    def test_matches_brute_force(self):
        points = make_points(50, seed=123)
        tree = make_tree(points)
        got = list(all_nearest_neighbors(tree))
        assert len(got) == len(points)
        for result in got:
            assert result.oid1 != result.oid2
            expected = min(
                EUCLIDEAN.distance(points[result.oid1], q)
                for j, q in enumerate(points)
                if j != result.oid1
            )
            assert result.distance == pytest.approx(expected)

    def test_sorted_by_distance(self):
        tree = make_tree(make_points(40, seed=124))
        ds = [r.distance for r in all_nearest_neighbors(tree)]
        assert ds == sorted(ds)

    def test_pipelined(self):
        tree = make_tree(make_points(30, seed=125))
        ann = all_nearest_neighbors(tree)
        first = next(ann)
        rest = list(ann)
        assert len(rest) == len(tree) - 1
        assert all(first.distance <= r.distance + 1e-12 for r in rest)


class TestIntersectionJoin:
    def grid_segments(self, horizontal):
        segments = []
        for i in range(5):
            c = 10.0 * i
            if horizontal:
                segments.append(
                    LineSegment(Point((0.0, c)), Point((40.0, c)))
                )
            else:
                segments.append(
                    LineSegment(Point((c, 0.0)), Point((c, 40.0)))
                )
        return segments

    def test_crossings_in_reference_order(self):
        roads = self.grid_segments(horizontal=True)
        rivers = self.grid_segments(horizontal=False)
        tree_r = bulk_load_str(roads, max_entries=4)
        tree_v = bulk_load_str(rivers, max_entries=4)
        house = Point((12.0, 17.0))
        got = list(intersection_join(tree_r, tree_v, house))
        assert len(got) == 25  # full 5x5 grid of crossings
        # Distances from the house must be non-decreasing and correct.
        previous = -1.0
        for result in got:
            crossing = Point((
                rivers[result.oid2].a.x, roads[result.oid1].a.y
            ))
            expected = EUCLIDEAN.distance(house, crossing)
            assert result.reference_distance == pytest.approx(expected)
            assert result.reference_distance >= previous - 1e-12
            previous = result.reference_distance

    def test_nearest_crossing_first(self):
        roads = self.grid_segments(horizontal=True)
        rivers = self.grid_segments(horizontal=False)
        tree_r = bulk_load_str(roads, max_entries=4)
        tree_v = bulk_load_str(rivers, max_entries=4)
        house = Point((21.0, 29.0))
        first = next(intersection_join(tree_r, tree_v, house))
        # Closest grid crossing to (21, 29) is (20, 30).
        assert first.reference_distance == pytest.approx(
            EUCLIDEAN.distance(house, Point((20.0, 30.0)))
        )

    def test_disjoint_sets_yield_nothing(self):
        a = bulk_load_str(
            [Point((float(i), 0.0)) for i in range(5)], max_entries=4
        )
        b = bulk_load_str(
            [Point((float(i), 10.0)) for i in range(5)], max_entries=4
        )
        assert list(intersection_join(a, b, Point((0, 0)))) == []

    def test_point_sets_intersect_on_equality(self):
        shared = Point((3.0, 3.0))
        a = bulk_load_str(
            [shared, Point((0.0, 0.0))], max_entries=4
        )
        b = bulk_load_str(
            [shared, Point((9.0, 9.0))], max_entries=4
        )
        got = list(intersection_join(a, b, Point((0, 0))))
        assert len(got) == 1
        assert got[0].obj1 == shared

    def test_empty_tree(self):
        empty = RStarTree(dim=2, max_entries=4)
        other = bulk_load_str([Point((0.0, 0.0))], max_entries=4)
        assert list(IntersectionJoin(
            empty, other, Point((0, 0))
        )) == []

    def test_lazy_consumption(self):
        roads = self.grid_segments(horizontal=True)
        rivers = self.grid_segments(horizontal=False)
        join = IntersectionJoin(
            bulk_load_str(roads, max_entries=4),
            bulk_load_str(rivers, max_entries=4),
            Point((0.0, 0.0)),
        )
        first = next(join)
        second = next(join)
        assert first.reference_distance <= second.reference_distance


class TestFilterInteractsWithDmax:
    def test_self_semijoin_local_dmax_correct(self):
        """Regression: the self-pair (o, o) must not poison the Local
        d_max bound -- pair_filter runs before bound derivation."""
        points = make_points(40, seed=126)
        tree = make_tree(points)
        got = list(all_nearest_neighbors(
            tree, JoinSpec(dmax_strategy="local"), counters=CounterRegistry(),
        ))
        assert len(got) == len(points)
        for result in got:
            expected = min(
                EUCLIDEAN.distance(points[result.oid1], q)
                for j, q in enumerate(points)
                if j != result.oid1
            )
            assert result.distance == pytest.approx(expected)
