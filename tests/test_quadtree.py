"""Tests for the PR quadtree substrate and its use by the joins."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.quadtree import PRQuadtree, validate_quadtree
from repro.rtree.queries import incremental_nearest
from repro.util.counters import CounterRegistry

from tests.conftest import (
    brute_force_nn,
    brute_force_pairs,
    make_points,
    make_tree,
)

UNIVERSE = Rect((0.0, 0.0), (100.0, 100.0))


def make_quadtree(points, bucket=4):
    tree = PRQuadtree(UNIVERSE, bucket_capacity=bucket)
    for point in points:
        tree.insert(point)
    return tree


class TestStructure:
    def test_empty(self):
        tree = PRQuadtree(UNIVERSE)
        assert len(tree) == 0
        assert tree.bounds() is None
        validate_quadtree(tree)

    def test_insert_and_validate(self):
        tree = make_quadtree(make_points(300, seed=131))
        assert len(tree) == 300
        validate_quadtree(tree)

    def test_unbalanced_by_construction(self):
        # A dense cluster plus a sparse rest makes leaf depths differ.
        rng = random.Random(132)
        cluster = [
            Point((rng.uniform(0, 2), rng.uniform(0, 2)))
            for __ in range(100)
        ]
        sparse = [Point((80.0, 80.0)), Point((60.0, 20.0))]
        tree = make_quadtree(cluster + sparse)
        validate_quadtree(tree)
        assert tree.height > 3

    def test_outside_universe_rejected(self):
        tree = PRQuadtree(UNIVERSE)
        with pytest.raises(TreeError):
            tree.insert(Point((500.0, 0.0)))

    def test_non_point_rejected(self):
        tree = PRQuadtree(UNIVERSE)
        with pytest.raises(TreeError):
            tree.insert(Rect((0, 0), (1, 1)))

    def test_duplicate_points_bounded_by_max_depth(self):
        tree = PRQuadtree(UNIVERSE, bucket_capacity=2, max_depth=6)
        for __ in range(20):
            tree.insert(Point((50.0, 50.0)))
        validate_quadtree(tree)
        assert len(tree) == 20

    def test_duplicate_oid_rejected(self):
        """As in the R-trees, an oid the tree holds is refused before
        any mutation; once deleted it is free again."""
        points = make_points(12, seed=137)
        tree = make_quadtree(points)
        for oid in (0, 7, 11):
            with pytest.raises(TreeError, match=f"object id {oid}"):
                tree.insert(Point((50.0, 50.0)), oid=oid)
        assert len(tree) == 12 and len(list(tree.items())) == 12
        assert tree.delete(7, points[7])
        assert tree.insert(Point((50.0, 50.0)), oid=7) == 7
        validate_quadtree(tree)

    def test_delete(self):
        points = make_points(100, seed=133)
        tree = make_quadtree(points)
        for oid, point in enumerate(points[:60]):
            assert tree.delete(oid, point)
            validate_quadtree(tree)
        assert len(tree) == 40

    def test_delete_missing(self):
        tree = make_quadtree(make_points(10, seed=134))
        assert not tree.delete(99, Point((1.0, 1.0)))

    def test_delete_collapses(self):
        points = make_points(50, seed=135)
        tree = make_quadtree(points, bucket=4)
        tall = tree.height
        for oid, point in enumerate(points[:46]):
            tree.delete(oid, point)
        validate_quadtree(tree)
        assert tree.height < tall

    def test_items_complete(self):
        points = make_points(70, seed=136)
        tree = make_quadtree(points)
        assert sorted(e.oid for e in tree.items()) == list(range(70))

    def test_bounds(self):
        tree = make_quadtree([Point((10.0, 20.0)), Point((30.0, 5.0))])
        assert tree.bounds() == Rect((10.0, 5.0), (30.0, 20.0))

    def test_estimator_protocol(self):
        tree = make_quadtree(make_points(60, seed=137))
        assert tree.min_subtree_count(3) == 1
        assert tree.avg_subtree_count(0) >= 1.0


class TestQuadtreeQueries:
    def test_incremental_nearest_on_quadtree(self):
        points = make_points(200, seed=138)
        tree = make_quadtree(points)
        query = Point((42.0, 58.0))
        got = [n.distance for n in incremental_nearest(tree, query)]
        from repro.geometry.metrics import EUCLIDEAN
        expected = sorted(EUCLIDEAN.distance(p, query) for p in points)
        assert got == pytest.approx(expected)


class TestQuadtreeJoins:
    def test_quadtree_quadtree_join(self):
        points_a = make_points(60, seed=141)
        points_b = make_points(70, seed=142)
        join = IncrementalDistanceJoin(
            make_quadtree(points_a),
            make_quadtree(points_b),
            counters=CounterRegistry(),
        )
        got = []
        for result in join:
            got.append(result.distance)
            if len(got) == 150:
                break
        truth = [t[0] for t in brute_force_pairs(points_a, points_b)[:150]]
        assert got == pytest.approx(truth)

    def test_mixed_rtree_quadtree_join(self):
        """The paper's generality claim: two different hierarchical
        structures joined by the same algorithm."""
        points_a = make_points(50, seed=143)
        points_b = make_points(50, seed=144)
        join = IncrementalDistanceJoin(
            make_tree(points_a),          # R*-tree
            make_quadtree(points_b),      # PR quadtree
            counters=CounterRegistry(),
        )
        got = [r.distance for r in join]
        truth = [t[0] for t in brute_force_pairs(points_a, points_b)]
        assert got == pytest.approx(truth)

    def test_quadtree_semi_join(self):
        points_a = make_points(40, seed=145)
        points_b = make_points(60, seed=146)
        semi = IncrementalDistanceSemiJoin(
            make_quadtree(points_a),
            make_quadtree(points_b),
            counters=CounterRegistry(),
        )
        got = list(semi)
        nn = brute_force_nn(points_a, points_b)
        assert len(got) == len(points_a)
        for result in got:
            assert result.distance == pytest.approx(nn[result.oid1][0])

    def test_semi_join_with_dmax_strategy(self):
        points_a = make_points(40, seed=147)
        points_b = make_points(40, seed=148)
        semi = IncrementalDistanceSemiJoin(
            make_quadtree(points_a), make_quadtree(points_b),
            JoinSpec(filter_strategy="inside2", dmax_strategy="global_all"),
            counters=CounterRegistry(),
        )
        nn = brute_force_nn(points_a, points_b)
        for result in semi:
            assert result.distance == pytest.approx(nn[result.oid1][0])

    def test_knn_join_on_quadtrees(self):
        from repro.core.knn_join import KNearestNeighborJoin

        points_a = make_points(30, seed=151)
        points_b = make_points(40, seed=152)
        join = KNearestNeighborJoin(
            make_quadtree(points_a),
            make_quadtree(points_b),
            k=2,
            counters=CounterRegistry(),
        )
        got = list(join)
        assert len(got) == 2 * len(points_a)
        from repro.geometry.metrics import EUCLIDEAN
        for result in got:
            a = points_a[result.oid1]
            two_nearest = sorted(
                EUCLIDEAN.distance(a, b) for b in points_b
            )[:2]
            assert any(
                result.distance == pytest.approx(d) for d in two_nearest
            )

    def test_max_pairs_estimation_safe_on_quadtree(self):
        # min_subtree_count == 1: the estimator must stay safe.
        points_a = make_points(50, seed=149)
        points_b = make_points(50, seed=150)
        join = IncrementalDistanceJoin(
            make_quadtree(points_a), make_quadtree(points_b),
            JoinSpec(max_pairs=40), counters=CounterRegistry(),
        )
        got = list(join)
        truth = brute_force_pairs(points_a, points_b)[:40]
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth]
        )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        max_size=80,
    )
)
def test_property_quadtree_invariants(raw):
    """Property: arbitrary insertions keep the quadtree valid and
    complete."""
    tree = PRQuadtree(UNIVERSE, bucket_capacity=3)
    for xy in raw:
        tree.insert(Point(xy))
    validate_quadtree(tree)
    assert len(tree) == len(raw)
    assert sorted(e.oid for e in tree.items()) == list(range(len(raw)))
