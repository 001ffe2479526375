"""End-to-end property tests across configurations, plus failure
injection for the consistency checker."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.pairs import PairDistance
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.errors import ConsistencyError
from repro.geometry.metrics import (
    CHESSBOARD,
    EUCLIDEAN,
    MANHATTAN,
    Metric,
)
from repro.geometry.point import Point
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_pairs, make_points, make_tree

point_lists = st.lists(
    st.tuples(st.floats(0, 100), st.floats(0, 100)),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    point_lists,
    point_lists,
    st.sampled_from([EUCLIDEAN, MANHATTAN, CHESSBOARD]),
    st.floats(0.5, 60.0),
    st.integers(1, 50),
)
def test_property_full_configuration_matrix(
    raw_a, raw_b, metric, queue_dt, max_pairs
):
    """Property: hybrid queue + estimation + any metric still yields
    exactly the brute-force prefix."""
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    join = IncrementalDistanceJoin(
        make_tree(points_a, max_entries=4), make_tree(points_b, max_entries=4),
        JoinSpec(
            metric=metric, queue="hybrid", queue_dt=queue_dt,
            max_pairs=max_pairs,
        ),
        counters=CounterRegistry(),
    )
    got = [r.distance for r in join]
    truth = [
        t[0] for t in brute_force_pairs(points_a, points_b, metric)
    ][:max_pairs]
    assert len(got) == len(truth)
    for g, t in zip(got, truth):
        assert math.isclose(g, t, rel_tol=1e-9, abs_tol=1e-9)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    point_lists,
    point_lists,
    st.floats(0.0, 40.0),
    st.floats(0.0, 60.0),
)
def test_property_range_with_estimation(raw_a, raw_b, dmin, width):
    """Property: [dmin, dmax] plus max_pairs plus estimation returns
    exactly the in-range brute-force prefix."""
    dmax = dmin + width
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    join = IncrementalDistanceJoin(
        make_tree(points_a, max_entries=4), make_tree(points_b, max_entries=4),
        JoinSpec(min_distance=dmin, max_distance=dmax, max_pairs=10),
        counters=CounterRegistry(),
    )
    got = [r.distance for r in join]
    truth = [
        t[0]
        for t in brute_force_pairs(points_a, points_b)
        if dmin <= t[0] <= dmax
    ][:10]
    assert len(got) == len(truth)
    for g, t in zip(got, truth):
        assert math.isclose(g, t, rel_tol=1e-9, abs_tol=1e-9)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(point_lists, point_lists, st.booleans())
def test_property_aggressive_estimation_never_loses_results(
    raw_a, raw_b, semi
):
    """Property: the aggressive estimator (with restarts) still
    produces the exact result."""
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    tree_a = make_tree(points_a, max_entries=4)
    tree_b = make_tree(points_b, max_entries=4)
    k = min(8, len(points_a) * len(points_b))
    if semi:
        k = min(8, len(points_a))
        join = IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_pairs=k, aggressive=True),
            counters=CounterRegistry(),
        )
        truth = sorted(
            min(EUCLIDEAN.distance(a, b) for b in points_b)
            for a in points_a
        )[:k]
    else:
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=k, aggressive=True),
            counters=CounterRegistry(),
        )
        truth = [
            t[0] for t in brute_force_pairs(points_a, points_b)
        ][:k]
    got = [r.distance for r in join]
    assert len(got) == len(truth)
    for g, t in zip(got, truth):
        assert math.isclose(g, t, rel_tol=1e-9, abs_tol=1e-9)


class _BrokenMetric(Metric):
    """A deliberately inconsistent 'metric': rectangle bounds report a
    distance larger than the true point distance, violating the
    consistency contract the paper requires."""

    name = "broken"

    def combine(self, deltas):
        return sum(deltas)

    def mindist_rect_rect(self, r1, r2):
        honest = super().mindist_rect_rect(r1, r2)
        # Inflate node-level bounds: children will look *closer* than
        # the pair that generated them.
        if not (r1.is_degenerate() and r2.is_degenerate()):
            return honest + 10.0
        return honest


class TestConsistencyInjection:
    def test_broken_metric_detected(self):
        points_a = make_points(40, seed=201)
        points_b = make_points(40, seed=202)
        join = IncrementalDistanceJoin(
            make_tree(points_a), make_tree(points_b),
            JoinSpec(metric=_BrokenMetric()), check_consistency=True,
            counters=CounterRegistry(),
        )
        with pytest.raises(ConsistencyError):
            for __ in range(500):
                next(join)

    def test_honest_metric_passes_checker(self):
        points_a = make_points(40, seed=203)
        points_b = make_points(40, seed=204)
        join = IncrementalDistanceJoin(
            make_tree(points_a),
            make_tree(points_b),
            check_consistency=True,
            counters=CounterRegistry(),
        )
        results = [next(join) for __ in range(100)]
        assert len(results) == 100

    def test_pair_distance_checker_unit(self):
        pd = PairDistance(EUCLIDEAN, check_consistency=True)
        from repro.core.pairs import OBJ, Item, Pair
        from repro.geometry.rectangle import Rect
        parent = Pair(
            Item(OBJ, Rect((0, 0), (0, 0)), oid=0),
            Item(OBJ, Rect((5, 0), (5, 0)), oid=1),
            5.0,
        )
        with pytest.raises(ConsistencyError):
            pd.check_child(parent, 1.0)
