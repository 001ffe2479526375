"""Tests for the k-nearest-neighbour join (semi-join generalization)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.knn_join import KNearestNeighborJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree


def brute_knn(points_a, points_b, k):
    """oid -> sorted list of the k smallest distances to B."""
    result = {}
    for i, a in enumerate(points_a):
        distances = sorted(EUCLIDEAN.distance(a, b) for b in points_b)
        result[i] = distances[:k]
    return result


STRATEGIES = [
    ("outside", "none"),
    ("inside2", "none"),
    ("inside2", "local"),
    ("inside2", "global_nodes"),
    ("inside2", "global_all"),
]


@pytest.fixture(scope="module")
def knn_setup():
    points_a = make_points(40, seed=161)
    points_b = make_points(60, seed=162)
    return points_a, points_b, make_tree(points_a), make_tree(points_b)


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("filter_strategy,dmax_strategy", STRATEGIES)
    def test_matches_brute_force(
        self, knn_setup, k, filter_strategy, dmax_strategy
    ):
        points_a, points_b, tree_a, tree_b = knn_setup
        join = KNearestNeighborJoin(
            tree_a, tree_b,
            JoinSpec(
                filter_strategy=filter_strategy, dmax_strategy=dmax_strategy,
            ),
            k=k, counters=CounterRegistry(),
        )
        got = list(join)
        truth = brute_knn(points_a, points_b, k)
        assert len(got) == k * len(points_a)
        per_object = {}
        for result in got:
            per_object.setdefault(result.oid1, []).append(result.distance)
        for oid, distances in per_object.items():
            assert sorted(distances) == pytest.approx(truth[oid])

    def test_k1_equals_semi_join(self, knn_setup):
        __, ___, tree_a, tree_b = knn_setup
        knn = [
            r.distance
            for r in KNearestNeighborJoin(
                tree_a, tree_b, k=1, counters=CounterRegistry()
            )
        ]
        semi = [
            r.distance
            for r in IncrementalDistanceSemiJoin(
                tree_a, tree_b, counters=CounterRegistry()
            )
        ]
        assert knn == pytest.approx(semi)

    def test_global_distance_order(self, knn_setup):
        __, ___, tree_a, tree_b = knn_setup
        ds = [
            r.distance
            for r in KNearestNeighborJoin(
                tree_a, tree_b, k=3, counters=CounterRegistry()
            )
        ]
        assert ds == sorted(ds)

    def test_k_exceeds_inner_relation(self):
        points_a = make_points(10, seed=163)
        points_b = make_points(4, seed=164)
        join = KNearestNeighborJoin(
            make_tree(points_a, max_entries=4),
            make_tree(points_b, max_entries=4),
            k=10,
            counters=CounterRegistry(),
        )
        got = list(join)
        # Only |B| partners exist per outer object.
        assert len(got) == len(points_a) * len(points_b)

    def test_k_validation(self, knn_setup):
        __, ___, tree_a, tree_b = knn_setup
        with pytest.raises(ValueError):
            KNearestNeighborJoin(tree_a, tree_b, k=0)

    def test_max_pairs_with_estimation(self, knn_setup):
        points_a, points_b, tree_a, tree_b = knn_setup
        join = KNearestNeighborJoin(
            tree_a, tree_b, JoinSpec(max_pairs=15), k=2,
            counters=CounterRegistry(),
        )
        got = list(join)
        assert len(got) == 15
        # The 15 globally closest among each object's 2 NN distances.
        truth = sorted(
            d for ds in brute_knn(points_a, points_b, 2).values()
            for d in ds
        )[:15]
        assert [r.distance for r in got] == pytest.approx(truth)

    def test_pipelined(self, knn_setup):
        points_a, __, tree_a, tree_b = knn_setup
        join = KNearestNeighborJoin(
            tree_a, tree_b, k=2, counters=CounterRegistry()
        )
        first = next(join)
        rest = list(join)
        assert 1 + len(rest) == 2 * len(points_a)
        assert all(first.distance <= r.distance + 1e-12 for r in rest)

    def test_dmax_pruning_active(self, knn_setup):
        __, ___, tree_a, tree_b = knn_setup
        counters = CounterRegistry()
        list(KNearestNeighborJoin(
            tree_a, tree_b,
            JoinSpec(filter_strategy="inside2", dmax_strategy="global_all"),
            k=2, counters=counters,
        ))
        assert counters.value("pruned_dmax") > 0


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=20,
    ),
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=20,
    ),
    st.integers(1, 4),
    st.sampled_from(STRATEGIES),
)
def test_property_knn_join(raw_a, raw_b, k, strategy):
    """Property: for arbitrary inputs, every strategy yields exactly
    each outer object's k nearest inner distances, globally sorted."""
    filter_strategy, dmax_strategy = strategy
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    join = KNearestNeighborJoin(
        make_tree(points_a, max_entries=4), make_tree(points_b, max_entries=4),
        JoinSpec(filter_strategy=filter_strategy, dmax_strategy=dmax_strategy),
        k=k, counters=CounterRegistry(),
    )
    got = list(join)
    truth = brute_knn(points_a, points_b, k)
    expected_total = sum(len(v) for v in truth.values())
    assert len(got) == expected_total
    per_object = {}
    for result in got:
        per_object.setdefault(result.oid1, []).append(result.distance)
    for oid, distances in per_object.items():
        assert sorted(distances) == pytest.approx(truth[oid])
    ds = [r.distance for r in got]
    assert ds == sorted(ds)
