"""Tests for the incremental distance join against brute-force truth."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distance_join import (
    BASIC,
    EVEN,
    SIMULTANEOUS,
    IncrementalDistanceJoin,
)
from repro.core.spec import JoinSpec
from repro.core.tiebreak import BREADTH_FIRST, DEPTH_FIRST
from repro.errors import JoinError
from repro.geometry.metrics import CHESSBOARD, EUCLIDEAN, MANHATTAN
from repro.geometry.point import Point
from repro.rtree.rstar import RStarTree
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_pairs, make_points, make_tree

INF = float("inf")
POLICIES = [BASIC, EVEN, SIMULTANEOUS]
TIES = [DEPTH_FIRST, BREADTH_FIRST]


def distances(results):
    return [r.distance for r in results]


def take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) == n:
            break
    return out


class TestOrderingCorrectness:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("tie", TIES)
    def test_matches_brute_force_prefix(self, small_trees, policy, tie):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(node_policy=policy, tie_break=tie),
            counters=CounterRegistry(),
        )
        got = take(join, 300)
        expected = [t[0] for t in truth[:300]]
        assert distances(got) == pytest.approx(expected)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_full_join_is_cartesian_product(self, policy):
        points_a = make_points(12, seed=41)
        points_b = make_points(15, seed=42)
        join = IncrementalDistanceJoin(
            make_tree(points_a, max_entries=4),
            make_tree(points_b, max_entries=4), JoinSpec(node_policy=policy),
        )
        got = list(join)
        assert len(got) == 12 * 15
        pairs = {(r.oid1, r.oid2) for r in got}
        assert len(pairs) == 12 * 15

    def test_monotone_distances(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        previous = -1.0
        for result in take(join, 500):
            assert result.distance >= previous - 1e-12
            previous = result.distance

    @pytest.mark.parametrize("metric", [MANHATTAN, CHESSBOARD])
    def test_other_metrics(self, points_small_a, points_small_b, metric):
        tree_a = make_tree(points_small_a)
        tree_b = make_tree(points_small_b)
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(metric=metric),
            counters=CounterRegistry(),
        )
        got = take(join, 100)
        expected = [
            t[0]
            for t in brute_force_pairs(
                points_small_a, points_small_b, metric
            )[:100]
        ]
        assert distances(got) == pytest.approx(expected)

    def test_oids_refer_to_real_objects(self, medium_trees):
        tree_a, tree_b, points_a, points_b, __ = medium_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        for result in take(join, 50):
            assert result.obj1 == points_a[result.oid1]
            assert result.obj2 == points_b[result.oid2]
            assert result.distance == pytest.approx(
                EUCLIDEAN.distance(result.obj1, result.obj2)
            )


class TestPipelining:
    def test_iterator_is_resumable(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        first = take(join, 10)
        second = take(join, 10)
        expected = [t[0] for t in truth[:20]]
        assert distances(first + second) == pytest.approx(expected)

    def test_first_pair_cheaper_than_full_join(self, medium_trees):
        tree_a, tree_b, *__ = medium_trees
        counters = CounterRegistry()
        join = IncrementalDistanceJoin(tree_a, tree_b, counters=counters)
        next(join)
        first_cost = counters.value("dist_calcs")
        take(join, 2000)
        assert counters.value("dist_calcs") > first_cost


class TestDistanceRange:
    def test_max_distance_truncates(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_distance=10.0),
            counters=CounterRegistry(),
        )
        got = list(join)
        expected = [t for t in truth if t[0] <= 10.0]
        assert len(got) == len(expected)

    def test_min_distance_skips_close_pairs(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(min_distance=50.0, max_distance=60.0),
            counters=CounterRegistry(),
        )
        got = list(join)
        expected = [t for t in truth if 50.0 <= t[0] <= 60.0]
        assert len(got) == len(expected)
        assert distances(got) == pytest.approx([t[0] for t in expected])

    def test_empty_range(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(min_distance=1000.0, max_distance=2000.0),
            counters=CounterRegistry(),
        )
        assert list(join) == []

    def test_max_distance_prunes_queue_inserts(self, medium_trees):
        tree_a, tree_b, *__ = medium_trees
        wide = CounterRegistry()
        list(take(IncrementalDistanceJoin(
            tree_a, tree_b, counters=wide
        ), 100))
        narrow = CounterRegistry()
        list(take(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_distance=5.0), counters=narrow,
        ), 100))
        assert (
            narrow.value("queue_inserts") < wide.value("queue_inserts")
        )

    def test_invalid_range_rejected(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with pytest.raises(ValueError):
            IncrementalDistanceJoin(
                tree_a, tree_b, JoinSpec(min_distance=5.0, max_distance=1.0),
            )


class TestMaxPairs:
    def test_stops_at_limit(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=25), counters=CounterRegistry(),
        )
        got = list(join)
        assert len(got) == 25
        assert distances(got) == pytest.approx(
            [t[0] for t in truth[:25]]
        )

    def test_estimation_reduces_queue_inserts(self, medium_trees):
        tree_a, tree_b, *__ = medium_trees
        plain = CounterRegistry()
        take(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(estimate=False), counters=plain,
        ), 20)
        estimated = CounterRegistry()
        list(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=20), counters=estimated,
        ))
        assert (
            estimated.value("queue_inserts")
            <= plain.value("queue_inserts")
        )
        assert estimated.value("estimator_trims") > 0

    def test_aggressive_estimation_correct_with_restart(self, medium_trees):
        tree_a, tree_b, __, ___, truth = medium_trees
        counters = CounterRegistry()
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=200, aggressive=True),
            counters=counters,
        )
        got = list(join)
        assert len(got) == 200
        assert distances(got) == pytest.approx(
            [t[0] for t in truth[:200]]
        )

    def test_max_pairs_one(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=1), counters=CounterRegistry(),
        )
        got = list(join)
        assert len(got) == 1
        assert got[0].distance == pytest.approx(truth[0][0])


class TestQueueVariants:
    def test_hybrid_queue_same_results(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(queue="hybrid", queue_dt=5.0),
            counters=CounterRegistry(),
        )
        got = take(join, 400)
        assert distances(got) == pytest.approx(
            [t[0] for t in truth[:400]]
        )

    def test_hybrid_requires_dt(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with pytest.raises(ValueError):
            IncrementalDistanceJoin(tree_a, tree_b, JoinSpec(queue="hybrid"))

    def test_adaptive_queue_same_results(self, small_trees):
        """The paper's future-work item: D_T chosen dynamically from
        the queue's own early traffic must not change the output."""
        tree_a, tree_b, truth = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(queue="adaptive"),
            counters=CounterRegistry(),
        )
        got = take(join, 400)
        assert distances(got) == pytest.approx(
            [t[0] for t in truth[:400]]
        )
        assert join._queue.dt is not None

    def test_hybrid_offloads_to_disk(self, medium_trees):
        tree_a, tree_b, *__ = medium_trees
        counters = CounterRegistry()
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(queue="hybrid", queue_dt=3.0),
            counters=counters,
        )
        take(join, 50)
        assert counters.value("pq_disk_writes") > 0


class TestEdgesAndHooks:
    def test_empty_tree_yields_nothing(self):
        empty = RStarTree(dim=2, max_entries=4)
        other = make_tree(make_points(10, seed=1))
        assert list(IncrementalDistanceJoin(
            empty, other, counters=CounterRegistry()
        )) == []
        assert list(IncrementalDistanceJoin(
            other, empty, counters=CounterRegistry()
        )) == []

    def test_single_object_trees(self):
        a = RStarTree(dim=2, max_entries=4)
        a.insert_point((0.0, 0.0))
        b = RStarTree(dim=2, max_entries=4)
        b.insert_point((3.0, 4.0))
        got = list(IncrementalDistanceJoin(a, b))
        assert len(got) == 1
        assert got[0].distance == 5.0

    def test_dimension_mismatch_rejected(self):
        a = RStarTree(dim=2, max_entries=4)
        b = RStarTree(dim=3, max_entries=4)
        with pytest.raises(JoinError):
            IncrementalDistanceJoin(a, b)

    def test_pair_filter_hook(self, small_trees):
        tree_a, tree_b, truth = small_trees
        # Keep only pairs whose first item lies left of x = 50: a
        # spatial criterion on R1 (Section 2.2.5).
        def left_half(pair):
            return pair.item1.rect.lo[0] <= 50.0

        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(pair_filter=left_half),
            counters=CounterRegistry(),
        )
        got = take(join, 100)
        assert all(r.obj1.x <= 50.0 for r in got)

    def test_check_consistency_clean_run(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = IncrementalDistanceJoin(
            tree_a, tree_b, check_consistency=True,
            counters=CounterRegistry(),
        )
        take(join, 100)  # must not raise

    def test_identical_trees_self_join(self):
        points = make_points(30, seed=55)
        a = make_tree(points)
        b = make_tree(points)
        join = IncrementalDistanceJoin(a, b, counters=CounterRegistry())
        got = take(join, 30)
        # The 30 closest pairs of a self-join are the diagonal (d = 0).
        assert all(r.distance == 0.0 for r in got)

    def test_counters_report_table1_measures(self, medium_trees):
        tree_a, tree_b, *__ = medium_trees
        counters = CounterRegistry()
        join = IncrementalDistanceJoin(tree_a, tree_b, counters=counters)
        take(join, 100)
        assert counters.value("dist_calcs") > 0
        assert counters.peak("queue_size") > 0
        assert counters.value("node_reads") > 0

    def test_invalid_policy_rejected(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with pytest.raises(ValueError):
            IncrementalDistanceJoin(
                tree_a, tree_b, JoinSpec(node_policy="magic"),
            )
        with pytest.raises(ValueError):
            IncrementalDistanceJoin(
                tree_a, tree_b, JoinSpec(tie_break="magic"),
            )
        with pytest.raises(ValueError):
            IncrementalDistanceJoin(tree_a, tree_b, JoinSpec(max_pairs=0))
        with pytest.raises(ValueError):
            IncrementalDistanceJoin(tree_a, tree_b, JoinSpec(queue="floppy"))


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=30,
    ),
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=30,
    ),
    st.sampled_from(POLICIES),
)
def test_property_join_equals_brute_force(raw_a, raw_b, policy):
    """Property: for arbitrary point sets and any node policy, the join
    enumerates exactly the Cartesian product in distance order."""
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    tree_a = make_tree(points_a, max_entries=4)
    tree_b = make_tree(points_b, max_entries=4)
    join = IncrementalDistanceJoin(
        tree_a, tree_b, JoinSpec(node_policy=policy),
        counters=CounterRegistry(),
    )
    got = list(join)
    truth = brute_force_pairs(points_a, points_b)
    assert len(got) == len(truth)
    for result, (dist, *__) in zip(got, truth):
        assert math.isclose(
            result.distance, dist, rel_tol=1e-9, abs_tol=1e-9
        )
