"""Tests for the shard router operator (routing, pruning, caching,
suspend/resume)."""

import pickle

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.errors import CursorError, JoinError
from repro.geometry.point import Point
from repro.rtree.bulk import bulk_load_str
from repro.shard import (
    ShardCatalog,
    ShardRouterJoin,
    ShardRouterSemiJoin,
    clear_caches,
)
from repro.util.counters import CounterRegistry


def cluster_points(n, clusters=4, spread=3.0, gap=100.0):
    """Well-separated clusters: a Fig 6-style workload where a STOP
    AFTER query only ever needs the co-located shard pairs."""
    points = []
    for i in range(n):
        c = i % clusters
        cx = gap * (c % 2)
        cy = gap * (c // 2)
        points.append(Point((
            cx + (i * 7 % 13) * spread / 13.0,
            cy + (i * 11 % 17) * spread / 17.0,
        )))
    return points


def canonical(results):
    out, group, last = [], [], None
    for r in results:
        if last is not None and r.distance != last:
            group.sort(key=lambda g: (g.oid1, g.oid2))
            out.extend(group)
            group = []
        group.append(r)
        last = r.distance
    group.sort(key=lambda g: (g.oid1, g.oid2))
    out.extend(group)
    return [(r.distance, r.oid1, r.oid2) for r in out]


def rows(join):
    return [(r.distance, r.oid1, r.oid2) for r in join]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def trees():
    return (
        bulk_load_str(cluster_points(80)),
        bulk_load_str(cluster_points(90)),
    )


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_full_join(self, trees, shards):
        tree_a, tree_b = trees
        reference = canonical(IncrementalDistanceJoin(tree_a, tree_b))
        router = ShardRouterJoin(tree_a, tree_b, shards=shards)
        assert rows(router) == reference

    @pytest.mark.parametrize("shards", [2, 4])
    def test_stop_after(self, trees, shards):
        tree_a, tree_b = trees
        reference = canonical(IncrementalDistanceJoin(tree_a, tree_b))
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=30), shards=shards,
        )
        assert rows(router) == reference[:30]

    def test_distance_range(self, trees):
        tree_a, tree_b = trees
        reference = canonical(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(min_distance=2.0, max_distance=50.0),
        ))
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(min_distance=2.0, max_distance=50.0),
            shards=3,
        )
        assert rows(router) == reference

    def test_semi_join(self, trees):
        tree_a, tree_b = trees
        reference = {
            r.oid1: r.distance
            for r in IncrementalDistanceSemiJoin(tree_a, tree_b)
        }
        router = ShardRouterSemiJoin(tree_a, tree_b, shards=3)
        seen, previous = {}, -1.0
        for result in router:
            assert result.distance >= previous
            previous = result.distance
            assert result.oid1 not in seen
            seen[result.oid1] = result.distance
        assert seen == reference

    def test_dimension_mismatch(self, trees):
        tree_a, __ = trees
        tree_c = bulk_load_str([Point((1.0, 2.0, 3.0))])
        with pytest.raises(JoinError):
            ShardRouterJoin(tree_a, tree_c)


class TestRouting:
    def test_plan_is_bound_ordered(self, trees):
        router = ShardRouterJoin(*trees, shards=4)
        bounds = [pair.bound for pair in router.pairs]
        assert bounds == sorted(bounds)
        assert router.pairs_total == \
            len(router.catalog1) * len(router.catalog2)

    def test_stop_after_prunes(self, trees):
        counters = CounterRegistry()
        router = ShardRouterJoin(
            *trees, JoinSpec(max_pairs=20), shards=4, counters=counters,
        )
        list(router)
        snap = counters.snapshot()
        assert snap["shard_pairs_routed"] < snap["shard_pairs_total"]
        assert snap["shard_pairs_pruned"] > 0
        assert snap["shard_pairs_routed"] + snap["shard_pairs_pruned"] \
            == snap["shard_pairs_total"]

    def test_full_consumption_routes_everything_needed(self, trees):
        counters = CounterRegistry()
        router = ShardRouterJoin(*trees, shards=3, counters=counters)
        list(router)
        snap = counters.snapshot()
        assert snap["shard_pairs_routed"] == \
            snap["shard_pairs_total"] - snap["shard_pairs_range_pruned"]

    def test_range_pruning(self, trees):
        counters = CounterRegistry()
        router = ShardRouterJoin(
            *trees, JoinSpec(max_distance=10.0), shards=4, counters=counters,
        )
        assert router.range_pruned > 0
        list(router)
        snap = counters.snapshot()
        assert snap["shard_pairs_range_pruned"] == router.range_pruned
        # Range-pruned pairs are never routed.
        assert snap["shard_pairs_routed"] <= \
            snap["shard_pairs_total"] - snap["shard_pairs_range_pruned"]

    def test_counters_deterministic(self, trees):
        snaps = []
        for __ in range(2):
            clear_caches()
            counters = CounterRegistry()
            router = ShardRouterJoin(
                *trees, JoinSpec(max_pairs=20), shards=4, counters=counters,
                catalog_cache=False,
            )
            list(router)
            snaps.append({
                k: v for k, v in counters.snapshot().items()
                if k.startswith("shard_")
            })
        assert snaps[0] == snaps[1]

    def test_route_plan_summary(self, trees):
        router = ShardRouterJoin(*trees, shards=2)
        plan = router.route_plan()
        assert plan["pairs_total"] == 4
        assert plan["pairs_planned"] == len(plan["order"])

    def test_plan_cache_hit(self, trees):
        counters = CounterRegistry()
        ShardRouterJoin(*trees, shards=3, counters=counters)
        ShardRouterJoin(*trees, shards=3, counters=counters)
        assert counters.snapshot()["shard_plan_cache_hits"] == 1


class TestSuspendResume:
    def test_mid_stream_pickle_round_trip(self, trees):
        tree_a, tree_b = trees
        reference = canonical(IncrementalDistanceJoin(tree_a, tree_b))
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=60), shards=3,
        )
        taken = [next(router) for __ in range(23)]
        blob = pickle.dumps(router.save())
        resumed = ShardRouterJoin.load(
            pickle.loads(blob), tree_a, tree_b,
        )
        got = [(r.distance, r.oid1, r.oid2) for r in taken] + \
            rows(resumed)
        assert got == reference[:60]

    def test_save_before_start(self, trees):
        tree_a, tree_b = trees
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=8), shards=2,
        )
        state = pickle.loads(pickle.dumps(router.save()))
        resumed = ShardRouterJoin.load(state, tree_a, tree_b)
        assert rows(resumed) == rows(
            ShardRouterJoin(tree_a, tree_b, JoinSpec(max_pairs=8), shards=2)
        )

    def test_semi_join_resume(self, trees):
        tree_a, tree_b = trees
        reference = rows(ShardRouterSemiJoin(
            tree_a, tree_b, shards=3))
        router = ShardRouterSemiJoin(tree_a, tree_b, shards=3)
        taken = [next(router) for __ in range(11)]
        resumed = ShardRouterSemiJoin.load(
            pickle.loads(pickle.dumps(router.save())), tree_a, tree_b,
        )
        assert [(r.distance, r.oid1, r.oid2) for r in taken] + \
            rows(resumed) == reference

    def test_wrong_tree_rejected(self, trees):
        tree_a, tree_b = trees
        router = ShardRouterJoin(tree_a, tree_b, shards=2)
        state = router.save()
        other = bulk_load_str(cluster_points(17))
        with pytest.raises(CursorError):
            ShardRouterJoin.load(state, tree_a, other)

    def test_wrong_class_rejected(self, trees):
        router = ShardRouterJoin(*trees, shards=2)
        with pytest.raises(CursorError):
            ShardRouterSemiJoin.load(router.save(), *trees)

    def test_unpicklable_filter_must_be_resupplied(self, trees):
        tree_a, tree_b = trees
        probe = (lambda keep: lambda pair: keep(pair))(
            lambda pair: True
        )  # a closure pickle cannot serialize
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=40, pair_filter=probe),
            shards=2,
        )
        next(router)
        state = router.save()
        assert state["has_pair_filter"]
        with pytest.raises(CursorError):
            ShardRouterJoin.load(state, tree_a, tree_b)
        resumed = ShardRouterJoin.load(
            state, tree_a, tree_b, pair_filter=probe,
        )
        next(resumed)

    def test_supplied_catalogs_resume_mid_stream(self, trees):
        """A router over supplied 9-shard catalogs records their shard
        count, so the rebuilt catalogs match and the cursor resumes."""
        tree_a, tree_b = trees
        catalogs = tuple(
            ShardCatalog.build(tree, shards=9) for tree in trees
        )
        counters = CounterRegistry()
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=50), catalogs=catalogs,
            counters=counters,
        )
        assert router.shards == 9
        assert counters.peak("shard_partitions") == 9
        reference = [
            tuple(r) for r in ShardRouterJoin(
                tree_a, tree_b, JoinSpec(max_pairs=50),
                catalogs=catalogs,
            )
        ]
        taken = [tuple(next(router)) for __ in range(17)]
        resumed = ShardRouterJoin.load(
            pickle.loads(pickle.dumps(router.save())), tree_a, tree_b,
        )
        rest = [tuple(r) for r in resumed]
        assert taken == reference[:17]
        assert pickle.dumps(rest) == pickle.dumps(reference[17:])

    def test_shards_contradicting_catalogs_rejected(self, trees):
        catalogs = tuple(
            ShardCatalog.build(tree, shards=9) for tree in trees
        )
        with pytest.raises(ValueError, match="contradicts"):
            ShardRouterJoin(*trees, shards=4, catalogs=catalogs)
        with pytest.raises(ValueError, match="not one count"):
            ShardRouterJoin(*trees, catalogs=(
                catalogs[0], ShardCatalog.build(trees[1], shards=4),
            ))

    def test_resume_counters_primed(self, trees):
        tree_a, tree_b = trees
        counters = CounterRegistry()
        router = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=30), shards=3,
            counters=counters,
        )
        for __ in range(10):
            next(router)
        routed = counters.snapshot()["shard_pairs_routed"]
        resumed = ShardRouterJoin.load(router.save(), tree_a, tree_b)
        snap = resumed.counters.snapshot()
        assert snap["shard_pairs_routed"] == routed
        list(resumed)  # and it still finishes


class TestProgress:
    def test_signals_feed_the_estimator(self, trees):
        from repro.util.telemetry import ProgressEstimator

        router = ShardRouterJoin(*trees, JoinSpec(max_pairs=40), shards=3)
        estimator = ProgressEstimator()
        last = 0.0
        for i, __ in enumerate(router):
            if i % 10 == 0:
                report = estimator.report(router.progress_signals())
                assert report.lower_bound >= last
                last = report.lower_bound
        signals = router.progress_signals()
        signals["done"] = True
        assert estimator.report(signals).lower_bound == 1.0

    def test_signals_shape(self, trees):
        router = ShardRouterJoin(*trees, JoinSpec(max_pairs=5), shards=2)
        signals = router.progress_signals()
        assert signals["operator"] == "ShardRouterJoin"
        assert signals["shard_pairs_total"] == 4
        assert signals["head_distance"] is not None
