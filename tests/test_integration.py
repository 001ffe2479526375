"""Cross-module integration tests: realistic end-to-end scenarios."""

import pytest

from repro.baselines.nn_semijoin import nn_semi_join
from repro.core.distance_join import (
    OBR_MODE,
    IncrementalDistanceJoin,
)
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.point import Point
from repro.geometry.shapes import LineSegment, Polygon
from repro.query.executor import Database
from repro.rtree.bulk import bulk_load_str
from repro.rtree.guttman import GuttmanRTree
from repro.util.counters import CounterRegistry

from tests.conftest import (
    brute_force_nn,
    brute_force_pairs,
    make_points,
    make_tree,
)


def take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) == n:
            break
    return out


class TestTreeVariantsInterop:
    def test_join_works_on_guttman_trees(self):
        points_a = make_points(40, seed=101)
        points_b = make_points(50, seed=102)
        tree_a = GuttmanRTree(dim=2, max_entries=8)
        tree_b = GuttmanRTree(dim=2, max_entries=8)
        for p in points_a:
            tree_a.insert(obj=p)
        for p in points_b:
            tree_b.insert(obj=p)
        got = take(IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ), 60)
        truth = brute_force_pairs(points_a, points_b)[:60]
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth]
        )

    def test_join_mixes_rstar_and_guttman(self):
        points_a = make_points(30, seed=103)
        points_b = make_points(30, seed=104)
        tree_a = make_tree(points_a)  # R*
        tree_b = GuttmanRTree(dim=2, max_entries=8)
        for p in points_b:
            tree_b.insert(obj=p)
        got = take(IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ), 40)
        truth = brute_force_pairs(points_a, points_b)[:40]
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth]
        )

    def test_bulk_loaded_vs_inserted_same_results(self):
        points_a = make_points(60, seed=105)
        points_b = make_points(60, seed=106)
        inserted = list(take(IncrementalDistanceJoin(
            make_tree(points_a), make_tree(points_b),
            counters=CounterRegistry(),
        ), 80))
        bulked = list(take(IncrementalDistanceJoin(
            bulk_load_str(points_a, max_entries=8),
            bulk_load_str(points_b, max_entries=8),
            counters=CounterRegistry(),
        ), 80))
        assert [r.distance for r in inserted] == pytest.approx(
            [r.distance for r in bulked]
        )


class TestObrLeafMode:
    def test_obr_mode_matches_direct_mode(self):
        points_a = make_points(40, seed=107)
        points_b = make_points(40, seed=108)
        tree_a = make_tree(points_a)
        tree_b = make_tree(points_b)
        direct = take(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(leaf_mode="direct"),
            counters=CounterRegistry(),
        ), 100)
        obr = take(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(leaf_mode=OBR_MODE),
            counters=CounterRegistry(),
        ), 100)
        assert [r.distance for r in direct] == pytest.approx(
            [r.distance for r in obr]
        )

    def test_obr_mode_counts_object_accesses(self):
        tree_a = make_tree(make_points(30, seed=109))
        tree_b = make_tree(make_points(30, seed=110))
        counters = CounterRegistry()
        take(IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(leaf_mode=OBR_MODE), counters=counters,
        ), 20)
        assert counters.value("object_accesses") > 0


class TestExtendedObjects:
    def test_join_over_line_segments(self):
        segments_a = [
            LineSegment(Point((i * 10.0, 0.0)), Point((i * 10.0 + 5.0, 3.0)))
            for i in range(8)
        ]
        segments_b = [
            LineSegment(Point((i * 10.0 + 2.0, 20.0)),
                        Point((i * 10.0 + 7.0, 24.0)))
            for i in range(8)
        ]
        tree_a = bulk_load_str(segments_a, max_entries=4)
        tree_b = bulk_load_str(segments_b, max_entries=4)
        got = list(IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ))
        truth = sorted(
            a.distance_to(b) for a in segments_a for b in segments_b
        )
        assert [r.distance for r in got] == pytest.approx(truth)

    def test_semi_join_over_polygons(self):
        def square(cx, cy, half):
            return Polygon([
                Point((cx - half, cy - half)), Point((cx + half, cy - half)),
                Point((cx + half, cy + half)), Point((cx - half, cy + half)),
            ])

        parks = [square(10.0 * i, 0.0, 2.0) for i in range(5)]
        lakes = [square(10.0 * i + 4.0, 15.0, 1.5) for i in range(5)]
        semi = IncrementalDistanceSemiJoin(
            bulk_load_str(parks, max_entries=4),
            bulk_load_str(lakes, max_entries=4),
            counters=CounterRegistry(),
        )
        got = list(semi)
        assert len(got) == len(parks)
        for result in got:
            expected = min(
                parks[result.oid1].distance_to(lake) for lake in lakes
            )
            assert result.distance == pytest.approx(expected)


class TestStoreWarehouseScenario:
    """The paper's motivating example, end to end through SQL."""

    def test_clustering_matches_nn_baseline(self):
        stores = make_points(80, seed=111)
        warehouses = make_points(12, seed=112)
        db = Database(counters=CounterRegistry())
        db.create_relation("stores", stores)
        db.create_relation("warehouses", warehouses)
        rows = list(db.execute(
            "SELECT *, MIN(d) FROM stores, warehouses, "
            "DISTANCE(stores.geom, warehouses.geom) AS d "
            "GROUP BY stores.geom ORDER BY d"
        ))
        baseline = nn_semi_join(
            list(enumerate(stores)), db.relation("warehouses")
        )
        assert [r.d for r in rows] == pytest.approx(
            [r.distance for r in baseline]
        )

    def test_stop_after_pipelines(self):
        stores = make_points(80, seed=113)
        warehouses = make_points(12, seed=114)
        db = Database(counters=CounterRegistry())
        db.create_relation("stores", stores)
        db.create_relation("warehouses", warehouses)
        db.counters.reset()
        few = list(db.execute(
            "SELECT * FROM stores, warehouses, "
            "DISTANCE(stores.geom, warehouses.geom) AS d "
            "ORDER BY d STOP AFTER 3"
        ))
        cost_few = db.counters.value("dist_calcs")
        assert len(few) == 3
        assert cost_few < 80 * 12  # far less than the Cartesian product


class TestConcurrentIterators:
    def test_interleaved_joins_share_trees_safely(self):
        """Two independent join iterators over the same trees must not
        disturb each other (all per-query state lives in the join)."""
        points_a = make_points(50, seed=117)
        points_b = make_points(50, seed=118)
        tree_a = make_tree(points_a)
        tree_b = make_tree(points_b)
        truth = [t[0] for t in brute_force_pairs(points_a, points_b)]

        join1 = IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        join2 = IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        got1, got2 = [], []
        for __ in range(60):
            got1.append(next(join1).distance)
            got2.append(next(join2).distance)
            got2.append(next(join2).distance)  # join2 runs ahead
        assert got1 == pytest.approx(truth[:60])
        assert got2 == pytest.approx(truth[:120])

    def test_join_and_semi_join_interleaved(self):
        points_a = make_points(40, seed=119)
        points_b = make_points(40, seed=120)
        tree_a = make_tree(points_a)
        tree_b = make_tree(points_b)
        join = IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        join_distances = []
        semi_distances = []
        for __ in range(30):
            join_distances.append(next(join).distance)
            semi_distances.append(next(semi).distance)
        assert join_distances == sorted(join_distances)
        assert semi_distances == sorted(semi_distances)


class TestHigherDimensions:
    def test_4d_join(self):
        import random
        rng = random.Random(115)
        points_a = [
            Point([rng.uniform(0, 10) for __ in range(4)])
            for __ in range(20)
        ]
        points_b = [
            Point([rng.uniform(0, 10) for __ in range(4)])
            for __ in range(20)
        ]
        tree_a = bulk_load_str(points_a, max_entries=8)
        tree_b = bulk_load_str(points_b, max_entries=8)
        got = take(IncrementalDistanceJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ), 30)
        truth = brute_force_pairs(points_a, points_b)[:30]
        assert [r.distance for r in got] == pytest.approx(
            [t[0] for t in truth]
        )

    def test_semi_join_3d(self):
        import random
        rng = random.Random(116)
        points_a = [
            Point([rng.uniform(0, 10) for __ in range(3)])
            for __ in range(25)
        ]
        points_b = [
            Point([rng.uniform(0, 10) for __ in range(3)])
            for __ in range(25)
        ]
        semi = IncrementalDistanceSemiJoin(
            bulk_load_str(points_a, max_entries=8),
            bulk_load_str(points_b, max_entries=8),
            counters=CounterRegistry(),
        )
        got = list(semi)
        nn = brute_force_nn(points_a, points_b)
        assert len(got) == len(points_a)
        for result in got:
            assert result.distance == pytest.approx(nn[result.oid1][0])
