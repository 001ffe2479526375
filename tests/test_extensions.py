"""Tests for the Section 5 future-work extensions: segment data sets
and dimension-agnostic behaviour."""

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.datasets.tiger_like import (
    EXTENT,
    roads_segments,
    water_segments,
)
from repro.geometry.shapes import LineSegment
from repro.rtree.bulk import bulk_load_str
from repro.util.counters import CounterRegistry


class TestSegmentDatasets:
    def test_counts_and_types(self):
        water = water_segments(50)
        roads = roads_segments(120)
        assert len(water) == 50
        assert len(roads) == 120
        assert all(isinstance(s, LineSegment) for s in water + roads)

    def test_deterministic(self):
        a = water_segments(30)
        b = water_segments(30)
        assert all(
            x.a == y.a and x.b == y.b for x, y in zip(a, b)
        )

    def test_within_universe(self):
        for segment in water_segments(100) + roads_segments(100):
            for point in (segment.a, segment.b):
                assert 0.0 <= point.x <= EXTENT
                assert 0.0 <= point.y <= EXTENT

    def test_segments_have_extent(self):
        assert all(s.length() > 0.0 for s in water_segments(50))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            water_segments(0)
        with pytest.raises(ValueError):
            roads_segments(-1)


class TestSegmentJoins:
    def test_join_matches_brute_force(self):
        water = water_segments(25)
        roads = roads_segments(40)
        join = IncrementalDistanceJoin(
            bulk_load_str(water, max_entries=8),
            bulk_load_str(roads, max_entries=8),
            counters=CounterRegistry(),
        )
        got = []
        for result in join:
            got.append(result.distance)
            if len(got) == 100:
                break
        truth = sorted(
            w.distance_to(r) for w in water for r in roads
        )[:100]
        assert got == pytest.approx(truth)

    def test_obr_mode_same_answers_fewer_dist_calcs(self):
        water = water_segments(30)
        roads = roads_segments(60)
        tree_w = bulk_load_str(water, max_entries=8)
        tree_r = bulk_load_str(roads, max_entries=8)

        counters_direct = CounterRegistry()
        direct = IncrementalDistanceJoin(
            tree_w, tree_r, JoinSpec(leaf_mode="direct"),
            counters=counters_direct,
        )
        got_direct = [next(direct).distance for __ in range(50)]

        counters_obr = CounterRegistry()
        obr = IncrementalDistanceJoin(
            tree_w, tree_r, JoinSpec(leaf_mode="obr"), counters=counters_obr,
        )
        got_obr = [next(obr).distance for __ in range(50)]

        assert got_direct == pytest.approx(got_obr)
        # Deferred resolution computes exact segment distances only
        # for surfaced obr/obr pairs.
        assert (
            counters_obr.value("dist_calcs")
            < counters_direct.value("dist_calcs")
        )
        assert counters_obr.value("object_accesses") > 0

    def test_segment_semi_join(self):
        water = water_segments(20)
        roads = roads_segments(35)
        semi = IncrementalDistanceSemiJoin(
            bulk_load_str(water, max_entries=8),
            bulk_load_str(roads, max_entries=8),
            counters=CounterRegistry(),
        )
        got = list(semi)
        assert len(got) == len(water)
        for result in got:
            expected = min(
                water[result.oid1].distance_to(r) for r in roads
            )
            assert result.distance == pytest.approx(expected)


class TestEstimatorOnExtendedObjects:
    def test_max_pairs_with_segments_obr_mode(self):
        """The estimator's MINMAXDIST path (live only for objects with
        extent) must never lose results: K pairs requested, K exact
        closest pairs delivered."""
        import pytest as pt

        water = water_segments(40)
        roads = roads_segments(60)
        join = IncrementalDistanceJoin(
            bulk_load_str(water, max_entries=8),
            bulk_load_str(roads, max_entries=8),
            JoinSpec(leaf_mode="obr", max_pairs=25),
            counters=CounterRegistry(),
        )
        got = [r.distance for r in join]
        truth = sorted(
            w.distance_to(r) for w in water for r in roads
        )[:25]
        assert got == pt.approx(truth)

    def test_semijoin_estimation_with_segments(self):
        import pytest as pt

        water = water_segments(30)
        roads = roads_segments(50)
        semi = IncrementalDistanceSemiJoin(
            bulk_load_str(water, max_entries=8),
            bulk_load_str(roads, max_entries=8),
            JoinSpec(leaf_mode="obr", max_pairs=10),
            counters=CounterRegistry(),
        )
        got = [r.distance for r in semi]
        truth = sorted(
            min(w.distance_to(r) for r in roads) for w in water
        )[:10]
        assert got == pt.approx(truth)
