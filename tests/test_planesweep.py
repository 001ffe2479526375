"""Unit + property tests for the plane-sweep candidate generator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planesweep import restrict_entries, restrict_order, sweep_pairs
from repro.geometry.metrics import CHESSBOARD, EUCLIDEAN, MANHATTAN
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.kernels import build_entry_soa, kernels_available
from repro.rtree.entry import BranchEntry, LeafEntry

INF = float("inf")
METRICS = [EUCLIDEAN, MANHATTAN, CHESSBOARD]


def entries(intervals):
    """Entries with the given x-intervals (y fixed)."""
    return [
        LeafEntry(Rect((lo, 0.0), (hi, 1.0)), oid)
        for oid, (lo, hi) in enumerate(intervals)
    ]


def brute(a, b, gap):
    out = set()
    for e1 in a:
        for e2 in b:
            if (
                e2.rect.lo[0] <= e1.rect.hi[0] + gap
                and e1.rect.lo[0] <= e2.rect.hi[0] + gap
            ):
                out.add((e1.oid, e2.oid))
    return out


class TestSweep:
    def test_paper_figure4_lookahead(self):
        # Figure 4: with a non-zero max distance, r1 must be paired
        # with s3 (projection gap <= Dmax) in addition to s1 and s2.
        r = entries([(10, 20)])
        s = entries([(8, 12), (15, 25), (22, 28), (40, 50)])
        got = set(sweep_pairs(r, s, max_gap=3.0))
        assert {(e2.oid) for __, e2 in got} == {0, 1, 2}

    def test_zero_gap_is_intersection_join(self):
        a = entries([(0, 5), (10, 15)])
        b = entries([(4, 6), (20, 30)])
        got = {(e1.oid, e2.oid) for e1, e2 in sweep_pairs(a, b, 0.0)}
        assert got == {(0, 0)}

    def test_infinite_gap_is_cross_product(self):
        a = entries([(0, 1), (5, 6)])
        b = entries([(100, 101)])
        got = list(sweep_pairs(a, b, INF))
        assert len(got) == 2

    def test_empty_inputs(self):
        assert list(sweep_pairs([], entries([(0, 1)]), 1.0)) == []
        assert list(sweep_pairs(entries([(0, 1)]), [], 1.0)) == []

    def test_no_duplicates_on_equal_lows(self):
        a = entries([(5, 10), (5, 12)])
        b = entries([(5, 8), (5, 9)])
        got = list(sweep_pairs(a, b, 1.0))
        keys = [(e1.oid, e2.oid) for e1, e2 in got]
        assert len(keys) == len(set(keys)) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 10)),
            max_size=20,
        ),
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 10)),
            max_size=20,
        ),
        st.floats(0, 30),
    )
    def test_property_matches_brute_force(self, raw_a, raw_b, gap):
        a = entries([(lo, lo + w) for lo, w in raw_a])
        b = entries([(lo, lo + w) for lo, w in raw_b])
        got = [(e1.oid, e2.oid) for e1, e2 in sweep_pairs(a, b, gap)]
        assert len(got) == len(set(got)), "duplicates produced"
        assert set(got) == brute(a, b, gap)


class TestRestrict:
    def test_keeps_close_entries(self):
        region = Rect((0, 0), (10, 10))
        close = LeafEntry(Rect((11, 0), (12, 1)), 0)
        far = LeafEntry(Rect((50, 50), (51, 51)), 1)
        kept = restrict_entries([close, far], region, EUCLIDEAN, 5.0)
        assert kept == [close]

    def test_infinite_distance_keeps_all(self):
        region = Rect((0, 0), (1, 1))
        items = entries([(100, 101), (200, 201)])
        assert restrict_entries(items, region, EUCLIDEAN, INF) == items

    def test_boundary_inclusive(self):
        region = Rect((0, 0), (1, 1))
        at_limit = LeafEntry(Rect((4, 0), (5, 1)), 0)
        kept = restrict_entries([at_limit], region, EUCLIDEAN, 3.0)
        assert kept == [at_limit]


def point_entries(coords):
    return [
        LeafEntry(Rect(c, c), oid, Point(c)) for oid, c in enumerate(coords)
    ]


def restricted(entries, region, metric, bound):
    """``restrict_order`` over the entries' cached columns, and the mask
    it replaced: the sweep order filtered by ``mindist <= bound``."""
    lo, hi, order, keys = build_entry_soa(entries).sweep_columns()
    got = restrict_order(lo, hi, order, keys, region, metric.p, bound)
    want = [
        i for i in order
        if metric.mindist_rect_rect(entries[i].rect, region) <= bound
    ]
    return got, want


COORD = st.one_of(
    st.integers(-8, 8).map(float),  # sweep-key ties, exact gaps
    st.floats(-1e3, 1e3),
    st.floats(-1e-200, 1e-200),  # gaps whose squares underflow
)
SIDE = st.one_of(st.just(0.0), st.integers(0, 4).map(float), st.floats(0, 50))


@st.composite
def boxes(draw, dim, points):
    lo = [draw(COORD) for __ in range(dim)]
    return Rect(lo, lo if points else [c + draw(SIDE) for c in lo])


@pytest.mark.skipif(not kernels_available(), reason="numpy not importable")
class TestRestrictOrder:
    """``restrict_order`` keeps exactly the entries the whole-node mask
    kept, in the cached sweep order, for every metric and dimension."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_property_equals_the_mask_it_replaces(self, data):
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        metric = data.draw(st.sampled_from(METRICS), label="metric")
        kind = data.draw(
            st.sampled_from(["points", "rects", "branches"]), label="kind"
        )
        rects = data.draw(
            st.lists(boxes(dim, kind == "points"), min_size=1, max_size=24),
            label="rects",
        )
        region = data.draw(boxes(dim, False), label="region")
        if kind == "points":
            entries = point_entries([r.lo for r in rects])
        elif kind == "rects":
            entries = [LeafEntry(r, oid) for oid, r in enumerate(rects)]
        else:
            entries = [BranchEntry(r, page) for page, r in enumerate(rects)]
        # Bounds at, and one ulp either side of, some entry's MINDIST.
        exact = st.sampled_from(
            [metric.mindist_rect_rect(r, region) for r in rects]
        ).flatmap(lambda d: st.sampled_from(
            [d, math.nextafter(d, -INF), math.nextafter(d, INF)]
        ))
        bound = data.draw(st.one_of(
            exact, st.just(0.0), st.just(INF), st.floats(0, 100)
        ), label="bound")
        got, want = restricted(entries, region, metric, bound)
        assert got == want

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_gap_of_exactly_the_bound_is_kept(self, metric):
        region = Rect((0.0, 0.0), (0.0, 1.0))
        two = 2.0
        less, more = math.nextafter(two, 0.0), math.nextafter(two, INF)
        # Axis-0 gaps, each exact: 2 + ulp, 2, 2 - ulp below the region,
        # then 2 - ulp, 2, 2 + ulp above it.
        entries = point_entries([
            (-more, 0.5), (-two, 0.5), (-less, 0.5),
            (less, 0.5), (two, 0.5), (more, 0.5),
        ])
        got, want = restricted(entries, region, metric, two)
        assert got == want == [1, 2, 3, 4]
        got, want = restricted(entries, region, metric, less)
        assert got == want == [2, 3]
        got, want = restricted(entries, region, metric, more)
        assert got == want == [0, 1, 2, 3, 4, 5]

    def test_rounding_in_the_cut_drops_nothing_the_test_keeps(self):
        region = Rect((-2.0, 0.0), (-1.0, 1.0))
        bound = math.nextafter(1.0, INF)
        x = 2.3e-16
        # An unwidened cut, region.hi[0] + bound, is about 2.2e-16 ...
        assert x > region.hi[0] + bound
        # ... yet the gap x - region.hi[0] rounds to the bound itself.
        for metric in METRICS:
            for entries in (
                point_entries([(x, 0.5)]),
                [BranchEntry(Rect((x, 0.0), (x + 1.0, 1.0)), 7)],
            ):
                got, want = restricted(entries, region, metric, bound)
                assert got == want == [0]
        # A gap whose square underflows: L2 reads MINDIST 0 at bound 0,
        # though the point lies beyond region.hi[0] + 0.
        tiny = point_entries([(1e-200, 0.5)])
        region = Rect((-1.0, 0.0), (0.0, 1.0))
        for metric, kept in (
            (EUCLIDEAN, [0]), (MANHATTAN, []), (CHESSBOARD, []),
        ):
            got, want = restricted(tiny, region, metric, 0.0)
            assert got == want == kept

    def test_duplicate_sweep_keys_keep_the_stable_order(self):
        region = Rect((2.5, 0.0), (3.5, 1.0))
        entries = point_entries(
            [(3.0, 9.0), (1.0, 0.0), (3.0, 0.0), (1.0, 0.5), (3.0, 1.0),
             (5.5, 0.5)]
        )
        got, want = restricted(entries, region, EUCLIDEAN, 1.5)
        assert got == want == [1, 3, 2, 4]

    @pytest.mark.parametrize("metric", METRICS)
    def test_zero_bound_keeps_what_touches(self, metric):
        region = Rect((1.0, 1.0), (2.0, 2.0))
        apart = math.nextafter(1.0, 0.0)
        rects = [
            Rect((0.0, 0.0), (1.0, 1.0)),      # a shared corner
            Rect((2.0, 1.5), (3.0, 4.0)),      # a shared edge
            Rect((0.0, 0.0), (apart, 1.0)),    # one ulp apart
            Rect((1.2, 1.2), (1.8, 1.8)),      # inside
        ]
        got, want = restricted(
            [LeafEntry(r, oid) for oid, r in enumerate(rects)],
            region, metric, 0.0,
        )
        assert got == want == [0, 3, 1]
        got, want = restricted(
            point_entries([(1.0, 1.5), (apart, 1.5), (2.0, 2.0)]),
            region, metric, 0.0,
        )
        assert got == want == [0, 2]

    def test_a_branch_node_has_no_lower_cut(self):
        region = Rect((60.0, 0.0), (61.0, 1.0))
        # lo[0] is far below region.lo[0] - bound; hi[0] is not.
        wide = BranchEntry(Rect((-100.0, 0.0), (50.0, 1.0)), 3)
        short = BranchEntry(Rect((-100.0, 0.0), (49.0, 1.0)), 4)
        got, want = restricted([short, wide], region, EUCLIDEAN, 10.0)
        assert got == want == [1]

    def test_a_node_of_points_holds_one_copy_of_its_columns(self):
        lo, hi, order, keys = build_entry_soa(
            point_entries([(2.0, 1.0), (0.0, 3.0), (1.0, 2.0)])
        ).sweep_columns()
        assert hi is lo and lo == [[2.0, 0.0, 1.0], [1.0, 3.0, 2.0]]
        assert order == [1, 2, 0]
        assert all(k is lo[0][i] for k, i in zip(keys, order))
        lo, hi, __, ___ = build_entry_soa(
            entries([(0.0, 1.0), (2.0, 2.0)])
        ).sweep_columns()
        assert hi is not lo and hi[0] == [1.0, 2.0]
