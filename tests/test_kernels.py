"""Tests for the vectorized batch kernels (repro.kernels).

The load-bearing property is *bit*-identity: every batch kernel must
equal the scalar ``Metric`` evaluation exactly (``==``, not approx),
and a ``kernel="vector"`` join must reproduce a ``kernel="scalar"``
join down to row order, tie-break sequence, and every counter value
and peak.  See docs/KERNELS.md for why that is achievable.
"""

import functools
import math
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.estimate import JoinEstimator, SemiJoinEstimator
from repro.core.knn_join import KNearestNeighborJoin
from repro.core.pairs import (
    DIST_CODE, NODE, OBJ, ROW_CODE, CandidateBlock, Item, Pair,
)
from repro.core.pqueue import _unrolled
from repro.core.reverse import ReverseDistanceJoin, ReverseDistanceSemiJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.core.tiebreak import KeyMaker
from repro.core.trace import traced_join
from repro.datasets.tiger_like import (
    roads_points, roads_segments, water_points, water_segments,
)
from repro.errors import KernelError
from repro.geometry.metrics import (
    CHESSBOARD,
    EUCLIDEAN,
    MANHATTAN,
    MinkowskiMetric,
)
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.bulk import bulk_load_str
from repro.kernels import (
    DISABLE_ENV,
    kernels_available,
    resolve_kernels,
    support_reason,
)
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree

requires_numpy = pytest.mark.skipif(
    not kernels_available(), reason="numpy not importable"
)

METRICS = [EUCLIDEAN, MANHATTAN, CHESSBOARD]

#: Wide-range coordinates including huge magnitudes and zero-area
#: rectangles (a == b collapses a side).
_coord = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False
)


def _rect_pair(a, b):
    return Rect(
        tuple(min(x, y) for x, y in zip(a, b)),
        tuple(max(x, y) for x, y in zip(a, b)),
    )


def coords(dim=2):
    return st.tuples(*([_coord] * dim))


def rects(dim=2):
    return st.builds(_rect_pair, coords(dim), coords(dim))


# ----------------------------------------------------------------------
# elementwise bit-identity of the kernels vs the scalar Metric
# ----------------------------------------------------------------------


@requires_numpy
class TestKernelBitIdentity:
    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=200, deadline=None)
    @given(rs=st.lists(st.tuples(rects(), rects()), min_size=1,
                       max_size=8))
    def test_mindist_matches_scalar_exactly(self, metric, rs):
        kern = resolve_kernels("vector", metric)
        lo1 = [r1.lo for r1, _ in rs]
        hi1 = [r1.hi for r1, _ in rs]
        lo2 = [r2.lo for _, r2 in rs]
        hi2 = [r2.hi for _, r2 in rs]
        batch = kern.mindist(lo1, hi1, lo2, hi2).tolist()
        scalar = [metric.mindist_rect_rect(r1, r2) for r1, r2 in rs]
        assert batch == scalar  # exact, not approx

    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=200, deadline=None)
    @given(rs=st.lists(st.tuples(rects(), rects()), min_size=1,
                       max_size=8))
    def test_maxdist_matches_scalar_exactly(self, metric, rs):
        kern = resolve_kernels("vector", metric)
        batch = kern.maxdist(
            [r1.lo for r1, _ in rs], [r1.hi for r1, _ in rs],
            [r2.lo for _, r2 in rs], [r2.hi for _, r2 in rs],
        ).tolist()
        scalar = [metric.maxdist_rect_rect(r1, r2) for r1, r2 in rs]
        assert batch == scalar

    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=200, deadline=None)
    @given(rs=st.lists(st.tuples(rects(), rects()), min_size=1,
                       max_size=8))
    def test_minmaxdist_matches_scalar_exactly(self, metric, rs):
        kern = resolve_kernels("vector", metric)
        batch = kern.minmaxdist(
            [r1.lo for r1, _ in rs], [r1.hi for r1, _ in rs],
            [r2.lo for _, r2 in rs], [r2.hi for _, r2 in rs],
        ).tolist()
        scalar = [metric.minmaxdist_rect_rect(r1, r2) for r1, r2 in rs]
        assert batch == scalar

    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=200, deadline=None)
    @given(ps=st.lists(st.tuples(coords(), coords()), min_size=1,
                       max_size=8))
    def test_point_distance_matches_scalar_exactly(self, metric, ps):
        kern = resolve_kernels("vector", metric)
        batch = kern.point_distance(
            [a for a, _ in ps], [b for _, b in ps]
        ).tolist()
        scalar = [
            metric.distance(Point(a), Point(b)) for a, b in ps
        ]
        assert batch == scalar
        # Every row against one point's coordinate tuple.
        one = ps[0][1]
        batch = kern.point_distance([a for a, _ in ps], one).tolist()
        assert batch == [
            metric.distance(Point(a), Point(one)) for a, _ in ps
        ]

    def test_single_rect_broadcasts_against_batch(self):
        kern = resolve_kernels("vector", EUCLIDEAN)
        query = Rect((0.0, 0.0), (1.0, 1.0))
        others = [
            Rect((2.0, 0.0), (3.0, 1.0)),
            Rect((0.5, 0.5), (0.75, 0.75)),
            Rect((-4.0, -4.0), (-3.0, -3.0)),
        ]
        batch = kern.mindist(
            [r.lo for r in others], [r.hi for r in others],
            query.lo, query.hi,
        ).tolist()
        scalar = [
            EUCLIDEAN.mindist_rect_rect(r, query) for r in others
        ]
        assert batch == scalar

    def test_degenerate_zero_area_and_infinite(self):
        kern = resolve_kernels("vector", EUCLIDEAN)
        inf = math.inf
        cases = [
            (Rect((1.0, 1.0), (1.0, 1.0)), Rect((1.0, 1.0), (1.0, 1.0))),
            (Rect((0.0, 0.0), (0.0, 5.0)), Rect((3.0, 1.0), (3.0, 1.0))),
            (Rect((-inf, 0.0), (0.0, 0.0)), Rect((1.0, 0.0), (inf, 0.0))),
            (Rect((-inf, -inf), (inf, inf)), Rect((0.0, 0.0), (1.0, 1.0))),
        ]
        for name in ("mindist", "maxdist", "minmaxdist"):
            batch = getattr(kern, name)(
                [a.lo for a, _ in cases], [a.hi for a, _ in cases],
                [b.lo for _, b in cases], [b.hi for _, b in cases],
            ).tolist()
            scalar = [
                getattr(EUCLIDEAN, f"{name}_rect_rect")(a, b)
                for a, b in cases
            ]
            for got, want in zip(batch, scalar):
                assert got == want or (
                    math.isnan(got) and math.isnan(want)
                )


# ----------------------------------------------------------------------
# kernel resolution and the spec knob
# ----------------------------------------------------------------------


class TestResolution:
    def test_scalar_mode_never_resolves(self):
        assert resolve_kernels("scalar", EUCLIDEAN) is None

    @requires_numpy
    def test_auto_resolves_supported_metrics(self):
        for metric in METRICS:
            assert resolve_kernels("auto", metric) is not None

    def test_general_p_unsupported(self):
        metric = MinkowskiMetric(3.0)
        assert support_reason(metric) is not None
        assert resolve_kernels("auto", metric) is None
        if kernels_available():
            with pytest.raises(KernelError):
                resolve_kernels("vector", metric)

    def test_vector_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert not kernels_available()
        with pytest.raises(KernelError):
            resolve_kernels("vector", EUCLIDEAN)

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert resolve_kernels("auto", EUCLIDEAN) is None
        join = IncrementalDistanceJoin(
            make_tree(make_points(10, seed=1)),
            make_tree(make_points(10, seed=2)),
            JoinSpec(kernel="auto"),
            counters=CounterRegistry(),
        )
        assert join._kern is None
        assert len(list(join)) == 100

    def test_vector_join_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        with pytest.raises(KernelError):
            IncrementalDistanceJoin(
                make_tree(make_points(5, seed=1)),
                make_tree(make_points(5, seed=2)),
                JoinSpec(kernel="vector"),
                counters=CounterRegistry(),
            )

    def test_spec_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            JoinSpec(kernel="simd").validate()


# ----------------------------------------------------------------------
# the columnar mirror and its invalidation
# ----------------------------------------------------------------------


@requires_numpy
class TestEntrySoA:
    def test_mirror_matches_entries(self):
        tree = make_tree(make_points(40, seed=7))
        node = tree.read_node(tree.root_id)
        soa = node.entries_soa()
        assert soa.n == len(node.entries)
        for i, entry in enumerate(node.entries):
            assert tuple(soa.lo[i]) == entry.rect.lo
            assert tuple(soa.hi[i]) == entry.rect.hi

    def test_leaf_points_mirrored(self):
        points = make_points(6, seed=3)
        tree = make_tree(points, max_entries=8)
        node = tree.read_node(tree.root_id)
        if node.level == 0:
            soa = node.entries_soa()
            assert soa.pts is not None
            assert soa.pts.shape == (len(points), 2)

    def test_cache_reused_until_mutation(self):
        tree = make_tree(make_points(20, seed=9))
        node = tree.read_node(tree.root_id)
        first = node.entries_soa()
        assert node.entries_soa() is first
        tree.insert(obj=Point((1.5, 2.5)))
        root = tree.read_node(tree.root_id)
        assert root.entries_soa() is not first

    def test_delete_invalidates(self):
        points = make_points(10, seed=13)
        tree = make_tree(points, max_entries=16)
        node = tree.read_node(tree.root_id)
        before = node.entries_soa()
        tree.delete(oid=0, rect=Rect.from_point(points[0]))
        root = tree.read_node(tree.root_id)
        after = root.entries_soa()
        assert after is not before
        assert after.n == before.n - 1


# ----------------------------------------------------------------------
# whole-join bit-identity (rows, tie order, counters, peaks)
# ----------------------------------------------------------------------


def _run(operator, knobs, kernel, limit=400, check_consistency=False,
         sizes=(60, 80), seeds=(11, 22), max_entries=8, segments=False):
    # Fresh trees per run: a shared tree's buffer pool would hand the
    # second run warm node reads and skew node_io.
    counters = CounterRegistry()
    if segments:
        # Objects with extent: MINMAXDIST < MAXDIST on their rectangles.
        tree_a = bulk_load_str(water_segments(sizes[0]),
                               max_entries=max_entries, counters=counters)
        tree_b = bulk_load_str(roads_segments(sizes[1]),
                               max_entries=max_entries, counters=counters)
    else:
        tree_a = make_tree(make_points(sizes[0], seed=seeds[0]),
                           max_entries=max_entries, counters=counters)
        tree_b = make_tree(make_points(sizes[1], seed=seeds[1]),
                           max_entries=max_entries, counters=counters)
    join = operator(
        tree_a, tree_b, JoinSpec(kernel=kernel, **knobs),
        counters=counters, check_consistency=check_consistency,
    )
    rows = []
    for r in join:
        rows.append((r.distance, r.oid1, r.oid2))
        if len(rows) >= limit:
            break
    snap = counters.full_snapshot()
    return rows, dict(snap.values), dict(snap.peaks)


def _odd_oid_sum(pair):
    """A pair filter that thins object pairs out (and keeps the rest)."""
    if pair.item1.kind == OBJ and pair.item2.kind == OBJ:
        return (pair.item1.oid + pair.item2.oid) % 2 == 1
    return True


#: Joins with ``max_pairs``: the estimator runs, so expansions enqueue
#: and offer one block each (``check_consistency=True`` keeps the
#: per-pair loop, the reference of TestBlockEqualsPerPair).
ESTIMATED_CONFIGS = [
    ("estimated", IncrementalDistanceJoin,
     dict(max_pairs=150, estimate=True)),
    ("estimated_simultaneous", IncrementalDistanceJoin,
     dict(max_pairs=150, node_policy="simultaneous")),
    ("estimated_ranged", IncrementalDistanceJoin,
     dict(max_pairs=150, min_distance=5.0, max_distance=40.0)),
    ("estimated_obr", IncrementalDistanceJoin,
     dict(max_pairs=150, leaf_mode="obr")),
    ("estimated_obr_simultaneous", IncrementalDistanceJoin,
     dict(max_pairs=150, leaf_mode="obr", node_policy="simultaneous")),
    ("estimated_segments", IncrementalDistanceJoin,
     dict(max_pairs=150, leaf_mode="obr")),
    ("estimated_segments_simultaneous", IncrementalDistanceJoin,
     dict(max_pairs=150, leaf_mode="obr", node_policy="simultaneous")),
    ("estimated_filtered", IncrementalDistanceJoin,
     dict(max_pairs=150, pair_filter=_odd_oid_sum)),
    ("estimated_restart", IncrementalDistanceJoin,
     dict(max_pairs=30 * 40, aggressive=True)),
    ("estimated_semi", IncrementalDistanceSemiJoin,
     dict(max_pairs=40)),
    ("estimated_semi_global", IncrementalDistanceSemiJoin,
     dict(max_pairs=40, dmax_strategy="global_all")),
    ("estimated_knn", functools.partial(KNearestNeighborJoin, k=2),
     dict(max_pairs=90)),
    ("estimated_all_pairs", IncrementalDistanceJoin,
     dict(max_pairs=60 * 80 + 10)),
    ("estimated_max_distance", IncrementalDistanceJoin,
     dict(max_pairs=150, max_distance=20.0)),
    ("estimated_hybrid", IncrementalDistanceJoin,
     dict(max_pairs=150, queue="hybrid", queue_dt=2.0)),
    ("estimated_basic", IncrementalDistanceJoin,
     dict(max_pairs=150, node_policy="basic")),
    ("estimated_breadth", IncrementalDistanceJoin,
     dict(max_pairs=150, tie_break="breadth_first")),
    ("estimated_manhattan", IncrementalDistanceJoin,
     dict(max_pairs=150, metric=MANHATTAN)),
    ("estimated_chessboard", IncrementalDistanceJoin,
     dict(max_pairs=150, metric=CHESSBOARD)),
]

#: ``_run`` arguments of the configs that need other than the defaults.
RUN_OPTIONS = {
    # Average occupancy overestimates these small trees: the queue
    # empties one pair short of K and the join restarts.
    "estimated_restart": dict(
        limit=10_000, sizes=(30, 40), seeds=(0, 50), max_entries=4
    ),
    "estimated_all_pairs": dict(limit=10_000),
    "estimated_segments": dict(segments=True),
    "estimated_segments_simultaneous": dict(segments=True),
}

JOIN_CONFIGS = [
    ("even_depth", IncrementalDistanceJoin,
     dict(node_policy="even", tie_break="depth_first")),
    ("even_breadth", IncrementalDistanceJoin,
     dict(node_policy="even", tie_break="breadth_first")),
    ("basic", IncrementalDistanceJoin,
     dict(node_policy="basic")),
    ("simultaneous", IncrementalDistanceJoin,
     dict(node_policy="simultaneous")),
    ("ranged", IncrementalDistanceJoin,
     dict(min_distance=5.0, max_distance=40.0)),
    ("manhattan", IncrementalDistanceJoin,
     dict(metric=MANHATTAN)),
    ("chessboard_sim", IncrementalDistanceJoin,
     dict(metric=CHESSBOARD, node_policy="simultaneous")),
    ("semi_local", IncrementalDistanceSemiJoin,
     dict(dmax_strategy="local")),
    ("semi_global", IncrementalDistanceSemiJoin,
     dict(dmax_strategy="global_all")),
    ("reverse", ReverseDistanceJoin, dict()),
    ("reverse_ranged", ReverseDistanceJoin,
     dict(min_distance=5.0, max_distance=40.0)),
    ("reverse_semi", ReverseDistanceSemiJoin, dict()),
] + ESTIMATED_CONFIGS


@requires_numpy
class TestJoinBitIdentity:
    @pytest.mark.parametrize(
        "name,operator,knobs",
        JOIN_CONFIGS,
        ids=[c[0] for c in JOIN_CONFIGS],
    )
    def test_vector_equals_scalar(self, name, operator, knobs):
        options = RUN_OPTIONS.get(name, {})
        scalar = _run(operator, knobs, "scalar", **options)
        vector = _run(operator, knobs, "vector", **options)
        assert vector[0] == scalar[0]  # rows, order included
        assert vector[1] == scalar[1]  # counter values
        assert vector[2] == scalar[2]  # counter peaks

    def test_full_result_identical(self):
        # Drain the whole join, not just a prefix: the tail is where
        # tie-break sequence drift would surface.
        rows_s = _run(IncrementalDistanceJoin, {}, "scalar",
                      limit=10_000)[0]
        rows_v = _run(IncrementalDistanceJoin, {}, "vector",
                      limit=10_000)[0]
        assert len(rows_s) == 60 * 80
        assert rows_v == rows_s


class TestBlockEqualsPerPair:
    """One block enqueue + one estimator ``offer`` per expansion leaves
    the rows, every counter value and every peak of the per-pair loop
    (kept by ``check_consistency=True``, with scalar d_max bounds)."""

    @pytest.mark.parametrize(
        "kernel",
        ["scalar", pytest.param("vector", marks=requires_numpy)],
    )
    @pytest.mark.parametrize(
        "name,operator,knobs",
        ESTIMATED_CONFIGS,
        ids=[c[0] for c in ESTIMATED_CONFIGS],
    )
    def test_block_equals_per_pair(self, name, operator, knobs, kernel):
        options = RUN_OPTIONS.get(name, {})
        block = _run(operator, knobs, kernel, **options)
        per_pair = _run(operator, knobs, kernel,
                        check_consistency=True, **options)
        if knobs.get("aggressive"):
            # The aggressive count reads the root node for its average
            # occupancy -- once per block here, once per pair there:
            # buffer traffic (always a hit), not algorithm work.
            for counts in block[1:] + per_pair[1:]:
                del counts["node_reads"], counts["buffer_hits"]
        assert block == per_pair
        # Every config but the never-full one does trim.
        assert block[1].get("estimator_trims", 0) > 0 or \
            name == "estimated_all_pairs"

    @pytest.mark.parametrize("descending", [False, True],
                             ids=["ascending", "descending"])
    @pytest.mark.parametrize(
        "node_policy", ["basic", "even", "simultaneous"]
    )
    @pytest.mark.parametrize(
        "tie_break", ["depth_first", "breadth_first"]
    )
    @pytest.mark.parametrize("max_pairs", [None, 150],
                             ids=["unbounded", "bounded"])
    @pytest.mark.parametrize("queue", ["memory", "hybrid", "adaptive"])
    def test_block_equals_per_pair_on_every_queue(
        self, queue, max_pairs, tie_break, node_policy, descending
    ):
        """Blocks in every queue tier: heap, unorganised list and disk
        bands (and the adaptive queue's warm-up heap) all order and
        return block rows exactly as they do per-pair ``Pair`` values.
        ``kernel="auto"``: vector here, scalar on the no-numpy leg."""
        knobs = dict(
            queue=queue, max_pairs=max_pairs, tie_break=tie_break,
            node_policy=node_policy, descending=descending,
        )
        if queue == "hybrid":
            knobs["queue_dt"] = 2.0
        block = _run(IncrementalDistanceJoin, knobs, "auto")
        per_pair = _run(IncrementalDistanceJoin, knobs, "auto",
                        check_consistency=True)
        assert block == per_pair
        assert len(block[0]) == (max_pairs or 400)
        if queue != "memory" and max_pairs is None and not descending:
            # Negated keys all band below the cursor and a K-bounded
            # queue may stay small; these must have used the disk tier.
            assert block[1]["pq_disk_reads"] > 0

    def test_pairs_are_built_when_popped_not_when_pushed(
        self, monkeypatch
    ):
        """Late materialisation itself: an unbounded hybrid join builds
        one ``Pair`` per pop (plus the root pair), not one per insert."""
        from repro.core.pairs import Pair
        from repro.core.pqueue import HybridPairQueue

        made = []
        pops = []
        pair_init = Pair.__init__
        queue_pop = HybridPairQueue.pop

        def counting_init(self, *args):
            made.append(1)
            pair_init(self, *args)

        def counting_pop(self):
            pops.append(1)
            return queue_pop(self)

        monkeypatch.setattr(Pair, "__init__", counting_init)
        monkeypatch.setattr(HybridPairQueue, "pop", counting_pop)
        values = _run(IncrementalDistanceJoin,
                      dict(queue="hybrid", queue_dt=2.0), "auto")[1]
        assert values["pairs_reported"] == 400
        assert values["pq_disk_writes"] > len(pops)
        assert len(made) <= len(pops) + 1 < values["queue_inserts"]

    def test_restart_config_restarts(self):
        name, operator, knobs = next(
            c for c in ESTIMATED_CONFIGS if c[0] == "estimated_restart"
        )
        values = _run(operator, knobs, "scalar", **RUN_OPTIONS[name])[1]
        assert values["restarts"] == 1

    def test_traced_join_records_one_push_per_candidate(self):
        """The JoinTrace mixin overrides ``_push``: a K-bounded join
        still goes through it once per enqueued pair."""
        counters = CounterRegistry()
        tree_a = make_tree(make_points(60, seed=11), counters=counters)
        tree_b = make_tree(make_points(80, seed=22), counters=counters)
        join, trace = traced_join(
            IncrementalDistanceJoin, tree_a, tree_b,
            JoinSpec(max_pairs=150), counters=counters,
        )
        rows = [(r.distance, r.oid1, r.oid2) for r in join]
        assert rows == _run(IncrementalDistanceJoin,
                            dict(max_pairs=150), "auto")[0]
        assert trace.pushes == counters.value("queue_inserts") > 150
        assert counters.value("estimator_trims") > 0


# ----------------------------------------------------------------------
# one simultaneous expansion: the vector block against the scalar block
# ----------------------------------------------------------------------


def _tree_of(coords):
    """A tree whose root is one leaf holding ``coords`` in entry order."""
    return make_tree([Point(c) for c in coords])


#: Root pairs expanded at one bound each: (coordinates of A, of B,
#: eff_dmax, spec knobs).
BLOCK_CASES = {
    # Equal sweep-axis lo values everywhere: the stable order decides.
    "duplicate_lo": (
        [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (0, 3)],
        [(0, 0.5), (1, 0.5), (0, 1.5), (2, 2), (1, 1.5), (0, 0.5)],
        1.2, {},
    ),
    # Node 1's entries are all beyond the bound from node 2's region,
    # while node 2 keeps (5, 3); then the other way round.
    "side1_empty": ([(0, 0), (10, 0)], [(5, 3), (5, 100)], 4.0, {}),
    "side2_empty": ([(5, 3), (5, 100)], [(0, 0), (10, 0)], 4.0, {}),
    "unbounded": (
        [(3, 1), (0, 4), (2, 2), (5, 0)], [(1, 1), (4, 4), (0, 0)],
        math.inf, {},
    ),
    "min_distance": (
        [(0, 0), (1, 3), (4, 1), (6, 6), (2, 5)],
        [(1, 1), (5, 2), (3, 3), (7, 0)],
        5.0, {"min_distance": 2.5},
    ),
}


def _expanded(kernel, tree_a, tree_b, node1, node2, eff_dmax, knobs):
    """One simultaneous expansion of ``node1`` x ``node2``: the block's
    distances, each row's two entries as indices into the nodes'
    entry lists, the rows' estimation d_max values, and the counters
    the expansion charged."""
    counters = CounterRegistry()
    join = IncrementalDistanceJoin(
        tree_a, tree_b, JoinSpec(kernel=kernel, max_pairs=100, **knobs),
        counters=counters,
    )
    pair = Pair(
        Item(NODE, node1.mbr(), node_id=node1.page_id, level=node1.level),
        Item(NODE, node2.mbr(), node_id=node2.page_id, level=node2.level),
        0.0,
    )
    expand = (
        join._expand_both_vector if kernel == "vector"
        else join._expand_both_scalar
    )
    before = counters.full_snapshot()
    block = expand(node1, node2, pair, eff_dmax)
    charged = counters.full_snapshot().delta_from(before).values

    def entry_of(node, item):
        return [
            e.oid if node.level == 0 else e.child_id for e in node.entries
        ].index(item.oid if node.level == 0 else item.node_id)

    rows = [entry_of(node1, block.first(r)) for r in range(len(block))]
    rows2 = [entry_of(node2, block.second(r)) for r in range(len(block))]
    if kernel == "vector":
        # The vector block's rows are the entry indices themselves
        # (typed columns: compared by value).
        assert (list(block.rows), list(block.rows2)) == (rows, rows2)
    uppers = block.uppers
    if uppers is None and len(block):
        # Computed on enqueue otherwise (after the charges above); an
        # object/object row's exact distance is its own d_max.
        uppers = join._dmax_of(block, *block.head())
    return block.dists, rows, rows2, uppers, charged


def _same_level_pairs(tree_a, tree_b):
    """Every node of A paired with every node of B on its level."""
    def levels(tree):
        nodes = {}
        stack = [tree.root_id]
        while stack:
            node = tree.read_node(stack.pop())
            nodes.setdefault(node.level, []).append(node)
            if node.level > 0:
                stack.extend(e.child_id for e in node.entries)
        return nodes

    by_level_b = levels(tree_b)
    return [
        (n1, n2)
        for level, nodes in levels(tree_a).items()
        for n1 in nodes for n2 in by_level_b.get(level, [])
    ]


@requires_numpy
class TestSimultaneousBlocks:
    """``_expand_both_vector`` builds the block ``_expand_both_scalar``
    builds -- distances, the entries of every row in row order, the
    d_max values -- and charges the same counters, whichever side the
    restriction empties, at any bound, under every supported metric."""

    @staticmethod
    def assert_same(tree_a, tree_b, node1, node2, eff_dmax, knobs):
        vector = _expanded("vector", tree_a, tree_b, node1, node2,
                           eff_dmax, knobs)
        scalar = _expanded("scalar", tree_a, tree_b, node1, node2,
                           eff_dmax, knobs)
        assert vector == scalar
        return vector

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("leaf_mode", ["direct", "obr"])
    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_root_pair(self, name, leaf_mode, metric):
        coords_a, coords_b, eff_dmax, knobs = BLOCK_CASES[name]
        tree_a, tree_b = _tree_of(coords_a), _tree_of(coords_b)
        root_a = tree_a.read_node(tree_a.root_id)
        root_b = tree_b.read_node(tree_b.root_id)
        knobs = dict(knobs, metric=metric, leaf_mode=leaf_mode)
        dists, __, ___, ____, charged = self.assert_same(
            tree_a, tree_b, root_a, root_b, eff_dmax, knobs
        )
        assert charged["bound_calcs"] >= len(coords_a) + len(coords_b)
        assert bool(dists) == (name not in ("side1_empty", "side2_empty"))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("eff_dmax", [0.0, 6.0, 25.0, math.inf])
    def test_every_node_pair_of_two_trees(self, eff_dmax, metric):
        tree_a = make_tree(make_points(60, seed=11))
        tree_b = make_tree(make_points(80, seed=22))
        kept = 0
        for node1, node2 in _same_level_pairs(tree_a, tree_b):
            kept += len(self.assert_same(
                tree_a, tree_b, node1, node2, eff_dmax, {"metric": metric}
            )[0])
        assert kept > 0

    @pytest.mark.parametrize("name, tests", [
        ("side1_empty", 1), ("side2_empty", 2), ("duplicate_lo", 2),
        ("unbounded", 0),
    ])
    def test_side_two_is_not_restricted_once_side_one_is_empty(
        self, monkeypatch, name, tests
    ):
        from repro.core import distance_join

        regions = []
        restrict_order = distance_join.restrict_order

        def counted(lo, hi, order, keys, other_region, *args):
            regions.append(other_region)
            return restrict_order(lo, hi, order, keys, other_region, *args)

        monkeypatch.setattr(distance_join, "restrict_order", counted)
        coords_a, coords_b, eff_dmax, knobs = BLOCK_CASES[name]
        tree_a, tree_b = _tree_of(coords_a), _tree_of(coords_b)
        root_a = tree_a.read_node(tree_a.root_id)
        root_b = tree_b.read_node(tree_b.root_id)
        _expanded("vector", tree_a, tree_b, root_a, root_b, eff_dmax, knobs)
        assert len(regions) == tests
        # Node 1 is tested against node 2's region first; node 2's
        # columns are never even built once node 1 keeps nothing.
        assert regions[:1] in ([], [root_b.mbr()])
        swept = root_b.entries_soa().sweep_order is not None
        assert swept == (name != "side1_empty")

    def test_the_cached_order_dies_with_its_soa(self):
        coords_a, coords_b, eff_dmax, knobs = BLOCK_CASES["duplicate_lo"]
        # Room for one more entry in the root leaf.
        tree_a, tree_b = _tree_of(coords_a[:6]), _tree_of(coords_b)

        def expand():
            root_a = tree_a.read_node(tree_a.root_id)
            root_b = tree_b.read_node(tree_b.root_id)
            assert root_a.level == 0
            rows = self.assert_same(
                tree_a, tree_b, root_a, root_b, eff_dmax, knobs
            )[1]
            soa = root_a.entries_soa()
            assert soa.sweep_order is not None
            return root_a, soa, rows

        __, first, ___ = expand()
        # A new leftmost entry: it heads the sweep order once rebuilt.
        leftmost = Point((-0.5, 0.75))
        oid = tree_a.insert(obj=leftmost)
        root_a, second, rows = expand()
        assert second is not first
        new = [e.oid for e in root_a.entries].index(oid)
        assert second.sweep_order[0] == new and new in rows
        assert tree_a.delete(oid, Rect.from_point(leftmost))
        __, third, rows = expand()
        assert third is not second
        assert third.sweep_order == first.sweep_order
        assert len(rows) == len(expand()[2])


# ----------------------------------------------------------------------
# bulk-push plumbing
# ----------------------------------------------------------------------


class TestBulkPush:
    def test_pairing_heap_push_many_matches_push(self):
        from repro.core.heap import PairingHeap

        keys = [5, 1, 3, 3, 2, 8, 1, 9, 0, 3]
        one = PairingHeap()
        for i, k in enumerate(keys):
            one.push(k, i)
        bulk = PairingHeap()
        bulk.push_many([(k, i) for i, k in enumerate(keys)])
        assert len(bulk) == len(one)
        drained_one = [one.pop() for __ in range(len(keys))]
        drained_bulk = [bulk.pop() for __ in range(len(keys))]
        # Equal keys included: bulk insertion builds the identical
        # heap structure, so even tie order matches.
        assert drained_bulk == drained_one

    def test_key_batch_matches_per_pair_keys(self):
        from repro.core.pairs import NODE, Item, Pair

        rect = Rect((0.0, 0.0), (1.0, 1.0))
        for tie in ("depth_first", "breadth_first"):
            for descending in (False, True):
                pairs = [
                    Pair(Item(NODE, rect, node_id=i, level=2),
                         Item(NODE, rect, node_id=9, level=1),
                         float(i))
                    for i in range(5)
                ]
                a = KeyMaker(tie, descending=descending)
                b = KeyMaker(tie, descending=descending)
                singles = [a.key(p, p.distance) for p in pairs]
                batch = b.key_batch(pairs[0], [p.distance for p in pairs])
                assert batch == singles
                assert a.seq == b.seq


# ----------------------------------------------------------------------
# block columns: typed arrays on every path, and what a queued row costs
# ----------------------------------------------------------------------


def _assert_typed(block):
    """Every column of ``block`` is a typed array (a ``range`` for an
    undropped row column), and a one-sided block's rows are a range
    unless the expansion dropped a child."""
    assert type(block.dists) is array and block.dists.typecode == DIST_CODE
    for rows in (block.rows, block.rows2):
        if rows is not None and type(rows) is not range:
            assert type(rows) is array and rows.typecode == ROW_CODE
    if block.side:
        assert type(block.rows) is range or len(block.rows) < len(
            block.items
        )
    if block.uppers is not None:
        assert type(block.uppers) is array
        assert block.uppers.typecode == DIST_CODE


#: Whole joins covering every block-producing path: (name, operator,
#: knobs, the counter that proves the path ran).
TYPED_CONFIGS = [
    ("one_sided", IncrementalDistanceJoin, dict(), None),
    ("one_sided_estimated", IncrementalDistanceJoin,
     dict(max_pairs=150), "estimator_trims"),
    ("simultaneous", IncrementalDistanceJoin,
     dict(node_policy="simultaneous", max_pairs=150), "estimator_trims"),
    ("filtered", IncrementalDistanceJoin,
     dict(pair_filter=_odd_oid_sum), "pruned_filter"),
    ("semi_local", IncrementalDistanceSemiJoin, dict(), "pruned_dmax"),
    ("semi_global_simultaneous", IncrementalDistanceSemiJoin,
     dict(dmax_strategy="global_all", node_policy="simultaneous",
          max_pairs=40), "pruned_dmax"),
    ("reverse", ReverseDistanceJoin, dict(), None),
    ("reverse_semi", ReverseDistanceSemiJoin, dict(), None),
]


class TestTypedColumns:
    """A block's columns are ``array`` objects on both kernels, whatever
    built the block: the one-sided and Simultaneous expansions (vector,
    ``_expand_scalar`` and the scalar sweep), ``of_pairs``, ``take``
    (a pair filter, the semi-join's ``_filter_candidates``), the
    estimator's d_max column and the reverse variants' keys."""

    @pytest.mark.parametrize(
        "kernel",
        ["scalar", pytest.param("vector", marks=requires_numpy)],
    )
    @pytest.mark.parametrize(
        "name,operator,knobs,witness",
        TYPED_CONFIGS,
        ids=[c[0] for c in TYPED_CONFIGS],
    )
    def test_every_enqueued_block_is_typed(
        self, monkeypatch, kernel, name, operator, knobs, witness
    ):
        enqueued, offered = [], []
        enqueue = IncrementalDistanceJoin._enqueue

        def recording_enqueue(self, block, item1, item2):
            _assert_typed(block)
            enqueue(self, block, item1, item2)
            enqueued.append((self.descending, block))

        monkeypatch.setattr(
            IncrementalDistanceJoin, "_enqueue", recording_enqueue
        )
        for estimator in (JoinEstimator, SemiJoinEstimator):
            def recording_offer(self, block, count, _offer=estimator.offer):
                offered.append(block.uppers)
                _offer(self, block, count)

            monkeypatch.setattr(estimator, "offer", recording_offer)
        values = _run(operator, knobs, kernel)[1]
        if witness is not None:
            assert values[witness] > 0
        assert enqueued
        for descending, block in enqueued:
            _assert_typed(block)
            assert type(block.keyd) is array
            assert block.keyd.typecode == DIST_CODE
            # Ascending keys are the distance column itself.
            assert (block.keyd is block.dists) is not descending
            # The queued block keeps no d_max column.
            assert block.uppers is None
        assert bool(offered) == ("max_pairs" in knobs)
        for uppers in offered:
            assert type(uppers) is array and uppers.typecode == DIST_CODE

    def test_expand_scalar_rows_are_a_range(self):
        counters = CounterRegistry()
        tree_a = make_tree(make_points(60, seed=11), counters=counters)
        tree_b = make_tree(make_points(80, seed=22), counters=counters)
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(kernel="scalar", max_distance=30.0),
            counters=counters,
        )
        root = tree_a.read_node(tree_a.root_id)
        partner = Item(NODE, tree_b.read_node(tree_b.root_id).mbr(),
                       node_id=tree_b.root_id, level=root.level)
        block = join._expand_scalar(root, partner, 1, 30.0)
        _assert_typed(block)
        assert block.rows == range(len(block.items)) and len(block)

    def test_of_pairs_and_take(self):
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        pairs = [
            Pair(Item(OBJ, rect, oid=i), Item(OBJ, rect, oid=10 + i),
                 float(i))
            for i in range(5)
        ]
        block = CandidateBlock.of_pairs(pairs)
        _assert_typed(block)
        assert block.rows is block.rows2 and block.rows == range(5)
        block.uppers = array(DIST_CODE, [9.0, 8.0, 7.0, 6.0, 5.0])
        kept = block.take([4, 1, 3])
        _assert_typed(kept)
        assert type(kept.rows) is array and type(kept.rows2) is array
        assert list(kept.dists) == [4.0, 1.0, 3.0]
        assert list(kept.uppers) == [5.0, 8.0, 6.0]
        assert [kept.second(r).oid for r in range(3)] == [14, 11, 13]


#: Bytes of block columns per row left in the memory queue after the
#: join below: measured, per kernel and estimator setting.  List
#: columns (a ``tolist()`` per expansion, one float object per row)
#: read 76.5 / 45.3 (vector) and 80.0 / 46.3 (scalar) here.  The
#: estimator's blocks are consumed further, so their per-block array
#: headers weigh more per row left.
QUEUED_ROW_BYTES = {
    ("vector", True): 43.3,
    ("vector", False): 13.2,
    ("scalar", True): 28.8,
    ("scalar", False): 14.0,
}


def _column_bytes(queue):
    """``(bytes, rows)``: ``sys.getsizeof`` over every distinct block
    column of the rows in ``queue``'s heap, and of each object a list
    column holds, against the number of rows."""
    seen = {}
    rows = 0
    for __, block in _unrolled(queue._heap):
        rows += 1
        for column in (block.dists, block.rows, block.rows2,
                       block.uppers, block.keyd):
            if column is not None:
                seen[id(column)] = column
                if type(column) is list:
                    seen.update((id(value), value) for value in column)
    return sum(sys.getsizeof(obj) for obj in seen.values()), rows


class TestQueuedRowBytes:
    """What a queued row costs in memory, on a fixed seeded join after
    K results, holds within 10 % of its measured value: a column that
    turns back into a list of floats fails here by name."""

    @pytest.mark.parametrize("estimate", [True, False],
                             ids=["estimate", "no_estimate"])
    @pytest.mark.parametrize(
        "kernel",
        ["scalar", pytest.param("vector", marks=requires_numpy)],
    )
    def test_bytes_per_queued_row(self, kernel, estimate):
        counters = CounterRegistry()
        tree_a = bulk_load_str(water_points(1500, seed=3),
                               counters=counters)
        tree_b = bulk_load_str(roads_points(2500, seed=4),
                               counters=counters)
        join = IncrementalDistanceJoin(
            tree_a, tree_b,
            JoinSpec(kernel=kernel, max_pairs=1000, estimate=estimate),
            counters=counters,
        )
        assert sum(1 for __ in join) == 1000
        size, rows = _column_bytes(join._queue)
        assert rows > 5000
        assert size / rows <= 1.1 * QUEUED_ROW_BYTES[kernel, estimate]
