"""Tests for the incremental distance semi-join and its strategies."""

import heapq
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.knn_join import KNearestNeighborJoin
from repro.core.pairs import NODE
from repro.core.reverse import ReverseDistanceSemiJoin
from repro.core.semi_join import (
    DMAX_GLOBAL_ALL,
    DMAX_GLOBAL_NODES,
    DMAX_LOCAL,
    DMAX_NONE,
    INSIDE1,
    INSIDE2,
    OUTSIDE,
    IncrementalDistanceSemiJoin,
)
from repro.core.spec import JoinSpec
from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.kernels import numpy_or_none
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_nn, make_points, make_tree

STRATEGIES = [
    (OUTSIDE, DMAX_NONE),
    (INSIDE1, DMAX_NONE),
    (INSIDE2, DMAX_NONE),
    (INSIDE2, DMAX_LOCAL),
    (INSIDE2, DMAX_GLOBAL_NODES),
    (INSIDE2, DMAX_GLOBAL_ALL),
]


def take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) == n:
            break
    return out


@pytest.fixture(scope="module")
def semi_setup():
    points_a = make_points(70, seed=61)
    points_b = make_points(90, seed=62)
    tree_a = make_tree(points_a)
    tree_b = make_tree(points_b)
    nn = brute_force_nn(points_a, points_b)
    return tree_a, tree_b, points_a, points_b, nn


class TestCorrectness:
    @pytest.mark.parametrize("filter_strategy,dmax_strategy", STRATEGIES)
    def test_every_strategy_finds_all_nearest_neighbors(
        self, semi_setup, filter_strategy, dmax_strategy
    ):
        tree_a, tree_b, points_a, __, nn = semi_setup
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b,
            JoinSpec(
                filter_strategy=filter_strategy, dmax_strategy=dmax_strategy,
            ),
            counters=CounterRegistry(),
        )
        got = list(semi)
        assert len(got) == len(points_a)
        seen = set()
        for result in got:
            assert result.oid1 not in seen
            seen.add(result.oid1)
            assert result.distance == pytest.approx(nn[result.oid1][0])

    @pytest.mark.parametrize("filter_strategy,dmax_strategy", STRATEGIES)
    def test_output_sorted_by_distance(
        self, semi_setup, filter_strategy, dmax_strategy
    ):
        tree_a, tree_b, *__ = semi_setup
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b,
            JoinSpec(
                filter_strategy=filter_strategy, dmax_strategy=dmax_strategy,
            ),
            counters=CounterRegistry(),
        )
        ds = [r.distance for r in semi]
        assert ds == sorted(ds)

    @pytest.mark.parametrize("policy", ["basic", "even", "simultaneous"])
    def test_node_policies(self, semi_setup, policy):
        tree_a, tree_b, points_a, __, nn = semi_setup
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(node_policy=policy),
            counters=CounterRegistry(),
        )
        got = list(semi)
        assert len(got) == len(points_a)
        for result in got:
            assert result.distance == pytest.approx(nn[result.oid1][0])

    def test_asymmetry(self, semi_setup):
        """Semi-join of A with B differs from B with A (paper Sec. 1)."""
        tree_a, tree_b, points_a, points_b, __ = semi_setup
        forward = list(IncrementalDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        ))
        backward = list(IncrementalDistanceSemiJoin(
            tree_b, tree_a, counters=CounterRegistry()
        ))
        assert len(forward) == len(points_a)
        assert len(backward) == len(points_b)

    def test_voronoi_clustering_semantics(self):
        """Each store maps to its closest warehouse (paper's example)."""
        warehouses = [Point((0, 0)), Point((100, 0)), Point((50, 100))]
        stores = make_points(40, seed=63)
        semi = IncrementalDistanceSemiJoin(
            make_tree(stores, max_entries=4),
            make_tree(warehouses, max_entries=4),
            counters=CounterRegistry(),
        )
        for result in semi:
            store = stores[result.oid1]
            best = min(
                range(3),
                key=lambda i: EUCLIDEAN.distance(store, warehouses[i]),
            )
            assert result.oid2 == best


class TestStrategyEffects:
    def test_inside2_prunes_more_than_outside(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        outside = CounterRegistry()
        list(IncrementalDistanceSemiJoin(
            tree_a, tree_b,
            JoinSpec(filter_strategy=OUTSIDE, dmax_strategy=DMAX_NONE),
            counters=outside,
        ))
        inside2 = CounterRegistry()
        list(IncrementalDistanceSemiJoin(
            tree_a, tree_b,
            JoinSpec(filter_strategy=INSIDE2, dmax_strategy=DMAX_NONE),
            counters=inside2,
        ))
        assert (
            inside2.value("queue_inserts") <= outside.value("queue_inserts")
        )

    def test_dmax_strategies_prune(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        for strategy in (DMAX_LOCAL, DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL):
            counters = CounterRegistry()
            list(IncrementalDistanceSemiJoin(
                tree_a, tree_b,
                JoinSpec(filter_strategy=INSIDE2, dmax_strategy=strategy),
                counters=counters,
            ))
            assert counters.value("pruned_dmax") > 0, strategy

    def test_global_all_inserts_fewest(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        inserts = {}
        for strategy in (DMAX_NONE, DMAX_LOCAL, DMAX_GLOBAL_ALL):
            counters = CounterRegistry()
            list(IncrementalDistanceSemiJoin(
                tree_a, tree_b,
                JoinSpec(filter_strategy=INSIDE2, dmax_strategy=strategy),
                counters=counters,
            ))
            inserts[strategy] = counters.value("queue_inserts")
        assert inserts[DMAX_GLOBAL_ALL] <= inserts[DMAX_LOCAL]
        assert inserts[DMAX_LOCAL] <= inserts[DMAX_NONE]

    def test_dmax_requires_inside2(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        with pytest.raises(ValueError):
            IncrementalDistanceSemiJoin(
                tree_a, tree_b,
                JoinSpec(filter_strategy=OUTSIDE, dmax_strategy=DMAX_LOCAL),
            )

    def test_unknown_strategies_rejected(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        with pytest.raises(ValueError):
            IncrementalDistanceSemiJoin(
                tree_a, tree_b, JoinSpec(filter_strategy="inside9"),
            )
        with pytest.raises(ValueError):
            IncrementalDistanceSemiJoin(
                tree_a, tree_b, JoinSpec(dmax_strategy="psychic"),
            )

    def test_descending_kwarg_rejected(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        with pytest.raises(ValueError):
            IncrementalDistanceSemiJoin(
                tree_a, tree_b, JoinSpec(descending=True),
            )


class TestLimits:
    def test_max_pairs(self, semi_setup):
        tree_a, tree_b, __, ___, nn = semi_setup
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_pairs=10), counters=CounterRegistry(),
        )
        got = list(semi)
        assert len(got) == 10
        expected = sorted(d for d, __ in nn.values())[:10]
        assert [r.distance for r in got] == pytest.approx(expected)

    def test_max_pairs_with_estimation_prunes(self, semi_setup):
        tree_a, tree_b, *__ = semi_setup
        plain = CounterRegistry()
        take(IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(estimate=False), counters=plain,
        ), 10)
        estimated = CounterRegistry()
        list(IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_pairs=10), counters=estimated,
        ))
        assert (
            estimated.value("queue_inserts") <= plain.value("queue_inserts")
        )

    def test_max_distance(self, semi_setup):
        tree_a, tree_b, __, ___, nn = semi_setup
        limit = 5.0
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_distance=limit),
            counters=CounterRegistry(),
        )
        got = list(semi)
        expected = [d for d, __ in nn.values() if d <= limit]
        assert len(got) == len(expected)

    def test_pipelined_consumption(self, semi_setup):
        tree_a, tree_b, __, ___, nn = semi_setup
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b, counters=CounterRegistry()
        )
        first = take(semi, 5)
        rest = list(semi)
        assert len(first) + len(rest) == len(nn)

    def test_aggressive_estimation_with_restart(self, semi_setup):
        tree_a, tree_b, __, ___, nn = semi_setup
        semi = IncrementalDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_pairs=30, aggressive=True),
            counters=CounterRegistry(),
        )
        got = list(semi)
        assert len(got) == 30
        expected = sorted(d for d, __ in nn.values())[:30]
        assert [r.distance for r in got] == pytest.approx(expected)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=25,
    ),
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=25,
    ),
    st.sampled_from(STRATEGIES),
)
def test_property_semi_join_equals_per_object_nn(raw_a, raw_b, strategy):
    """Property: every strategy produces exactly each outer object's
    nearest inner object, sorted by distance."""
    filter_strategy, dmax_strategy = strategy
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    semi = IncrementalDistanceSemiJoin(
        make_tree(points_a, max_entries=4), make_tree(points_b, max_entries=4),
        JoinSpec(filter_strategy=filter_strategy, dmax_strategy=dmax_strategy),
        counters=CounterRegistry(),
    )
    got = list(semi)
    nn = brute_force_nn(points_a, points_b)
    assert len(got) == len(points_a)
    for result in got:
        assert result.distance == pytest.approx(nn[result.oid1][0])
    ds = [r.distance for r in got]
    assert ds == sorted(ds)


# ----------------------------------------------------------------------
# the columnar hooks against the per-child / per-Pair hooks they replaced
# ----------------------------------------------------------------------


class OracleSemiJoin(IncrementalDistanceSemiJoin):
    """The semi-join's hooks as they were: the seen set tested child by
    child, and the d_max hooks over materialised ``Pair``s with scalar
    bounds.  (The expansion charges ``pruned_seen`` for each dropped
    candidate, as the per-child hook did.)"""

    def _keep_mask(self, side, level, children):
        return [
            not (
                side == 1
                and self.filter_strategy == INSIDE2
                and child.kind != NODE
                and child.oid in self._seen
            )
            for child in children
        ]

    def _filter_candidates(self, pair, side, block):
        if self.dmax_strategy == DMAX_NONE or not block.dists:
            return block
        scored = list(zip(
            block.pairs(), self._dmax_of(block, *block.head())
        ))
        local: Dict[Tuple, float] = {}
        for child_pair, est_dmax in scored:
            key = child_pair.item1.identity()
            best = local.get(key)
            if best is None or est_dmax < best:
                local[key] = est_dmax
        use_global = self.dmax_strategy in (
            DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL
        )
        kept: List[int] = []
        for row, (child_pair, est_dmax) in enumerate(scored):
            key = child_pair.item1.identity()
            bound = local[key]
            if use_global and self._tracks_global(child_pair.item1):
                stored = self._bounds.get(key)
                if stored is not None and stored < bound:
                    bound = stored
                self._bounds[key] = (
                    est_dmax if stored is None else min(stored, est_dmax)
                )
            if child_pair.distance > bound:
                self._c_pruned_dmax.add()
                continue
            kept.append(row)
        return block if len(kept) == len(block) else block.take(kept)


class OracleKNNJoin(KNearestNeighborJoin):
    """The k-NN join's hooks as they were (see :class:`OracleSemiJoin`)."""

    def _keep_mask(self, side, level, children):
        return [
            not (
                side == 1
                and self.filter_strategy == INSIDE2
                and child.kind != NODE
                and self._object_done(child.oid)
            )
            for child in children
        ]

    def _filter_candidates(self, pair, side, block):
        if self.dmax_strategy == DMAX_NONE or not block.dists:
            return block
        scored = list(zip(
            block.pairs(), self._dmax_of(block, *block.head())
        ))
        local_lists: Dict[Tuple, List[float]] = {}
        for child_pair, est_dmax in scored:
            local_lists.setdefault(
                child_pair.item1.identity(), []
            ).append(est_dmax)
        local_bound: Dict[Tuple, float] = {}
        for key, values in local_lists.items():
            if len(values) >= self.k:
                local_bound[key] = heapq.nsmallest(self.k, values)[-1]
        use_global = self.dmax_strategy in (
            DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL
        )
        kept: List[int] = []
        for row, (child_pair, est_dmax) in enumerate(scored):
            key = child_pair.item1.identity()
            bound = local_bound.get(key)
            if use_global and self._tracks_global(child_pair.item1):
                self._observe_bound(key, child_pair.item2, est_dmax)
                stored = self._global_bound(key)
                if stored is not None and (
                    bound is None or stored < bound
                ):
                    bound = stored
            if bound is not None and child_pair.distance > bound:
                self.counters.add("pruned_dmax")
                continue
            kept.append(row)
        return block if len(kept) == len(block) else block.take(kept)


class OracleReverseSemiJoin(ReverseDistanceSemiJoin):
    """The reverse semi-join's seen test, child by child."""

    def _keep_mask(self, side, level, children):
        return [
            not (side == 1 and child.kind != NODE and child.oid in self._seen)
            for child in children
        ]


def _knn(k, oracle=False):
    cls = OracleKNNJoin if oracle else KNearestNeighborJoin

    def make(tree1, tree2, spec, **kwargs):
        return cls(tree1, tree2, spec, k=k, **kwargs)
    return make


#: name -> (operator, its oracle, the (filter, dmax) pairs it honours).
#: The reverse semi-join always filters on the seen set and has no d_max
#: hook, so its strategy knobs change nothing and it runs once.
COLUMNAR_OPERATORS = {
    "semi": (IncrementalDistanceSemiJoin, OracleSemiJoin, STRATEGIES),
    "reverse_semi": (
        ReverseDistanceSemiJoin, OracleReverseSemiJoin,
        [(INSIDE2, DMAX_LOCAL)],
    ),
    "knn1": (_knn(1), _knn(1, oracle=True), STRATEGIES),
    "knn3": (_knn(3), _knn(3, oracle=True), STRATEGIES),
}

_numpy_kernel = pytest.param(
    "vector",
    marks=pytest.mark.skipif(
        numpy_or_none() is None, reason="numpy not importable"
    ),
)

#: Lattice coordinates (duplicate points, distance ties everywhere)
#: and a few off-lattice ones.
_coords = st.one_of(
    st.integers(0, 6).map(float), st.floats(0, 6, allow_nan=False)
)
_point_sets = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=24)


def _columnar_run(operator, points_a, points_b, spec):
    counters = CounterRegistry()
    tree_a = make_tree(points_a, max_entries=4, counters=counters)
    tree_b = make_tree(points_b, max_entries=4, counters=counters)
    counters.reset()
    rows = [
        (r.distance, r.oid1, r.oid2)
        for r in operator(tree_a, tree_b, spec, counters=counters)
    ]
    snap = counters.full_snapshot()
    return rows, dict(snap.values), dict(snap.peaks)


class TestColumnarHooks:
    """The seen-set mask (one test per expansion) and the d_max hooks
    over a block's columns leave the rows, tie order and every counter
    value and peak of the per-child / per-``Pair`` hooks, for every
    operator, strategy, node policy, kernel and ``max_pairs``."""

    @pytest.mark.parametrize("kernel", ["scalar", _numpy_kernel])
    @pytest.mark.parametrize("policy", ["basic", "even", "simultaneous"])
    @pytest.mark.parametrize("name", list(COLUMNAR_OPERATORS))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(raw_a=_point_sets, raw_b=_point_sets)
    def test_columnar_equals_per_pair(
        self, name, policy, kernel, raw_a, raw_b
    ):
        operator, oracle, strategies = COLUMNAR_OPERATORS[name]
        points_a = [Point(xy) for xy in raw_a]
        points_b = [Point(xy) for xy in raw_b]
        for filter_strategy, dmax_strategy in strategies:
            for max_pairs in (None, 5):
                spec = JoinSpec(
                    node_policy=policy, kernel=kernel, max_pairs=max_pairs,
                    filter_strategy=filter_strategy,
                    dmax_strategy=dmax_strategy,
                )
                got = _columnar_run(operator, points_a, points_b, spec)
                want = _columnar_run(oracle, points_a, points_b, spec)
                assert got == want, (filter_strategy, dmax_strategy,
                                     max_pairs)
