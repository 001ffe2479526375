"""An analytic cost model for the incremental distance join.

The paper's Section 5 leaves "developing cost models for the
incremental distance join algorithms" as future work, needed for a
query optimizer to choose between plans.  This module implements a
first-order model in that spirit, in the style of the R-tree join
models it cites: data is summarized by per-level node counts and
average node extents, and the expected work is the number of node
pairs whose MINDIST falls below the distance of interest.

The model deliberately assumes (locally) uniform data -- the classic
simplification -- so its absolute predictions are rough on skewed
inputs; its purpose is *ranking* candidate plans, and the accompanying
tests check exactly that (monotonicity in the distance bound, and
agreement in ordering with measured counters).

Its selectivity half (:class:`UniformPairs`) needs only the two sizes
and the two bounding boxes, so :func:`traversal_bound` -- the input of
the planner's node-policy choice -- is computed without the stats
walk, on every execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

from repro.geometry.rectangle import Rect
from repro.rtree.base import RTreeBase

_INF = float("inf")

#: Bulk loading packs nodes to this fraction of ``max_entries``
#: (:func:`repro.rtree.bulk.bulk_load_str`'s default fill).
PACKING_FILL = 0.7


@dataclass
class LevelStats:
    """Summary of one tree level: node count and average side length."""

    level: int
    nodes: int
    avg_side: float


@dataclass
class TreeStats:
    """Per-tree summary feeding the join cost model."""

    size: int
    height: int
    universe_sides: List[float]
    levels: List[LevelStats]

    @property
    def universe_volume(self) -> float:
        """Volume of the data set's bounding box (floored per axis)."""
        return _volume(self.universe_sides)


def stats_fingerprint(tree: RTreeBase) -> Optional[tuple]:
    """Cache key for a tree's :class:`TreeStats` (None = uncacheable).

    Any structural change moves at least one component: inserts and
    deletes bump the tree's mutation counter, bulk loading replaces the
    root page and the size.
    """
    mutations = getattr(tree, "_mutations", None)
    if mutations is None:
        return None
    return (len(tree), tree.root_id, mutations)


def collect_stats(tree: RTreeBase) -> TreeStats:
    """Summarize a tree for the cost model (one full walk, cached).

    The walk touches every node, so repeated EXPLAIN / routing calls
    against an unchanged tree would dominate planning cost; the result
    is memoized on the tree keyed by :func:`stats_fingerprint` and
    recomputed after any insert, delete, or bulk (re)load.  Only the
    first walk charges ``node_reads``/``node_io``.  Callers must treat
    the returned object as immutable (it is shared between calls).
    """
    key = stats_fingerprint(tree)
    if key is not None:
        cached = getattr(tree, "_stats_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
    stats = _walk_stats(tree)
    if key is not None:
        tree._stats_cache = (key, stats)
    return stats


def _walk_stats(tree: RTreeBase) -> TreeStats:
    bounds = tree.bounds()
    if bounds is None:
        return TreeStats(0, 1, [1.0], [LevelStats(0, 1, 0.0)])
    sides = [hi - lo for lo, hi in zip(bounds.lo, bounds.hi)]
    counts: dict = {}
    side_sums: dict = {}
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        counts[node.level] = counts.get(node.level, 0) + 1
        mean_side = (
            sum(node.mbr().hi[i] - node.mbr().lo[i]
                for i in range(tree.dim)) / tree.dim
            if node.entries else 0.0
        )
        side_sums[node.level] = side_sums.get(node.level, 0.0) + mean_side
        if not node.is_leaf:
            for entry in node.entries:
                stack.append(entry.child_id)
    levels = [
        LevelStats(
            level,
            counts[level],
            side_sums[level] / counts[level],
        )
        for level in sorted(counts)
    ]
    return TreeStats(len(tree), len(counts), sides, levels)


def _volume(sides: Sequence[float]) -> float:
    volume = 1.0
    for side in sides:
        volume *= max(side, 1e-12)
    return volume


class UniformPairs:
    """Pair counts against distance for two uniformly spread data sets
    of ``size1`` and ``size2`` objects sharing a box of sides
    ``overlap_sides`` (each the smaller of the two data sets' extents)."""

    def __init__(
        self,
        size1: float,
        size2: float,
        overlap_sides: Sequence[float],
        dim: int,
    ) -> None:
        self.dim = dim
        self._total = float(size1 * size2)
        self._overlap_sides = list(overlap_sides)

    def _ball_volume(self, radius: float) -> float:
        """Volume of a Euclidean ball of ``radius`` in ``dim``."""
        if radius <= 0.0:
            return 0.0
        dim = self.dim
        return (
            math.pi ** (dim / 2.0)
            / math.gamma(dim / 2.0 + 1.0)
            * radius ** dim
        )

    def _joint_volume(self) -> float:
        return _volume(self._overlap_sides)

    def expected_pairs_within(self, distance: float) -> float:
        """Expected object pairs with distance <= ``distance``
        (uniformity assumption; capped by the Cartesian product)."""
        total = self._total
        if distance == _INF or total == 0.0:
            return total
        fraction = min(
            1.0, self._ball_volume(distance) / self._joint_volume()
        )
        return total * fraction

    def distance_for_pairs(self, pairs: float) -> float:
        """Inverse of :meth:`expected_pairs_within`: the distance at
        which roughly ``pairs`` result pairs exist."""
        total = self._total
        if total == 0:
            return 0.0
        fraction = min(1.0, pairs / total)
        volume = fraction * self._joint_volume()
        dim = self.dim
        unit = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        return (volume / unit) ** (1.0 / dim)


class TraversalBound(NamedTuple):
    """The two lengths the planner's node-policy choice compares."""

    #: Plan-time distance bound D: the smaller of the query's maximum
    #: distance and the distance at which its K-th row is expected.
    distance: float
    #: Expected side of a leaf of the finer of the two trees.
    leaf_side: float


def _root_mbr(tree: RTreeBase) -> Optional[Rect]:
    """The tree's bounding box, read without charging ``node_reads`` or
    ``node_io`` (a plan must not show in the execution's counters)."""
    root = tree.store.peek(tree.root_id).payload
    return root.mbr() if root.entries else None


def traversal_bound(
    tree1: RTreeBase,
    tree2: RTreeBase,
    min_distance: float = 0.0,
    max_distance: float = _INF,
    max_pairs: Optional[int] = None,
    pair_selectivity: float = 1.0,
) -> Optional[TraversalBound]:
    """D and the leaf side from sizes, fan-outs and the two root MBRs
    only (None when a relation is empty).

    With ``WHERE d >= x`` the expected rows start at ``x``: the K-th is
    expected where ``pairs_within(x) + K`` pairs lie.  A predicate
    keeping ``pair_selectivity`` of the pairs thins the pairs the K
    rows are drawn from, which moves D out.  A leaf of a tree over
    ``n`` objects covers a ``n / (PACKING_FILL * max_entries)``-th of
    the shared box.
    """
    mbr1, mbr2 = _root_mbr(tree1), _root_mbr(tree2)
    if mbr1 is None or mbr2 is None:
        return None
    overlap = [
        min(hi1 - lo1, hi2 - lo2)
        for lo1, hi1, lo2, hi2 in zip(mbr1.lo, mbr1.hi, mbr2.lo, mbr2.hi)
    ]
    dim = tree1.dim
    model = UniformPairs(
        len(tree1) * pair_selectivity, len(tree2), overlap, dim
    )
    distance = max_distance
    if max_pairs is not None:
        before = (
            model.expected_pairs_within(min_distance)
            if min_distance > 0.0 else 0.0
        )
        distance = min(
            distance, model.distance_for_pairs(before + max_pairs)
        )
    volume = _volume(overlap)
    leaf_side = min(
        (volume / max(1.0, len(tree) / (PACKING_FILL * tree.max_entries)))
        ** (1.0 / dim)
        for tree in (tree1, tree2)
    )
    return TraversalBound(distance, leaf_side)


@dataclass
class JoinCostEstimate:
    """Predicted work for one incremental distance join execution."""

    node_pairs: float
    node_io: float
    dist_calcs: float
    result_pairs: float

    def total_cost(
        self, io_weight: float = 10.0, cpu_weight: float = 1.0
    ) -> float:
        """A single comparable scalar (I/O-dominant by default)."""
        return io_weight * self.node_io + cpu_weight * self.dist_calcs


def estimate_build_cost(
    count: int,
    fanout: int = 50,
    io_weight: float = 10.0,
    cpu_weight: float = 1.0,
) -> float:
    """Rough cost of bulk-loading an R-tree over ``count`` objects:
    an n·log n sort plus one page write per packed node."""
    if count <= 1:
        return 0.0
    pages = count / max(1, int(PACKING_FILL * fanout))
    return cpu_weight * count * math.log2(count) + io_weight * pages


class JoinCostModel(UniformPairs):
    """Estimates the cost of a distance (semi-)join between two trees.

    Parameters
    ----------
    tree1, tree2:
        The joined indexes; their stats are collected once on
        construction.
    """

    def __init__(
        self,
        tree1: Optional[RTreeBase] = None,
        tree2: Optional[RTreeBase] = None,
        stats1: Optional[TreeStats] = None,
        stats2: Optional[TreeStats] = None,
        dim: Optional[int] = None,
    ) -> None:
        if stats1 is None:
            assert tree1 is not None
            stats1 = collect_stats(tree1)
            dim = tree1.dim
        if stats2 is None:
            assert tree2 is not None
            stats2 = collect_stats(tree2)
        assert dim is not None
        self.stats1 = stats1
        self.stats2 = stats2
        super().__init__(
            stats1.size, stats2.size,
            [
                max(0.0, min(a, b))
                for a, b in zip(stats1.universe_sides, stats2.universe_sides)
            ],
            dim,
        )

    def scaled(self, scale1: float, scale2: float) -> "JoinCostModel":
        """A model for hypothetically filtered inputs: each side's
        cardinality and node counts shrink by the given selectivity
        (used to price the restrict-first plan of Section 5)."""

        def shrink(stats: TreeStats, scale: float) -> TreeStats:
            return TreeStats(
                size=max(0, int(stats.size * scale)),
                height=stats.height,
                universe_sides=list(stats.universe_sides),
                levels=[
                    LevelStats(
                        l.level,
                        max(1, int(math.ceil(l.nodes * scale))),
                        l.avg_side,
                    )
                    for l in stats.levels
                ],
            )

        return JoinCostModel(
            stats1=shrink(self.stats1, scale1),
            stats2=shrink(self.stats2, scale2),
            dim=self.dim,
        )

    # ------------------------------------------------------------------
    # work estimation
    # ------------------------------------------------------------------

    def _level_pair_count(
        self, l1: LevelStats, l2: LevelStats, distance: float
    ) -> float:
        """Expected node pairs at (l1, l2) with MINDIST <= distance.

        Two nodes of average sides s1, s2 come within ``distance``
        when their centers fall inside a region of per-axis extent
        ``(s1 + s2) / 2 * 2 + 2 * distance``; with uniformly placed
        node centers this yields the standard Minkowski-sum estimate.
        """
        volume = 1.0
        for side in self._overlap_sides:
            reach = l1.avg_side + l2.avg_side + 2.0 * distance
            volume *= min(1.0, max(reach, 1e-12) / max(side, 1e-12))
        return l1.nodes * l2.nodes * volume

    def estimate(
        self,
        max_distance: float = _INF,
        max_pairs: Optional[int] = None,
        semi_join: bool = False,
    ) -> JoinCostEstimate:
        """Predict the work to produce the requested result.

        ``max_pairs`` is converted to an effective distance via the
        selectivity model (mirroring the algorithm's own
        maximum-distance estimation); for a semi-join the result size
        is at most the outer cardinality.
        """
        effective = max_distance
        if max_pairs is not None:
            effective = min(
                effective, self.distance_for_pairs(max_pairs)
            )
        if semi_join:
            # Every outer object finds a neighbour within roughly the
            # NN-distance scale: n2 points -> spacing ~ (V/n2)^(1/dim).
            if self.stats2.size:
                nn_scale = (
                    self._joint_volume() / self.stats2.size
                ) ** (1.0 / self.dim)
                effective = min(effective, 2.0 * nn_scale)

        if effective == _INF:
            # Full join: all node pairs eventually meet.
            node_pairs = float(
                sum(l.nodes for l in self.stats1.levels)
                * sum(l.nodes for l in self.stats2.levels)
            )
        else:
            node_pairs = 0.0
            for l1 in self.stats1.levels:
                for l2 in self.stats2.levels:
                    # The even policy pairs similar depths; weigh
                    # matched levels fully and mismatched ones lightly.
                    weight = 1.0 if l1.level == l2.level else 0.25
                    node_pairs += weight * self._level_pair_count(
                        l1, l2, effective
                    )

        leaf1 = self.stats1.levels[0]
        leaf2 = self.stats2.levels[0]
        avg_leaf_fill1 = self.stats1.size / max(1, leaf1.nodes)
        avg_leaf_fill2 = self.stats2.size / max(1, leaf2.nodes)
        leaf_pairs = (
            self._level_pair_count(leaf1, leaf2, effective)
            if effective != _INF
            else float(leaf1.nodes * leaf2.nodes)
        )
        dist_calcs = leaf_pairs * avg_leaf_fill1 * avg_leaf_fill2
        result_pairs = (
            min(self.stats1.size, self.expected_pairs_within(effective))
            if semi_join
            else self.expected_pairs_within(effective)
        )
        if max_pairs is not None:
            result_pairs = min(result_pairs, float(max_pairs))
        return JoinCostEstimate(
            node_pairs=node_pairs,
            node_io=node_pairs,  # one child read per expanded pair side
            dist_calcs=dist_calcs,
            result_pairs=result_pairs,
        )
