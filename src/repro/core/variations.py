"""Variations of the incremental distance join (paper Sections 1 and
2.2.5).

Section 1 notes that "a variation of our incremental distance join
algorithm can be used to compute intersecting pairs, closest pair, and
all nearest neighbors in a set of objects".  This module provides those
variations on top of the join drivers:

- :func:`closest_pairs` / :func:`closest_pair` -- the closest pairs
  *within one* indexed set (a self distance join that suppresses
  self-pairs and mirror duplicates);
- :func:`all_nearest_neighbors` -- for every object of a set, its
  nearest *other* object (a self distance semi-join minus self-pairs);
- :class:`IntersectionJoin` -- intersecting pairs of two sets reported
  in order of distance from a reference object, the secondary-ordering
  extension of Section 2.2.5 ("find the intersections of roads and
  rivers in order of distance from a given house").  The ordering key
  for a pair is the MINDIST from the reference to the *intersection*
  of the two items' rectangles; child regions shrink under their
  parents, so the intersection shrinks and the key can only grow --
  the same consistency argument as the distance join's.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Iterator, NamedTuple, Optional

from repro.core.distance_join import IncrementalDistanceJoin, JoinResult
from repro.core.pairs import OBJ
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry


def _distinct_unordered(pair) -> bool:
    """Keep only object pairs with oid1 < oid2 (one copy, no self)."""
    if pair.item1.kind == OBJ and pair.item2.kind == OBJ:
        return pair.item1.oid < pair.item2.oid
    return True


def _distinct(pair) -> bool:
    """Drop self-pairs but keep both (a, b) and (b, a)."""
    if pair.item1.kind == OBJ and pair.item2.kind == OBJ:
        return pair.item1.oid != pair.item2.oid
    return True


def _self_join_spec(spec: Optional[JoinSpec], rule) -> JoinSpec:
    """``spec`` with the self-join ``rule`` ahead of its own
    ``pair_filter``: a pair must pass both."""
    spec = JoinSpec() if spec is None else spec
    caller = spec.pair_filter
    return spec.evolve(pair_filter=rule if caller is None else (
        lambda pair: rule(pair) and caller(pair)
    ))


def closest_pairs(
    tree: RTreeBase,
    spec: Optional[JoinSpec] = None,
    *,
    counters: Optional[CounterRegistry] = None,
) -> IncrementalDistanceJoin:
    """All distinct unordered object pairs of ``tree``, closest first.

    The first result is the set's *closest pair*; consuming further
    results enumerates pairs in increasing distance, which makes this
    a drop-in building block for closest-pair-style computations when
    an R-tree already exists (the paper's Section 1 argument).
    """
    return IncrementalDistanceJoin(
        tree, tree, _self_join_spec(spec, _distinct_unordered),
        counters=counters,
    )


def closest_pair(
    tree: RTreeBase, metric: Metric = EUCLIDEAN
) -> Optional[JoinResult]:
    """The closest pair of distinct objects, or None if fewer than 2."""
    if len(tree) < 2:
        return None
    return next(closest_pairs(tree, JoinSpec(metric=metric, max_pairs=1)))


def all_nearest_neighbors(
    tree: RTreeBase,
    spec: Optional[JoinSpec] = None,
    *,
    counters: Optional[CounterRegistry] = None,
) -> IncrementalDistanceSemiJoin:
    """For every object, its nearest *other* object, in distance order.

    A self distance semi-join with self-pairs suppressed -- the
    all-nearest-neighbours operation of the paper's Section 1.
    """
    return IncrementalDistanceSemiJoin(
        tree, tree, _self_join_spec(spec, _distinct),
        counters=counters,
    )


class IntersectionResult(NamedTuple):
    """One intersecting pair, keyed by distance from the reference."""

    reference_distance: float
    oid1: int
    obj1: Any
    oid2: int
    obj2: Any


class IntersectionJoin:
    """Intersecting object pairs in order of distance from a reference.

    Parameters
    ----------
    tree1, tree2:
        The joined spatial indexes (objects stored in the leaves).
    reference:
        The point the output is ordered around (the "house").
    metric:
        Metric for the reference-distance ordering.

    Intersection of *objects* is tested exactly when both payloads are
    :class:`~repro.geometry.shapes.SpatialObject` (distance 0) or
    Points (equality); otherwise the bounding rectangles decide, which
    matches indexing-only deployments.
    """

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        reference: Point,
        metric: Metric = EUCLIDEAN,
    ) -> None:
        self.tree1 = tree1
        self.tree2 = tree2
        self.reference = reference
        self.metric = metric
        self._seq = count()
        self._heap: list = []
        if len(tree1) and len(tree2):
            root1 = tree1.root()
            root2 = tree2.root()
            self._consider(
                root1.mbr(), root2.mbr(),
                ("n", root1.page_id, root1.level),
                ("n", root2.page_id, root2.level),
            )

    # ------------------------------------------------------------------

    def _consider(self, rect1: Rect, rect2: Rect, ref1, ref2) -> None:
        overlap = rect1.intersection(rect2)
        if overlap is None:
            return
        key = self.metric.mindist_point_rect(self.reference, overlap)
        is_node = ref1[0] == "n" or ref2[0] == "n"
        heapq.heappush(
            self._heap,
            (key, 1 if is_node else 0, next(self._seq), ref1, ref2,
             rect1, rect2),
        )

    def _objects_intersect(self, obj1: Any, obj2: Any) -> bool:
        if isinstance(obj1, Point) and isinstance(obj2, Point):
            return obj1 == obj2
        if hasattr(obj1, "distance_to") and hasattr(obj2, "distance_to"):
            return obj1.distance_to(obj2) == 0.0
        return True  # rectangles already overlap

    def __iter__(self) -> "IntersectionJoin":
        return self

    def __next__(self) -> IntersectionResult:
        while self._heap:
            key, __, ___, ref1, ref2, rect1, rect2 = heapq.heappop(
                self._heap
            )
            if ref1[0] == "o" and ref2[0] == "o":
                __tag1, oid1, obj1 = ref1
                __tag2, oid2, obj2 = ref2
                if not self._objects_intersect(obj1, obj2):
                    continue
                return IntersectionResult(key, oid1, obj1, oid2, obj2)
            # Expand the node at the shallower level (even traversal).
            expand_first = ref1[0] == "n" and (
                ref2[0] != "n" or ref1[2] >= ref2[2]
            )
            if expand_first:
                node = self.tree1.read_node(ref1[1])
                for entry in node.entries:
                    child = (
                        ("n", entry.child_id, node.level - 1)
                        if node.level > 0
                        else ("o", entry.oid, entry.obj)
                    )
                    self._consider(entry.rect, rect2, child, ref2)
            else:
                node = self.tree2.read_node(ref2[1])
                for entry in node.entries:
                    child = (
                        ("n", entry.child_id, node.level - 1)
                        if node.level > 0
                        else ("o", entry.oid, entry.obj)
                    )
                    self._consider(rect1, entry.rect, ref1, child)
        raise StopIteration


def intersection_join(
    tree1: RTreeBase,
    tree2: RTreeBase,
    reference: Point,
    metric: Metric = EUCLIDEAN,
) -> Iterator[IntersectionResult]:
    """Convenience wrapper over :class:`IntersectionJoin`."""
    return IntersectionJoin(tree1, tree2, reference, metric=metric)
