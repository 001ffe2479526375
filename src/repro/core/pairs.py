"""The item/pair model of the incremental distance join.

A queue element holds a *pair* of items, one from each input tree.  An
item is a tree node, an object bounding rectangle (obr) whose object
still lives in external storage, or a resolved data object (paper
Section 2.2.1: with obrs in the leaves there are five pair kinds --
node/node, node/obr, obr/node, obr/obr, and object/object).

:class:`PairDistance` centralizes every distance computation between
items, dispatching to the right MINDIST / MAXDIST / MINMAXDIST bound
and charging the right performance counter, and enforces the paper's
*consistency* contract when debugging is enabled.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ConsistencyError
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.geometry.shapes import SpatialObject
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry

#: Item kinds.
NODE = 0
OBR = 1
OBJ = 2

_KIND_NAMES = {NODE: "node", OBR: "obr", OBJ: "obj"}

#: :mod:`array` typecodes of the block columns: C doubles for the
#: distances, d_max values and key distances; C long long for row
#: numbers.  numpy spells both the same (``"d"``, ``"q"``; ``"q"`` is
#: its index type on 64-bit hosts), so the vector kernels fill a column
#: with one byte copy, and no fan-out overflows a row number.
DIST_CODE = "d"
ROW_CODE = "q"


class Item:
    """One side of a queue pair: a node, an obr, or a resolved object.

    Attributes
    ----------
    kind:
        One of :data:`NODE`, :data:`OBR`, :data:`OBJ`.
    rect:
        The item's (bounding) rectangle; degenerate for point objects.
    node_id, level:
        Page id and level for node items (level 0 = leaf).
    oid, obj:
        Object identifier and payload for obr/object items.  For an
        obr item ``obj`` holds the reference needed to resolve the
        object later (or ``None`` if only rectangles are indexed).
    """

    __slots__ = ("kind", "rect", "node_id", "level", "oid", "obj")

    def __init__(
        self,
        kind: int,
        rect: Rect,
        node_id: int = -1,
        level: int = -1,
        oid: int = -1,
        obj: Any = None,
    ) -> None:
        self.kind = kind
        self.rect = rect
        self.node_id = node_id
        self.level = level
        self.oid = oid
        self.obj = obj

    @property
    def is_node(self) -> bool:
        """True when this item is a tree node (expandable)."""
        return self.kind == NODE

    def identity(self) -> tuple:
        """Hashable identity of the item: what the semi-join keys its
        per-outer-item state by (d_max bounds, the estimator's M)."""
        if self.kind == NODE:
            return ("n", self.node_id)
        return ("o", self.oid)

    def __repr__(self) -> str:
        if self.kind == NODE:
            return f"Item(node {self.node_id}, level {self.level})"
        return f"Item({_KIND_NAMES[self.kind]} oid={self.oid})"


def node_item(tree: RTreeBase, node_id: int, level: int, rect: Rect) -> Item:
    """Build a node item (``tree`` is unused but kept for symmetry)."""
    return Item(NODE, rect, node_id=node_id, level=level)


def object_item(rect: Rect, oid: int, obj: Any, resolved: bool) -> Item:
    """Build an object item; ``resolved`` selects OBJ vs OBR kind."""
    return Item(OBJ if resolved else OBR, rect, oid=oid, obj=obj)


class Pair:
    """A queue element: two items and their (lower-bound) distance."""

    __slots__ = ("item1", "item2", "distance")

    def __init__(self, item1: Item, item2: Item, distance: float) -> None:
        self.item1 = item1
        self.item2 = item2
        self.distance = distance

    @property
    def is_result(self) -> bool:
        """True for resolved object/object pairs (reportable)."""
        return self.item1.kind == OBJ and self.item2.kind == OBJ

    @property
    def is_obr_pair(self) -> bool:
        """True for obr/obr pairs (need object resolution first)."""
        return self.item1.kind == OBR and self.item2.kind == OBR

    @property
    def node_count(self) -> int:
        """How many of the two items are nodes (0, 1 or 2)."""
        return int(self.item1.is_node) + int(self.item2.is_node)

    def __repr__(self) -> str:
        return (
            f"Pair({self.item1!r}, {self.item2!r}, d={self.distance:.4g})"
        )


class CandidateBlock:
    """What one node expansion produced, kept columnar.

    Most queued pairs are never dequeued (paper Section 3.2), so a
    block holds exactly what the expansion computed -- one row per
    admitted child pair, in typed columns (:data:`DIST_CODE` /
    :data:`ROW_CODE` arrays, 8 bytes a value and no object per row) --
    and a :class:`Pair` is built only for the row a consumer asks for.

    Attributes
    ----------
    dists:
        MINDIST (the exact distance for object/object rows) per row.
    rows, items:
        ``items[rows[r]]`` is row ``r``'s child item.  ``items`` is
        typically the node's cached child list, shared by every block
        built from that node and never edited in place.  ``rows`` is a
        ``range`` when the expansion dropped no child (row ``r`` is
        child ``r``), else a row-number array.
    other, side:
        One-sided expansion: the fixed partner item, and the side (1
        or 2) the children are on.  ``side=0`` is the simultaneous
        expansion: ``items2[rows2[r]]`` is the second item instead.
    uppers:
        The rows' estimation d_max values, once something computed
        them (``None`` until then).
    keyd, rank, level, seq0, step:
        The key shape, set by :meth:`KeyMaker.key_block` when the
        block is enqueued: row ``r`` has the queue key ``(keyd[r],
        rank, level, seq0 + step * r)``; ``keyd`` is ``dists`` itself
        on an ascending join.  The row of a key follows from its
        sequence component, so a queue hands out plain ``(key, block)``
        rows and keeps no per-row wrapper (in memory it orders one
        handle for the whole block, sorted into a run).
    """

    __slots__ = ("dists", "rows", "items", "other", "side", "rows2",
                 "items2", "uppers", "keyd", "rank", "level", "seq0",
                 "step")

    def __init__(
        self,
        dists: array,
        rows: Sequence[int],
        items: List[Item],
        other: Optional[Item],
        side: int,
        rows2: Optional[Sequence[int]] = None,
        items2: Optional[List[Item]] = None,
        uppers: Optional[array] = None,
    ) -> None:
        self.dists = dists
        self.rows = rows
        self.items = items
        self.other = other
        self.side = side
        self.rows2 = rows2
        self.items2 = items2
        self.uppers = uppers

    @classmethod
    def of_pairs(cls, pairs: List[Pair]) -> "CandidateBlock":
        """A block over already materialised pairs (one row each)."""
        rows = range(len(pairs))
        return cls(
            array(DIST_CODE, [p.distance for p in pairs]), rows,
            [p.item1 for p in pairs], None, 0, rows,
            [p.item2 for p in pairs],
        )

    def __len__(self) -> int:
        return len(self.dists)

    def first(self, row: int) -> Item:
        """Row ``row``'s item from the first tree."""
        return self.other if self.side == 2 else self.items[self.rows[row]]

    def second(self, row: int) -> Item:
        """Row ``row``'s item from the second tree."""
        if self.side == 1:
            return self.other
        if self.side == 2:
            return self.items[self.rows[row]]
        return self.items2[self.rows2[row]]

    def head(self) -> Tuple[Item, Item]:
        """Row 0's two items.  Child kind and level are uniform across
        one expansion and the partner is fixed, so they speak for every
        row's kinds and levels."""
        return self.first(0), self.second(0)

    def pairs(self) -> List[Pair]:
        """Every row materialised, in row order -- for the consumers
        that genuinely need objects (a pair filter, the semi-join's
        d_max hooks, the per-pair push)."""
        items, other = self.items, self.other
        if self.side == 1:
            return [Pair(items[i], other, d)
                    for i, d in zip(self.rows, self.dists)]
        if self.side == 2:
            return [Pair(other, items[i], d)
                    for i, d in zip(self.rows, self.dists)]
        items2 = self.items2
        return [Pair(items[i], items2[j], d)
                for i, j, d in zip(self.rows, self.rows2, self.dists)]

    def take(self, kept: List[int]) -> "CandidateBlock":
        """A block of the ``kept`` rows only, in that order."""

        def picked(column, code):
            if column is None:
                return None
            return array(code, [column[r] for r in kept])

        return CandidateBlock(
            picked(self.dists, DIST_CODE), picked(self.rows, ROW_CODE),
            self.items, self.other, self.side,
            picked(self.rows2, ROW_CODE), self.items2,
            picked(self.uppers, DIST_CODE),
        )

    # -- keyed blocks (after KeyMaker.key_block) -----------------------

    def key(self, row: int) -> tuple:
        """The queue key of row ``row``."""
        return (self.keyd[row], self.rank, self.level,
                self.seq0 + self.step * row)

    def keys(self) -> List[tuple]:
        """The queue keys of all rows, in row order."""
        rank, level = self.rank, self.level
        return [
            (d, rank, level, seq)
            for d, seq in zip(self.keyd, count(self.seq0, self.step))
        ]

    def row_of(self, key: tuple) -> Tuple[Item, Item, float]:
        """``(item1, item2, distance)`` of the row that ``key`` (one of
        this block's keys) names -- what a popped result is reported
        from.  Runs once per queue pop, hence unrolled."""
        row = abs(key[3] - self.seq0)
        side = self.side
        if side == 1:
            return self.items[self.rows[row]], self.other, self.dists[row]
        if side == 2:
            return self.other, self.items[self.rows[row]], self.dists[row]
        return (
            self.items[self.rows[row]], self.items2[self.rows2[row]],
            self.dists[row],
        )

    def pair_of(self, key: tuple) -> Pair:
        """Materialise the row that ``key`` names as a :class:`Pair`."""
        return Pair(*self.row_of(key))


class PairDistance:
    """Distance oracle for items, with counter charging.

    Parameters
    ----------
    metric:
        The point metric inducing all bounds.
    counters:
        Registry charged per the canonical counting rule: *exact*
        object/object distance evaluations (point metric distances,
        ``SpatialObject.distance_to``) cost one ``dist_calcs`` unit;
        every *rectangle bound* evaluation (MINDIST / MAXDIST /
        MINMAXDIST -- including the rectangle fallback of
        :meth:`object_distance` when only rectangles are indexed)
        costs one ``bound_calcs`` unit.  The batch kernels of
        :mod:`repro.kernels` charge the same units in bulk, one per
        bound computed, so both paths produce identical totals.
    exact_shapes:
        When True (default), resolved objects that are
        :class:`SpatialObject` instances use their exact geometric
        distance; Points always use the metric directly.  When False,
        object distance falls back to the bounding-rectangle distance
        (appropriate when only rectangles are indexed).
    check_consistency:
        When True, :meth:`check_child` raises :class:`ConsistencyError`
        if a derived pair's distance is smaller than its parent's --
        the run-time verification of the paper's consistency condition.
    """

    def __init__(
        self,
        metric: Metric = EUCLIDEAN,
        counters: Optional[CounterRegistry] = None,
        exact_shapes: bool = True,
        check_consistency: bool = False,
    ) -> None:
        self.metric = metric
        self.counters = counters if counters is not None else CounterRegistry()
        self.exact_shapes = exact_shapes
        self.check_consistency = check_consistency
        # Hot path: cache the counter objects so each charge is one
        # attribute access plus an add, not a registry lookup.
        self._dist_calcs = self.counters.counter("dist_calcs")
        self._bound_calcs = self.counters.counter("bound_calcs")

    # ------------------------------------------------------------------
    # object/object exact distance
    # ------------------------------------------------------------------

    def object_distance(self, item1: Item, item2: Item) -> float:
        """Exact distance between two (resolved or resolvable) objects."""
        o1, o2 = item1.obj, item2.obj
        if isinstance(o1, Point) and isinstance(o2, Point):
            self._dist_calcs.add()
            return self.metric.distance(o1, o2)
        if (
            self.exact_shapes
            and isinstance(o1, SpatialObject)
            and isinstance(o2, SpatialObject)
        ):
            self._dist_calcs.add()
            return o1.distance_to(o2)
        # Only bounding rectangles are available: this evaluates a
        # rectangle bound, not an exact object distance, and is charged
        # accordingly (the canonical counting rule; see class docstring).
        self._bound_calcs.add()
        return self.metric.mindist_rect_rect(item1.rect, item2.rect)

    # ------------------------------------------------------------------
    # MINDIST: the priority-queue key
    # ------------------------------------------------------------------

    def mindist(self, item1: Item, item2: Item) -> float:
        """Lower bound on the distance of any object pair generated
        from ``(item1, item2)``; exact for object/object pairs."""
        if item1.kind == OBJ and item2.kind == OBJ:
            return self.object_distance(item1, item2)
        self._bound_calcs.add()
        return self.metric.mindist_rect_rect(item1.rect, item2.rect)

    # ------------------------------------------------------------------
    # MAXDIST: the safe upper bound (valid for any node regions)
    # ------------------------------------------------------------------

    def maxdist(self, item1: Item, item2: Item) -> float:
        """Upper bound on the distance of *every* object pair generated
        from ``(item1, item2)``.

        Used by the distance-range test of Figure 5 (``MAXDIST >=
        Dmin``): pruning on it is safe because it never underestimates
        the largest generated distance.
        """
        if item1.kind == OBJ and item2.kind == OBJ:
            return self.object_distance(item1, item2)
        self._bound_calcs.add()
        return self.metric.maxdist_rect_rect(item1.rect, item2.rect)

    # ------------------------------------------------------------------
    # d_max for estimation: tight upper bound on generated pairs
    # ------------------------------------------------------------------

    def estimation_maxdist(self, item1: Item, item2: Item) -> float:
        """The d_max of Section 2.2.4: an upper bound on the distance of
        every object pair generated from the pair, using the tighter
        MINMAXDIST when both items are *minimal* bounding rectangles."""
        if item1.kind == OBJ and item2.kind == OBJ:
            return self.object_distance(item1, item2)
        self._bound_calcs.add()
        if item1.kind != NODE and item2.kind != NODE:
            return self.metric.minmaxdist_rect_rect(item1.rect, item2.rect)
        return self.metric.maxdist_rect_rect(item1.rect, item2.rect)

    # ------------------------------------------------------------------
    # debugging support
    # ------------------------------------------------------------------

    def check_child(self, parent: Pair, child_distance: float) -> None:
        """Raise unless ``child_distance >= parent.distance`` (within
        floating-point slack); no-op unless ``check_consistency``."""
        if not self.check_consistency:
            return
        # Slack scales with the larger of the two magnitudes: a parent
        # at distance 0.0 paired with children at coordinate scale 1e12
        # still gets slack proportional to the children's rounding
        # error, not the absolute 1e-9 the parent alone would give.
        slack = 1e-9 * max(1.0, abs(parent.distance), abs(child_distance))
        if child_distance < parent.distance - slack:
            raise ConsistencyError(
                f"child distance {child_distance} < parent distance "
                f"{parent.distance} for parent {parent!r}"
            )
