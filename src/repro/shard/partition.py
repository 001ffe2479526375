"""The STR tiler: how a shard catalog splits a relation.

A shard catalog (:mod:`repro.shard.catalog`) tiles a relation's data
space and assigns every object to exactly one tile -- its shard.  A
task then joins one shard of the first relation against one shard of
the second, so the union of all shard-pair tasks covers the cross
product exactly once -- no result pair can be duplicated or lost.

*Duplicate avoidance* follows the reference-point method used by
partition-based parallel spatial joins (Tsitsigkos et al., *Parallel
In-Memory Evaluation of Spatial Joins*): an object whose extent spans
several tiles is assigned to the single tile containing its reference
point (the center of its bounding rectangle).  Because assignment is a
function of the object alone, the tiling is a true partition of each
relation and every object pair belongs to exactly one tile-pair task
by construction.

The tiling is :class:`STRPartitioner`: slab boundaries chosen from the
data's reference-point quantiles, the same sort-tile-recursive pass
the STR bulk loader uses for leaf packing, so tile populations stay
balanced under skew.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.geometry.rectangle import Rect
from repro.util.validation import require

#: The tiler's name, as catalogs and cursors record it.
STR = "str"


class TaskObject(NamedTuple):
    """One indexed object of a shard: original object id, bounding
    rectangle, and payload (None when only rectangles are indexed)."""

    oid: int
    rect: Rect
    obj: Any


def reference_point(rect: Rect) -> Tuple[float, ...]:
    """The reference point of an object: its MBR's center."""
    return tuple((lo + hi) / 2.0 for lo, hi in zip(rect.lo, rect.hi))


class STRPartitioner:
    """Sort-tile-recursive tiling balanced on reference-point counts.

    The first axis is cut into ``ceil(sqrt(partitions))`` slabs at
    sample quantiles; each slab is cut on the second axis the same way.
    One-dimensional data degenerates to quantile slabs on the only
    axis.  Ties at a boundary resolve to the lower tile (``bisect``),
    so assignment stays a function of the reference point alone.
    """

    def __init__(
        self, partitions: int, sample_rects: Sequence[Rect]
    ) -> None:
        require(partitions >= 1, "partitions must be at least 1")
        require(len(sample_rects) > 0,
                "STR partitioning needs a non-empty sample")
        dim = len(sample_rects[0].lo)
        points = [reference_point(rect) for rect in sample_rects]
        if dim == 1:
            slabs = partitions
            cells_per_slab = 1
        else:
            slabs = max(1, int(math.ceil(math.sqrt(partitions))))
            cells_per_slab = max(1, int(math.ceil(partitions / slabs)))
        self.slab_cuts = self._quantile_cuts(
            sorted(p[0] for p in points), slabs
        )
        self.cell_cuts: List[List[float]] = []
        if dim > 1:
            xs_sorted = sorted(points, key=lambda p: p[0])
            slab_size = int(math.ceil(len(xs_sorted) / slabs))
            for start in range(0, slabs * slab_size, slab_size):
                slab_points = xs_sorted[start:start + slab_size]
                ys = sorted(p[1] for p in slab_points)
                self.cell_cuts.append(
                    self._quantile_cuts(ys, cells_per_slab)
                )
        self.cells_per_slab = cells_per_slab

    @staticmethod
    def _quantile_cuts(sorted_values: List[float], parts: int) -> List[float]:
        """Cut positions splitting ``sorted_values`` into ``parts``
        roughly equal groups (deduplicated, possibly fewer cuts)."""
        if parts <= 1 or not sorted_values:
            return []
        cuts: List[float] = []
        n = len(sorted_values)
        for k in range(1, parts):
            value = sorted_values[min(n - 1, (k * n) // parts)]
            if not cuts or value > cuts[-1]:
                cuts.append(value)
        return cuts

    def _slab_of(self, x: float) -> int:
        return bisect_right(self.slab_cuts, x)

    def _cell_of(self, slab: int, y: float) -> int:
        if not self.cell_cuts:
            return 0
        cuts = self.cell_cuts[min(slab, len(self.cell_cuts) - 1)]
        return min(self.cells_per_slab - 1, bisect_right(cuts, y))

    def tile_of(self, rect: Rect) -> int:
        """Index of the tile owning ``rect`` (by its reference point)."""
        point = reference_point(rect)
        slab = self._slab_of(point[0])
        cell = self._cell_of(
            slab, point[1] if len(point) > 1 else 0.0
        )
        return slab * self.cells_per_slab + cell

    def assign(
        self, entries: Iterable[Any]
    ) -> Dict[int, List[TaskObject]]:
        """Group a tree's leaf entries by owning tile.

        ``entries`` iterates objects with ``rect``, ``oid`` and ``obj``
        attributes (the R-tree ``LeafEntry`` protocol).  Returns only
        non-empty groups.
        """
        groups: Dict[int, List[TaskObject]] = {}
        for entry in entries:
            tile = self.tile_of(entry.rect)
            groups.setdefault(tile, []).append(
                TaskObject(entry.oid, entry.rect, entry.obj)
            )
        return groups
