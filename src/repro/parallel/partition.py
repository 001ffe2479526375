"""Space partitioning for the partitioned distance join.

A shard catalog (:mod:`repro.shard.catalog`) tiles a relation's data
space and assigns every object to exactly one tile -- its shard.  A
task then joins one shard of the first relation against one shard of
the second, so the union of all shard-pair tasks covers the cross
product exactly once -- no result pair can be duplicated or lost.

*Duplicate avoidance* follows the reference-point method used by
partition-based parallel spatial joins (Tsitsigkos et al., *Parallel
In-Memory Evaluation of Spatial Joins*): an object whose extent spans
several tiles is assigned to the single tile containing its reference
point (the center of its bounding rectangle, clamped into the tiled
bounds).  Because assignment is a function of the object alone, the
tiling is a true partition of each relation and every object pair
belongs to exactly one tile-pair task by construction.

Two tilings are provided:

- :class:`GridPartitioner` -- a uniform grid over the joint bounding
  box (cheap, oblivious to skew);
- :class:`STRPartitioner` -- slab boundaries chosen from the data's
  reference-point quantiles, the same sort-tile-recursive pass the STR
  bulk loader uses for leaf packing (balanced tile populations under
  skew).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.geometry.rectangle import Rect
from repro.rtree.base import RTreeBase
from repro.util.validation import require

#: Partitioning method names.
GRID = "grid"
STR = "str"
PARTITION_METHODS = (GRID, STR)


class Tile(NamedTuple):
    """One cell of a space partition."""

    index: int
    rect: Rect


class TaskObject(NamedTuple):
    """One indexed object as shipped to a worker: original object id,
    bounding rectangle, and payload (None when only rectangles are
    indexed)."""

    oid: int
    rect: Rect
    obj: Any


def reference_point(rect: Rect) -> Tuple[float, ...]:
    """The reference point of an object: its MBR's center."""
    return tuple((lo + hi) / 2.0 for lo, hi in zip(rect.lo, rect.hi))


class Partitioner:
    """Base class: a list of tiles plus a rect -> tile assignment."""

    tiles: List[Tile]

    def tile_of(self, rect: Rect) -> int:
        """Index of the tile owning ``rect`` (by its reference point)."""
        raise NotImplementedError

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


class GridPartitioner(Partitioner):
    """A uniform grid of roughly ``partitions`` tiles over ``bounds``.

    The per-axis cell count is ``ceil(partitions ** (1/dim))``, so the
    actual tile count can slightly exceed ``partitions``; empty tiles
    simply produce no tasks.
    """

    def __init__(self, bounds: Rect, partitions: int) -> None:
        require(partitions >= 1, "partitions must be at least 1")
        self.bounds = bounds
        dim = len(bounds.lo)
        per_axis = max(1, int(math.ceil(partitions ** (1.0 / dim))))
        self.cells: List[int] = []
        self.steps: List[float] = []
        for lo, hi in zip(bounds.lo, bounds.hi):
            extent = hi - lo
            cells = per_axis if extent > 0.0 else 1
            self.cells.append(cells)
            self.steps.append(extent / cells if cells else 0.0)
        self.tiles = [
            Tile(index, self._tile_rect(index))
            for index in range(self._tile_count())
        ]

    def _tile_count(self) -> int:
        count = 1
        for cells in self.cells:
            count *= cells
        return count

    def _axis_cell(self, axis: int, coordinate: float) -> int:
        cells = self.cells[axis]
        step = self.steps[axis]
        if cells == 1 or step <= 0.0:
            return 0
        offset = coordinate - self.bounds.lo[axis]
        return min(cells - 1, max(0, int(offset / step)))

    def _tile_rect(self, index: int) -> Rect:
        lo: List[float] = []
        hi: List[float] = []
        remainder = index
        for axis in range(len(self.cells)):
            cell = remainder % self.cells[axis]
            remainder //= self.cells[axis]
            base = self.bounds.lo[axis]
            step = self.steps[axis]
            if self.cells[axis] == 1:
                lo.append(base)
                hi.append(self.bounds.hi[axis])
            else:
                lo.append(base + cell * step)
                hi.append(
                    self.bounds.hi[axis]
                    if cell == self.cells[axis] - 1
                    else base + (cell + 1) * step
                )
        return Rect(lo, hi)

    def tile_of(self, rect: Rect) -> int:
        point = reference_point(rect)
        index = 0
        stride = 1
        for axis, coordinate in enumerate(point):
            index += stride * self._axis_cell(axis, coordinate)
            stride *= self.cells[axis]
        return index


class STRPartitioner(Partitioner):
    """Sort-tile-recursive tiling balanced on reference-point counts.

    The first axis is cut into ``ceil(sqrt(partitions))`` slabs at
    sample quantiles; each slab is cut on the second axis the same way.
    One-dimensional data degenerates to quantile slabs on the only
    axis.  Ties at a boundary resolve to the lower tile (``bisect``),
    so assignment stays a function of the reference point alone.
    """

    def __init__(
        self,
        bounds: Rect,
        partitions: int,
        sample_rects: Sequence[Rect],
    ) -> None:
        require(partitions >= 1, "partitions must be at least 1")
        require(len(sample_rects) > 0,
                "STR partitioning needs a non-empty sample")
        self.bounds = bounds
        dim = len(bounds.lo)
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
        self.tiles = [
            Tile(index, self._tile_rect(index))
            for index in range((len(self.slab_cuts) + 1) * cells_per_slab)
        ]

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

    def _tile_rect(self, index: int) -> Rect:
        """The covering rectangle of one tile (diagnostic; edge tiles
        extend to the joint bounds)."""
        slab, cell = divmod(index, self.cells_per_slab)
        lo = list(self.bounds.lo)
        hi = list(self.bounds.hi)
        if self.slab_cuts:
            if slab > 0:
                lo[0] = self.slab_cuts[slab - 1]
            if slab < len(self.slab_cuts):
                hi[0] = self.slab_cuts[slab]
        if self.cell_cuts and len(lo) > 1:
            cuts = self.cell_cuts[min(slab, len(self.cell_cuts) - 1)]
            if cell > 0 and cuts:
                lo[1] = cuts[min(cell, len(cuts)) - 1]
            if cell < len(cuts):
                hi[1] = cuts[cell]
        hi = [max(a, b) for a, b in zip(lo, hi)]
        return Rect(lo, hi)

    def tile_of(self, rect: Rect) -> int:
        point = reference_point(rect)
        slab = self._slab_of(point[0])
        cell = self._cell_of(
            slab, point[1] if len(point) > 1 else 0.0
        )
        return slab * self.cells_per_slab + cell


def joint_bounds(tree1: RTreeBase, tree2: RTreeBase) -> Rect:
    """The union MBR of two trees (either may be empty, not both)."""
    bounds1 = tree1.bounds()
    bounds2 = tree2.bounds()
    if bounds1 is None and bounds2 is None:
        raise ValueError("cannot partition two empty trees")
    if bounds1 is None:
        return bounds2  # type: ignore[return-value]
    if bounds2 is None:
        return bounds1
    return bounds1.union(bounds2)


def make_partitioner(
    method: str,
    tree1: RTreeBase,
    tree2: RTreeBase,
    partitions: int,
) -> Partitioner:
    """Build the requested partitioner over two trees' joint bounds."""
    require(method in PARTITION_METHODS,
            f"partition method must be one of {PARTITION_METHODS}")
    bounds = joint_bounds(tree1, tree2)
    if method == GRID:
        return GridPartitioner(bounds, partitions)
    sample = [entry.rect for entry in tree1.items()]
    sample += [entry.rect for entry in tree2.items()]
    return STRPartitioner(bounds, partitions, sample)
