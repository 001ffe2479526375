"""Point-region (PR) bucket quadtree.

A PR quadtree decomposes a fixed square universe: every internal node
has exactly ``2^dim`` children covering equal sub-quadrants, and
points live in leaf buckets of bounded capacity.  Unlike the R-tree it
is *unbalanced* -- leaf depth follows data density -- which is exactly
the structural case the paper's Section 2.2.2 discusses for its
algorithms.

The tree exposes the same substrate protocol the join drivers consume:

- ``read_node(page_id)`` returning a node with ``level``,
  ``is_leaf``, and ``entries`` (:class:`BranchEntry` /
  :class:`LeafEntry` with key rectangles);
- ``root_id``, ``pool``, ``counters``, ``len()``, ``bounds()``,
  ``min_subtree_count`` / ``avg_subtree_count``.

Because the structure is unbalanced, a node's ``level`` is its
*height* (longest path to a leaf); the join only uses levels for
tie-breaking, and always re-reads the true node to decide whether
entries are children or objects, so mixed-depth children are handled
correctly.  Empty quadrants are simply not materialized as entries.
Subtree cardinality lower bounds are 1 (a quadtree guarantees no
minimum occupancy), which keeps the maximum-distance estimator safe.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.storage.buffer import DEFAULT_CAPACITY, BufferPool
from repro.storage.pager import DEFAULT_PAGE_SIZE, PageStore
from repro.util.counters import CounterRegistry
from repro.util.validation import require, require_positive


class QuadNode:
    """One quadtree node (payload of a page).

    ``children`` maps quadrant index -> child page id for internal
    nodes; ``points`` holds ``(oid, Point)`` for leaf buckets.
    ``level`` is the node's height: 0 for leaves, and
    ``1 + max(child levels)`` above (maintained on every update).
    """

    __slots__ = ("page_id", "region", "level", "children", "points")

    def __init__(self, page_id: int, region: Rect) -> None:
        self.page_id = page_id
        self.region = region
        self.level = 0
        self.children: Optional[List[Optional[int]]] = None
        self.points: List = []

    @property
    def is_leaf(self) -> bool:
        """True for bucket (point-holding) nodes."""
        return self.children is None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"QuadNode({kind}, page={self.page_id}, level={self.level})"


class _NodeView:
    """Adapter presenting a :class:`QuadNode` through the R-tree node
    protocol (``level`` + ``entries`` of Branch/Leaf entries) that the
    join drivers traverse."""

    __slots__ = ("page_id", "level", "entries", "_soa")

    def __init__(self, page_id: int, level: int, entries: List) -> None:
        self.page_id = page_id
        self.level = level
        self.entries = entries
        self._soa = None

    def entries_soa(self):
        """Columnar mirror of the view's entries, as on R-tree nodes.

        Views are rebuilt on every ``read_node`` call, so the cache
        lives only as long as the view and needs no invalidation hook.
        """
        soa = self._soa
        if soa is None:
            from repro.kernels import build_entry_soa

            soa = build_entry_soa(self.entries)
            if soa is not None:
                self._soa = soa
        return soa

    @property
    def is_leaf(self) -> bool:
        """True when the entries are objects rather than children."""
        return self.level == 0

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the node's entries.

        Note this is the MBR of what the node *contains* (as the join
        drivers expect), not the quadrant region, which may be mostly
        empty space.
        """
        if not self.entries:
            raise TreeError(f"node {self.page_id} is empty, has no MBR")
        return Rect.union_of([e.rect for e in self.entries])


class PRQuadtree:
    """PR bucket quadtree over a fixed square universe.

    Parameters
    ----------
    bounds:
        The universe rectangle (all inserted points must fall inside).
    bucket_capacity:
        Maximum points per leaf before it splits (default 8).
    max_depth:
        Split limit; beyond it leaves are allowed to overflow, which
        bounds pathological duplicate-point inputs.
    """

    def __init__(
        self,
        bounds: Rect,
        bucket_capacity: int = 8,
        max_depth: int = 24,
        counters: Optional[CounterRegistry] = None,
        buffer_pages: int = DEFAULT_CAPACITY,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        require_positive(bucket_capacity, "bucket_capacity")
        require_positive(max_depth, "max_depth")
        self.dim = bounds.dim
        self.universe = bounds
        self.bucket_capacity = bucket_capacity
        self.max_depth = max_depth
        self.counters = counters if counters is not None else CounterRegistry()
        self.store = PageStore(page_size=page_size, counters=self.counters)
        self.pool = BufferPool(
            self.store, capacity=buffer_pages, counters=self.counters
        )
        self.size = 0
        self._next_oid = 0
        self._oids: Set[int] = set()
        root = self._new_node(bounds)
        self.root_id = root.page_id

    # ------------------------------------------------------------------
    # storage plumbing
    # ------------------------------------------------------------------

    def _new_node(self, region: Rect) -> QuadNode:
        node = QuadNode(-1, region)
        node.page_id = self.store.allocate(node, 8)
        return node

    def _raw(self, page_id: int) -> QuadNode:
        hit = self.pool.contains(page_id)
        page = self.pool.read(page_id)
        self.counters.add("node_reads")
        if not hit:
            self.counters.add("node_io")
        return page.payload

    def read_node(self, page_id: int) -> _NodeView:
        """The node as the join drivers see it: Branch/Leaf entries.

        Leaf entries carry degenerate point rectangles; branch entries
        carry the child's quadrant region.  Empty quadrants produce no
        entry.
        """
        node = self._raw(page_id)
        if node.is_leaf:
            entries = [
                LeafEntry(Rect.from_point(point), oid, point)
                for oid, point in node.points
            ]
            return _NodeView(page_id, 0, entries)
        entries = []
        assert node.children is not None
        for child_id in node.children:
            if child_id is None:
                continue
            child = self._raw(child_id)
            if child.is_leaf and not child.points:
                continue
            entries.append(BranchEntry(child.region, child_id))
        return _NodeView(page_id, node.level, entries)

    def root(self) -> _NodeView:
        """The root node view (join-driver protocol)."""
        return self.read_node(self.root_id)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    def _quadrant_region(self, region: Rect, index: int) -> Rect:
        lo = []
        hi = []
        for axis in range(self.dim):
            mid = (region.lo[axis] + region.hi[axis]) / 2.0
            if index & (1 << axis):
                lo.append(mid)
                hi.append(region.hi[axis])
            else:
                lo.append(region.lo[axis])
                hi.append(mid)
        return Rect(lo, hi)

    def _quadrant_of(self, region: Rect, point: Point) -> int:
        index = 0
        for axis in range(self.dim):
            mid = (region.lo[axis] + region.hi[axis]) / 2.0
            if point[axis] >= mid:
                index |= 1 << axis
        return index

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, obj: Point, oid: Optional[int] = None) -> int:
        """Insert a point; returns its object id."""
        if not isinstance(obj, Point):
            raise TreeError("PRQuadtree indexes Point objects")
        if not self.universe.contains_point(obj):
            raise TreeError(
                f"point {obj!r} lies outside the universe "
                f"{self.universe!r}"
            )
        if oid is None:
            oid = self._next_oid
        elif oid in self._oids:
            # As in the R-trees: an oid names one object, which the
            # semi-join's seen set and d_max bounds rely on.
            raise TreeError(f"object id {oid} is already in the tree")
        self._next_oid = max(self._next_oid, oid + 1)
        self._insert_into(self.root_id, obj, oid, depth=0)
        self._oids.add(oid)
        self.size += 1
        return oid

    def insert_point(self, coords) -> int:
        """Convenience mirror of the R-tree API."""
        point = coords if isinstance(coords, Point) else Point(coords)
        return self.insert(point)

    def _insert_into(
        self, page_id: int, point: Point, oid: int, depth: int
    ) -> int:
        """Insert and return the node's new level (height)."""
        node = self._raw(page_id)
        if node.is_leaf:
            node.points.append((oid, point))
            if (
                len(node.points) > self.bucket_capacity
                and depth < self.max_depth
            ):
                self._split(node, depth)
            return node.level
        assert node.children is not None
        quadrant = self._quadrant_of(node.region, point)
        child_id = node.children[quadrant]
        if child_id is None:
            child = self._new_node(
                self._quadrant_region(node.region, quadrant)
            )
            node.children[quadrant] = child.page_id
            child_id = child.page_id
        child_level = self._insert_into(child_id, point, oid, depth + 1)
        node.level = max(node.level, child_level + 1)
        return node.level

    def _split(self, node: QuadNode, depth: int) -> None:
        points = node.points
        node.points = []
        node.children = [None] * (1 << self.dim)
        node.level = 1
        for oid, point in points:
            quadrant = self._quadrant_of(node.region, point)
            child_id = node.children[quadrant]
            if child_id is None:
                child = self._new_node(
                    self._quadrant_region(node.region, quadrant)
                )
                node.children[quadrant] = child.page_id
                child_id = child.page_id
            self._raw(child_id).points.append((oid, point))
        # A split quadrant may itself overflow (duplicates/clusters);
        # the depth limit stops pathological cascades (e.g. many
        # coincident points), leaving an over-full max-depth leaf.
        for child_id in node.children:
            if child_id is None:
                continue
            child = self._raw(child_id)
            if (
                len(child.points) > self.bucket_capacity
                and depth + 1 < self.max_depth
            ):
                self._split(child, depth + 1)
            node.level = max(node.level, child.level + 1)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, oid: int, point: Point) -> bool:
        """Remove the object ``oid`` located at ``point``."""
        removed = self._delete_from(self.root_id, oid, point)
        if removed:
            self._oids.discard(oid)
            self.size -= 1
        return removed

    def _delete_from(self, page_id: int, oid: int, point: Point) -> bool:
        node = self._raw(page_id)
        if node.is_leaf:
            for i, (stored_oid, stored) in enumerate(node.points):
                if stored_oid == oid and stored == point:
                    del node.points[i]
                    return True
            return False
        assert node.children is not None
        quadrant = self._quadrant_of(node.region, point)
        child_id = node.children[quadrant]
        if child_id is None:
            return False
        if not self._delete_from(child_id, oid, point):
            return False
        # Collapse an internal node whose points all fit one bucket.
        total: List = []
        collapsible = True
        for cid in node.children:
            if cid is None:
                continue
            child = self._raw(cid)
            if not child.is_leaf:
                collapsible = False
                break
            total.extend(child.points)
        if collapsible and len(total) <= self.bucket_capacity:
            for cid in node.children:
                if cid is not None:
                    self.pool.invalidate(cid)
                    self.store.free(cid)
            node.children = None
            node.points = total
            node.level = 0
        else:
            node.level = 1 + max(
                self._raw(cid).level
                for cid in node.children
                if cid is not None
            )
        return True

    # ------------------------------------------------------------------
    # queries / protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def items(self) -> Iterator[LeafEntry]:
        """Iterate over all leaf entries."""
        stack = [self.root_id]
        while stack:
            node = self._raw(stack.pop())
            if node.is_leaf:
                for oid, point in node.points:
                    yield LeafEntry(Rect.from_point(point), oid, point)
            else:
                assert node.children is not None
                for child_id in node.children:
                    if child_id is not None:
                        stack.append(child_id)

    def bounds(self) -> Optional[Rect]:
        """MBR of the stored points (None when empty)."""
        points = [entry.obj for entry in self.items()]
        if not points:
            return None
        return Rect.from_points(points)

    @property
    def height(self) -> int:
        """Longest root-to-leaf path length (1 for a lone bucket)."""
        return self._raw(self.root_id).level + 1

    def min_subtree_count(self, level: int) -> int:
        """Quadtrees guarantee no minimum occupancy: the safe lower
        bound for the estimator is a single object per subtree."""
        require(level >= 0, "level must be non-negative")
        return 1

    def avg_subtree_count(self, level: int) -> float:
        """Average-occupancy estimate by uniform division of the data
        among quadrants per level."""
        if self.size == 0:
            return 0.0
        root_level = self._raw(self.root_id).level
        depth = max(0, root_level - level)
        share = self.size / float((1 << self.dim) ** depth)
        return max(1.0, share)

    def __repr__(self) -> str:
        return (
            f"PRQuadtree(size={self.size}, height={self.height}, "
            f"bucket={self.bucket_capacity})"
        )
