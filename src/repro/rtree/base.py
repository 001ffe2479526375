"""Shared machinery for R-tree variants.

:class:`RTreeBase` owns the storage plumbing (page store + buffer pool +
counters), the recursive insertion/deletion skeleton with MBR
maintenance, and the public read API.  Variants customize subtree
choice, splitting, and overflow treatment.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, List, Optional, Set, Tuple

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.entry import BranchEntry, LeafEntry, entry_size_bytes
from repro.rtree.node import Node
from repro.storage.buffer import DEFAULT_CAPACITY, BufferPool
from repro.storage.pager import DEFAULT_PAGE_SIZE, PageStore
from repro.util.counters import CounterRegistry
from repro.util.validation import require, require_positive

#: Paper's R*-tree fan-out for 1 KB nodes.
DEFAULT_MAX_ENTRIES = 50

#: R*-tree minimum fill: 40% of the maximum fan-out.
DEFAULT_MIN_FILL = 0.4


class RTreeBase:
    """Common base class for :class:`RStarTree` and :class:`GuttmanRTree`.

    Parameters
    ----------
    dim:
        Dimensionality of the indexed space.
    max_entries:
        Node capacity (fan-out).  The paper uses 50.
    min_entries:
        Minimum node fill; defaults to 40% of ``max_entries``.
    counters:
        Shared performance-counter registry.  Node reads that miss the
        buffer pool increment ``node_io``; all logical node reads
        increment ``node_reads``.
    buffer_pages:
        Buffer-pool capacity in pages (paper: 256).
    page_size:
        Simulated page size in bytes (paper: 1024).
    """

    def __init__(
        self,
        dim: int = 2,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: Optional[int] = None,
        counters: Optional[CounterRegistry] = None,
        buffer_pages: int = DEFAULT_CAPACITY,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        require_positive(dim, "dim")
        require(max_entries >= 2, "max_entries must be at least 2")
        if min_entries is None:
            min_entries = max(1, int(math.ceil(DEFAULT_MIN_FILL * max_entries)))
        require(
            1 <= min_entries <= max_entries // 2,
            "min_entries must be in [1, max_entries/2]",
        )
        self.dim = dim
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.counters = counters if counters is not None else CounterRegistry()
        self.store = PageStore(page_size=page_size, counters=self.counters)
        self.pool = BufferPool(
            self.store, capacity=buffer_pages, counters=self.counters
        )
        self.size = 0
        self._next_oid = 0
        # Every stored object id (insert, delete and the bulk loaders
        # keep it), so a duplicate is refused without a walk.
        self._oids: Set[int] = set()
        # Monotone structural-version counter: bumped by every insert
        # and delete.  Derived summaries (cost-model stats, shard
        # catalogs) key their caches on it to detect staleness.
        self._mutations = 0
        root = self._new_node(level=0)
        self.root_id = root.page_id
        # Transient state for one insert/delete operation.
        self._reinserted_levels: set = set()
        self._pending: List[Tuple[Any, int]] = []

    # ------------------------------------------------------------------
    # node access (all I/O accounting funnels through here)
    # ------------------------------------------------------------------

    def read_node(self, page_id: int) -> Node:
        """Fetch a node, counting ``node_reads`` and, on a miss, ``node_io``."""
        hit = self.pool.contains(page_id)
        page = self.pool.read(page_id)
        self.counters.add("node_reads")
        if not hit:
            self.counters.add("node_io")
        return page.payload

    def root(self) -> Node:
        """The root node (read through the buffer pool)."""
        return self.read_node(self.root_id)

    @property
    def height(self) -> int:
        """Number of levels; 1 for a tree that is a single leaf."""
        return self.root().level + 1

    def node_size_bytes(self, node: Node) -> int:
        """Simulated on-page size of ``node``."""
        return 8 + len(node.entries) * entry_size_bytes(self.dim)

    def _new_node(self, level: int, entries=None) -> Node:
        node = Node(page_id=-1, level=level, entries=entries)
        node.page_id = self.store.allocate(node, 8)
        return node

    def _write_node(self, node: Node) -> None:
        # Every entry-list mutation funnels through here, so this is
        # the single invalidation point for the columnar mirror.
        node.invalidate_soa()
        self.store.write(node.page_id, node, min(
            self.store.page_size, self.node_size_bytes(node)
        ))

    def _free_node(self, node: Node) -> None:
        self.pool.invalidate(node.page_id)
        self.store.free(node.page_id)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, obj: Any = None, rect: Optional[Rect] = None,
               oid: Optional[int] = None) -> int:
        """Insert an object and return its object id.

        Either ``obj`` (a :class:`Point` or anything with an ``mbr()``
        method) or an explicit ``rect`` must be given; when both are
        present, ``rect`` wins.  Object ids are assigned sequentially
        when not supplied, so they densely index the semi-join bitset.
        A rectangle of the wrong dimension or with a NaN or infinite
        coordinate, or an ``oid`` the tree already holds, is refused
        with :class:`TreeError` before anything is mutated.
        """
        if rect is None:
            rect = self._rect_of(obj)
        if rect.dim != self.dim:
            raise TreeError(
                f"object of dimension {rect.dim} inserted into "
                f"{self.dim}-d tree"
            )
        self._require_finite(rect)
        if oid is None:
            oid = self._next_oid
        elif oid in self._oids:
            raise TreeError(f"object id {oid} is already in the tree")
        self._next_oid = max(self._next_oid, oid + 1)
        self._oids.add(oid)
        entry = LeafEntry(rect, oid, obj)

        self._reinserted_levels = set()
        self._pending = [(entry, 0)]
        while self._pending:
            pending_entry, level = self._pending.pop()
            self._insert_at_level(pending_entry, level)
        self.size += 1
        self._mutations += 1
        return oid

    def insert_point(self, coords) -> int:
        """Convenience: insert a point given as a coordinate sequence."""
        point = coords if isinstance(coords, Point) else Point(coords)
        return self.insert(obj=point)

    @staticmethod
    def _rect_of(obj: Any) -> Rect:
        if isinstance(obj, Point):
            return Rect.from_point(obj)
        if isinstance(obj, Rect):
            return obj
        mbr = getattr(obj, "mbr", None)
        if callable(mbr):
            return mbr()
        raise TreeError(
            f"cannot derive a bounding rectangle from {type(obj).__name__}"
        )

    @staticmethod
    def _require_finite(rect: Rect) -> None:
        """Refuse NaN and infinite coordinates.

        A NaN compares false with everything, so once stored it
        poisons every ancestor MBR and every distance computed from
        them (and the hybrid queue cannot band a NaN distance at all);
        an infinite one makes MAXDIST bounds infinite or NaN.
        """
        isfinite = math.isfinite
        for corner in (rect.lo, rect.hi):
            for coordinate in corner:
                if not isfinite(coordinate):
                    raise TreeError(f"non-finite coordinate in {rect!r}")

    def _insert_at_level(self, entry: Any, target_level: int) -> None:
        split_entry = self._insert_recursive(self.root_id, entry, target_level)
        if split_entry is not None:
            old_root = self.read_node(self.root_id)
            new_root = self._new_node(level=old_root.level + 1)
            new_root.entries.append(
                BranchEntry(old_root.mbr(), old_root.page_id)
            )
            new_root.entries.append(split_entry)
            self._write_node(new_root)
            self.root_id = new_root.page_id

    def _insert_recursive(
        self, node_id: int, entry: Any, target_level: int
    ) -> Optional[BranchEntry]:
        node = self.read_node(node_id)
        if node.level == target_level:
            node.entries.append(entry)
        else:
            child_entry = self._choose_subtree(node, entry.rect)
            split_entry = self._insert_recursive(
                child_entry.child_id, entry, target_level
            )
            child_node = self.read_node(child_entry.child_id)
            child_entry.rect = child_node.mbr()
            if split_entry is not None:
                node.entries.append(split_entry)
        self._write_node(node)
        if len(node.entries) > self.max_entries:
            return self._handle_overflow(node)
        return None

    def _handle_overflow(self, node: Node) -> Optional[BranchEntry]:
        """Deal with an overfull node; return a new sibling entry if split.

        The base implementation always splits; :class:`RStarTree`
        overrides this to apply forced reinsertion first.
        """
        return self._split_node(node)

    def _split_node(self, node: Node) -> BranchEntry:
        group1, group2 = self._split_entries(node.entries)
        node.entries = group1
        self._write_node(node)
        sibling = self._new_node(level=node.level, entries=group2)
        self._write_node(sibling)
        return BranchEntry(sibling.mbr(), sibling.page_id)

    # Hooks customized by variants -------------------------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> BranchEntry:
        raise NotImplementedError

    def _split_entries(self, entries) -> Tuple[list, list]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, oid: int, rect: Rect) -> bool:
        """Delete the object with id ``oid`` whose MBR is ``rect``.

        Returns True if the object was found and removed.  Underfull
        nodes on the deletion path are dissolved and their entries
        reinserted (the classic condense-tree step).
        """
        orphans: List[Tuple[Any, int]] = []
        found = self._delete_recursive(self.root_id, oid, rect, orphans)
        if not found:
            return False
        self.size -= 1
        self._mutations += 1
        self._oids.discard(oid)
        root = self.read_node(self.root_id)
        if not root.is_leaf and len(root.entries) == 1:
            only_child = root.entries[0].child_id
            self._free_node(root)
            self.root_id = only_child
        elif not root.is_leaf and not root.entries:
            self._free_node(root)
            new_root = self._new_node(level=0)
            self.root_id = new_root.page_id
        for entry, level in orphans:
            self._reinserted_levels = set()
            self._pending = [(entry, level)]
            while self._pending:
                pending_entry, pending_level = self._pending.pop()
                self._insert_at_level(pending_entry, pending_level)
        return True

    def _delete_recursive(
        self,
        node_id: int,
        oid: int,
        rect: Rect,
        orphans: List[Tuple[Any, int]],
    ) -> bool:
        node = self.read_node(node_id)
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.oid == oid and entry.rect == rect:
                    del node.entries[i]
                    self._write_node(node)
                    return True
            return False
        for i, entry in enumerate(node.entries):
            if not entry.rect.contains_rect(rect):
                continue
            if self._delete_recursive(entry.child_id, oid, rect, orphans):
                child = self.read_node(entry.child_id)
                if len(child.entries) < self.min_entries:
                    del node.entries[i]
                    for orphan in child.entries:
                        orphans.append((orphan, child.level))
                    self._free_node(child)
                else:
                    entry.rect = child.mbr()
                self._write_node(node)
                return True
        return False

    # ------------------------------------------------------------------
    # iteration / misc
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def items(self) -> Iterator[LeafEntry]:
        """Iterate over all leaf entries (tree order, not spatial order)."""
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                for entry in node.entries:
                    yield entry
            else:
                for entry in node.entries:
                    stack.append(entry.child_id)

    def bounds(self) -> Optional[Rect]:
        """MBR of the whole data set, or None when the tree is empty."""
        root = self.root()
        if not root.entries:
            return None
        return root.mbr()

    def min_subtree_count(self, level: int) -> int:
        """Lower bound on objects under a node at ``level``.

        Used by the maximum-distance estimator (paper Section 2.2.4):
        every non-root node holds at least ``min_entries`` entries, so a
        node at level ``L`` subtends at least ``min_entries ** L``
        objects (a level-0 leaf is counted as holding at least
        ``min_entries`` objects when it is not the root).
        """
        require(level >= 0, "level must be non-negative")
        return self.min_entries ** (level + 1)

    def avg_subtree_count(self, level: int) -> float:
        """Average-occupancy estimate of objects under a node at ``level``.

        The paper calls using this the "more aggressive strategy" that
        may overestimate and force a query restart.
        """
        if self.size == 0:
            return 0.0
        # Average fan-out estimated from the actual tree shape.
        root = self.root()
        if root.level == 0:
            return float(len(root.entries))
        avg_fanout = max(2.0, self.size ** (1.0 / (root.level + 1)))
        return float(avg_fanout ** (level + 1))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self.size}, "
            f"height={self.height}, fanout={self.max_entries})"
        )
