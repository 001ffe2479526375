"""Sort-Tile-Recursive (STR) bulk loading.

Building a 20k-point R*-tree one insert at a time is the dominant cost
of a benchmark run, and the paper's trees are built offline anyway, so
the benchmark harness bulk-loads with STR (Leutenegger et al., 1997).
The resulting tree satisfies all structural invariants checked by
:func:`repro.rtree.validate.validate_tree` and is, if anything, a
slightly *better*-clustered tree than repeated insertion produces.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.rtree.base import RTreeBase
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.rtree.rstar import RStarTree
from repro.util.validation import require


def bulk_load_str(
    objects: Sequence[Any],
    tree: Optional[RTreeBase] = None,
    fill: float = 0.7,
    **tree_kwargs: Any,
) -> RTreeBase:
    """Bulk load ``objects`` into an R-tree using the STR algorithm.

    Parameters
    ----------
    objects:
        Points, Rects, or anything with an ``mbr()`` method.  Object
        ids are assigned in input order (0, 1, 2, ...), so callers can
        map ids back to their own records.  A NaN or infinite
        coordinate is refused with ``TreeError``, ``tree`` untouched.
    tree:
        An *empty* tree to load into; a fresh :class:`RStarTree` with
        ``tree_kwargs`` is created when omitted.
    fill:
        Target node fill factor in (0, 1]; nodes are packed to
        ``ceil(fill * max_entries)`` entries.

    Returns
    -------
    The loaded tree.
    """
    require(0.0 < fill <= 1.0, "fill must be in (0, 1]")
    if tree is None:
        sample_rect = RTreeBase._rect_of(objects[0]) if objects else None
        dim = sample_rect.dim if sample_rect is not None else 2
        tree_kwargs.setdefault("dim", dim)
        tree = RStarTree(**tree_kwargs)
    require(tree.size == 0, "bulk loading requires an empty tree")

    if not objects:
        return tree

    node_cap = max(2, int(math.ceil(fill * tree.max_entries)))
    leaf_entries: List[LeafEntry] = []
    for oid, obj in enumerate(objects):
        rect = tree._rect_of(obj)
        # Validated before anything below mutates the tree.
        tree._require_finite(rect)
        payload = obj if isinstance(obj, Point) or hasattr(obj, "mbr") else None
        leaf_entries.append(LeafEntry(rect, oid, payload))
    tree._next_oid = len(leaf_entries)
    tree._oids = set(range(len(leaf_entries)))
    tree.size = len(leaf_entries)

    level = 0
    entries: List[Any] = leaf_entries
    # Free the empty pre-allocated root; STR builds its own nodes.
    old_root = tree.read_node(tree.root_id)
    tree._free_node(old_root)
    while True:
        nodes = _pack_level(tree, entries, level, node_cap)
        if len(nodes) == 1:
            tree.root_id = nodes[0].page_id
            return tree
        entries = [BranchEntry(n.mbr(), n.page_id) for n in nodes]
        level += 1


def _pack_level(
    tree: RTreeBase, entries: List[Any], level: int, node_cap: int
):
    """Tile one level of entries into nodes of ``node_cap`` entries."""
    dim = tree.dim

    def center_key(axis: int):
        def key(entry) -> float:
            return (entry.rect.lo[axis] + entry.rect.hi[axis]) / 2.0
        return key

    # Recursive tiling: sort by the first axis, cut into slabs sized so
    # that each slab tiles the remaining axes; recurse on the slabs.
    def tile(items: List[Any], axes: Tuple[int, ...]) -> List[List[Any]]:
        if len(items) <= node_cap or len(axes) == 1:
            items = sorted(items, key=center_key(axes[0]))
            return [
                items[i:i + node_cap]
                for i in range(0, len(items), node_cap)
            ]
        axis, rest = axes[0], axes[1:]
        slab_count = int(math.ceil(
            (len(items) / node_cap) ** (1.0 / len(axes))
        ))
        # Round slab sizes up to a multiple of node_cap so that every
        # slab except possibly the last packs into completely full
        # nodes; at most one underfull node then exists tree-wide.
        slab_size = int(math.ceil(len(items) / slab_count))
        slab_size = int(math.ceil(slab_size / node_cap)) * node_cap
        items = sorted(items, key=center_key(axis))
        groups: List[List[Any]] = []
        for i in range(0, len(items), slab_size):
            groups.extend(tile(items[i:i + slab_size], rest))
        return groups

    groups = tile(entries, tuple(range(dim)))
    # Guard against a degenerate final group of size < min_entries:
    # combine it with its neighbour (one node if it fits the capacity,
    # otherwise two balanced halves, each at least min_entries because
    # the combined size then exceeds max_entries >= 2 * min_entries).
    if len(groups) > 1 and len(groups[-1]) < tree.min_entries:
        combined = groups[-2] + groups[-1]
        if len(combined) <= tree.max_entries:
            groups[-2:] = [combined]
        else:
            half = len(combined) // 2
            groups[-2:] = [combined[:half], combined[half:]]

    nodes = []
    for group in groups:
        node = tree._new_node(level=level, entries=group)
        tree._write_node(node)
        nodes.append(node)
    return nodes
