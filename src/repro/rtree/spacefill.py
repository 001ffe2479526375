"""Space-filling-curve bulk loading: Hilbert (2-d) and Morton (any d).

STR is this library's default packer; Hilbert packing (Kamel & Faloutsos)
is the classic alternative and Morton/Z-order the cheap one.  All three
produce legal R-trees; they differ in how well node rectangles cluster,
which the packing ablation benchmark quantifies through the join's own
cost counters.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

from repro.errors import GeometryError
from repro.geometry.rectangle import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.bulk import bulk_load_str
from repro.util.validation import require

#: Grid resolution (bits per axis) for curve keys.
DEFAULT_ORDER = 16

CURVES = ("hilbert", "morton", "str")


def morton_key(cell: Sequence[int], order: int = DEFAULT_ORDER) -> int:
    """Z-order (bit-interleaved) key of an integer grid cell."""
    key = 0
    dim = len(cell)
    for bit in range(order):
        for axis in range(dim):
            key |= ((cell[axis] >> bit) & 1) << (bit * dim + axis)
    return key


def hilbert_key_2d(x: int, y: int, order: int = DEFAULT_ORDER) -> int:
    """Hilbert-curve index of 2-d grid cell ``(x, y)``.

    The standard rotate-and-reflect iteration (Hamilton's algorithm /
    the Wikipedia ``xy2d`` routine): walk quadrants from the top bit
    down, accumulating the quadrant's offset and transforming the
    coordinates into the sub-square's frame.
    """
    rx = ry = 0
    key = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        key += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return key


def _grid_cells(
    rects: List[Rect], order: int
) -> List[List[int]]:
    """Map rectangle centers onto a ``2^order`` integer grid."""
    if not rects:
        return []
    dim = rects[0].dim
    bounds = Rect.union_of(rects)
    spans = [
        max(hi - lo, 1e-12) for lo, hi in zip(bounds.lo, bounds.hi)
    ]
    cells = []
    limit = (1 << order) - 1
    for rect in rects:
        cell = []
        for axis in range(dim):
            center = (rect.lo[axis] + rect.hi[axis]) / 2.0
            fraction = (center - bounds.lo[axis]) / spans[axis]
            cell.append(min(limit, max(0, int(fraction * limit))))
        cells.append(cell)
    return cells


def bulk_load_curve(
    objects: Sequence[Any],
    curve: str = "hilbert",
    order: int = DEFAULT_ORDER,
    tree: Optional[RTreeBase] = None,
    fill: float = 0.7,
    **tree_kwargs: Any,
) -> RTreeBase:
    """Bulk load by sorting objects along a space-filling curve.

    ``curve`` is ``"hilbert"`` (2-d only), ``"morton"`` (any
    dimension), or ``"str"`` (delegates to :func:`bulk_load_str` so the
    packing ablation can sweep one entry point).  Object ids follow
    the *input* order, exactly like :func:`bulk_load_str`.
    """
    require(curve in CURVES, f"curve must be one of {CURVES}")
    if curve == "str":
        return bulk_load_str(
            objects, tree=tree, fill=fill, **tree_kwargs
        )
    rects = [RTreeBase._rect_of(obj) for obj in objects]
    if curve == "hilbert" and rects and rects[0].dim != 2:
        raise GeometryError(
            "hilbert packing supports 2-d data; use curve='morton' "
            "for higher dimensions"
        )
    cells = _grid_cells(rects, order)
    if curve == "hilbert":
        keys = [hilbert_key_2d(c[0], c[1], order) for c in cells]
    else:
        keys = [morton_key(c, order) for c in cells]
    ranked = sorted(range(len(objects)), key=lambda i: keys[i])

    # Delegate the packing to the STR loader's machinery by feeding it
    # pre-sorted input?  No -- STR re-sorts by coordinates.  Pack
    # directly: consecutive curve-ordered runs become leaves.
    ordered = [objects[i] for i in ranked]
    loaded = _pack_sorted(
        ordered, ranked, tree=tree, fill=fill, **tree_kwargs
    )
    return loaded


def _pack_sorted(
    ordered: Sequence[Any],
    original_ids: Sequence[int],
    tree: Optional[RTreeBase],
    fill: float,
    **tree_kwargs: Any,
) -> RTreeBase:
    """Pack an already curve-ordered object list into a tree."""
    from repro.rtree.entry import BranchEntry, LeafEntry
    from repro.rtree.rstar import RStarTree
    from repro.geometry.point import Point

    require(0.0 < fill <= 1.0, "fill must be in (0, 1]")
    if tree is None:
        dim = (
            RTreeBase._rect_of(ordered[0]).dim if ordered else 2
        )
        tree_kwargs.setdefault("dim", dim)
        tree = RStarTree(**tree_kwargs)
    require(tree.size == 0, "bulk loading requires an empty tree")
    if not ordered:
        return tree

    node_cap = max(2, int(math.ceil(fill * tree.max_entries)))
    entries: List[Any] = []
    for position, obj in enumerate(ordered):
        rect = tree._rect_of(obj)
        payload = (
            obj if isinstance(obj, Point) or hasattr(obj, "mbr")
            else None
        )
        entries.append(
            LeafEntry(rect, original_ids[position], payload)
        )
    tree._next_oid = len(entries)
    tree._oids = set(original_ids)
    tree.size = len(entries)
    old_root = tree.read_node(tree.root_id)
    tree._free_node(old_root)

    level = 0
    while True:
        groups = [
            entries[i:i + node_cap]
            for i in range(0, len(entries), node_cap)
        ]
        # Merge an underfull tail into its neighbour (or split evenly).
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
        if len(nodes) == 1:
            tree.root_id = nodes[0].page_id
            return tree
        entries = [BranchEntry(n.mbr(), n.page_id) for n in nodes]
        level += 1
