"""Saving and loading R-trees to/from a versioned JSON snapshot.

A downstream user should not have to rebuild an index on every run.
The snapshot stores the tree's parameters plus every node with its
entries; point payloads are stored inline (the paper's experimental
setup keeps objects directly in the leaves).  Non-point payloads are
snapshotted by their bounding rectangle and object id only -- the
standard "objects live in external storage" deployment -- and a
warning flag is recorded so loads are explicit about it.

The format is plain JSON (stdlib only, diff-able, versioned); page
ids are remapped on load, so snapshots are position-independent.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Type

from repro.errors import StorageError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.entry import BranchEntry, LeafEntry
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.node import Node
from repro.rtree.rstar import RStarTree
from repro.util.counters import CounterRegistry

FORMAT_NAME = "repro-rtree"
FORMAT_VERSION = 1

_TREE_CLASSES: Dict[str, Type[RTreeBase]] = {
    "RStarTree": RStarTree,
    "GuttmanRTree": GuttmanRTree,
}


def _encode_entry(entry: Any) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "rect": [list(entry.rect.lo), list(entry.rect.hi)],
    }
    if isinstance(entry, BranchEntry):
        record["child"] = entry.child_id
        return record
    record["oid"] = entry.oid
    if isinstance(entry.obj, Point):
        record["point"] = list(entry.obj.coords)
    return record


def _decode_entry(record: Dict[str, Any]) -> Any:
    rect = Rect(record["rect"][0], record["rect"][1])
    if "child" in record:
        return BranchEntry(rect, record["child"])
    obj = Point(record["point"]) if "point" in record else None
    return LeafEntry(rect, record["oid"], obj)


def save_tree(tree: RTreeBase, path: str) -> None:
    """Write ``tree`` to ``path`` as a JSON snapshot."""
    nodes = []
    lossy = False
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        encoded_entries = []
        for entry in node.entries:
            record = _encode_entry(entry)
            if (
                "child" not in record
                and "point" not in record
                and entry.obj is not None
            ):
                lossy = True
            encoded_entries.append(record)
            if isinstance(entry, BranchEntry):
                stack.append(entry.child_id)
        nodes.append({
            "id": node.page_id,
            "level": node.level,
            "entries": encoded_entries,
        })
    snapshot = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "tree_class": type(tree).__name__,
        "dim": tree.dim,
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "size": tree.size,
        "next_oid": tree._next_oid,
        "root": tree.root_id,
        "lossy_objects": lossy,
        "nodes": nodes,
    }
    with open(path, "w") as handle:
        json.dump(snapshot, handle)


def load_tree(
    path: str,
    counters: Optional[CounterRegistry] = None,
    **tree_kwargs: Any,
) -> RTreeBase:
    """Load a snapshot written by :func:`save_tree`.

    The concrete tree class, dimensions, and fan-out come from the
    snapshot; ``tree_kwargs`` may override runtime-only parameters
    (``buffer_pages``, ``page_size``).
    """
    with open(path) as handle:
        snapshot = json.load(handle)
    if snapshot.get("format") != FORMAT_NAME:
        raise StorageError(f"{path} is not a {FORMAT_NAME} snapshot")
    if snapshot.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot version {snapshot.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    tree_class = _TREE_CLASSES.get(snapshot["tree_class"])
    if tree_class is None:
        raise StorageError(
            f"unknown tree class {snapshot['tree_class']!r}"
        )

    tree = tree_class(
        dim=snapshot["dim"],
        max_entries=snapshot["max_entries"],
        min_entries=snapshot["min_entries"],
        counters=counters,
        **tree_kwargs,
    )
    # Drop the fresh empty root; rebuild all nodes with remapped ids.
    tree._free_node(tree.read_node(tree.root_id))

    id_map: Dict[int, int] = {}
    rebuilt: Dict[int, Node] = {}
    for record in snapshot["nodes"]:
        node = tree._new_node(level=record["level"])
        node.entries = [_decode_entry(e) for e in record["entries"]]
        id_map[record["id"]] = node.page_id
        rebuilt[node.page_id] = node
    for node in rebuilt.values():
        for entry in node.entries:
            if isinstance(entry, BranchEntry):
                try:
                    entry.child_id = id_map[entry.child_id]
                except KeyError:
                    raise StorageError(
                        f"snapshot references missing node "
                        f"{entry.child_id}"
                    ) from None
        tree._write_node(node)
    try:
        tree.root_id = id_map[snapshot["root"]]
    except KeyError:
        raise StorageError("snapshot root node is missing") from None
    tree.size = snapshot["size"]
    tree._next_oid = snapshot["next_oid"]
    tree._oids = {
        entry.oid
        for node in rebuilt.values() if node.is_leaf
        for entry in node.entries
    }
    return tree
