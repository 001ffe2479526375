"""Persistent shard catalogs: a relation as a set of small R-trees.

A :class:`ShardCatalog` partitions one relation into disjoint shards
with the reference-point STR tiler of :mod:`repro.shard.partition`, so
every object belongs to exactly one shard and the cross product of two
catalogs' shards covers the join's pair space exactly once.  Each
shard carries:

- its exact MBR (union of member rectangles) and object count;
- a content fingerprint (SHA-1 over the members' ids and rectangles),
  so caches and cursors can detect staleness without re-reading data;
- a lazily built R*-tree over the members (STR bulk load, dense local
  object ids) plus the local-id -> original-object translation table;
- a lazily collected :class:`~repro.query.costmodel.TreeStats`
  summary feeding the per-shard cost model.

Catalogs persist as a directory: a ``manifest.json`` (format
``repro-shard-catalog`` version 2) describing every shard, plus one
``storage.snapshot`` tree file per shard.  :meth:`ShardCatalog.open`
reads only the manifest; shard trees load on first use, through each
tree's own pager and buffer pool, so routing that prunes a shard pair
never pays that shard's I/O.  The manifest names its tiler; one that
names any but ``str`` (an earlier build also wrote ``grid``) is a
:class:`~repro.errors.StorageError`.

The router prunes shard pairs on the manifest's MBRs alone, so a
well-formed but *wrong* manifest would drop rows silently.  Hence the
catalog fingerprint -- also the route cache's key -- covers all that
routing reads (each shard's digest, count and MBR), and a shard tree
loaded from disk must have the count and bounds its record states;
either failing is a :class:`~repro.errors.StorageError`.

Everything is deterministic: the same relation and shard count
always produce byte-identical shard membership, tree shapes,
and fingerprints -- which is what lets a suspended sharded cursor be
resumed against a rebuilt catalog.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ReproError, StorageError
from repro.geometry.rectangle import Rect
from repro.shard.partition import STR, STRPartitioner, TaskObject
from repro.query.costmodel import LevelStats, TreeStats, collect_stats
from repro.rtree.base import DEFAULT_MAX_ENTRIES, RTreeBase
from repro.rtree.bulk import bulk_load_str
from repro.storage.snapshot import load_tree, save_tree
from repro.util.counters import CounterRegistry
from repro.util.validation import require

#: Manifest envelope.
CATALOG_FORMAT = "repro-shard-catalog"
CATALOG_VERSION = 2

#: Default shard count when the caller does not choose one.
DEFAULT_SHARDS = 4


@dataclass
class ShardInfo:
    """Metadata for one shard, available without loading its tree."""

    shard_id: int
    tile_index: int
    mbr: Rect
    count: int
    fingerprint: str


def _shard_fingerprint(objects: List[TaskObject]) -> str:
    """SHA-1 over the shard's membership (ids and rectangles).

    ``repr`` of a float is exact in Python 3, so the digest is stable
    across processes and platforms (unlike ``hash()``).
    """
    digest = hashlib.sha1()
    for item in objects:
        digest.update(
            f"{item.oid}:{item.rect.lo!r}:{item.rect.hi!r};".encode()
        )
    return digest.hexdigest()


def _typed(record: Any, field: Any, kind: type) -> Any:
    """``record[field]``, insisting on its JSON type (a bool is not a
    count, and ``"3"`` would hash like ``3``)."""
    value = record[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(
            f"{field!r} must be {kind.__name__}, not {value!r}"
        )
    return value


def _stats_to_json(stats: TreeStats) -> Dict[str, Any]:
    return {
        "size": stats.size,
        "height": stats.height,
        "universe_sides": list(stats.universe_sides),
        "levels": [
            [level.level, level.nodes, level.avg_side]
            for level in stats.levels
        ],
    }


def _stats_from_json(record: Dict[str, Any]) -> TreeStats:
    return TreeStats(
        size=record["size"],
        height=record["height"],
        universe_sides=list(record["universe_sides"]),
        levels=[
            LevelStats(level, nodes, avg_side)
            for level, nodes, avg_side in record["levels"]
        ],
    )


class ShardCatalog:
    """All shards of one relation (see the module docstring).

    Build with :meth:`build` (from an indexed relation) or
    :meth:`open` (from a saved catalog directory); both give the same
    lazy API.  Direct construction is internal.
    """

    #: The tiler every catalog is cut with (recorded in the manifest).
    method = STR

    def __init__(
        self,
        dim: int,
        shards: int,
        infos: List[ShardInfo],
        *,
        counters: Optional[CounterRegistry] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        objects: Optional[Dict[int, List[TaskObject]]] = None,
        directory: Optional[str] = None,
        paths: Optional[Dict[int, str]] = None,
        oids: Optional[Dict[int, List[int]]] = None,
        stats: Optional[Dict[int, TreeStats]] = None,
        tree_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.dim = dim
        self.shards = shards
        self.infos = list(infos)
        self.counters = (
            counters if counters is not None else CounterRegistry()
        )
        self.max_entries = max_entries
        self.directory = directory
        self._objects = objects
        self._paths = paths
        self._oids = oids
        self._tree_kwargs = dict(tree_kwargs or {})
        self._trees: Dict[int, RTreeBase] = {}
        self._tables: Dict[int, List[TaskObject]] = {}
        self._stats: Dict[int, TreeStats] = dict(stats or {})
        self._by_id = {info.shard_id: info for info in self.infos}
        self.fingerprint = self._catalog_fingerprint()

    def _catalog_fingerprint(self) -> str:
        digest = hashlib.sha1()
        digest.update(
            f"{CATALOG_FORMAT}:{CATALOG_VERSION}:{self.dim}:"
            f"{self.method}:{self.shards};".encode()
        )
        for info in self.infos:
            digest.update(
                f"{info.shard_id}={info.fingerprint}:{info.count}:"
                f"{info.mbr.lo!r}:{info.mbr.hi!r};".encode()
            )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        tree: RTreeBase,
        shards: int = DEFAULT_SHARDS,
        *,
        counters: Optional[CounterRegistry] = None,
    ) -> "ShardCatalog":
        """Partition an indexed relation into a shard catalog.

        Shard membership comes from the reference-point STR tiler, so
        an object belongs to exactly one shard; shard trees themselves
        are not built here -- they materialize on first
        :meth:`tree` call.
        """
        require(shards >= 1, "shards must be at least 1")
        registry = counters if counters is not None else tree.counters
        objects: Dict[int, List[TaskObject]] = {}
        infos: List[ShardInfo] = []
        if len(tree) > 0:
            # One walk of the tree.  The STR sample is the relation
            # twice over, as the two-tree tiler this replaced drew it:
            # every committed catalog fingerprint and shard cursor was
            # cut from those quantiles.
            entries = list(tree.items())
            rects = [entry.rect for entry in entries]
            partitioner = STRPartitioner(shards, rects + rects)
            groups = partitioner.assign(entries)
            for shard_id, tile_index in enumerate(sorted(groups)):
                members = groups[tile_index]
                mbr = members[0].rect
                for item in members[1:]:
                    mbr = mbr.union(item.rect)
                objects[shard_id] = members
                infos.append(ShardInfo(
                    shard_id=shard_id,
                    tile_index=tile_index,
                    mbr=mbr,
                    count=len(members),
                    fingerprint=_shard_fingerprint(members),
                ))
        return cls(
            tree.dim, shards, infos,
            counters=registry,
            max_entries=getattr(tree, "max_entries", DEFAULT_MAX_ENTRIES),
            objects=objects,
        )

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        counters: Optional[CounterRegistry] = None,
        **tree_kwargs: Any,
    ) -> "ShardCatalog":
        """Open a saved catalog, reading only the manifest.

        ``tree_kwargs`` (``buffer_pages``, ``page_size``) configure
        the pager of every lazily loaded shard tree.
        """
        manifest_path = os.path.join(directory, "manifest.json")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot read shard manifest {manifest_path}: {exc}"
            ) from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != CATALOG_FORMAT
        ):
            raise StorageError(
                f"{manifest_path} is not a shard catalog manifest"
            )
        if manifest.get("version") != CATALOG_VERSION:
            raise StorageError(
                f"unsupported catalog version "
                f"{manifest.get('version')!r} (this build reads "
                f"{CATALOG_VERSION})"
            )
        if manifest.get("method") != STR:
            raise StorageError(
                f"{manifest_path} was cut with the "
                f"{manifest.get('method')!r} tiler; this build reads "
                f"{STR!r} catalogs only -- rebuild it"
            )
        try:
            infos: List[ShardInfo] = []
            paths: Dict[int, str] = {}
            oids: Dict[int, List[int]] = {}
            stats: Dict[int, TreeStats] = {}
            for record in _typed(manifest, "entries", list):
                shard_id = _typed(record, "shard_id", int)
                lo, hi = _typed(record, "mbr", list)
                infos.append(ShardInfo(
                    shard_id=shard_id,
                    tile_index=_typed(record, "tile_index", int),
                    mbr=Rect(lo, hi),
                    count=_typed(record, "count", int),
                    fingerprint=_typed(record, "fingerprint", str),
                ))
                paths[shard_id] = os.path.join(
                    directory, _typed(record, "path", str)
                )
                ids = _typed(record, "oids", list)
                oids[shard_id] = [
                    _typed(ids, index, int) for index in range(len(ids))
                ]
                if record.get("stats") is not None:
                    stats[shard_id] = _stats_from_json(record["stats"])
            catalog = cls(
                _typed(manifest, "dim", int),
                _typed(manifest, "shards", int),
                infos,
                counters=counters,
                max_entries=manifest.get(
                    "max_entries", DEFAULT_MAX_ENTRIES
                ),
                directory=directory,
                paths=paths,
                oids=oids,
                stats=stats,
                tree_kwargs=tree_kwargs,
            )
            stated = manifest["fingerprint"]
        except (
            KeyError, IndexError, TypeError, ValueError, ReproError
        ) as exc:
            # A missing field, or one of the wrong type or shape.
            raise StorageError(
                f"malformed shard manifest {manifest_path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if catalog.fingerprint != stated:
            raise StorageError(
                "shard manifest fingerprint mismatch (manifest edited "
                "or written by an incompatible build)"
            )
        return catalog

    def save(self, directory: str) -> str:
        """Persist the catalog: one snapshot per shard + a manifest.

        Returns the manifest path.  Saving materializes every shard
        tree (they are what gets snapshotted) and their stats, so the
        manifest carries the full per-shard summary.
        """
        os.makedirs(directory, exist_ok=True)
        records = []
        for info in self.infos:
            filename = f"shard-{info.shard_id:04d}.json"
            save_tree(self.tree(info.shard_id),
                      os.path.join(directory, filename))
            records.append({
                "shard_id": info.shard_id,
                "tile_index": info.tile_index,
                "mbr": [list(info.mbr.lo), list(info.mbr.hi)],
                "count": info.count,
                "fingerprint": info.fingerprint,
                "path": filename,
                "oids": [
                    item.oid for item in self.table(info.shard_id)
                ],
                "stats": _stats_to_json(self.stats(info.shard_id)),
            })
        manifest = {
            "format": CATALOG_FORMAT,
            "version": CATALOG_VERSION,
            "dim": self.dim,
            "method": self.method,
            "shards": self.shards,
            "max_entries": self.max_entries,
            "fingerprint": self.fingerprint,
            "entries": records,
        }
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
        return manifest_path

    # ------------------------------------------------------------------
    # lazy per-shard access
    # ------------------------------------------------------------------

    @property
    def shard_ids(self) -> List[int]:
        return [info.shard_id for info in self.infos]

    def info(self, shard_id: int) -> ShardInfo:
        return self._by_id[shard_id]

    def __len__(self) -> int:
        return len(self.infos)

    def tree(self, shard_id: int) -> RTreeBase:
        """The shard's R-tree, built or loaded on first use."""
        tree = self._trees.get(shard_id)
        if tree is not None:
            return tree
        if self._objects is not None and shard_id in self._objects:
            tree = load_objects(
                self._objects[shard_id], self.max_entries, self.counters
            )
        elif self._paths is not None and shard_id in self._paths:
            tree = load_tree(
                self._paths[shard_id],
                counters=self.counters,
                **self._tree_kwargs,
            )
            # A stale or swapped shard file is not the shard the
            # manifest routes on.  Peeked: the check charges no I/O.
            info = self._by_id[shard_id]
            root = tree.store.peek(tree.root_id).payload
            bounds = root.mbr() if root.entries else None
            if len(tree) != info.count or bounds != info.mbr:
                raise StorageError(
                    f"shard {shard_id}: the manifest states "
                    f"{info.count} objects within {info.mbr!r}, its "
                    f"tree file holds {len(tree)} within {bounds!r}"
                )
        else:
            raise StorageError(f"unknown shard id {shard_id}")
        self._trees[shard_id] = tree
        return tree

    def table(self, shard_id: int) -> List[TaskObject]:
        """Local-oid -> original :class:`TaskObject` translation."""
        table = self._tables.get(shard_id)
        if table is not None:
            return table
        if self._objects is not None and shard_id in self._objects:
            table = self._objects[shard_id]
        else:
            tree = self.tree(shard_id)
            original = self._oids[shard_id] if self._oids else None
            slots: List[Optional[TaskObject]] = [None] * len(tree)
            for entry in tree.items():
                oid = (
                    original[entry.oid]
                    if original is not None else entry.oid
                )
                slots[entry.oid] = TaskObject(
                    oid, entry.rect, entry.obj
                )
            table = [item for item in slots if item is not None]
        self._tables[shard_id] = table
        return table

    def stats(self, shard_id: int) -> TreeStats:
        """The shard tree's cost-model summary (lazy, cached; saved
        catalogs carry it in the manifest so no tree load is needed)."""
        stats = self._stats.get(shard_id)
        if stats is None:
            stats = collect_stats(self.tree(shard_id))
            self._stats[shard_id] = stats
        return stats

    def __repr__(self) -> str:
        return (
            f"ShardCatalog(shards={len(self.infos)}/{self.shards}, "
            f"method={self.method!r}, dim={self.dim}, "
            f"fingerprint={self.fingerprint[:12]})"
        )


def load_objects(
    objects: List[TaskObject],
    max_entries: int,
    counters: CounterRegistry,
) -> RTreeBase:
    """STR bulk load a shard's objects, preserving payloads.

    Objects with a payload are loaded as that payload (so exact-shape
    distances keep working); payload-less entries are loaded as their
    bounding rectangle.
    """
    return bulk_load_str(
        [o.obj if o.obj is not None else o.rect for o in objects],
        max_entries=max_entries,
        counters=counters,
    )


def catalog_for(
    tree: RTreeBase,
    shards: int,
    *,
    counters: Optional[CounterRegistry] = None,
    cache: bool = True,
) -> ShardCatalog:
    """Build (or reuse) the catalog sharding ``tree``.

    Catalogs are memoized on the tree, keyed by the request and the
    tree's structural version (size, root page, mutation counter), so
    repeated sharded queries skip the O(n) partitioning pass.  Pass
    ``cache=False`` to force a fresh build (the benchmark harness does,
    to keep build costs inside its measured counters).
    """
    key = (
        shards, len(tree), tree.root_id,
        getattr(tree, "_mutations", None),
    )
    if cache:
        cached = getattr(tree, "_shard_catalogs", None)
        if cached is not None and cached.get(shards, (None,))[0] == key:
            return cached[shards][1]
    catalog = ShardCatalog.build(tree, shards, counters=counters)
    if cache and getattr(tree, "_mutations", None) is not None:
        store = getattr(tree, "_shard_catalogs", None)
        if store is None:
            store = {}
            tree._shard_catalogs = store
        store[shards] = (key, catalog)
    return catalog
