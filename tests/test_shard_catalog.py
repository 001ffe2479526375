"""Tests for the persistent shard catalog and the stats cache."""

import dataclasses
import json
import os

import pytest

from repro.core.spec import JoinSpec
from repro.errors import StorageError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.costmodel import collect_stats, stats_fingerprint
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.shard import ShardRouterJoin
from repro.shard.cache import clear_caches, route_cache
from repro.shard.catalog import ShardCatalog, catalog_for
from repro.storage.snapshot import load_tree
from repro.util.counters import CounterRegistry


def grid_points(n, stride=7):
    return [
        Point((float(i % stride) * 3.0, float(i // stride) * 2.0))
        for i in range(n)
    ]


@pytest.fixture
def tree():
    return bulk_load_str(grid_points(90))


class TestBuild:
    def test_membership_partitions_the_relation(self, tree):
        catalog = ShardCatalog.build(tree, shards=4)
        assert sum(info.count for info in catalog.infos) == len(tree)
        seen = set()
        for shard_id in catalog.shard_ids:
            oids = {item.oid for item in catalog.table(shard_id)}
            assert not (oids & seen)
            seen |= oids
        assert seen == {entry.oid for entry in tree.items()}

    def test_mbrs_are_exact(self, tree):
        catalog = ShardCatalog.build(tree, shards=4)
        for shard_id in catalog.shard_ids:
            info = catalog.info(shard_id)
            for item in catalog.table(shard_id):
                assert info.mbr.contains_rect(item.rect)

    def test_build_is_deterministic(self, tree):
        first = ShardCatalog.build(tree, shards=3)
        second = ShardCatalog.build(tree, shards=3)
        assert first.fingerprint == second.fingerprint
        assert [i.fingerprint for i in first.infos] == [
            i.fingerprint for i in second.infos
        ]

    def test_shard_count_changes_fingerprint(self, tree):
        assert (
            ShardCatalog.build(tree, shards=2).fingerprint
            != ShardCatalog.build(tree, shards=4).fingerprint
        )

    def test_str_is_the_only_tiler(self, tree):
        catalog = ShardCatalog.build(tree, shards=4)
        assert catalog.method == "str"
        assert sum(info.count for info in catalog.infos) == len(tree)
        with pytest.raises(TypeError):
            ShardCatalog.build(tree, shards=4, method="grid")

    @pytest.mark.parametrize("shards", [1, 2, 4, 9, 16])
    def test_build_walks_the_tree_once(self, shards):
        tree = bulk_load_str(grid_points(400))
        before = tree.counters.value("node_reads")
        assert len(list(tree.items())) == 400
        walk = tree.counters.value("node_reads") - before
        assert walk > 1
        catalog = ShardCatalog.build(tree, shards=shards)
        assert tree.counters.value("node_reads") - before == 2 * walk
        assert sum(info.count for info in catalog.infos) == 400

    def test_empty_tree(self):
        catalog = ShardCatalog.build(RStarTree(dim=2), shards=4)
        assert len(catalog) == 0

    def test_shard_trees_hold_the_members(self, tree):
        catalog = ShardCatalog.build(tree, shards=4)
        for shard_id in catalog.shard_ids:
            assert len(catalog.tree(shard_id)) == \
                catalog.info(shard_id).count

    def test_stats_summary(self, tree):
        catalog = ShardCatalog.build(tree, shards=4)
        stats = catalog.stats(0)
        assert stats.size == catalog.info(0).count


class TestPersistence:
    def test_round_trip(self, tree, tmp_path):
        built = ShardCatalog.build(tree, shards=4)
        built.save(str(tmp_path / "cat"))
        opened = ShardCatalog.open(str(tmp_path / "cat"))
        assert opened.fingerprint == built.fingerprint
        assert len(opened) == len(built)
        for shard_id in built.shard_ids:
            assert opened.info(shard_id).count == \
                built.info(shard_id).count
            assert sorted(
                (t.oid, t.rect) for t in opened.table(shard_id)
            ) == sorted(
                (t.oid, t.rect) for t in built.table(shard_id)
            )

    def test_opened_stats_come_from_manifest(self, tree, tmp_path):
        built = ShardCatalog.build(tree, shards=2)
        built.stats(0)
        built.save(str(tmp_path / "cat"))
        opened = ShardCatalog.open(str(tmp_path / "cat"))
        # No shard tree was loaded to answer this.
        assert opened.stats(0).size == built.stats(0).size
        assert not opened._trees

    def test_bad_format_rejected(self, tree, tmp_path):
        built = ShardCatalog.build(tree, shards=2)
        path = built.save(str(tmp_path / "cat"))
        manifest = json.load(open(path))
        manifest["format"] = "something-else"
        json.dump(manifest, open(path, "w"))
        with pytest.raises(StorageError):
            ShardCatalog.open(str(tmp_path / "cat"))

    def test_tampered_manifest_rejected(self, tree, tmp_path):
        built = ShardCatalog.build(tree, shards=2)
        path = built.save(str(tmp_path / "cat"))
        manifest = json.load(open(path))
        manifest["entries"][0]["fingerprint"] = "0" * 40
        json.dump(manifest, open(path, "w"))
        with pytest.raises(StorageError):
            ShardCatalog.open(str(tmp_path / "cat"))


def edit_manifest(path, edit):
    with open(path) as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(path, "w") as handle:
        json.dump(manifest, handle)


def far_away(manifest):
    """Shard 0's MBR moved where nothing is: at the parent commit the
    manifest opened, and the router pruned the shard's pairs."""
    manifest["entries"][0]["mbr"] = [[1e6, 1e6], [1e6 + 1, 1e6 + 1]]


def entry_edit(field, value):
    def edit(manifest):
        manifest["entries"][0][field] = value
    return edit


def drop_entry_field(field):
    def edit(manifest):
        del manifest["entries"][0][field]
    return edit


WRONG_MANIFESTS = {
    "mbr": far_away,
    "count": entry_edit("count", 1),
    "fingerprint": entry_edit("fingerprint", "0" * 40),
    "no tile_index": drop_entry_field("tile_index"),
    "no oids": drop_entry_field("oids"),
    "count is a string": entry_edit("count", "23"),
    "count is a bool": entry_edit("count", True),
    "mbr is a string": entry_edit("mbr", "everywhere"),
    "mbr has lo > hi": entry_edit("mbr", [[9.0, 9.0], [0.0, 0.0]]),
    "path is a number": entry_edit("path", 7),
    "oids hold a string": entry_edit("oids", ["0"]),
    "stats are a list": entry_edit("stats", [1, 2]),
    "entries are a dict": lambda manifest: manifest.update(entries={}),
    "an entry is a string": lambda manifest: manifest.update(
        entries=["shard"]
    ),
    "no dim": lambda manifest: manifest.pop("dim"),
    "no fingerprint": lambda manifest: manifest.pop("fingerprint"),
    "old version": lambda manifest: manifest.update(version=1),
    "grid tiler": lambda manifest: manifest.update(method="grid"),
    "no method": lambda manifest: manifest.pop("method"),
}


class TestWrongManifest:
    """A manifest that is valid JSON but wrong -- the router would
    prune on it -- is a :class:`StorageError`, never rows missing."""

    @pytest.fixture
    def saved(self, tmp_path):
        trees = [bulk_load_str(grid_points(90)),
                 bulk_load_str(grid_points(70, stride=5))]
        directories = [str(tmp_path / name) for name in "ab"]
        for tree, directory in zip(trees, directories):
            ShardCatalog.build(tree, shards=4).save(directory)
        clear_caches()
        return trees, directories

    def rows(self, trees, catalogs):
        return [
            (r.distance, r.oid1, r.oid2)
            for r in ShardRouterJoin(
                *trees, JoinSpec(max_distance=2.0), catalogs=catalogs
            )
        ]

    @pytest.mark.parametrize("edit", list(WRONG_MANIFESTS))
    def test_refused_at_open_with_no_route_cached(self, saved, edit):
        trees, directories = saved
        edit_manifest(
            directories[0] + "/manifest.json", WRONG_MANIFESTS[edit]
        )
        with pytest.raises(StorageError):
            ShardCatalog.open(directories[0])
        assert len(route_cache()) == 0

    def test_top_level_list_refused(self, saved):
        __, directories = saved
        with open(directories[0] + "/manifest.json", "w") as handle:
            json.dump([1, 2], handle)
        with pytest.raises(StorageError):
            ShardCatalog.open(directories[0])

    def test_forged_mbr_cannot_borrow_the_right_route(self, saved):
        """Even with the fingerprint recomputed to match, a manifest
        with another MBR is another catalog: its route is cached
        under its own key, and its shard file gives it away."""
        trees, directories = saved
        good = [ShardCatalog.open(d) for d in directories]
        expected = self.rows(trees, good)
        assert expected

        def forge(manifest):
            far_away(manifest)
            infos = [
                dataclasses.replace(info) for info in good[0].infos
            ]
            infos[0].mbr = Rect(*manifest["entries"][0]["mbr"])
            manifest["fingerprint"] = ShardCatalog(
                good[0].dim, good[0].shards, infos
            ).fingerprint

        edit_manifest(directories[0] + "/manifest.json", forge)
        forged = ShardCatalog.open(directories[0])
        assert forged.fingerprint != good[0].fingerprint
        with pytest.raises(StorageError, match="shard 0"):
            forged.tree(0)
        # Whatever the forged catalog planned, the right catalogs
        # still get the right route.
        list(ShardRouterJoin(
            *trees, JoinSpec(max_distance=2.0), catalogs=(forged, good[1])
        ))
        assert self.rows(trees, good) == expected

    def test_swapped_shard_file_refused_on_load(self, saved):
        __, directories = saved
        os.replace(
            directories[0] + "/shard-0001.json",
            directories[0] + "/shard-0000.json",
        )
        catalog = ShardCatalog.open(directories[0])  # manifest intact
        with pytest.raises(StorageError, match="shard 0"):
            catalog.tree(0)

    def test_load_check_charges_nothing(self, saved):
        __, directories = saved
        catalog = ShardCatalog.open(directories[0])
        catalog.tree(0)
        bare = CounterRegistry()
        load_tree(directories[0] + "/shard-0000.json", counters=bare)
        assert catalog.counters.snapshot() == bare.snapshot()


class TestCatalogMemo:
    def test_same_tree_same_catalog(self, tree):
        assert catalog_for(tree, 3) is catalog_for(tree, 3)

    def test_different_knobs_different_catalogs(self, tree):
        assert catalog_for(tree, 3) is not catalog_for(tree, 4)

    def test_insert_invalidates(self):
        tree = RStarTree(dim=2)
        for point in grid_points(40):
            tree.insert(point)
        before = catalog_for(tree, 3)
        tree.insert(Point((500.0, 500.0)))
        after = catalog_for(tree, 3)
        assert after is not before
        assert sum(i.count for i in after.infos) == len(tree)

    def test_cache_false_bypasses(self, tree):
        memoized = catalog_for(tree, 3)
        fresh = catalog_for(tree, 3, cache=False)
        assert fresh is not memoized
        assert fresh.fingerprint == memoized.fingerprint


class TestStatsCache:
    def test_collect_stats_is_cached(self, tree):
        assert collect_stats(tree) is collect_stats(tree)

    def test_insert_invalidates(self):
        tree = RStarTree(dim=2)
        for point in grid_points(30):
            tree.insert(point)
        before = collect_stats(tree)
        tree.insert(Point((999.0, 999.0)))
        after = collect_stats(tree)
        assert after is not before
        assert after.size == before.size + 1

    def test_delete_invalidates(self):
        tree = RStarTree(dim=2)
        for point in grid_points(30):
            tree.insert(point)
        before = collect_stats(tree)
        victim = next(iter(tree.items()))
        assert tree.delete(victim.oid, victim.rect)
        assert collect_stats(tree).size == before.size - 1

    def test_fingerprint_requires_mutation_counter(self, tree):
        assert stats_fingerprint(tree) is not None
        assert stats_fingerprint(object()) is None

    def test_cached_walk_charges_no_reads(self, tree):
        collect_stats(tree)
        before = tree.counters.snapshot().get("node_reads", 0)
        collect_stats(tree)
        assert tree.counters.snapshot().get("node_reads", 0) == before
