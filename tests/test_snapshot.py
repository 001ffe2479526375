"""Tests for tree snapshots (save/load)."""

import json

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.errors import StorageError, TreeError
from repro.geometry.rectangle import Rect
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.validate import validate_tree
from repro.storage.snapshot import load_tree, save_tree
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_pairs, make_points, make_tree


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        points = make_points(150, seed=181)
        tree = make_tree(points)
        path = str(tmp_path / "tree.json")
        save_tree(tree, path)
        loaded = load_tree(path)

        assert type(loaded) is type(tree)
        assert len(loaded) == len(tree)
        assert loaded.height == tree.height
        assert loaded.max_entries == tree.max_entries
        validate_tree(loaded)
        original = {(e.oid, e.obj) for e in tree.items()}
        restored = {(e.oid, e.obj) for e in loaded.items()}
        assert original == restored

    def test_loaded_tree_answers_queries(self, tmp_path):
        points_a = make_points(60, seed=182)
        points_b = make_points(60, seed=183)
        path = str(tmp_path / "a.json")
        save_tree(make_tree(points_a), path)
        loaded = load_tree(path)
        join = IncrementalDistanceJoin(
            loaded, make_tree(points_b), counters=CounterRegistry()
        )
        got = [next(join).distance for __ in range(50)]
        truth = [t[0] for t in brute_force_pairs(points_a, points_b)[:50]]
        assert got == pytest.approx(truth)

    def test_loaded_tree_accepts_inserts(self, tmp_path):
        points = make_points(50, seed=184)
        path = str(tmp_path / "tree.json")
        save_tree(make_tree(points), path)
        loaded = load_tree(path)
        oid = loaded.insert_point((1.0, 1.0))
        assert oid == 50
        validate_tree(loaded)
        with pytest.raises(TreeError, match="object id 17"):
            loaded.insert(obj=points[0], oid=17)

    def test_guttman_round_trip(self, tmp_path):
        tree = GuttmanRTree(dim=2, max_entries=8)
        for point in make_points(80, seed=185):
            tree.insert(obj=point)
        path = str(tmp_path / "g.json")
        save_tree(tree, path)
        loaded = load_tree(path)
        assert isinstance(loaded, GuttmanRTree)
        validate_tree(loaded)

    def test_rect_only_objects_round_trip(self, tmp_path):
        from repro.rtree.rstar import RStarTree
        tree = RStarTree(dim=2, max_entries=4)
        for i in range(20):
            tree.insert(rect=Rect((i, 0), (i + 1, 1)))
        path = str(tmp_path / "rects.json")
        save_tree(tree, path)
        loaded = load_tree(path)
        assert len(loaded) == 20
        rects = sorted(e.rect.lo[0] for e in loaded.items())
        assert rects == [float(i) for i in range(20)]

    def test_empty_tree_round_trip(self, tmp_path):
        from repro.rtree.rstar import RStarTree
        path = str(tmp_path / "empty.json")
        save_tree(RStarTree(dim=2, max_entries=4), path)
        loaded = load_tree(path)
        assert len(loaded) == 0
        loaded.insert_point((0.0, 0.0))
        assert len(loaded) == 1

    def test_runtime_overrides(self, tmp_path):
        points = make_points(30, seed=186)
        path = str(tmp_path / "tree.json")
        save_tree(make_tree(points), path)
        loaded = load_tree(path, buffer_pages=4)
        assert loaded.pool.capacity == 4


from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry.point import Point
from tests.conftest import make_tree


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=60,
    )
)
def test_property_round_trip(tmp_path, raw):
    """Property: save/load preserves structure and content for
    arbitrary point sets."""
    points = [Point(xy) for xy in raw]
    tree = make_tree(points, max_entries=4)
    path = str(tmp_path / "t.json")
    save_tree(tree, path)
    loaded = load_tree(path)
    validate_tree(loaded)
    assert {(e.oid, e.obj) for e in loaded.items()} == {
        (e.oid, e.obj) for e in tree.items()
    }


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(StorageError):
            load_tree(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps(
            {"format": "repro-rtree", "version": 99}
        ))
        with pytest.raises(StorageError):
            load_tree(str(path))

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({
            "format": "repro-rtree", "version": 1,
            "tree_class": "MysteryTree",
        }))
        with pytest.raises(StorageError):
            load_tree(str(path))

    def test_dangling_child_rejected(self, tmp_path):
        points = make_points(80, seed=187)
        path = str(tmp_path / "tree.json")
        save_tree(make_tree(points), path)
        snapshot = json.loads(open(path).read())
        # Drop one non-root node to corrupt the reference graph.
        victim = next(
            n for n in snapshot["nodes"] if n["id"] != snapshot["root"]
        )
        snapshot["nodes"].remove(victim)
        open(path, "w").write(json.dumps(snapshot))
        with pytest.raises(StorageError):
            load_tree(str(path))
