"""Unit tests for STR bulk loading."""

import pytest

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.rtree.validate import validate_tree

from tests.conftest import make_points


class TestBulkLoad:
    def test_empty(self):
        tree = bulk_load_str([], max_entries=8)
        assert len(tree) == 0

    def test_single_object(self):
        tree = bulk_load_str([Point((1, 1))], max_entries=8)
        assert len(tree) == 1
        validate_tree(tree, allow_underfull=True)

    def test_oids_follow_input_order(self):
        points = make_points(50, seed=1)
        tree = bulk_load_str(points, max_entries=8)
        by_oid = {e.oid: e.obj for e in tree.items()}
        for i, point in enumerate(points):
            assert by_oid[i] == point

    def test_structure_valid_various_sizes(self):
        for count in (1, 7, 8, 9, 63, 64, 65, 500):
            points = make_points(count, seed=count)
            tree = bulk_load_str(points, max_entries=8)
            validate_tree(tree, allow_underfull=True)
            assert len(tree) == count

    def test_fill_factor_controls_height(self):
        points = make_points(400, seed=2)
        packed = bulk_load_str(points, fill=1.0, max_entries=8)
        loose = bulk_load_str(points, fill=0.5, max_entries=8)
        validate_tree(packed, allow_underfull=True)
        validate_tree(loose, allow_underfull=True)
        assert packed.root().level <= loose.root().level

    def test_invalid_fill_rejected(self):
        with pytest.raises(ValueError):
            bulk_load_str([Point((0, 0))], fill=0.0)
        with pytest.raises(ValueError):
            bulk_load_str([Point((0, 0))], fill=1.5)

    def test_requires_empty_tree(self):
        tree = RStarTree(dim=2, max_entries=8)
        tree.insert_point((0, 0))
        with pytest.raises(ValueError):
            bulk_load_str([Point((1, 1))], tree=tree)

    def test_load_into_supplied_tree(self):
        tree = RStarTree(dim=2, max_entries=4)
        returned = bulk_load_str(make_points(30, seed=3), tree=tree)
        assert returned is tree
        assert len(tree) == 30

    def test_rect_objects(self):
        rects = [Rect((i, 0), (i + 1, 1)) for i in range(40)]
        tree = bulk_load_str(rects, max_entries=8)
        validate_tree(tree, allow_underfull=True)
        assert len(tree) == 40

    def test_inserts_still_work_after_bulk_load(self):
        tree = bulk_load_str(make_points(100, seed=4), max_entries=8)
        oid = tree.insert_point((50.0, 50.0))
        assert oid == 100
        validate_tree(tree, allow_underfull=True)
        assert len(tree) == 101

    def test_bulk_loaded_oids_are_taken(self):
        tree = bulk_load_str(make_points(100, seed=4), max_entries=8)
        for oid in (0, 99):
            with pytest.raises(TreeError, match=f"object id {oid}"):
                tree.insert(obj=Point((1.0, 1.0)), oid=oid)
        assert tree.insert(obj=Point((1.0, 1.0)), oid=100) == 100
        assert len(tree) == 101

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_coordinates_rejected(self, bad):
        """The refusal comes before the target tree is touched."""
        tree = RStarTree(dim=2, max_entries=8)
        before = (len(tree), tree.root_id, tree._next_oid)
        points = make_points(30, seed=6) + [Point((1.0, bad))]
        with pytest.raises(TreeError, match="non-finite"):
            bulk_load_str(points, tree=tree)
        assert (len(tree), tree.root_id, tree._next_oid) == before
        with pytest.raises(TreeError, match="non-finite"):
            bulk_load_str(points, max_entries=8)
        # The refused tree is still empty and loadable.
        bulk_load_str(points[:-1], tree=tree)
        validate_tree(tree, allow_underfull=True)
        assert len(tree) == 30

    def test_3d_bulk_load(self):
        import random
        rng = random.Random(5)
        points = [
            Point((rng.random(), rng.random(), rng.random()))
            for __ in range(200)
        ]
        tree = bulk_load_str(points, max_entries=8)
        validate_tree(tree, allow_underfull=True)
        assert tree.dim == 3
