"""Unit + property tests for the R*-tree and classic R-tree."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.rstar import RStarTree
from repro.rtree.validate import validate_tree
from repro.util.counters import CounterRegistry

from tests.conftest import make_points

TREE_CLASSES = [RStarTree, GuttmanRTree]


@pytest.mark.parametrize("tree_class", TREE_CLASSES)
class TestInsertion:
    def test_empty_tree(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.bounds() is None

    def test_single_insert(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        oid = tree.insert_point((1.0, 2.0))
        assert oid == 0
        assert len(tree) == 1
        assert tree.bounds() == Rect((1, 2), (1, 2))

    def test_oids_sequential(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        oids = [tree.insert_point((float(i), 0.0)) for i in range(10)]
        assert oids == list(range(10))

    def test_explicit_oid(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        assert tree.insert(obj=Point((0, 0)), oid=42) == 42
        assert tree.insert_point((1, 1)) == 43

    def test_grows_and_stays_valid(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        for point in make_points(200, seed=3):
            tree.insert(obj=point)
        assert len(tree) == 200
        assert tree.height >= 3
        validate_tree(tree)

    def test_duplicate_points_allowed(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        for __ in range(30):
            tree.insert_point((5.0, 5.0))
        validate_tree(tree)
        assert len(tree) == 30

    def test_collinear_points(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        for i in range(50):
            tree.insert_point((float(i), 0.0))
        validate_tree(tree)

    def test_rect_objects(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        for i in range(20):
            tree.insert(rect=Rect((i, 0), (i + 2, 2)), obj=None)
        validate_tree(tree)

    def test_dimension_mismatch_rejected(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        with pytest.raises(TreeError):
            tree.insert(obj=Point((1, 2, 3)))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_coordinates_rejected(self, tree_class, bad):
        """A refused insert leaves no trace: size, root and the next
        oid are what they were (the check runs before any mutation)."""
        tree = tree_class(dim=2, max_entries=4)
        for point in make_points(10, seed=3):
            tree.insert(obj=point)
        before = (len(tree), tree.root_id, tree._next_oid)
        for attempt in (
            lambda: tree.insert(obj=Point((bad, 5.0))),
            lambda: tree.insert(rect=Rect((0.0, 0.0), (1.0, abs(bad)))),
            lambda: tree.insert_point((5.0, bad)),
        ):
            with pytest.raises(TreeError, match="non-finite"):
                attempt()
            assert (len(tree), tree.root_id, tree._next_oid) == before
        assert tree.insert_point((5.0, 5.0)) == 10
        validate_tree(tree)

    def test_duplicate_oid_rejected(self, tree_class):
        """An oid the tree holds is refused before any mutation; once
        deleted it is free again."""
        tree = tree_class(dim=2, max_entries=4)
        points = make_points(12, seed=4)
        for point in points:
            tree.insert(obj=point)
        before = (len(tree), tree.root_id, tree._mutations)
        for oid in (0, 7, 11):
            with pytest.raises(TreeError, match=f"object id {oid}"):
                tree.insert(obj=Point((50.0, 50.0)), oid=oid)
            assert (len(tree), tree.root_id, tree._mutations) == before
        assert tree.delete(7, Rect.from_point(points[7]))
        assert tree.insert(obj=Point((50.0, 50.0)), oid=7) == 7
        assert sorted(e.oid for e in tree.items()) == list(range(12))
        validate_tree(tree)

    def test_3d_tree(self, tree_class):
        tree = tree_class(dim=3, max_entries=4)
        rng = random.Random(1)
        for __ in range(60):
            tree.insert(obj=Point(
                (rng.random(), rng.random(), rng.random())
            ))
        validate_tree(tree)

    def test_items_iterates_everything(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        points = make_points(40, seed=8)
        for point in points:
            tree.insert(obj=point)
        seen = sorted(entry.oid for entry in tree.items())
        assert seen == list(range(40))


@pytest.mark.parametrize("tree_class", TREE_CLASSES)
class TestDeletion:
    def test_delete_existing(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        points = make_points(50, seed=4)
        for point in points:
            tree.insert(obj=point)
        assert tree.delete(10, Rect.from_point(points[10]))
        assert len(tree) == 49
        validate_tree(tree)
        remaining = {entry.oid for entry in tree.items()}
        assert 10 not in remaining

    def test_delete_missing_returns_false(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        tree.insert_point((0, 0))
        assert not tree.delete(99, Rect((0, 0), (0, 0)))
        assert len(tree) == 1

    def test_delete_everything(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        points = make_points(60, seed=6)
        for point in points:
            tree.insert(obj=point)
        for oid, point in enumerate(points):
            assert tree.delete(oid, Rect.from_point(point))
            validate_tree(tree)
        assert len(tree) == 0
        assert tree.height == 1

    def test_delete_shrinks_height(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        points = make_points(100, seed=7)
        for point in points:
            tree.insert(obj=point)
        tall = tree.height
        for oid, point in enumerate(points[:95]):
            tree.delete(oid, Rect.from_point(point))
        validate_tree(tree)
        assert tree.height < tall

    def test_reinsert_after_delete(self, tree_class):
        tree = tree_class(dim=2, max_entries=4)
        points = make_points(30, seed=9)
        for point in points:
            tree.insert(obj=point)
        tree.delete(0, Rect.from_point(points[0]))
        new_oid = tree.insert(obj=points[0])
        assert new_oid == 30
        validate_tree(tree)


class TestRStarSpecifics:
    def test_forced_reinserts_happen(self):
        counters = CounterRegistry()
        tree = RStarTree(dim=2, max_entries=8, counters=counters)
        for point in make_points(300, seed=12):
            tree.insert(obj=point)
        assert counters.value("forced_reinserts") > 0

    def test_min_subtree_count(self):
        tree = RStarTree(dim=2, max_entries=10, min_entries=4)
        assert tree.min_subtree_count(0) == 4
        assert tree.min_subtree_count(2) == 64

    def test_avg_subtree_count_grows_with_level(self):
        tree = RStarTree(dim=2, max_entries=8)
        for point in make_points(120, seed=13):
            tree.insert(obj=point)
        assert tree.avg_subtree_count(1) > tree.avg_subtree_count(0)

    def test_node_io_counted(self):
        counters = CounterRegistry()
        tree = RStarTree(
            dim=2, max_entries=4, counters=counters, buffer_pages=2
        )
        for point in make_points(100, seed=14):
            tree.insert(obj=point)
        counters.reset()
        list(tree.items())
        assert counters.value("node_reads") > 0
        # With only 2 buffer pages most reads must miss.
        assert counters.value("node_io") > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RStarTree(dim=2, max_entries=1)
        with pytest.raises(ValueError):
            RStarTree(dim=2, max_entries=8, min_entries=5)
        with pytest.raises(ValueError):
            RStarTree(dim=0)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.floats(0, 1000), st.floats(0, 1000)),
        min_size=1,
        max_size=120,
    ),
    st.sampled_from([4, 8]),
)
def test_property_insert_keeps_invariants(raw_points, max_entries):
    """Property: any insertion sequence yields a valid R*-tree that
    contains exactly the inserted objects."""
    tree = RStarTree(dim=2, max_entries=max_entries)
    for xy in raw_points:
        tree.insert(obj=Point(xy))
    validate_tree(tree)
    assert len(tree) == len(raw_points)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_property_mixed_insert_delete(data):
    """Property: random interleavings of inserts and deletes keep the
    tree valid and consistent with a model dict."""
    tree = RStarTree(dim=2, max_entries=4)
    model = {}
    ops = data.draw(st.integers(10, 80))
    rng_seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(rng_seed)
    for __ in range(ops):
        if model and rng.random() < 0.4:
            oid = rng.choice(list(model))
            point = model.pop(oid)
            assert tree.delete(oid, Rect.from_point(point))
        else:
            point = Point((rng.uniform(0, 100), rng.uniform(0, 100)))
            oid = tree.insert(obj=point)
            model[oid] = point
    validate_tree(tree)
    assert {e.oid for e in tree.items()} == set(model)


# ----------------------------------------------------------------------
# ChooseSubtree: the lazy rule against the exhaustive one it replaced
# ----------------------------------------------------------------------

def quadratic_choose_subtree(entries, rect):
    """The exhaustive level-1 rule (the R* paper's, and this tree's
    until it went lazy): overlap enlargement of every entry against
    every other; keep the first minimum of (overlap enlargement, area
    enlargement, area).  The oracle."""
    best = None
    best_key = (float("inf"),) * 3
    for entry in entries:
        enlarged = entry.rect.union(rect)
        overlap_before = 0.0
        overlap_after = 0.0
        for other in entries:
            if other is entry:
                continue
            overlap_before += entry.rect.overlap_area(other.rect)
            overlap_after += enlarged.overlap_area(other.rect)
        key = (
            overlap_after - overlap_before,
            enlarged.area() - entry.rect.area(),
            entry.rect.area(),
        )
        if key < best_key:
            best_key = key
            best = entry
    return best


def area_choose_subtree(entries, rect):
    """The rule above level 1, as the loop it was: keep the first
    minimum of (area enlargement, area)."""
    best = None
    best_key = (float("inf"),) * 2
    for entry in entries:
        key = (entry.rect.enlargement(rect), entry.rect.area())
        if key < best_key:
            best_key = key
            best = entry
    return best


class CheckedRStarTree(RStarTree):
    """Every choice is checked against its oracle, as the same entry
    *object*: an equal key on another entry is a miss."""

    checked = 0
    covered = 0
    higher = 0

    def _choose_subtree(self, node, rect):
        chosen = super()._choose_subtree(node, rect)
        if node.level == 1:
            assert chosen is quadratic_choose_subtree(node.entries, rect)
            self.checked += 1
            self.covered += chosen.rect.contains_rect(rect)
        else:
            assert chosen is area_choose_subtree(node.entries, rect)
            self.higher += 1
        return chosen


def lattice_object(rng, dim, rectangles):
    """A point on a 6-wide lattice -- or a small lattice rectangle --
    so duplicates, ties on every key term, entries that cover the
    insert and zero-area MBRs (collinear points) are all frequent."""
    lo = [float(rng.randrange(6)) for __ in range(dim)]
    if not rectangles or rng.random() < 0.5:
        return Point(lo)
    return Rect(lo, [c + rng.randrange(3) for c in lo])


def uniform_object(rng, dim, rectangles):
    lo = [rng.uniform(0.0, 100.0) for __ in range(dim)]
    if not rectangles:
        return Point(lo)
    return Rect(lo, [c + rng.uniform(0.0, 10.0) for c in lo])


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    ops=st.integers(20, 250),
    max_entries=st.sampled_from([4, 5, 8, 16, 50]),
    dim=st.sampled_from([2, 3]),
    rectangles=st.booleans(),
    make=st.sampled_from([lattice_object, uniform_object]),
)
def test_property_lazy_choose_subtree_is_the_quadratic_rule(
    seed, ops, max_entries, dim, rectangles, make
):
    """Property: through any insert/delete sequence (deletes reinsert
    orphans through ChooseSubtree too) the lazy rule picks the entry
    the exhaustive rule picks, so the trees are the same tree."""
    rng = random.Random(seed)
    tree = CheckedRStarTree(dim=dim, max_entries=max_entries)
    model = {}
    for __ in range(ops):
        if model and rng.random() < 0.3:
            oid = rng.choice(sorted(model))
            assert tree.delete(oid, RStarTree._rect_of(model.pop(oid)))
        else:
            obj = make(rng, dim, rectangles)
            model[tree.insert(obj=obj)] = obj
    validate_tree(tree)
    assert {e.oid for e in tree.items()} == set(model)


def test_lazy_choose_subtree_meets_every_case():
    """One fixed run that provably exercises the rule: level-1
    choices happen, some land in an entry that already covers the
    rectangle (no sibling looked at) and some do not, and choices
    above level 1 happen too."""
    rng = random.Random(5)
    tree = CheckedRStarTree(dim=2, max_entries=5)
    for __ in range(400):
        tree.insert(obj=lattice_object(rng, 2, True))
    assert 0 < tree.covered < tree.checked
    assert tree.higher > 0


# ----------------------------------------------------------------------
# ChooseSubtree from coordinate tuples against the Rect-built rule
# ----------------------------------------------------------------------

def rect_choose_subtree(node, rect):
    """The lazy rule as it was written on :class:`Rect` objects: one
    union per entry, one ``overlap_area`` call per sibling test.  The
    oracle for the tuple arithmetic that replaced it."""
    inf = float("inf")
    entries = node.entries
    ranked = []
    for index, entry in enumerate(entries):
        enlarged = entry.rect.union(rect)
        area = entry.rect.area()
        ranked.append((enlarged.area() - area, area, index, enlarged))
    if node.level != 1:
        return entries[min(ranked)[2]]
    ranked.sort()
    best_key = (inf, inf, inf, len(entries))
    for growth, area, index, enlarged in ranked:
        if best_key <= (0.0, growth, area, index):
            break
        entry = entries[index]
        own = entry.rect
        overlap = 0.0
        if enlarged != own:
            before = after = 0.0
            for other in entries:
                if other is entry:
                    continue
                term = enlarged.overlap_area(other.rect)
                if term > 0.0:
                    after += term
                    before += own.overlap_area(other.rect)
            overlap = after - before
        best_key = min(best_key, (overlap, growth, area, index))
    return entries[best_key[3]]


class RectCheckedRStarTree(RStarTree):
    """Every descent step is checked against the Rect-built rule, as
    the same entry object."""

    calls = 0
    level1 = 0

    def _choose_subtree(self, node, rect):
        chosen = super()._choose_subtree(node, rect)
        assert chosen is rect_choose_subtree(node, rect)
        self.calls += 1
        self.level1 += node.level == 1
        return chosen


def signed_lattice_object(rng, dim, rectangles):
    """Coordinates from a small signed lattice that holds both zeros:
    repeated coordinates, negative ones and ``-0.0`` against ``0.0``
    on every key term."""
    values = (-3.0, -1.5, -0.0, 0.0, 1.5, 3.0)
    lo = [rng.choice(values) for __ in range(dim)]
    if not rectangles or rng.random() < 0.5:
        return Point(lo)
    return Rect(lo, [c + rng.choice((0.0, 1.5, 3.0)) for c in lo])


def signed_uniform_object(rng, dim, rectangles):
    lo = [rng.uniform(-50.0, 50.0) for __ in range(dim)]
    if not rectangles:
        return Point(lo)
    return Rect(lo, [c + rng.uniform(0.0, 8.0) for c in lo])


class TestTupleChooseSubtree:
    @pytest.mark.parametrize("max_entries", [4, 8, 50])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rectangles", [False, True])
    @pytest.mark.parametrize(
        "make", [signed_lattice_object, signed_uniform_object]
    )
    def test_same_entry_as_the_rect_rule(
        self, max_entries, dim, rectangles, make
    ):
        rng = random.Random(max_entries * 100 + dim * 10 + rectangles)
        tree = RectCheckedRStarTree(dim=dim, max_entries=max_entries)
        model = {}
        for __ in range(600):
            if model and rng.random() < 0.25:
                oid = rng.choice(sorted(model))
                assert tree.delete(
                    oid, RStarTree._rect_of(model.pop(oid))
                )
            else:
                obj = make(rng, dim, rectangles)
                model[tree.insert(obj=obj)] = obj
        validate_tree(tree)
        assert tree.level1 > 0
        if max_entries < 50:
            assert tree.calls > tree.level1  # choices above level 1

    def test_signed_zeros_tie_by_position(self):
        """``-0.0`` and ``0.0`` corners give equal keys: the first
        entry wins, exactly as with Rect arithmetic."""
        tree = RectCheckedRStarTree(dim=2, max_entries=4)
        for x in (-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.0, -0.0):
            tree.insert(obj=Point((x, -0.0)))
            tree.insert(obj=Point((0.0, x)))
        validate_tree(tree)
        assert tree.level1 > 0
