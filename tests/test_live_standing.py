"""Tests for the standing distance join (``repro.live``).

Covers the delta vocabulary, the result store, the supported spec
subset, insert/delete repair against brute-force ground truth, the
observe fan-out protocol, the suspendable cursor, the asymptotic
repair-vs-recompute counter gate, and the ``WATCH ... NOTIFY`` SQL
surface.

Oracle discipline: when the K-th place is *tied*, a pull join's top-K
tie subset is arbitrary while the standing join's is the canonical
smallest under ``(distance, oid1, oid2)`` -- so every oracle here
either uses distinct distances or compares canonically.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.core import cursor
from repro.core.distance_join import IncrementalDistanceJoin, JoinResult
from repro.core.pairs import OBJ, Item, PairDistance
from repro.core.spec import JoinSpec
from repro.errors import (
    CursorError,
    LiveError,
    QueryError,
    QuerySyntaxError,
)
from repro.geometry.metrics import CHESSBOARD, EUCLIDEAN, MANHATTAN
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.kernels import resolve_kernels
from repro.live import (
    ADD,
    REMOVE,
    Delta,
    ResultStore,
    StandingJoin,
    pair_key,
    probe_partner,
    validate_live_spec,
)
from repro.query.executor import Database
from repro.query.logical import build_logical_plan
from repro.query.parser import parse
from repro.query.physical import build_physical_plan
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry
from tests.conftest import make_points, make_tree

WATCH_SQL = (
    "WATCH SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER {k} NOTIFY"
)


def canonical_topk(objs1, objs2, k=None, dmin=0.0, dmax=math.inf):
    """Ground truth: the k canonically-smallest qualifying pair keys.

    ``objs1`` / ``objs2`` map oid -> Point; the returned keys are the
    standing join's published order regardless of distance ties.
    """
    keys = sorted(
        (EUCLIDEAN.distance(a, b), oid1, oid2)
        for oid1, a in objs1.items()
        for oid2, b in objs2.items()
        if dmin <= EUCLIDEAN.distance(a, b) <= dmax
    )
    return keys if k is None else keys[:k]


def result_keys(standing):
    return [pair_key(r) for r in standing.result()]


def make_standing(k=10, na=60, nb=80, seed_a=11, seed_b=22, **kwargs):
    points_a = make_points(na, seed=seed_a)
    points_b = make_points(nb, seed=seed_b)
    tree_a = make_tree(points_a)
    tree_b = make_tree(points_b)
    objs1 = dict(enumerate(points_a))
    objs2 = dict(enumerate(points_b))
    counters = kwargs.pop("counters", CounterRegistry())
    standing = StandingJoin(
        tree_a, tree_b, JoinSpec(max_pairs=k),
        counters=counters, **kwargs,
    )
    return standing, objs1, objs2, counters


class TestDeltaVocabulary:
    def test_pair_key_total_order(self):
        a = JoinResult(1.5, 3, None, 7, None)
        b = JoinResult(1.5, 3, None, 8, None)
        c = JoinResult(0.5, 9, None, 9, None)
        assert pair_key(a) == (1.5, 3, 7)
        assert sorted([a, b, c], key=pair_key) == [c, a, b]

    def test_delta_result_and_key(self):
        p, q = Point((0.0, 0.0)), Point((3.0, 4.0))
        delta = Delta(ADD, 4, 5.0, 1, p, 2, q)
        assert delta.result == JoinResult(5.0, 1, p, 2, q)
        assert delta.key == (5.0, 1, 2)
        assert delta.op == ADD and delta.seq == 4
        assert REMOVE == "-"


class TestResultStore:
    def pair(self, d, oid1=0, oid2=0):
        return JoinResult(d, oid1, None, oid2, None)

    def test_add_keeps_canonical_order_and_dedupes(self):
        store = ResultStore()
        assert store.add(self.pair(2.0, 1, 1))
        assert store.add(self.pair(1.0, 5, 5))
        assert store.add(self.pair(2.0, 1, 0))
        assert not store.add(self.pair(2.0, 1, 1))  # idempotent
        assert [pair_key(e) for e in store] == [
            (1.0, 5, 5), (2.0, 1, 0), (2.0, 1, 1),
        ]
        assert len(store) == 3

    def test_trim_and_tail(self):
        store = ResultStore(capacity=2)
        for d in (3.0, 1.0, 2.0):
            store.add(self.pair(d))
        assert store.trim() == 1
        assert store.tail_key() == (2.0, 0, 0)
        assert ResultStore().trim() == 0  # no capacity, no-op

    def test_remove_oid_by_side(self):
        store = ResultStore()
        store.add(self.pair(1.0, 1, 9))
        store.add(self.pair(2.0, 1, 8))
        store.add(self.pair(3.0, 2, 9))
        assert store.remove_oid(1, 1) == [
            (0, self.pair(1.0, 1, 9)), (1, self.pair(2.0, 1, 8)),
        ]
        assert store.remove_oid(2, 9) == [(0, self.pair(3.0, 2, 9))]
        assert store.remove_oid(2, 9) == []
        assert len(store) == 0

    def test_top_and_replace(self):
        store = ResultStore(capacity=3)
        store.replace([self.pair(d, i, i) for i, d in
                       enumerate((5.0, 1.0, 3.0, 4.0))])
        assert len(store) == 3  # replace trims
        assert [e.distance for e in store.top(2)] == [1.0, 3.0]
        assert [e.distance for e in store.top(None)] == [1.0, 3.0, 4.0]
        assert store.top_keys(1) == [(1.0, 1, 1)]

    def test_state_round_trip(self):
        store = ResultStore(capacity=4)
        entries = [self.pair(1.0, 1, 2), self.pair(2.0, 3, 4)]
        for e in entries:
            store.add(e)
        store.complete = False
        state = pickle.loads(pickle.dumps(store.state()))
        clone = ResultStore.from_state(state, entries)
        assert clone.capacity == 4 and clone.complete is False
        assert list(clone.top_keys(None)) == list(store.top_keys(None))


class TestSpecValidation:
    def test_accepts_topk_and_range(self):
        validate_live_spec(JoinSpec(max_pairs=5))
        validate_live_spec(JoinSpec(max_distance=3.0))

    @pytest.mark.parametrize("knobs,fragment", [
        (dict(max_pairs=5, descending=True), "descending"),
        (dict(max_pairs=5, pair_filter=lambda d, a, b: True),
         "pair_filter"),
        (dict(max_pairs=5, leaf_mode="obr"), "leaf_mode"),
        (dict(max_pairs=5, queue="adaptive"), "queue"),
        (dict(), "finite result"),
    ])
    def test_rejects_unmaintainable_specs(self, knobs, fragment):
        with pytest.raises(LiveError, match=fragment):
            validate_live_spec(JoinSpec(**knobs))

    def test_rejects_self_join(self):
        tree = make_tree(make_points(10, seed=1))
        with pytest.raises(LiveError, match="self join"):
            StandingJoin(tree, tree, JoinSpec(max_pairs=2))

    def test_rejects_unversioned_trees(self):
        class Bare:
            pass

        with pytest.raises(LiveError, match="_mutations"):
            StandingJoin(Bare(), Bare(), JoinSpec(max_pairs=2))

    def test_rejects_bad_frontier(self):
        tree_a = make_tree(make_points(10, seed=1))
        tree_b = make_tree(make_points(10, seed=2))
        with pytest.raises(LiveError, match="frontier"):
            StandingJoin(
                tree_a, tree_b, JoinSpec(max_pairs=2), frontier=0
            )

    def test_rejects_bad_side(self):
        standing, __, __, __ = make_standing(k=3, na=10, nb=10)
        with pytest.raises(LiveError, match="side"):
            standing.insert(500, Point((1.0, 1.0)), side=3)


class TestBootstrap:
    def test_initial_result_matches_brute_force(self, small_trees):
        tree_a, tree_b, truth = small_trees
        counters = CounterRegistry()
        standing = StandingJoin(
            tree_a, tree_b, JoinSpec(max_pairs=12), counters=counters
        )
        assert result_keys(standing) == truth[:12]
        deltas = standing.poll()
        assert [d.op for d in deltas] == [ADD] * 12
        assert [d.key for d in deltas] == truth[:12]
        assert [d.seq for d in deltas] == list(range(1, 13))
        assert standing.pending() == 0
        assert standing.updates == 0
        assert counters.value("live_repairs") == 0

    def test_poll_limit_pages_the_outbox(self, small_trees):
        tree_a, tree_b, __ = small_trees
        standing = StandingJoin(tree_a, tree_b, JoinSpec(max_pairs=9))
        assert len(standing.poll(4)) == 4
        assert standing.pending() == 5
        assert len(standing.poll()) == 5

    def test_range_mode_bootstrap(self, small_trees):
        tree_a, tree_b, truth = small_trees
        standing = StandingJoin(tree_a, tree_b, JoinSpec(max_distance=3.0))
        expected = [key for key in truth if key[0] <= 3.0]
        assert result_keys(standing) == expected
        assert standing.complete


class TestRepair:
    def apply(self, held, deltas):
        """Replay a delta stream into a subscriber's result copy."""
        for delta in deltas:
            if delta.op == ADD:
                assert delta.key not in held
                held[delta.key] = delta.result
            else:
                del held[delta.key]
        return held

    def test_insert_delete_matches_brute_force(self):
        k = 8
        standing, objs1, objs2, counters = make_standing(k=k)
        held = self.apply({}, standing.poll())
        rng_points = make_points(30, seed=77)
        for step, point in enumerate(rng_points):
            side = 1 if step % 2 == 0 else 2
            oid = 1000 + step
            deltas = standing.insert(oid, point, side=side)
            (objs1 if side == 1 else objs2)[oid] = point
            self.apply(held, deltas)
            if step % 3 == 2:
                victim = 1000 + step - 2
                vside = 1 if (step - 2) % 2 == 0 else 2
                deltas = standing.delete(victim, side=vside)
                del (objs1 if vside == 1 else objs2)[victim]
                self.apply(held, deltas)
            expected = canonical_topk(objs1, objs2, k=k)
            assert sorted(held) == expected
            assert result_keys(standing) == expected
        assert counters.value("live_repairs") == standing.updates
        assert counters.value("live_probe_pairs") > 0

    def test_delete_heavy_sequence_refills(self):
        k = 6
        standing, objs1, objs2, counters = make_standing(
            k=k, na=50, nb=50, frontier=1
        )
        standing.poll()
        # Deleting the current best pairs over and over starves the
        # 1-pair frontier, forcing bounded rescans.
        for __ in range(12):
            best = standing.result()[0]
            standing.delete(best.oid1, side=1)
            del objs1[best.oid1]
            assert result_keys(standing) == canonical_topk(
                objs1, objs2, k=k
            )
        assert counters.value("live_refills") > 0

    def test_range_mode_never_refills(self):
        points_a = make_points(40, seed=3)
        points_b = make_points(40, seed=4)
        tree_a, tree_b = make_tree(points_a), make_tree(points_b)
        objs1 = dict(enumerate(points_a))
        objs2 = dict(enumerate(points_b))
        counters = CounterRegistry()
        standing = StandingJoin(
            tree_a, tree_b, JoinSpec(max_distance=8.0),
            counters=counters,
        )
        for step in range(10):
            standing.delete(step, side=2)
            del objs2[step]
            standing.insert(2000 + step, points_b[step], side=1)
            objs1[2000 + step] = points_b[step]
            assert result_keys(standing) == canonical_topk(
                objs1, objs2, dmax=8.0
            )
            assert standing.complete
        assert counters.value("live_refills") == 0

    def test_min_distance_band_is_maintained(self):
        points_a = make_points(40, seed=5)
        points_b = make_points(40, seed=6)
        tree_a, tree_b = make_tree(points_a), make_tree(points_b)
        objs1 = dict(enumerate(points_a))
        objs2 = dict(enumerate(points_b))
        standing = StandingJoin(
            tree_a, tree_b,
            JoinSpec(min_distance=2.0, max_distance=6.0),
        )
        assert result_keys(standing) == canonical_topk(
            objs1, objs2, dmin=2.0, dmax=6.0
        )
        # A 0-distance insert must stay excluded by the band.
        standing.insert(3000, points_b[0], side=1)
        objs1[3000] = points_b[0]
        assert result_keys(standing) == canonical_topk(
            objs1, objs2, dmin=2.0, dmax=6.0
        )

    def test_duplicate_and_unknown_oids_rejected(self):
        standing, __, __, __ = make_standing(k=4, na=20, nb=20)
        with pytest.raises(LiveError, match="already present"):
            standing.insert(0, Point((1.0, 2.0)), side=1)
        with pytest.raises(LiveError, match="unknown oid"):
            standing.delete(12345, side=2)

    def test_out_of_band_mutation_detected(self):
        standing, __, __, __ = make_standing(k=4, na=20, nb=20)
        standing.tree1.insert(obj=Point((9.0, 9.0)), oid=7777)
        with pytest.raises(LiveError, match="outside the standing"):
            standing.insert(8888, Point((1.0, 1.0)), side=1)


class TestObserveFanOut:
    def test_observer_tracks_the_mutator(self):
        points_a = make_points(40, seed=31)
        points_b = make_points(40, seed=32)
        tree_a, tree_b = make_tree(points_a), make_tree(points_b)
        primary = StandingJoin(tree_a, tree_b, JoinSpec(max_pairs=7))
        watcher = StandingJoin(
            tree_a, tree_b, JoinSpec(max_pairs=7),
            counters=CounterRegistry(),
        )
        for step in range(8):
            point = Point((float(step * 11 % 97), float(step * 7 % 89)))
            oid = 4000 + step
            d1 = primary.insert(oid, point, side=2)
            d2 = watcher.observe_insert(oid, point, side=2)
            assert [(d.op, d.key) for d in d1] == \
                [(d.op, d.key) for d in d2]
        primary.delete(4000, side=2)
        watcher.observe_delete(4000, side=2)
        assert result_keys(primary) == result_keys(watcher)

    def test_observe_checks_its_own_sync(self):
        standing, __, __, __ = make_standing(k=4, na=20, nb=20)
        # Two unobserved tree mutations, then a late observe of one:
        # the counters can never line up.
        standing.tree2.insert(obj=Point((1.0, 1.0)), oid=9001)
        standing.tree2.insert(obj=Point((2.0, 2.0)), oid=9002)
        standing.tree1.insert(obj=Point((3.0, 3.0)), oid=9003)
        with pytest.raises(LiveError, match="outside the standing"):
            standing.observe_insert(9003, Point((3.0, 3.0)), side=1)

    def test_observe_rejects_extra_mutations_on_same_side(self):
        """The observed side must advance by *exactly one*: an extra
        out-of-band mutation on that very side (not just the partner)
        is detected instead of being silently resynced over."""
        standing, __, __, __ = make_standing(k=4, na=20, nb=20)
        standing.tree1.insert(obj=Point((1.0, 1.0)), oid=9001)
        standing.tree1.insert(obj=Point((2.0, 2.0)), oid=9002)
        with pytest.raises(LiveError, match="outside the standing"):
            standing.observe_insert(9002, Point((2.0, 2.0)), side=1)
        # The failed observation did not advance the expectation: the
        # desync stays detectable by later updates too.
        with pytest.raises(LiveError, match="outside the standing"):
            standing.insert(9003, Point((3.0, 3.0)), side=2)

    def test_observe_delete_rejects_extra_mutations(self):
        standing, __, __, __ = make_standing(k=4, na=20, nb=20)
        tree = standing.tree2
        tree.insert(obj=Point((0.5, 0.5)), oid=9001)  # out of band
        obj, stored = standing._objects[2][0]
        assert tree.delete(0, stored)
        with pytest.raises(LiveError, match="outside the standing"):
            standing.observe_delete(0, side=2)


class TestCursor:
    def round_trip(self, standing, counters=None):
        blob = pickle.dumps(standing.save(), pickle.HIGHEST_PROTOCOL)
        return StandingJoin.load(
            pickle.loads(blob), standing.tree1, standing.tree2,
            counters=counters,
        )

    def test_save_load_round_trip(self):
        standing, objs1, objs2, counters = make_standing(k=6)
        standing.insert(5000, Point((10.0, 10.0)), side=1)
        standing.poll(3)  # leave part of the outbox pending
        resumed = self.round_trip(standing, counters=counters)
        assert result_keys(resumed) == result_keys(standing)
        assert resumed.seq == standing.seq
        assert resumed.updates == standing.updates
        assert resumed.complete == standing.complete
        assert [d.key for d in resumed.poll()] == \
            [d.key for d in standing.poll()]

    def test_resumed_join_keeps_repairing(self):
        standing, objs1, objs2, __ = make_standing(k=6)
        resumed = self.round_trip(standing, counters=CounterRegistry())
        for step in range(5):
            point = Point((float(3 + step), float(90 - step)))
            oid = 6000 + step
            a = standing.insert(oid, point, side=2)
            b = resumed.observe_insert(oid, point, side=2)
            assert [(d.op, d.key) for d in a] == \
                [(d.op, d.key) for d in b]

    def test_counter_priming_without_registry(self):
        standing, __, __, counters = make_standing(k=6)
        standing.insert(5000, Point((10.0, 10.0)), side=1)
        resumed = self.round_trip(standing, counters=None)
        assert resumed.counters is not counters
        for name in ("dist_calcs", "bound_calcs", "live_repairs"):
            assert resumed.counters.value(name) == counters.value(name)

    def test_stale_fingerprint_rejected(self):
        standing, __, __, __ = make_standing(k=6)
        state = standing.save()
        standing.insert(5000, Point((10.0, 10.0)), side=1)
        with pytest.raises(CursorError, match="does not match"):
            StandingJoin.load(state, standing.tree1, standing.tree2)

    def test_wrong_envelope_rejected(self):
        standing, __, __, __ = make_standing(k=4, na=20, nb=20)
        state = standing.save()
        assert (state["format"], state["kind"]) == (cursor.FORMAT, "live")
        with pytest.raises(CursorError, match="not a live"):
            StandingJoin.load(
                {"format": "bogus"}, standing.tree1, standing.tree2
            )
        bad = dict(state, version=99)
        with pytest.raises(CursorError, match="version"):
            StandingJoin.load(bad, standing.tree1, standing.tree2)


class TestAsymptoticRepairCost:
    def test_repair_is_much_cheaper_than_recompute(self):
        """The tentpole's acceptance gate: one insert repair does
        asymptotically less distance work than re-running the join."""
        k = 10
        points_a = make_points(400, seed=51)
        points_b = make_points(400, seed=52)
        tree_a, tree_b = make_tree(points_a), make_tree(points_b)
        counters = CounterRegistry()
        standing = StandingJoin(
            tree_a, tree_b, JoinSpec(max_pairs=k), counters=counters
        )
        before = counters.full_snapshot()
        standing.insert(9000, Point((13.0, 31.0)), side=1)
        repair = counters.full_snapshot().delta_from(before)

        recompute = CounterRegistry()
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=k), counters=recompute
        )
        for __ in join:
            pass
        assert repair.value("dist_calcs") * 5 <= \
            recompute.value("dist_calcs")
        assert repair.value("bound_calcs") * 5 <= \
            recompute.value("bound_calcs")


class TestWatchSql:
    def make_db(self):
        db = Database(counters=CounterRegistry())
        db.create_relation("a", make_points(60, seed=11))
        db.create_relation("b", make_points(80, seed=22))
        return db

    def test_parse_flags(self):
        query = parse(WATCH_SQL.format(k=5))
        assert query.watch and query.stop_after == 5
        assert parse(
            "WATCH SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
            "WHERE d <= 4 ORDER BY d"
        ).watch  # NOTIFY is optional; a range bound suffices

    @pytest.mark.parametrize("sql,fragment", [
        ("SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
         "ORDER BY d STOP AFTER 3 NOTIFY", "NOTIFY"),
        ("WATCH SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
         "ORDER BY d DESC STOP AFTER 3", "DESC"),
        ("WATCH SELECT *, MIN(d) FROM a, b, DISTANCE(a.g, b.g) AS d "
         "GROUP BY a.g ORDER BY d STOP AFTER 3", "semi-join"),
        ("WATCH SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
         "ORDER BY d STOP AFTER 3 PARALLEL 2", "PARALLEL"),
        ("WATCH SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
         "ORDER BY d STOP AFTER 3 SHARDS 4", "SHARDS"),
        ("WATCH SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
         "WHERE a.pop > 5 ORDER BY d STOP AFTER 3", "predicate"),
        ("WATCH SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
         "ORDER BY d", "finite"),
    ])
    def test_invalid_watch_forms_rejected(self, sql, fragment):
        with pytest.raises(QuerySyntaxError, match=fragment):
            parse(sql)

    def test_logical_plan_wraps_in_watch(self):
        plan = build_logical_plan(parse(WATCH_SQL.format(k=5)))
        pretty = plan.pretty()
        assert pretty.startswith("Watch(")
        assert "Limit" in pretty

    def test_pull_plan_refuses_watch(self):
        db = self.make_db()
        query = parse(WATCH_SQL.format(k=5))
        with pytest.raises(QueryError, match="standing"):
            build_physical_plan(db, query)
        with pytest.raises(QueryError, match="standing"):
            db.execute(query)

    def test_database_watch_end_to_end(self):
        db = self.make_db()
        standing = db.watch(WATCH_SQL.format(k=7))
        assert isinstance(standing, StandingJoin)
        pull = [
            (row.d, row.oid1, row.oid2) for row in db.execute(
                "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
                "ORDER BY d STOP AFTER 7"
            )
        ]
        assert result_keys(standing) == sorted(pull)
        assert standing.counters is db.counters

    def test_database_watch_rejects_pull_queries(self):
        db = self.make_db()
        with pytest.raises(QueryError, match="WATCH"):
            db.watch(
                "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
                "ORDER BY d STOP AFTER 3"
            )

    def test_watch_folds_range_into_spec(self):
        db = self.make_db()
        standing = db.watch(
            "WATCH SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "WHERE d <= 4 ORDER BY d"
        )
        assert standing.spec.max_distance == 4.0
        assert standing.max_pairs is None
        assert all(k[0] <= 4.0 for k in result_keys(standing))


class TestStatsCacheObservesLivePath:
    def test_collect_stats_sees_standing_inserts(self):
        """Satellite: the cost model's per-tree stats cache must be
        keyed on the mutation counter the live path bumps."""
        from repro.query.costmodel import (
            collect_stats,
            stats_fingerprint,
        )

        points_a = make_points(40, seed=41)
        points_b = make_points(40, seed=42)
        tree_a, tree_b = make_tree(points_a), make_tree(points_b)
        before = collect_stats(tree_a)
        fp_before = stats_fingerprint(tree_a)
        assert collect_stats(tree_a) is before  # cached

        standing = StandingJoin(tree_a, tree_b, JoinSpec(max_pairs=5))
        for step in range(6):
            standing.insert(
                7000 + step, Point((float(step), float(step))), side=1
            )
        after = collect_stats(tree_a)
        assert after is not before
        assert stats_fingerprint(tree_a) != fp_before
        assert after.size == before.size + 6
        standing.delete(7000, side=1)
        assert collect_stats(tree_a).size == after.size - 1


# ----------------------------------------------------------------------
# deltas taken from the repair, against the rule they replaced
# ----------------------------------------------------------------------

def lattice_points(count, rng, width=5):
    """Integer points on a ``width`` x ``width`` lattice: duplicates
    and distance ties everywhere, at the K boundary included."""
    return [
        Point((float(rng.randrange(width)), float(rng.randrange(width))))
        for __ in range(count)
    ]


def snapshot_diff(before, after):
    """The rule the repair's deltas replaced: snapshot the reported
    keys before and after, diff, sort.  The oracle."""
    return (
        [(REMOVE, key) for key in sorted(before.keys() - after.keys())]
        + [(ADD, key) for key in sorted(after.keys() - before.keys())]
    )


def reported(standing):
    return {pair_key(r): r for r in standing.result()}


#: name -> (spec knobs, frontier).  Between them: a store that stays
#: below K (``below_k``: the band holds fewer than K pairs), ties at
#: the K boundary (the lattice), the smallest frontier, refills
#: (``refill``), range mode and ``min_distance > 0``.
DELTA_CASES = {
    "topk": (dict(max_pairs=6), None),
    "frontier_1": (dict(max_pairs=4), 1),
    "refill": (dict(max_pairs=12), 1),
    "below_k": (dict(max_pairs=40, max_distance=1.0), 2),
    "band_topk": (dict(max_pairs=8, min_distance=1.0), 3),
    "range": (dict(max_distance=1.5), None),
    "band_range": (dict(min_distance=1.0, max_distance=2.0), None),
}


class TestDeltasFromTheRepair:
    STEPS = 90

    def run_script(self, case, seed):
        """Random inserts and deletes on a lattice, one pickled
        ``save()`` / ``load()`` at a random step; after every step
        the returned deltas are the snapshot diff and the reported
        set is the brute-force one.  Returns what the run met."""
        knobs, frontier = DELTA_CASES[case]
        spec = JoinSpec(**knobs)
        k = spec.max_pairs
        rng = random.Random(seed)
        objs = {
            side: dict(enumerate(lattice_points(9, rng))) for side in (1, 2)
        }
        trees = {
            side: make_tree(list(objs[side].values()), max_entries=4)
            for side in (1, 2)
        }
        counters = CounterRegistry()
        standing = StandingJoin(
            trees[1], trees[2], spec, counters=counters, frontier=frontier
        )
        assert [(d.op, d.key) for d in standing.poll()] == snapshot_diff(
            {}, reported(standing)
        )
        seq = standing.seq
        suspend_at = rng.randrange(self.STEPS)
        met = set()
        for step in range(self.STEPS):
            before = reported(standing)
            side = rng.choice((1, 2))
            if len(objs[side]) > 3 and rng.random() < 0.5:
                oid = rng.choice(sorted(objs[side]))
                del objs[side][oid]
                deltas = standing.delete(oid, side=side)
            else:
                oid = 100 + step
                objs[side][oid] = lattice_points(1, rng)[0]
                deltas = standing.insert(oid, objs[side][oid], side=side)
            after = reported(standing)
            truth = canonical_topk(
                objs[1], objs[2], k=None,
                dmin=spec.min_distance, dmax=spec.max_distance,
            )
            assert list(after) == (truth if k is None else truth[:k])
            assert [(d.op, d.key) for d in deltas] == snapshot_diff(
                before, after
            )
            assert [d.seq for d in deltas] == list(
                range(seq + 1, seq + 1 + len(deltas))
            )
            seq += len(deltas)
            for d in deltas:
                source = after if d.op == ADD else before
                assert d.result == source[d.key]
            if k is not None and len(after) < k:
                met.add("below_k")
            if k is not None and len(truth) > k and (
                truth[k - 1][0] == truth[k][0]
            ):
                met.add("tie_at_k")
            if step == suspend_at:
                blob = pickle.dumps(standing.save())
                standing = StandingJoin.load(
                    pickle.loads(blob), trees[1], trees[2],
                    counters=counters,
                )
        assert standing.poll() and standing.seq == seq
        if counters.value("live_refills"):
            met.add("refill")
        return met

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", list(DELTA_CASES))
    def test_deltas_equal_the_snapshot_diff(self, case, seed):
        self.run_script(case, seed)

    def test_the_cases_meet_what_they_are_for(self):
        assert "tie_at_k" in self.run_script("topk", 1)
        assert "tie_at_k" in self.run_script("frontier_1", 1)
        assert "refill" in self.run_script("refill", 1)
        assert "below_k" in self.run_script("below_k", 1)

    def test_demoted_pair_trimmed_in_the_same_repair(self):
        """More new pairs than the frontier holds: the pairs they
        push out of the top K fall out of the *store* in the same
        repair, and are still retracted."""
        tree_a = make_tree([Point((50.0, 50.0 + i)) for i in range(3)])
        tree_b = make_tree([Point((0.0, float(i))) for i in range(6)])
        standing = StandingJoin(
            tree_a, tree_b, JoinSpec(max_pairs=3), frontier=1
        )
        before = reported(standing)
        assert len(before) == 3
        # Six new pairs at distance 0 .. 5 against a capacity of 4.
        deltas = standing.insert(99, Point((0.0, 0.0)), side=1)
        after = reported(standing)
        assert [(d.op, d.key) for d in deltas] == snapshot_diff(
            before, after
        )
        assert [d.op for d in deltas] == [REMOVE] * 3 + [ADD] * 3
        stored = {pair_key(e) for e in standing._store}
        assert len(stored) == 4 and not stored & before.keys()
        assert not standing.complete


class TestResultStoreIndex:
    """The per-side oid index says what a scan of the store says."""

    def assert_index(self, store):
        for which, by_oid in enumerate(store._by_oid):
            scanned = {}
            for key in store.top_keys(None):
                scanned.setdefault(key[1 + which], []).append(key)
            assert {
                oid: sorted(keys) for oid, keys in by_oid.items()
            } == scanned

    def test_index_follows_every_mutation(self):
        rng = random.Random(7)
        store = ResultStore(capacity=12)
        for __ in range(300):
            roll = rng.random()
            if roll < 0.5:
                store.merge([
                    JoinResult(
                        float(rng.randrange(4)), rng.randrange(6), None,
                        rng.randrange(6), None,
                    )
                    for __ in range(rng.randrange(4))
                ], rng.choice((None, 3, 8)))
            elif roll < 0.7:
                store.trim()
            elif roll < 0.95:
                side = rng.choice((1, 2))
                oid = rng.randrange(6)
                held = store.top_keys(None)
                removed = store.remove_oid(side, oid)
                assert [(pos, pair_key(e)) for pos, e in removed] == [
                    (pos, key) for pos, key in enumerate(held)
                    if key[side] == oid
                ]
            else:
                store.replace(list(store)[::2])
            self.assert_index(store)
            assert store.top_keys(None) == sorted(store.top_keys(None))
        clone = ResultStore.from_state(store.state(), list(store))
        self.assert_index(clone)

    def test_merge_reports_the_change_to_the_best_k(self):
        rng = random.Random(8)
        store = ResultStore()
        for __ in range(200):
            k = rng.choice((None, 1, 4, 9))
            batch = [
                JoinResult(
                    float(rng.randrange(5)), rng.randrange(9), None,
                    rng.randrange(9), None,
                )
                for __ in range(rng.randrange(6))
            ]
            before = {pair_key(e): e for e in store.top(k)}
            left, entered = store.merge(batch, k)
            after = {pair_key(e): e for e in store.top(k)}
            assert (
                [(REMOVE, pair_key(e)) for e in left]
                + [(ADD, pair_key(e)) for e in entered]
            ) == snapshot_diff(before, after)
            if len(store) > 30:
                store.replace(list(store)[:10])


# ----------------------------------------------------------------------
# the probe on the batch kernels, against the per-entry loop
# ----------------------------------------------------------------------

PROBE_COUNTERS = (
    "dist_calcs", "bound_calcs", "live_probe_pairs", "node_reads",
    "node_io",
)


class CountingKernels:
    """A kernel set that counts the node evaluations it serves."""

    def __init__(self, inner):
        self.inner = inner
        self.np = inner.np
        self.calls = {"mindist": 0, "point_distance": 0}

    def mindist(self, *args):
        self.calls["mindist"] += 1
        return self.inner.mindist(*args)

    def point_distance(self, *args):
        self.calls["point_distance"] += 1
        return self.inner.point_distance(*args)


def run_probe(tree, metric, probe_obj, bound, kernels):
    list(tree.items())  # same (warm) buffer pool for either path
    counters = CounterRegistry()
    item = Item(OBJ, RTreeBase._rect_of(probe_obj), oid=-5, obj=probe_obj)
    found, exhaustive, __ = probe_partner(
        tree, PairDistance(metric, counters), item, bound, counters,
        kernels,
    )
    return (
        sorted((d.hex(), entry.oid) for d, entry in found),
        # Same traversal, so the same order too -- not only the set.
        [entry.oid for __, entry in found],
        exhaustive,
        {name: counters.value(name) for name in PROBE_COUNTERS},
    )


@pytest.mark.parametrize("bound", [0.0, 7.5, math.inf])
@pytest.mark.parametrize("metric", [MANHATTAN, EUCLIDEAN, CHESSBOARD])
class TestProbeOnKernels:
    def kernels(self, metric):
        kernels = resolve_kernels("auto", metric)
        if kernels is None:
            pytest.skip("batch kernels unavailable")
        return kernels

    def test_point_tree(self, metric, bound):
        kernels = self.kernels(metric)
        rng = random.Random(3)
        points = make_points(150, seed=9, extent=30.0)
        points += lattice_points(60, rng, width=30)
        tree = make_tree(points, max_entries=6)
        for probe in (points[0], points[170], Point((15.2, 14.9)),
                      Point((-40.0, 70.0))):
            scalar = run_probe(tree, metric, probe, bound, None)
            assert run_probe(tree, metric, probe, bound, kernels) == scalar
            assert scalar[3]["live_probe_pairs"] == scalar[3]["dist_calcs"]
        if bound == math.inf:
            assert scalar[2] and len(scalar[0]) == len(points)

    def test_non_point_payloads_fall_back_per_node(self, metric, bound):
        """A leaf holding anything but points -- and a probe that is
        no point -- takes the per-entry loop for that node only."""
        kernels = self.kernels(metric)
        tree = make_tree(make_points(80, seed=10, extent=30.0), max_entries=6)
        rng = random.Random(4)
        for __ in range(12):
            x, y = rng.uniform(0, 28), rng.uniform(0, 28)
            tree.insert(obj=Rect((x, y), (x + 2.0, y + 1.0)))
        for probe in (Point((12.0, 12.0)), Rect((5, 5), (9, 6))):
            scalar = run_probe(tree, metric, probe, bound, None)
            counting = CountingKernels(kernels)
            assert run_probe(tree, metric, probe, bound, counting) == scalar
            if bound < math.inf:
                continue
            # Rectangle payloads are charged as bounds, not distances;
            # every branch node went through the kernels, and of the
            # leaves only the all-point ones under a point probe.
            assert scalar[3]["live_probe_pairs"] > scalar[3]["dist_calcs"]
            levels = [
                tree.read_node(page_id).level
                for page_id in tree.store.page_ids()
            ]
            assert counting.calls["mindist"] == sum(
                1 for level in levels if level > 0
            )
            if isinstance(probe, Point):
                assert 0 < counting.calls["point_distance"] < levels.count(0)
            else:
                assert counting.calls["point_distance"] == 0
