"""One partner probe shared by the standing joins an insert repairs.

``share_insert_probes`` scans the partner tree once per group of
watchers, at the widest of their repair bounds, and each watcher reads
its own bound off that scan (``ProbeResult.within``).  The contract is
differential: every watcher's delta stream is byte-equal to the one it
emits when it probes alone, and the shared scans never charge more
than the scans they replace.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.pairs import OBJ, Item, PairDistance
from repro.core.spec import JoinSpec
from repro.errors import LiveError
from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.kernels import resolve_kernels
from repro.live import (
    ProbeResult,
    StandingJoin,
    probe_partner,
    share_insert_probes,
)
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry
from tests.conftest import make_points, make_tree

PROBE_COUNTERS = (
    "live_probe_pairs", "dist_calcs", "bound_calcs", "node_reads",
)

#: name -> (relation1, relation2, JoinSpec keywords).  Watchers of the
#: pair ("a", "b") in both orders, K of 1, 10 and 100, a range
#: watcher, and one on another relation pair that shares "a".
WATCHERS = {
    "k1": ("a", "b", {"max_pairs": 1}),
    "k10": ("a", "b", {"max_pairs": 10}),
    "k100": ("a", "b", {"max_pairs": 100}),
    "range": ("a", "b", {"max_distance": 6.0}),
    "k10_ba": ("b", "a", {"max_pairs": 10}),
    "k10_ac": ("a", "c", {"max_pairs": 10}),
}


def delta_bytes(deltas):
    return [
        (d.op, d.seq, d.distance.hex(), d.oid1, d.obj1.coords,
         d.oid2, d.obj2.coords)
        for d in deltas
    ]


class World:
    """Three relations and the :data:`WATCHERS` over them, all
    charging one counter registry (so they group)."""

    def __init__(self, sizes, seed, kernel):
        self.counters = CounterRegistry()
        self.points = {
            name: dict(enumerate(make_points(n, seed=seed + i)))
            for i, (name, n) in enumerate(zip("abc", sizes))
        }
        self.trees = {
            name: make_tree(list(points.values()))
            for name, points in self.points.items()
        }
        self.joins = {
            key: StandingJoin(
                self.trees[r1], self.trees[r2],
                JoinSpec(kernel=kernel, **spec),
                counters=self.counters,
            )
            for key, (r1, r2, spec) in WATCHERS.items()
        }

    def watchers(self, relation):
        return [
            (key, self.joins[key], side)
            for key, (r1, r2, __) in WATCHERS.items()
            for side, rel in ((1, r1), (2, r2))
            if rel == relation
        ]

    def insert(self, relation, oid, point, shared):
        rect = RTreeBase._rect_of(point)
        self.trees[relation].insert(obj=point, rect=rect, oid=oid)
        self.points[relation][oid] = point
        watchers = self.watchers(relation)
        if shared:
            probes = share_insert_probes(
                [(join, side) for __, join, side in watchers],
                oid, point, rect,
            )
        else:
            probes = [None] * len(watchers)
        return {
            key: join.observe_insert(oid, point, rect, side, probe=probe)
            for (key, join, side), probe in zip(watchers, probes)
        }

    def delete(self, relation, oid):
        point = self.points[relation].pop(oid)
        assert self.trees[relation].delete(oid, RTreeBase._rect_of(point))
        return {
            key: join.observe_delete(oid, side)
            for key, join, side in self.watchers(relation)
        }

    def charged(self):
        return {name: self.counters.value(name) for name in PROBE_COUNTERS}


def script(seed, steps, sizes):
    """Seeded uniform inserts and deletes on relations "a" and "b"."""
    rng = random.Random(seed)
    live = {rel: set(range(n)) for rel, n in zip("ab", sizes)}
    fresh = 10_000
    ops = []
    for __ in range(steps):
        relation = rng.choice("ab")
        if live[relation] and rng.random() < 0.4:
            oid = rng.choice(sorted(live[relation]))
            live[relation].discard(oid)
            ops.append(("delete", relation, oid, None))
        else:
            point = Point((rng.uniform(0, 100), rng.uniform(0, 100)))
            ops.append(("insert", relation, fresh, point))
            live[relation].add(fresh)
            fresh += 1
    return ops


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
@pytest.mark.parametrize("sizes", [(8, 12, 10), (40, 60, 50)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_probe_deltas_match_probing_alone(kernel, sizes, seed):
    alone = World(sizes, seed, kernel)
    shared = World(sizes, seed, kernel)
    for name in WATCHERS:
        assert delta_bytes(shared.joins[name].poll()) == delta_bytes(
            alone.joins[name].poll()
        )
    fewer = 0
    for op, relation, oid, point in script(seed, 90, sizes):
        before_alone, before_shared = alone.charged(), shared.charged()
        if op == "insert":
            want = alone.insert(relation, oid, point, shared=False)
            got = shared.insert(relation, oid, point, shared=True)
        else:
            want = alone.delete(relation, oid)
            got = shared.delete(relation, oid)
        assert got.keys() == want.keys()
        for name in want:
            assert delta_bytes(got[name]) == delta_bytes(want[name]), (
                op, relation, oid, name
            )
        spent_alone, spent_shared = alone.charged(), shared.charged()
        for counter in PROBE_COUNTERS:
            assert (
                spent_shared[counter] - before_shared[counter]
                <= spent_alone[counter] - before_alone[counter]
            ), (op, counter)
        fewer += (
            spent_shared["live_probe_pairs"]
            - before_shared["live_probe_pairs"]
            < spent_alone["live_probe_pairs"]
            - before_alone["live_probe_pairs"]
        )
    assert fewer > 0  # the sharing did save probe work
    for name, join in shared.joins.items():
        assert [tuple(r) for r in join.result()] == [
            tuple(r) for r in alone.joins[name].result()
        ]
        assert join.complete == alone.joins[name].complete


def test_watchers_are_grouped_by_side_and_partner():
    world = World((20, 30, 25), 4, "auto")
    point = Point((50.0, 50.0))
    world.trees["a"].insert(obj=point, oid=500)
    watchers = world.watchers("a")
    probes = share_insert_probes(
        [(join, side) for __, join, side in watchers], 500, point
    )
    by_name = dict(zip((key for key, __, __ in watchers), probes))
    # k1, k10, k100 and range see "a" as relation1 against "b": one
    # scan at the widest bound.  k10_ba (side 2) and k10_ac (partner
    # "c") are each alone in their group and scan for themselves.
    group = [by_name[key] for key in ("k1", "k10", "k100", "range")]
    assert all(probe is group[0] for probe in group)
    assert group[0].bound == max(
        world.joins[key]._insert_bound()[0]
        for key in ("k1", "k10", "k100", "range")
    )
    assert by_name["k10_ba"] is None and by_name["k10_ac"] is None


def test_a_narrower_probe_is_refused_before_anything_changes():
    alone = World((40, 60, 50), 5, "auto")
    world = World((40, 60, 50), 5, "auto")
    point = Point((42.0, 17.0))
    rect = RTreeBase._rect_of(point)
    want = alone.insert("a", 900, point, shared=False)["k100"]
    world.trees["a"].insert(obj=point, rect=rect, oid=900)
    join = world.joins["k100"]
    bound = join._insert_bound()[0]
    narrow = probe_partner(
        world.trees["b"], join.distance,
        Item(OBJ, rect, oid=900, obj=point), bound / 2, world.counters,
    )
    updates, seq = join.updates, join.seq
    with pytest.raises(LiveError, match="cannot answer bound"):
        join.observe_insert(900, point, rect, 1, probe=narrow)
    assert (join.updates, join.seq) == (updates, seq)
    # The refusal left the mutation unobserved: observing it now, with
    # a scan of its own, repairs exactly as probing alone does.
    assert delta_bytes(join.observe_insert(900, point, rect, 1)) == (
        delta_bytes(want)
    )


def test_a_wider_exhaustive_scan_does_not_make_a_narrow_store_complete():
    """K = 1 with capacity 3 holds all three pairs of the data, so its
    store is complete and full; a K = 100 watcher (complete, under
    capacity) probes at its unbounded ``max_distance`` and sees
    everything.  A far insert adds three pairs beyond the K = 1 tail:
    the K = 1 view of the scan excluded them, so its store is no
    longer complete, and deleting the near object must refill it."""

    def build():
        tree_a = make_tree([Point((0.0, 0.0))])
        tree_b = make_tree([Point((1.0, 0.0)), Point((0.0, 2.0)),
                            Point((3.0, 0.0))])
        counters = CounterRegistry()
        narrow = StandingJoin(tree_a, tree_b, JoinSpec(max_pairs=1),
                              frontier=2, counters=counters)
        wide = StandingJoin(tree_a, tree_b, JoinSpec(max_pairs=100),
                            counters=counters)
        assert narrow.complete and wide.complete
        return tree_a, narrow, wide

    far = Point((90.0, 90.0))
    streams = []
    for shared in (False, True):
        tree_a, narrow, wide = build()
        tree_a.insert(obj=far, oid=7)
        probes = [None, None]
        if shared:
            probes = share_insert_probes([(narrow, 1), (wide, 1)], 7, far)
            assert probes[0].bound == math.inf and probes[0].exhaustive
        narrow.observe_insert(7, far, side=1, probe=probes[0])
        wide.observe_insert(7, far, side=1, probe=probes[1])
        assert not narrow.complete
        assert tree_a.delete(0, RTreeBase._rect_of(Point((0.0, 0.0))))
        narrow.observe_delete(0, side=1)
        wide.observe_delete(0, side=1)
        streams.append(delta_bytes(narrow.poll()) + delta_bytes(wide.poll()))
    assert streams[0] == streams[1]
    assert [d[0] for d in streams[1][:4]] == ["+", "-", "+", "+"]


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
@pytest.mark.parametrize("seed", range(6))
def test_within_is_the_narrower_scan(kernel, seed):
    """``probe(B).within(b)`` finds what ``probe(b)`` finds, with the
    same exhaustive flag, for every b <= B -- exact found distances
    (ties at the bound) among them."""
    rng = random.Random(seed)
    tree = make_tree(make_points(rng.choice((3, 40, 150)), seed=seed))
    kernels = resolve_kernels(kernel, EUCLIDEAN)
    probe_obj = Point((rng.uniform(0, 100), rng.uniform(0, 100)))
    item = Item(OBJ, RTreeBase._rect_of(probe_obj), oid=-1, obj=probe_obj)

    def probe(bound):
        counters = CounterRegistry()
        return probe_partner(
            tree, PairDistance(EUCLIDEAN, counters), item, bound,
            counters, kernels,
        )

    def view(result):
        return sorted((d.hex(), e.oid) for d, e in result.found), (
            result.exhaustive
        )

    every = sorted(d for d, __ in probe(math.inf).found)
    bounds = [0.0, every[0], every[len(every) // 2], every[-1], 5.0,
              30.0, math.inf]
    for wide in bounds:
        scan = probe(wide)
        assert isinstance(scan, ProbeResult) and scan.bound == wide
        for narrow in bounds:
            if narrow > wide:
                with pytest.raises(LiveError):
                    scan.within(narrow)
                continue
            read = scan.within(narrow)
            assert read.bound == narrow
            assert view(read) == view(probe(narrow)), (wide, narrow)


SERVICE_WATCH = (
    "WATCH SELECT * FROM {r1}, {r2}, DISTANCE({r1}.geom, {r2}.geom) AS d "
    "ORDER BY d STOP AFTER {k} NOTIFY"
)


def service_db():
    from repro.query.executor import Database

    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(60, seed=11))
    db.create_relation("b", make_points(70, seed=12))
    return db


def test_post_update_pages_what_probing_alone_emits(serve):
    """Four subscriptions over HTTP -- three see "a" as relation1, one
    as relation2 -- against the same joins registered in a library
    copy of the database, where every watcher probes alone: each
    ``POST /update`` pages the same deltas, at fewer probe pairs."""
    sqls = [SERVICE_WATCH.format(r1="a", r2="b", k=k) for k in (2, 6, 20)]
    sqls.append(SERVICE_WATCH.format(r1="b", r2="a", k=6))
    db = service_db()
    service, client = serve(db)
    mirror = service_db()
    joins = [mirror.watch(sql) for sql in sqls]
    sides = [1, 1, 1, 2]
    sids = [client.watch(sql) for sql in sqls]

    def page(sid):
        return [
            (r["op"], r["seq"], r["d"], r["oid1"], r["oid2"])
            for r in client.deltas(sid, k=512)
        ]

    def polled(join):
        return [(d.op, d.seq, d.distance, d.oid1, d.oid2)
                for d in join.poll()]

    for sid, join in zip(sids, joins):
        assert page(sid) == polled(join)
    rng = random.Random(9)
    tree = mirror.relation("a")
    for step in range(12):
        oid = 5000 + step
        point = Point((rng.uniform(0, 100), rng.uniform(0, 100)))
        served_before = service.scheduler.counters.value("live_probe_pairs")
        alone_before = mirror.counters.value("live_probe_pairs")
        receipt = client.insert("a", oid, list(point.coords))
        assert receipt["watchers"] == 4 and "invalidated" not in receipt
        tree.insert(obj=point, oid=oid)
        for join, side in zip(joins, sides):
            join.observe_insert(oid, point, side=side)
        for sid, join in zip(sids, joins):
            assert page(sid) == polled(join), step
        served = (
            service.scheduler.counters.value("live_probe_pairs")
            - served_before
        )
        alone = mirror.counters.value("live_probe_pairs") - alone_before
        assert 0 < served < alone, step
    for sid in sids:
        client.delete(sid)
