"""Property-based equivalence of the standing join.

The contract under test: a :class:`~repro.live.StandingJoin` fed an
arbitrary interleaving of inserts, deletes, delta consumption, and
pickled suspend/resume cycles holds *exactly* the result a full
recomputation over the final data would report -- same rows, same
canonical order, same counters run to run.

Also hosts the mutation-soundness regressions that ride along with
the live subsystem: the per-node columnar (SoA) cache under
delete-then-reinsert, and stats-cache invalidation.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.spec import JoinSpec
from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.live import ADD, StandingJoin, pair_key
from repro.util.counters import CounterRegistry
from tests.conftest import make_points, make_tree

# One scripted update: an insert of a generated point on a chosen
# side, a delete (index into the live oid list, resolved at replay
# time), a partial poll of the outbox, or a pickled suspend/resume.
coords = st.tuples(st.floats(0, 100), st.floats(0, 100))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from([1, 2]), coords),
        st.tuples(st.just("delete"), st.sampled_from([1, 2]),
                  st.integers(0, 10_000)),
        st.tuples(st.just("poll"), st.just(0), st.integers(0, 5)),
        st.tuples(st.just("suspend"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=24,
)


def canonical_topk(objs1, objs2, k):
    keys = sorted(
        (EUCLIDEAN.distance(a, b), oid1, oid2)
        for oid1, a in objs1.items()
        for oid2, b in objs2.items()
    )
    return keys if k is None else keys[:k]


def replay(script, k, seed_a=61, seed_b=62, counters=None):
    """Run one update script; returns (standing, held, objs, counters).

    ``held`` is the subscriber's copy of the result, maintained purely
    from the delta stream -- never read out of the standing join.
    """
    points_a = make_points(12, seed=seed_a)
    points_b = make_points(12, seed=seed_b)
    tree_a = make_tree(points_a, max_entries=4)
    tree_b = make_tree(points_b, max_entries=4)
    objs = {1: dict(enumerate(points_a)), 2: dict(enumerate(points_b))}
    counters = counters if counters is not None else CounterRegistry()
    standing = StandingJoin(
        tree_a, tree_b, JoinSpec(max_pairs=k), counters=counters
    )
    held = {}

    def apply(deltas):
        for delta in deltas:
            if delta.op == ADD:
                assert delta.key not in held
                held[delta.key] = True
            else:
                del held[delta.key]

    # The subscriber consumes the outbox alone (repair deltas are also
    # returned by insert/delete, but applying both would double-count).
    next_oid = 1000
    for op, side, arg in script:
        if op == "insert":
            point = Point(arg)
            standing.insert(next_oid, point, side=side)
            objs[side][next_oid] = point
            next_oid += 1
        elif op == "delete":
            live = sorted(objs[side])
            if not live:
                continue
            oid = live[arg % len(live)]
            standing.delete(oid, side=side)
            del objs[side][oid]
        elif op == "poll":
            # Draining (part of) the outbox must not disturb repair.
            apply(standing.poll(arg))
        else:  # suspend/resume through actual pickle bytes
            blob = pickle.dumps(
                standing.save(), pickle.HIGHEST_PROTOCOL
            )
            standing = StandingJoin.load(
                pickle.loads(blob), standing.tree1, standing.tree2,
                counters=counters,
            )
    apply(standing.poll())
    return standing, held, objs, counters


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations, st.integers(1, 12))
def test_property_replayed_deltas_equal_recomputation(script, k):
    """Property: the delta-maintained copy equals the canonical top-K
    of the final data, through any interleaving of updates, partial
    polls, and pickled suspend/resume cycles."""
    standing, held, objs, __ = replay(script, k)
    expected = canonical_topk(objs[1], objs[2], k)
    assert sorted(held) == expected
    assert [pair_key(r) for r in standing.result()] == expected
    assert standing.pending() == 0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations, st.integers(1, 10))
def test_property_counters_are_deterministic(script, k):
    """Property: the same script replayed twice produces bit-identical
    counter totals -- repair work is a function of the data, not of
    dict order, tie order, or suspend timing."""
    __, held1, __, counters1 = replay(script, k)
    __, held2, __, counters2 = replay(script, k)
    assert held1 == held2
    snap1, snap2 = counters1.full_snapshot(), counters2.full_snapshot()
    assert snap1.values == snap2.values
    for name in ("dist_calcs", "bound_calcs", "live_repairs",
                 "live_probe_pairs", "live_refills"):
        assert snap1.value(name) == snap2.value(name)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations, st.integers(1, 10))
def test_property_suspension_is_transparent(script, k):
    """Property: injecting a suspend/resume after every scripted
    update changes nothing -- not the held copy, not the sequence
    numbers, not the repair-work counters.  (Node I/O counters are
    excluded: resuming re-reads the trees to reattach payloads, which
    legitimately warms the buffer pool.)"""
    plain = [op for op in script if op[0] != "suspend"]
    suspended = []
    for op in plain:
        suspended.append(op)
        suspended.append(("suspend", 0, 0))
    s1, held1, __, c1 = replay(plain, k)
    s2, held2, __, c2 = replay(suspended, k)
    assert held1 == held2
    assert s1.seq == s2.seq
    assert s1.updates == s2.updates
    for name in ("dist_calcs", "bound_calcs", "queue_inserts",
                 "live_repairs", "live_probe_pairs", "live_refills"):
        assert c1.value(name) == c2.value(name), name


# ----------------------------------------------------------------------
# satellite regressions: mutation soundness of the cached layers
# ----------------------------------------------------------------------


def test_empty_soa_is_never_shared():
    """Regression: ``build()`` on an empty entry list must return a
    fresh EntrySoA -- a shared singleton would leak the ``items``
    scratch cache (child Items of one tree) into every empty node of
    every other tree once delete-then-reinsert empties a node."""
    np = pytest.importorskip("numpy")  # noqa: F841  (soa needs numpy)
    from repro.kernels.soa import build

    one, two = build([]), build([])
    assert one is not two
    assert one.items is not two.items
    one.items["poison"] = ["stale"]
    assert build([]).items == {}


def test_soa_cache_survives_delete_then_reinsert():
    """Regression: a node emptied by deletes and refilled by inserts
    must rebuild its columnar mirror (invalidate_soa on write), so a
    vector-kernel join after churn equals brute force."""
    from repro.kernels import kernels_available

    if not kernels_available():  # numpy missing or REPRO_NO_NUMPY set
        pytest.skip("batch kernels unavailable")
    from repro.core.distance_join import IncrementalDistanceJoin
    from tests.conftest import brute_force_pairs

    points_a = make_points(30, seed=71)
    points_b = make_points(30, seed=72)
    tree_a = make_tree(points_a, max_entries=4)
    tree_b = make_tree(points_b, max_entries=4)

    def run():
        join = IncrementalDistanceJoin(
            tree_a, tree_b, JoinSpec(kernel="vector"),
            counters=CounterRegistry(),
        )
        return [(r.distance, r.oid1, r.oid2) for r in join]

    run()  # populate every node's SoA cache
    replaced = make_points(30, seed=73)
    for oid, (old, new) in enumerate(zip(points_b, replaced)):
        assert tree_b.delete(oid, tree_b._rect_of(old))
        tree_b.insert(obj=new, oid=oid)
    assert run() == brute_force_pairs(points_a, replaced)


def test_standing_join_after_node_churn_matches_oracle():
    """The live path on heavily churned trees (nodes emptied,
    refilled, split) still reports the canonical result."""
    points_a = make_points(25, seed=81)
    points_b = make_points(25, seed=82)
    tree_a = make_tree(points_a, max_entries=4)
    tree_b = make_tree(points_b, max_entries=4)
    objs = {1: dict(enumerate(points_a)), 2: dict(enumerate(points_b))}
    standing = StandingJoin(tree_a, tree_b, JoinSpec(max_pairs=9))
    for oid in range(20):  # empty most of side 2's leaves
        standing.delete(oid, side=2)
        del objs[2][oid]
    for step, point in enumerate(make_points(25, seed=83)):
        standing.insert(2000 + step, point, side=2)
        objs[2][2000 + step] = point
    assert [pair_key(r) for r in standing.result()] == \
        canonical_topk(objs[1], objs[2], 9)
