"""Property test: the shard router is equivalent to the sequential
join for random data, specs and shard counts.

The reference is the canonical order ``(distance, oid1, oid2)`` (see
``test_parallel_equivalence``).  Every draw checks the full stream, a
``stop after K`` prefix (where lazy admission actually prunes), and a
pickled suspend/resume of a sharded cursor taken mid-stream.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.point import Point
from repro.rtree.bulk import bulk_load_str
from repro.shard import ShardRouterJoin, ShardRouterSemiJoin, clear_caches

SHARD_COUNTS = (1, 2, 4)

coordinates = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)

point_lists = st.lists(coordinates, min_size=1, max_size=40).map(
    lambda coords: [Point((float(x), float(y))) for x, y in coords]
)


def canonical(results):
    out, group, last = [], [], None
    for r in results:
        if last is not None and r.distance != last:
            group.sort(key=lambda g: (g.oid1, g.oid2))
            out.extend(group)
            group = []
        group.append(r)
        last = r.distance
    group.sort(key=lambda g: (g.oid1, g.oid2))
    out.extend(group)
    return [(r.distance, r.oid1, r.oid2) for r in out]


def rows(join):
    return [(r.distance, r.oid1, r.oid2) for r in join]


@settings(max_examples=10, deadline=None)
@given(points_a=point_lists, points_b=point_lists, data=st.data())
def test_router_equals_sequential(points_a, points_b, data):
    clear_caches()
    tree_a = bulk_load_str(points_a)
    tree_b = bulk_load_str(points_b)
    dmin = data.draw(
        st.sampled_from([0.0, 2.0, 5.0]), label="min_distance"
    )
    dmax = data.draw(
        st.sampled_from([float("inf"), 20.0, 8.0]),
        label="max_distance",
    )
    reference = canonical(IncrementalDistanceJoin(
        tree_a, tree_b, JoinSpec(min_distance=dmin, max_distance=dmax),
    ))
    k = data.draw(
        st.integers(min_value=1, max_value=max(1, len(reference))),
        label="stop_after_k",
    )
    for shards in SHARD_COUNTS:
        full = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(min_distance=dmin, max_distance=dmax),
            shards=shards, batch_size=7,
        )
        assert rows(full) == reference, f"shards={shards}"
        prefix = ShardRouterJoin(
            tree_a, tree_b,
            JoinSpec(min_distance=dmin, max_distance=dmax, max_pairs=k),
            shards=shards, batch_size=7,
        )
        assert rows(prefix) == reference[:k], f"shards={shards}, k={k}"


@settings(max_examples=8, deadline=None)
@given(points_a=point_lists, points_b=point_lists, data=st.data())
def test_router_resumes_through_pickle(points_a, points_b, data):
    clear_caches()
    tree_a = bulk_load_str(points_a)
    tree_b = bulk_load_str(points_b)
    reference = canonical(IncrementalDistanceJoin(tree_a, tree_b))
    if not reference:
        return
    k = data.draw(
        st.integers(min_value=1, max_value=len(reference)),
        label="stop_after_k",
    )
    cut = data.draw(
        st.integers(min_value=0, max_value=k), label="suspend_at"
    )
    shards = data.draw(
        st.sampled_from(SHARD_COUNTS), label="shards"
    )
    router = ShardRouterJoin(
        tree_a, tree_b, JoinSpec(max_pairs=k), shards=shards, batch_size=5,
    )
    taken = [next(router) for __ in range(cut)]
    blob = pickle.dumps(router.save(), pickle.HIGHEST_PROTOCOL)
    resumed = ShardRouterJoin.load(pickle.loads(blob), tree_a, tree_b)
    assert [
        (r.distance, r.oid1, r.oid2) for r in taken
    ] + rows(resumed) == reference[:k]


@settings(max_examples=8, deadline=None)
@given(points_a=point_lists, points_b=point_lists, data=st.data())
def test_semi_router_equals_sequential(points_a, points_b, data):
    clear_caches()
    tree_a = bulk_load_str(points_a)
    tree_b = bulk_load_str(points_b)
    reference = {
        r.oid1: r.distance
        for r in IncrementalDistanceSemiJoin(tree_a, tree_b)
    }
    shards = data.draw(st.sampled_from(SHARD_COUNTS), label="shards")
    join = ShardRouterSemiJoin(tree_a, tree_b, shards=shards, batch_size=5)
    seen, previous = {}, -1.0
    for result in join:
        assert result.distance >= previous
        previous = result.distance
        assert result.oid1 not in seen
        seen[result.oid1] = result.distance
    assert seen == reference
