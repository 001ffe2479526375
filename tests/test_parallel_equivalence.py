"""Property test: the partitioned join is equivalent to the sequential
one.

For random datasets (integer coordinates, so distance ties are common
and the tie-handling actually gets exercised) the shard router with 1,
2 and 4 shards must emit exactly the same distance-sorted, tie-stable pair sequence
as :class:`IncrementalDistanceJoin`, both in full and as a ``stop
after K`` prefix.

The reference order is the *canonical* one, ``(distance, oid1, oid2)``:
the router emits it directly; the sequential join's equal-distance
runs are sorted into it before comparison (the two differ only in tie
permutation, never in content).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.point import Point
from repro.rtree.bulk import bulk_load_str
from repro.shard import ShardRouterJoin, ShardRouterSemiJoin

SHARD_COUNTS = (1, 2, 4)

coordinates = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)

point_lists = st.lists(coordinates, min_size=1, max_size=40).map(
    lambda coords: [Point((float(x), float(y))) for x, y in coords]
)


def canonical(results):
    """Sort equal-distance runs of an ordered result list by
    (oid1, oid2), producing the canonical total order."""
    out = []
    group = []
    last = None
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


def check_streams(points_a, points_b, data, shard_counts):
    tree_a = bulk_load_str(points_a)
    tree_b = bulk_load_str(points_b)
    reference = canonical(IncrementalDistanceJoin(tree_a, tree_b))
    k = data.draw(
        st.integers(min_value=1, max_value=max(1, len(reference))),
        label="stop_after_k",
    )
    for count in shard_counts:
        engine = dict(shards=count, batch_size=7)
        assert [
            (r.distance, r.oid1, r.oid2)
            for r in ShardRouterJoin(tree_a, tree_b, **engine)
        ] == reference, f"shards={count}"
        prefix = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=k), **engine
        )
        assert [
            (r.distance, r.oid1, r.oid2) for r in prefix
        ] == reference[:k], f"shards={count}, k={k}"


@settings(max_examples=12, deadline=None)
@given(points_a=point_lists, points_b=point_lists, data=st.data())
def test_parallel_join_equals_sequential(points_a, points_b, data):
    check_streams(points_a, points_b, data, SHARD_COUNTS)


@settings(max_examples=10, deadline=None)
@given(points_a=point_lists, points_b=point_lists)
def test_parallel_semi_join_equals_sequential(points_a, points_b):
    tree_a = bulk_load_str(points_a)
    tree_b = bulk_load_str(points_b)
    reference = {
        r.oid1: r.distance
        for r in IncrementalDistanceSemiJoin(tree_a, tree_b)
    }
    for shards in SHARD_COUNTS:
        join = ShardRouterSemiJoin(
            tree_a, tree_b, shards=shards, batch_size=5,
        )
        seen = {}
        previous = -1.0
        for result in join:
            assert result.distance >= previous
            previous = result.distance
            assert result.oid1 not in seen
            seen[result.oid1] = result.distance
        assert seen == reference, f"shards={shards}"
