"""The shard router over TIGER-like data.

Runs the shard router (``docs/SHARDING.md``) with four STR shards per
relation over the synthetic Water and Roads point sets: shard pairs
are ordered by their MINDIST lower bound, opened only when the merge
frontier reaches that bound, and run inline, in this process.  Checks
the output against the sequential operator and prints the
routed/pruned shard-pair split.

Also shows the SQL spelling: ``PARALLEL <n>`` is ``SHARDS <n>``, the
same router with the same plan and the same rows.

Run:  python examples/shard_router.py
"""

from repro import CounterRegistry, IncrementalDistanceJoin, JoinSpec
from repro.datasets import roads_points, water_points
from repro.query import Database
from repro.rtree.bulk import bulk_load_str
from repro.shard import ShardRouterJoin

PAIRS = 2_000


def canonical(results):
    """Sort equal-distance runs by (oid1, oid2).

    The shard router emits the canonical total order
    (distance, oid1, oid2); the sequential join orders ties by
    traversal instead, so comparing the two requires canonicalizing.
    """
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
    return out


def main():
    water = bulk_load_str(water_points(2_000))
    roads = bulk_load_str(roads_points(6_000))

    # --- the routed join ---------------------------------------------
    counters = CounterRegistry()  # keep the tally to this join only
    join = ShardRouterJoin(
        water, roads, JoinSpec(max_pairs=PAIRS), shards=4,
        counters=counters,
    )
    routed = list(join)
    print(f"shard router: {len(routed)} closest pairs, "
          f"d in [{routed[0].distance:.3f}, {routed[-1].distance:.3f}]")
    print(f"  shard pairs: {counters.value('shard_pairs_total')} planned, "
          f"{counters.value('shard_pairs_routed')} routed, "
          f"{counters.value('shard_pairs_pruned')} pruned "
          f"({counters.value('shard_batches')} task batches)")

    # --- identical to the sequential algorithm -----------------------
    sequential = canonical(IncrementalDistanceJoin(
        water, roads, JoinSpec(max_pairs=PAIRS),
    ))
    assert [(r.distance, r.oid1, r.oid2) for r in routed] == \
           [(r.distance, r.oid1, r.oid2) for r in sequential]
    print("matches the sequential join's canonical output exactly")

    # --- the SQL spellings -------------------------------------------
    db = Database()
    db.create_relation("water", water)
    db.create_relation("roads", roads)
    sql = (
        "SELECT * FROM water, roads, "
        "DISTANCE(water.geom, roads.geom) AS d "
        "ORDER BY d STOP AFTER 5 "
    )
    shards = [(r.d, r.oid1, r.oid2) for r in db.execute(sql + "SHARDS 4")]
    parallel = [
        (r.d, r.oid1, r.oid2) for r in db.execute(sql + "PARALLEL 4")
    ]
    assert parallel == shards
    assert db.explain(sql + "PARALLEL 4").pretty() == \
           db.explain(sql + "SHARDS 4").pretty()
    print("\nSQL: ... ORDER BY d STOP AFTER 5 PARALLEL 4 (= SHARDS 4)")
    for d, oid1, oid2 in parallel:
        print(f"  water #{oid1:>4} - roads #{oid2:>4}  d={d:.4f}")


if __name__ == "__main__":
    main()
