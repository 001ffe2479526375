"""Partitioned join on process lanes over TIGER-like data.

Runs the shard router (``docs/SHARDING.md``) with four STR shards per
relation on four process lanes -- ``ShardRouterJoin(...,
backend="process", workers=4)``, the only way onto a second core -- of
the synthetic Water and Roads point sets, checks its output against
the sequential operator, and prints the routed/pruned shard-pair split
plus a per-lane counter breakdown pulled from the lanes' registries
(every result batch carries a counter snapshot back to the parent,
which aggregates the deltas).

Also shows the SQL spelling: ``PARALLEL <n>`` is ``SHARDS <n>``, the
same router run inline in this process.

Run:  python examples/parallel_scaling.py
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

    # --- the join on process lanes -----------------------------------
    join = ShardRouterJoin(
        water, roads,
        JoinSpec(max_pairs=PAIRS),
        shards=4,
        backend="process",
        workers=4,
        counters=CounterRegistry(),  # keep the tally to this join only
    )
    parallel = list(join)
    print(f"process lanes: {len(parallel)} closest pairs, "
          f"d in [{parallel[0].distance:.3f}, "
          f"{parallel[-1].distance:.3f}] "
          f"from {join.counters.value('shard_pairs_routed')} of "
          f"{len(join.pairs)} shard-pair tasks "
          f"({join.counters.value('shard_pairs_pruned')} pruned)")

    # --- identical to the sequential algorithm -----------------------
    sequential = canonical(IncrementalDistanceJoin(
        water, roads, JoinSpec(max_pairs=PAIRS),
    ))
    assert [(r.distance, r.oid1, r.oid2) for r in parallel] == \
           [(r.distance, r.oid1, r.oid2) for r in sequential]
    print("matches the sequential join's canonical output exactly")

    # --- per-lane counter breakdown ----------------------------------
    print("\nper-lane breakdown:")
    for worker, snapshot in sorted(join.worker_breakdown().items()):
        print(f"  {worker:<28} "
              f"pairs={snapshot.value('pairs_reported'):>6,} "
              f"dist_calcs={snapshot.value('dist_calcs'):>7,} "
              f"peak_queue={snapshot.peak('queue_size'):>5,}")
    merged = join.counters.full_snapshot()
    print(f"  {'total (merged)':<28} "
          f"pairs={merged.value('pairs_reported'):>6,} "
          f"dist_calcs={merged.value('dist_calcs'):>7,} "
          f"peak_queue={merged.peak('queue_size'):>5,}")

    # --- the SQL spelling --------------------------------------------
    db = Database()
    db.create_relation("water", water)
    db.create_relation("roads", roads)
    rows = db.execute(
        "SELECT * FROM water, roads, "
        "DISTANCE(water.geom, roads.geom) AS d "
        "ORDER BY d STOP AFTER 5 PARALLEL 4"
    )
    print("\nSQL: ... ORDER BY d STOP AFTER 5 PARALLEL 4")
    for row in rows:
        print(f"  water #{row.oid1:>4} - roads #{row.oid2:>4}  "
              f"d={row.d:.4f}")


if __name__ == "__main__":
    main()
