"""Partitioned parallel join over TIGER-like data.

Runs a 4-worker :class:`repro.parallel.ParallelDistanceJoin` -- the
shard router (``docs/SHARDING.md``) on a thread pool, over catalogs
private to the join -- of the synthetic Water and Roads point sets,
checks its output against the sequential operator, and prints the
routed/pruned shard-pair split plus a per-worker counter breakdown
pulled from the worker-side registries (every result batch carries a
counter snapshot back to the parent, which aggregates the deltas).

Also shows the SQL spelling of the same query: the ``PARALLEL <n>``
hint routes a Figure 1 query to the same engine.

Run:  python examples/parallel_scaling.py
"""

from repro import (
    CounterRegistry,
    IncrementalDistanceJoin,
    JoinSpec,
    ParallelDistanceJoin,
)
from repro.datasets import roads_points, water_points
from repro.query import Database
from repro.rtree.bulk import bulk_load_str

PAIRS = 2_000


def canonical(results):
    """Sort equal-distance runs by (oid1, oid2).

    The parallel engine emits the canonical total order
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

    # --- the parallel join -------------------------------------------
    join = ParallelDistanceJoin(
        water, roads,
        JoinSpec(max_pairs=PAIRS),
        workers=4,
        backend="thread",   # use backend="process" for CPU scaling
        partitions=8,
        counters=CounterRegistry(),  # keep the tally to this join only
    )
    parallel = list(join)
    print(f"parallel join: {len(parallel)} closest pairs, "
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

    # --- per-worker counter breakdown --------------------------------
    print("\nper-worker breakdown:")
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
