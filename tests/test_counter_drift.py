"""Golden-value drift check for the sequential join's work counters.

The TIGER-like workload is fully seeded and the join is deterministic,
so the work counters for a fixed configuration are exact constants.
Pinning them turns any accidental change in traversal order, pruning,
or counter accounting into a loud CI failure instead of silent metric
drift (the bench artifacts would quietly shift otherwise).

If a change *intentionally* alters the work done (better pruning, a
different expansion policy), update the golden values here and say so
in the commit message.
"""

import hashlib
import random
from itertools import islice

import pytest

from repro.bench.workloads import build_tiger_workload
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.heap import BinaryHeap, PairingHeap
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.datasets.tiger_like import roads_segments, water_segments
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.kernels import DISABLE_ENV, numpy_or_none
from repro.live import StandingJoin
from repro.query.executor import Database
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.util.counters import CounterRegistry

#: Fixed-seed workload configuration the goldens are pinned against.
SCALE = 0.005
PAIRS = 100

#: Golden values for the workload above (seeds in
#: repro/datasets/tiger_like.py; STR bulk load; best-first join).
GOLDEN_DIST_CALCS = 6023
GOLDEN_NODE_IO = 28

#: The spill path of the same workload: an unbounded ``queue="hybrid"``
#: join at ``HYBRID_DT``, consumed for ``PAIRS`` rows, so nearly every
#: insert goes to the disk tier.  Captured at 14b7010 (the commit
#: before blocks were queued columnar); counter -> (value, peak), None
#: where only the other is pinned.
HYBRID_DT = 25.0
GOLDEN_HYBRID = {
    "queue_inserts": (7740, None),
    "pq_disk_writes": (7505, None),
    "pq_disk_reads": (177, None),
    "queue_size": (None, 7413),
    "pq_heap_size": (None, 42),
    "dist_calcs": (GOLDEN_DIST_CALCS, None),
    "node_io": (GOLDEN_NODE_IO, None),
}

#: The K-bounded path of the same workload: ``max_pairs=TOPK_PAIRS``
#: puts the d_max estimator behind a deep memory queue.  Captured at
#: 9912cea (the commit before the queue ordered runs); the stream is
#: the SHA-1 of every row's ``distance.hex(),oid1,oid2;``.
TOPK_PAIRS = 2000
GOLDEN_TOPK = {
    "queue_inserts": (5900, None),
    "queue_size": (None, 4835),
    "estimator_trims": (3060, None),
    "pruned_range": (7851, None),
    "dist_calcs": (11637, None),
    "bound_calcs": (3164, None),
    "node_io": (34, None),
}
GOLDEN_TOPK_STREAM = "808e393614381c57e26de3883a7891c21e1062ca"

#: Three more ways into the estimator, captured at 5583c0b (the commit
#: before ``M`` was keyed by sequence number): name -> (operator,
#: segments?, knobs, counters, stream).  ``simultaneous`` offers
#: two-sided blocks.  ``obr`` runs on the workload's segment twin (same
#: seeds, cardinalities and fan-out): an obr pair of *points* resolves
#: to its own MINDIST and is reported at once, while 1 534 of these
#: resolved pairs re-enter the queue through ``_push``, where the
#: row's sequence number is threaded from the key just made.  ``semi``
#: puts ``SemiJoinEstimator`` on the shared base and ``Q_M``; its
#: seen-set and d_max charges were added at e067f10 (the commit before
#: the semi-join's hooks read a block's columns).
GOLDEN_ESTIMATOR_PATHS = {
    "simultaneous": (
        IncrementalDistanceJoin, False,
        dict(max_pairs=TOPK_PAIRS, node_policy="simultaneous"),
        {
            "queue_inserts": (10131, None),
            "queue_size": (None, 9971),
            "estimator_trims": (7435, None),
            "pruned_range": (6019, None),
            "dist_calcs": (16004, None),
            "bound_calcs": (4131, None),
            "node_io": (36, None),
        },
        GOLDEN_TOPK_STREAM,
    ),
    "obr": (
        IncrementalDistanceJoin, True,
        dict(max_pairs=TOPK_PAIRS, leaf_mode="obr"),
        {
            "queue_inserts": (6709, None),
            "queue_size": (None, 3731),
            "estimator_trims": (2374, None),
            "pruned_range": (5476, None),
            "dist_calcs": (2151, None),
            "bound_calcs": (15735, None),
            "node_io": (23, None),
        },
        "d244a3447b2c7c937bcb76db9c84521b8c0c8ee8",
    ),
    "semi": (
        IncrementalDistanceSemiJoin, False,
        dict(max_pairs=100),
        {
            "queue_inserts": (1493, None),
            "queue_size": (None, 1270),
            "estimator_trims": (130, None),
            "pruned_range": (3269, None),
            "pruned_seen": (275, None),
            "pruned_dmax": (3591, None),
            "dist_calcs": (6496, None),
            "bound_calcs": (4504, None),
            "node_io": (29, None),
        },
        "c7ba86a721ce4c0f353233d1cabcd0d8ae9bca42",
    ),
}

#: The semi-join without ``max_pairs``: no estimator, so the d_max
#: hooks alone ask for the rows' batch bounds.  Drained to the last
#: outer object (187 rows); captured at e067f10.  dmax_strategy ->
#: (counters, stream).
GOLDEN_SEMI_UNBOUNDED = {
    "local": (
        {
            "queue_inserts": (2288, None),
            "queue_size": (None, 1633),
            "pruned_seen": (3856, None),
            "pruned_dmax": (7672, None),
            "dist_calcs": (7897, None),
            "bound_calcs": (4125, None),
            "node_io": (29, None),
        },
        "3afab9ea1682c8ad8fb8d6cfb3ed8e70b1e74f94",
    ),
    "global_all": (
        {
            "queue_inserts": (1414, None),
            "queue_size": (None, 1079),
            "pruned_seen": (3244, None),
            "pruned_dmax": (8546, None),
            "dist_calcs": (7897, None),
            "bound_calcs": (4125, None),
            "node_io": (29, None),
        },
        "3afab9ea1682c8ad8fb8d6cfb3ed8e70b1e74f94",
    ),
}


def observed(counters, golden):
    """The registry's readings in the ``(value, peak)`` shape of a
    golden table."""
    return {
        name: (
            None if value is None else counters.value(name),
            None if peak is None else counters.peak(name),
        )
        for name, (value, peak) in golden.items()
    }


def test_sequential_join_work_counters_match_golden():
    load = build_tiger_workload(scale=SCALE)
    join = IncrementalDistanceJoin(
        load.tree1, load.tree2, JoinSpec(max_pairs=PAIRS),
        counters=load.counters,
    )
    produced = sum(1 for __ in join)
    assert produced == PAIRS
    assert load.counters.value("dist_calcs") == GOLDEN_DIST_CALCS
    assert load.counters.value("node_io") == GOLDEN_NODE_IO
    assert load.counters.value("pairs_reported") == PAIRS


def test_hybrid_queue_spill_counters_match_golden():
    """What is queued, spilled and read back is pinned too: a change
    to the disk tier's banding or to what an expansion enqueues fails
    here, not as a quiet shift in the bench artifacts."""
    load = build_tiger_workload(scale=SCALE)
    join = IncrementalDistanceJoin(
        load.tree1, load.tree2, JoinSpec(queue="hybrid", queue_dt=HYBRID_DT),
        counters=load.counters,
    )
    assert len(list(islice(join, PAIRS))) == PAIRS
    assert observed(load.counters, GOLDEN_HYBRID) == GOLDEN_HYBRID


@pytest.mark.parametrize("heap_class", [BinaryHeap, PairingHeap])
def test_k_bounded_join_counters_match_golden(heap_class):
    """What the estimator trims and the deep memory queue holds is
    pinned, rows and tie order included, under either heap: the queue
    may change how it orders its rows, never which rows or when."""
    load = build_tiger_workload(scale=SCALE)
    join = IncrementalDistanceJoin(
        load.tree1, load.tree2,
        JoinSpec(max_pairs=TOPK_PAIRS, heap_class=heap_class),
        counters=load.counters,
    )
    stream = hashlib.sha1()
    for r in join:
        stream.update(f"{r.distance.hex()},{r.oid1},{r.oid2};".encode())
    assert observed(load.counters, GOLDEN_TOPK) == GOLDEN_TOPK
    assert stream.hexdigest() == GOLDEN_TOPK_STREAM


def segment_twin(load):
    """``load``'s maps as short segments: trees and a fresh registry,
    built the way :func:`build_tiger_workload` builds its own."""
    counters = CounterRegistry()
    trees = [
        bulk_load_str(
            segments(len(points)), max_entries=50, buffer_pages=256,
            counters=counters, dim=2,
        )
        for segments, points in (
            (water_segments, load.points1), (roads_segments, load.points2)
        )
    ]
    counters.reset()
    return (*trees, counters)


@pytest.mark.parametrize("heap_class", [BinaryHeap, PairingHeap])
@pytest.mark.parametrize("path", list(GOLDEN_ESTIMATOR_PATHS))
def test_estimator_path_counters_match_golden(path, heap_class):
    """The estimator's other entrances do exactly the parent's work:
    same rows in the same order, same trims, same queue."""
    operator, segments, knobs, golden, golden_stream = (
        GOLDEN_ESTIMATOR_PATHS[path]
    )
    load = build_tiger_workload(scale=SCALE)
    tree1, tree2, counters = (
        segment_twin(load) if segments
        else (load.tree1, load.tree2, load.counters)
    )
    join = operator(
        tree1, tree2, JoinSpec(heap_class=heap_class, **knobs),
        counters=counters,
    )
    stream = hashlib.sha1()
    for r in join:
        stream.update(f"{r.distance.hex()},{r.oid1},{r.oid2};".encode())
    assert counters.value("estimator_trims") > 0
    assert observed(counters, golden) == golden
    assert stream.hexdigest() == golden_stream


@pytest.mark.parametrize("strategy", list(GOLDEN_SEMI_UNBOUNDED))
def test_unbounded_semi_join_counters_match_golden(strategy, numpy_leg):
    """Without an estimator the semi-join's d_max hooks still charge
    one bound per row and prune the parent's rows, on both legs."""
    golden, golden_stream = GOLDEN_SEMI_UNBOUNDED[strategy]
    load = build_tiger_workload(scale=SCALE)
    join = IncrementalDistanceSemiJoin(
        load.tree1, load.tree2, JoinSpec(dmax_strategy=strategy),
        counters=load.counters,
    )
    stream = hashlib.sha1()
    for r in join:
        stream.update(f"{r.distance.hex()},{r.oid1},{r.oid2};".encode())
    assert load.counters.value("pairs_reported") == len(load.tree1)
    assert observed(load.counters, golden) == golden
    assert stream.hexdigest() == golden_stream


#: The same workload through SQL, so the planner's traversal choice is
#: pinned with the work it causes: name -> (statement, the traversal
#: EXPLAIN shows, rows, dist_calcs, node_reads, queue_inserts, peak
#: queue_size).  At this scale a leaf of Roads is ~1 828 wide, so K =
#: 1 000 (D ~ 403) stays on Even.
SQL_HEAD = "SELECT * FROM water, roads, DISTANCE(water.geom, roads.geom) AS d "
GOLDEN_SQL = {
    "top10": (
        f"{SQL_HEAD}ORDER BY d STOP AFTER 10",
        "simultaneous (D ~ 40.3 <= 0.2 x leaf 1828)",
        10, 1993, 86, 1364, 1335,
    ),
    "top1000": (
        f"{SQL_HEAD}ORDER BY d STOP AFTER 1000",
        "even (D ~ 403.2 > 0.2 x leaf 1828)",
        1000, 9528, 342, 3864, 3229,
    ),
    "within25": (
        f"{SQL_HEAD}WHERE d <= 25 ORDER BY d",
        "simultaneous (D ~ 25.0 <= 0.2 x leaf 1828)",
        7, 270, 86, 49, 41,
    ),
    "semi": (
        "SELECT *, MIN(d) FROM water, roads, "
        "DISTANCE(water.geom, roads.geom) AS d "
        "GROUP BY water.geom ORDER BY d STOP AFTER 100",
        "even (semi-join)",
        100, 6496, 255, 1493, 1270,
    ),
    "shards4": (
        f"{SQL_HEAD}ORDER BY d STOP AFTER 1000 SHARDS 4",
        "even (SHARDS)",
        1000, 11263, 432, 10870, 1556,
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_SQL))
def test_sql_counters_match_golden(case, numpy_leg):
    sql, traversal, *golden = GOLDEN_SQL[case]
    load = build_tiger_workload(scale=SCALE)
    db = Database(counters=load.counters)
    db.create_relation("water", load.tree1)
    db.create_relation("roads", load.tree2)
    plan = db.physical_plan(sql)
    rows = list(plan.rows())
    counters = load.counters
    assert str(plan.join_op.traversal) == traversal
    assert [
        len(rows), counters.value("dist_calcs"),
        counters.value("node_reads"), counters.value("queue_inserts"),
        counters.peak("queue_size"),
    ] == golden


def test_goldens_are_repeatable_within_process():
    # Two cold runs in one process agree exactly -- the goldens pin a
    # deterministic quantity, not a flaky one.
    results = []
    for __ in range(2):
        load = build_tiger_workload(scale=SCALE)
        load.cold_caches()
        load.reset_counters()
        join = IncrementalDistanceJoin(
            load.tree1, load.tree2, JoinSpec(max_pairs=PAIRS),
            counters=load.counters,
        )
        sum(1 for __ in join)
        results.append((
            load.counters.value("dist_calcs"),
            load.counters.value("node_io"),
        ))
    assert results[0] == results[1] == (GOLDEN_DIST_CALCS, GOLDEN_NODE_IO)


# ----------------------------------------------------------------------
# the write path: tree shape under insert/delete, and the standing
# join's delta stream -- captured at 97d7018 (the commit before
# ChooseSubtree went lazy, the probe moved onto the batch kernels and
# the deltas came from the repair)
# ----------------------------------------------------------------------

WRITE_SEED = 1998
WRITE_PRELOAD = 80
WRITE_OPS = 360


def write_script():
    """``(op, side, oid, point)`` steps: ``WRITE_PRELOAD`` inserts
    alternating sides, then ``WRITE_OPS`` seeded inserts and deletes.
    Half the points sit on a 16 x 16 lattice, so duplicates, distance
    ties and zero-area MBRs occur."""
    rng = random.Random(WRITE_SEED)
    live = {1: {}, 2: {}}
    script = []
    for step in range(WRITE_PRELOAD + WRITE_OPS):
        side = 1 + step % 2 if step < WRITE_PRELOAD else rng.choice((1, 2))
        if step >= WRITE_PRELOAD and live[side] and rng.random() < 0.45:
            oid = rng.choice(sorted(live[side]))
            script.append(("delete", side, oid, live[side].pop(oid)))
            continue
        if rng.random() < 0.5:
            coords = (float(rng.randrange(16)), float(rng.randrange(16)))
        else:
            coords = (rng.uniform(0.0, 15.0), rng.uniform(0.0, 15.0))
        live[side][step] = Point(coords)
        script.append(("insert", side, step, live[side][step]))
    return script


def tree_digest(tree):
    """SHA-1 of the tree walked root-down: each node's level, then its
    entries in order -- rectangle, and the oid or the child's walk."""
    sha = hashlib.sha1()

    def walk(node_id):
        node = tree.read_node(node_id)
        sha.update(f"[{node.level}".encode())
        for entry in node.entries:
            corners = ",".join(c.hex() for c in entry.rect.lo + entry.rect.hi)
            sha.update(f"({corners}".encode())
            if node.is_leaf:
                sha.update(f"#{entry.oid})".encode())
            else:
                walk(entry.child_id)
                sha.update(b")")
        sha.update(b"]")

    walk(tree.root_id)
    return sha.hexdigest()


#: fan-out -> (tree digest, forced_reinserts, node_reads); the reads
#: are taken before the digest's own walk.
GOLDEN_WRITE_TREES = {
    8: ("dd9ff77dd05d6ad59211e29342ecd29a654d140f", 128, 3240),
    50: ("9f94bb256508de3a29acd2898e4a0e097bc6704a", 30, 1530),
}

#: name -> (spec knobs, frontier, delta-stream digest, the
#: ``WRITE_COUNTERS``).  The stream is the SHA-1 of every delta's ``op,seq,distance.hex(),oid1,
#: oid2;`` from the bootstrap on.  ``k5`` keeps one runner-up, so
#: retractions exhaust the frontier and refill; ``k200_near`` holds
#: fewer than K pairs for most of the script.
WRITE_COUNTERS = (
    "live_probe_pairs", "dist_calcs", "bound_calcs", "node_reads",
    "live_repairs", "live_refills",
)
GOLDEN_WRITE_STANDING = {
    "k5": (
        dict(max_pairs=5), 1,
        "49aba3fbb1f7e303e2b29df697d78ff67200e204",
        (746, 2255, 2618, 3106, 360, 6),
    ),
    "k200": (
        dict(max_pairs=200), None,
        "71ace0ff536e247dc4717a76fdc9ccffc523ec54",
        (3493, 4278, 1853, 3316, 360, 0),
    ),
    "k200_near": (
        dict(max_pairs=200, max_distance=1.5), None,
        "b28fa8bfcf412b13cab719330143ff5e378128d1",
        (1528, 1796, 1676, 2863, 360, 0),
    ),
    "range": (
        dict(min_distance=0.5, max_distance=2.0), None,
        "1a4e0d9c5e4b9c79250a840833618f09c759cf8d",
        (1945, 2363, 1816, 2960, 360, 0),
    ),
}
#: The two fan-out-8 trees every case above leaves behind.
GOLDEN_WRITE_STANDING_TREES = (
    "013c4764048d5705fabb0a148e4ae81f1fc2750f",
    "8961fb6032b4598ad341382299e98711d3d0545b",
)


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_leg(request, monkeypatch):
    """Both kernel legs in one run: the goldens hold with the batch
    kernels and under ``REPRO_NO_NUMPY=1``."""
    if request.param == "no-numpy":
        monkeypatch.setenv(DISABLE_ENV, "1")
    elif numpy_or_none() is None:
        pytest.skip("numpy is not importable")


def observe_write_tree(fanout):
    tree = RStarTree(max_entries=fanout)
    for op, __, oid, point in write_script():
        if op == "insert":
            tree.insert(obj=point, oid=oid)
        else:
            assert tree.delete(oid, Rect.from_point(point))
    reads = tree.counters.value("node_reads")
    return (
        tree_digest(tree), tree.counters.value("forced_reinserts"), reads,
    )


def observe_write_standing(knobs, frontier):
    counters = CounterRegistry()
    trees = {
        side: RStarTree(max_entries=8, counters=counters) for side in (1, 2)
    }
    script = write_script()
    for __, side, oid, point in script[:WRITE_PRELOAD]:
        trees[side].insert(obj=point, oid=oid)
    counters.reset()
    standing = StandingJoin(
        trees[1], trees[2], JoinSpec(**knobs),
        counters=counters, frontier=frontier,
    )
    for op, side, oid, point in script[WRITE_PRELOAD:]:
        if op == "insert":
            standing.insert(oid, point, side=side)
        else:
            standing.delete(oid, side=side)
    stream = hashlib.sha1()
    for d in standing.poll():
        stream.update(
            f"{d.op},{d.seq},{d.distance.hex()},{d.oid1},{d.oid2};".encode()
        )
    return (
        stream.hexdigest(),
        tuple(counters.value(name) for name in WRITE_COUNTERS),
        (tree_digest(trees[1]), tree_digest(trees[2])),
    )


@pytest.mark.parametrize("fanout", list(GOLDEN_WRITE_TREES))
def test_write_path_tree_shape_matches_golden(fanout, numpy_leg):
    """ChooseSubtree, the split and forced reinsertion put every entry
    where the parent commit put it, node for node."""
    assert observe_write_tree(fanout) == GOLDEN_WRITE_TREES[fanout]


@pytest.mark.parametrize("case", list(GOLDEN_WRITE_STANDING))
def test_write_path_delta_stream_matches_golden(case, numpy_leg):
    """A repair emits the parent commit's deltas -- op, order, seq --
    for the parent commit's work."""
    knobs, frontier, golden_stream, golden = GOLDEN_WRITE_STANDING[case]
    stream, counters, trees = observe_write_standing(knobs, frontier)
    assert dict(zip(WRITE_COUNTERS, counters)) == dict(
        zip(WRITE_COUNTERS, golden)
    )
    assert stream == golden_stream
    assert trees == GOLDEN_WRITE_STANDING_TREES


def test_write_path_goldens_cover_the_refill():
    refills = WRITE_COUNTERS.index("live_refills")
    assert GOLDEN_WRITE_STANDING["k5"][3][refills] > 0
