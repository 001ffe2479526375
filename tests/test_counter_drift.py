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
from itertools import islice

import pytest

from repro.bench.workloads import build_tiger_workload
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.heap import BinaryHeap, PairingHeap
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.datasets.tiger_like import roads_segments, water_segments
from repro.rtree.bulk import bulk_load_str
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
#: puts ``SemiJoinEstimator`` on the shared base and ``Q_M``.
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
            "dist_calcs": (6496, None),
            "bound_calcs": (4504, None),
            "node_io": (29, None),
        },
        "c7ba86a721ce4c0f353233d1cabcd0d8ae9bca42",
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
        load.tree1, load.tree2,
        max_pairs=PAIRS, counters=load.counters,
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
        load.tree1, load.tree2,
        queue="hybrid", queue_dt=HYBRID_DT, counters=load.counters,
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


def test_goldens_are_repeatable_within_process():
    # Two cold runs in one process agree exactly -- the goldens pin a
    # deterministic quantity, not a flaky one.
    results = []
    for __ in range(2):
        load = build_tiger_workload(scale=SCALE)
        load.cold_caches()
        load.reset_counters()
        join = IncrementalDistanceJoin(
            load.tree1, load.tree2,
            max_pairs=PAIRS, counters=load.counters,
        )
        sum(1 for __ in join)
        results.append((
            load.counters.value("dist_calcs"),
            load.counters.value("node_io"),
        ))
    assert results[0] == results[1] == (GOLDEN_DIST_CALCS, GOLDEN_NODE_IO)
