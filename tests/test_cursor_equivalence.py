"""The central cursor property: a join suspended and resumed at
arbitrary quantum boundaries -- with every cursor round-tripped
through pickled bytes -- produces the identical ordered result stream,
identical tie groups, and identical counter totals as an uninterrupted
run of the same spec."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.pairs import CandidateBlock
from repro.core.pqueue import _records, _unrolled
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.point import Point
from repro.service.overhead import resumed_join
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree

point_lists = st.lists(
    st.tuples(st.floats(0, 100), st.floats(0, 100)),
    min_size=2,
    max_size=20,
)

spec_knobs = st.fixed_dictionaries({
    "tie_break": st.sampled_from(["depth_first", "breadth_first"]),
    "node_policy": st.sampled_from(["even", "basic"]),
    "queue": st.sampled_from(["memory", "hybrid", "adaptive"]),
    "max_pairs": st.integers(5, 60),
})


def build_spec(knobs):
    extra = {"queue_dt": 7.5} if knobs["queue"] == "hybrid" else {}
    return JoinSpec(**knobs, **extra)


def run_interrupted(operator_cls, t1, t2, spec, boundaries):
    """Consume the join, suspending at each boundary (results-so-far
    count) through a pickled-bytes cursor round trip."""
    counters = CounterRegistry()
    join = operator_cls(t1, t2, spec, counters=counters)
    results = []
    cuts = sorted(set(boundaries))
    while True:
        target = next((c for c in cuts if c > len(results)), None)
        exhausted = True
        for result in join:
            results.append(result)
            if target is not None and len(results) >= target:
                exhausted = False
                break
        if exhausted:
            return results, counters
        blob = pickle.dumps(join.save())
        join = operator_cls.load(
            pickle.loads(blob), t1, t2, counters=counters
        )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    point_lists,
    point_lists,
    spec_knobs,
    st.lists(st.integers(1, 50), min_size=1, max_size=6),
)
def test_property_suspend_resume_equivalence(
    raw_a, raw_b, knobs, boundaries
):
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    t1 = make_tree(points_a, max_entries=4)
    t2 = make_tree(points_b, max_entries=4)
    spec = build_spec(knobs)

    reference_counters = CounterRegistry()
    reference = list(IncrementalDistanceJoin(
        t1, t2, spec, counters=reference_counters
    ))

    got, got_counters = run_interrupted(
        IncrementalDistanceJoin, t1, t2, spec, boundaries
    )

    # Identical ordered results -- including within tie groups (the
    # restored KeyMaker seq keeps the total order bit-identical).
    assert [(r.distance, r.oid1, r.oid2) for r in got] == \
        [(r.distance, r.oid1, r.oid2) for r in reference]
    # Identical counter totals: save/load is invisible to the
    # instrumentation (node_io excepted -- the warm buffer pool makes
    # the *reference* rerun cheaper, so compare the join-level ones).
    for name in ("dist_calcs", "queue_inserts", "pairs_examined"):
        assert got_counters.counter(name).value == \
            reference_counters.counter(name).value, name


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    point_lists,
    point_lists,
    st.integers(1, 20),
    st.integers(3, 40),
)
def test_property_semi_join_resumed_harness(raw_a, raw_b, every, cap):
    """The overhead harness preserves the semi-join stream too."""
    points_a = [Point(xy) for xy in raw_a]
    points_b = [Point(xy) for xy in raw_b]
    t1 = make_tree(points_a, max_entries=4)
    t2 = make_tree(points_b, max_entries=4)
    spec = JoinSpec(max_pairs=cap)

    reference = list(IncrementalDistanceSemiJoin(
        t1, t2, spec, counters=CounterRegistry()
    ))
    got = list(resumed_join(
        t1, t2, spec, operator_cls=IncrementalDistanceSemiJoin,
        counters=CounterRegistry(), every=every,
    ))
    assert [(r.distance, r.oid1, r.oid2) for r in got] == \
        [(r.distance, r.oid1, r.oid2) for r in reference]


def test_stop_after_crosses_many_quanta():
    """A deterministic (non-Hypothesis) anchor: a STOP AFTER style
    bounded join suspended every 3 results across its whole run."""
    t1 = make_tree(make_points(60, seed=71), max_entries=4)
    t2 = make_tree(make_points(80, seed=72), max_entries=4)
    spec = JoinSpec(max_pairs=50, queue="hybrid", queue_dt=5.0)

    reference = list(IncrementalDistanceJoin(
        t1, t2, spec, counters=CounterRegistry()
    ))
    got, __ = run_interrupted(
        IncrementalDistanceJoin, t1, t2, spec,
        boundaries=list(range(3, 50, 3)),
    )
    assert [(r.distance, r.oid1, r.oid2) for r in got] == \
        [(r.distance, r.oid1, r.oid2) for r in reference]
    assert len(got) == 50


#: The deterministic join-level counters (buffer traffic depends on how
#: warm the reference run left the pool).
JOIN_COUNTERS = (
    "queue_inserts", "queue_size", "bound_calcs", "dist_calcs",
    "pruned_range", "estimator_trims", "pairs_reported",
)


@pytest.mark.parametrize("kernel", ["scalar", "auto"])
@pytest.mark.parametrize("operator_cls,knobs", [
    (IncrementalDistanceJoin, dict(max_pairs=80)),
    (IncrementalDistanceJoin,
     dict(max_pairs=80, node_policy="simultaneous")),
    (IncrementalDistanceJoin, dict(max_pairs=80, leaf_mode="obr")),
    (IncrementalDistanceSemiJoin, dict(max_pairs=30)),
])
def test_estimator_join_suspended_between_every_two_nexts(
    operator_cls, knobs, kernel
):
    """With ``max_pairs`` the estimator's M (Q_M heap, insertion
    counter, running total) is part of the cursor: a pickled round
    trip after *every* ``next()`` resumes to the same rows, counter
    values and peaks as the uninterrupted run."""
    t1 = make_tree(make_points(60, seed=71), max_entries=4)
    t2 = make_tree(make_points(80, seed=72), max_entries=4)
    spec = JoinSpec(kernel=kernel, **knobs)

    reference_counters = CounterRegistry()
    reference = list(operator_cls(
        t1, t2, spec, counters=reference_counters
    ))
    got, got_counters = run_interrupted(
        operator_cls, t1, t2, spec,
        boundaries=range(1, knobs["max_pairs"]),
    )

    assert [(r.distance, r.oid1, r.oid2) for r in got] == \
        [(r.distance, r.oid1, r.oid2) for r in reference]
    assert reference_counters.value("estimator_trims") > 0
    for name in JOIN_COUNTERS:
        want, have = (
            reference_counters.counter(name), got_counters.counter(name)
        )
        assert (have.value, have.peak) == (want.value, want.peak), name


def _tiers_holding_blocks(queue):
    """Which tiers of a (possibly adaptive) hybrid queue hold rows of
    late-materialised blocks right now."""
    hybrid = getattr(queue, "_inner", None) or queue
    if not hasattr(hybrid, "_bands"):
        return set()  # adaptive queue still warming up

    def has_block(values):
        return any(type(v) is CandidateBlock for v in values)

    tiers = set()
    if has_block(v for __, v in _unrolled(hybrid._heap)):
        tiers.add("heap")
    if has_block(v for __, v in hybrid._list):
        tiers.add("list")
    for band, page_ids in hybrid._bands.items():
        for page_id in page_ids:
            records = _records(hybrid.store.peek(page_id).payload)
            if has_block(v for __, v in records):
                tiers.add("disk")
                if band in hybrid._open_page:
                    tiers.add("open page")
    return tiers


@pytest.mark.parametrize("node_policy", ["even", "simultaneous"])
@pytest.mark.parametrize("queue", ["hybrid", "adaptive"])
def test_blocks_in_every_tier_suspended_at_every_next(queue, node_policy):
    """An unbounded spilling join keeps whole expansions as blocks in
    the heap, the unorganised list and the disk bands (open, partly
    filled pages included).  A cursor taken there carries ``(key,
    Pair)`` rows -- the schema did not move -- and resuming from it
    after *every* ``next()`` gives the uninterrupted rows, counter
    values and peaks."""
    t1 = make_tree(make_points(60, seed=71), max_entries=4)
    t2 = make_tree(make_points(80, seed=72), max_entries=4)
    extra = {"queue_dt": 2.0} if queue == "hybrid" else {}
    spec = JoinSpec(queue=queue, node_policy=node_policy, **extra)

    reference_counters = CounterRegistry()
    reference = list(IncrementalDistanceJoin(
        t1, t2, spec, counters=reference_counters
    ))

    counters = CounterRegistry()
    join = IncrementalDistanceJoin(t1, t2, spec, counters=counters)
    got = []
    seen_tiers = set()
    for __ in range(150):
        got.append(next(join))
        seen_tiers |= _tiers_holding_blocks(join._queue)
        state = pickle.loads(pickle.dumps(join.save()))
        join = IncrementalDistanceJoin.load(
            state, t1, t2, counters=counters
        )
        # What was restored is materialised pairs, in every tier.
        assert not _tiers_holding_blocks(join._queue)
    got.extend(join)

    assert seen_tiers == {"heap", "list", "disk", "open page"}
    assert [(r.distance, r.oid1, r.oid2) for r in got] == \
        [(r.distance, r.oid1, r.oid2) for r in reference]
    for name in JOIN_COUNTERS + (
        "pq_disk_writes", "pq_disk_reads", "pq_heap_size"
    ):
        want, have = (
            reference_counters.counter(name), counters.counter(name)
        )
        assert (have.value, have.peak) == (want.value, want.peak), name
