"""Certified progress estimation: the estimator's ratcheting lower
bound, the pure queue/operator probes feeding it, and the property
that certification survives quantum boundaries and pickled
suspend/resume without ever overstating true progress."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.pqueue import (
    AdaptiveHybridPairQueue,
    HybridPairQueue,
    MemoryPairQueue,
)
from repro.core.spec import JoinSpec
from repro.query.executor import Database
from repro.service.session import QuerySource
from repro.util.counters import CounterRegistry
from repro.util.telemetry import ProgressEstimator

from tests.conftest import make_points, make_tree


class TestProgressEstimator:
    def test_stop_after_fraction_is_certified(self):
        est = ProgressEstimator()
        report = est.report({"produced": 3, "max_pairs": 10})
        assert report.lower_bound == pytest.approx(0.3)
        assert report.phase == "running"

    def test_done_forces_completion(self):
        est = ProgressEstimator()
        report = est.report({"produced": 0, "max_pairs": None,
                             "done": True})
        assert report.lower_bound == 1.0
        assert report.estimate == 1.0
        assert report.phase == "done"

    def test_zero_produced_is_init(self):
        report = ProgressEstimator().report(
            {"produced": 0, "max_pairs": 10}
        )
        assert report.phase == "init"
        assert report.lower_bound == 0.0

    def test_lower_bound_ratchets_against_regressing_signals(self):
        est = ProgressEstimator()
        est.report({"produced": 8, "max_pairs": 10})
        # A later probe reporting less (e.g. a different operator
        # detail after resume) must not move the floor backwards.
        report = est.report({"produced": 2, "max_pairs": 10})
        assert report.lower_bound == pytest.approx(0.8)

    def test_distance_fraction_raises_only_the_estimate(self):
        est = ProgressEstimator()
        report = est.report({
            "produced": 1, "max_pairs": 100,
            "head_distance": 50.0, "min_distance": 0.0,
            "max_distance": 100.0,
        })
        assert report.lower_bound == pytest.approx(0.01)
        assert report.estimate == pytest.approx(0.5)
        assert report.detail["distance_fraction"] == pytest.approx(0.5)

    def test_descending_distance_fraction(self):
        report = ProgressEstimator().report({
            "produced": 0, "max_pairs": None, "descending": True,
            "head_distance": 75.0, "min_distance": 0.0,
            "max_distance": 100.0,
        })
        assert report.estimate == pytest.approx(0.25)

    def test_unbounded_range_yields_no_fraction(self):
        report = ProgressEstimator().report({
            "produced": 5, "max_pairs": None,
            "head_distance": 10.0, "max_distance": float("inf"),
        })
        assert "distance_fraction" not in report.detail
        assert report.estimate == report.lower_bound

    def test_total_hint_raises_only_the_estimate(self):
        est = ProgressEstimator(total_hint=20)
        report = est.report({"produced": 10, "max_pairs": None})
        assert report.lower_bound == 0.0
        assert report.estimate == pytest.approx(0.5)

    def test_signal_supplied_hint(self):
        report = ProgressEstimator().report(
            {"produced": 5, "max_pairs": None, "total_hint": 10}
        )
        assert report.estimate == pytest.approx(0.5)

    def test_estimate_never_below_lower_bound_nor_above_one(self):
        est = ProgressEstimator(total_hint=2)
        report = est.report({"produced": 9, "max_pairs": 10})
        assert report.lower_bound <= report.estimate <= 1.0

    def test_state_roundtrip_preserves_floor(self):
        est = ProgressEstimator(total_hint=50)
        est.report({"produced": 6, "max_pairs": 10})
        restored = ProgressEstimator.restore(
            pickle.loads(pickle.dumps(est.state()))
        )
        assert restored.lower_bound == pytest.approx(0.6)
        assert restored.total_hint == 50
        report = restored.report({"produced": 0, "max_pairs": 10})
        assert report.lower_bound == pytest.approx(0.6)

    def test_restore_rejects_foreign_state(self):
        with pytest.raises(ValueError):
            ProgressEstimator.restore({"format": "nope"})


class TestQueueProbes:
    def test_memory_queue_head(self):
        queue = MemoryPairQueue()
        assert queue.head_distance() is None
        queue.push((3.0, 1), "a")
        queue.push((1.0, 2), "b")
        assert queue.head_distance() == 1.0
        assert queue.occupancy() == {
            "total": 2, "memory": 2, "disk": 0
        }

    def test_hybrid_queue_head_matches_peek(self):
        queue = HybridPairQueue(dt=2.0)
        for i in range(20):
            queue.push((float(i), i), i)
        probed = queue.head_distance()
        key, __ = queue.peek()
        assert probed <= key[0]
        occupancy = queue.occupancy()
        assert occupancy["total"] == len(queue)
        assert occupancy["disk"] + occupancy["memory"] == \
            occupancy["total"]
        assert occupancy["disk"] > 0  # bands past the cursor spilled

    def test_hybrid_disk_head_is_a_band_floor(self):
        queue = HybridPairQueue(dt=2.0)
        for i in range(30):
            queue.push((float(i), i), i)
        # The probe must stay a lower bound on every subsequent pop,
        # including while the head lives only on the disk tier.
        while len(queue):
            probed = queue.head_distance()
            key, __ = queue.pop()
            assert probed is not None and probed <= key[0]
        assert queue.head_distance() is None

    def test_probes_charge_no_counters(self):
        counters = CounterRegistry()
        queue = HybridPairQueue(dt=2.0, counters=counters)
        for i in range(30):
            queue.push((float(i), i), i)
        before = counters.full_snapshot()
        for __ in range(5):
            queue.head_distance()
            queue.occupancy()
        after = counters.full_snapshot()
        assert after.values == before.values
        assert after.peaks == before.peaks

    def test_adaptive_queue_probe_both_phases(self):
        queue = AdaptiveHybridPairQueue()
        assert queue.head_distance() is None
        queue.push((5.0, 1), "x")
        assert queue.head_distance() == 5.0
        assert queue.occupancy()["total"] == 1


def build_join(max_pairs=None, counters=None):
    tree_a = make_tree(make_points(60, seed=11), counters=counters)
    tree_b = make_tree(make_points(60, seed=12), counters=counters)
    return IncrementalDistanceJoin(
        tree_a, tree_b, JoinSpec(max_pairs=max_pairs), counters=counters,
    )


class TestOperatorSignals:
    def test_signals_shape_and_done_transition(self):
        join = build_join(max_pairs=5)
        rows = iter(join)
        signals = join.progress_signals()
        assert signals["operator"] == "IncrementalDistanceJoin"
        assert signals["produced"] == 0
        assert signals["max_pairs"] == 5
        for __ in range(5):
            next(rows)
        signals = join.progress_signals()
        assert signals["produced"] == 5
        assert signals["done"]

    def test_signals_are_counter_free(self):
        counters = CounterRegistry()
        join = build_join(max_pairs=10, counters=counters)
        rows = iter(join)
        for __ in range(3):
            next(rows)
        before = counters.full_snapshot()
        for __ in range(10):
            join.progress_signals()
        after = counters.full_snapshot()
        assert after.values == before.values
        assert after.peaks == before.peaks

    def test_head_distance_monotone_while_draining(self):
        join = build_join(max_pairs=40)
        rows = iter(join)
        heads = []
        for __ in range(40):
            next(rows)
            head = join.progress_signals()["head_distance"]
            if head is not None:
                heads.append(head)
        assert heads == sorted(heads)


SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 30"
)


def build_db():
    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(50, seed=21))
    db.create_relation("b", make_points(50, seed=22))
    return db


class TestPlanSignals:
    def test_plan_surfaces_operator_signals(self):
        plan = build_db().physical_plan(SQL)
        rows = plan.rows()
        for __ in range(10):
            next(rows)
        signals = plan.progress_signals()
        assert signals["max_pairs"] == 30
        assert signals["emitted"] == 10

    def test_explanation_contributes_total_hint(self):
        plan = build_db().physical_plan(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d"
        )
        __ = plan.explanation  # price the plan first
        rows = plan.rows()
        next(rows)
        signals = plan.progress_signals()
        assert signals.get("total_hint", 0) > 0

    def test_explain_analyze_reports_progress(self):
        analyzed = build_db().explain_analyze(SQL)
        assert analyzed.progress is not None
        assert analyzed.progress["phase"] == "done"
        assert analyzed.progress["lower_bound"] == 1.0
        assert "progress:" in analyzed.pretty()


# ----------------------------------------------------------------------
# The certification property (satellite): across arbitrary quantum
# boundaries and pickled suspend/resume cycles, the session-level lower
# bound is monotone non-decreasing, never exceeds the true completed
# fraction, and ends at exactly 1.0.
# ----------------------------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    quanta=st.lists(
        st.integers(min_value=1, max_value=17),
        min_size=1, max_size=12,
    ),
    suspend_mask=st.integers(min_value=0, max_value=2 ** 12 - 1),
    stop_after=st.integers(min_value=1, max_value=60),
)
def test_certified_lower_bound_property(quanta, suspend_mask,
                                        stop_after):
    db = build_db()
    sql = (
        "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
        f"ORDER BY d STOP AFTER {stop_after}"
    )
    true_total = min(stop_after, 50 * 50)
    source = QuerySource(db, sql)
    rows = source.open()
    estimator = ProgressEstimator()
    produced = 0
    bounds = []
    exhausted = False
    for index, quantum in enumerate(quanta):
        for __ in range(quantum):
            try:
                next(rows)
            except StopIteration:
                exhausted = True
                break
            produced += 1
        signals = source.plan.progress_signals()
        if exhausted:
            signals["done"] = True
        report = estimator.report(signals)
        bounds.append(report.lower_bound)
        # Certification: never overstate the truly completed fraction.
        true_fraction = produced / true_total
        if not exhausted:
            assert report.lower_bound <= true_fraction + 1e-9
        assert 0.0 <= report.lower_bound <= 1.0
        assert report.lower_bound <= report.estimate <= 1.0
        if exhausted:
            break
        if suspend_mask & (1 << index):
            # Pickled suspend/resume: a fresh process would rebuild
            # both the source and the estimator from these bytes.
            blob = pickle.dumps(
                {"source": source.save(),
                 "progress": estimator.state()}
            )
            state = pickle.loads(blob)
            source = QuerySource(db, sql)
            source.load(state["source"])
            rows = source.open()
            estimator = ProgressEstimator.restore(state["progress"])
            assert estimator.lower_bound == bounds[-1]
    # Monotone non-decreasing across every boundary.
    assert bounds == sorted(bounds)
    # Drain to completion: the final report must certify 1.0.
    while True:
        try:
            next(rows)
        except StopIteration:
            break
    signals = source.plan.progress_signals()
    signals["done"] = True
    assert estimator.report(signals).lower_bound == 1.0
