"""Larger cross-checking integration tests ("slow" but bounded).

These run the TIGER-like workload at a small scale and cross-verify
independent implementations against each other -- join vs nested loop,
semi-join vs NN baseline vs k=1 kNN join, R-tree vs quadtree -- on the
same data, which catches disagreements no unit test would.
"""

import pytest

from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.nn_semijoin import nn_semi_join
from repro.bench.workloads import build_tiger_workload, suggest_dt
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.knn_join import KNearestNeighborJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.geometry.rectangle import Rect
from repro.quadtree import PRQuadtree
from repro.rtree.validate import validate_tree
from repro.util.counters import CounterRegistry


@pytest.fixture(scope="module")
def workload():
    return build_tiger_workload(scale=0.005, max_entries=16)


class TestCrossValidation:
    def test_trees_valid(self, workload):
        validate_tree(workload.tree1, allow_underfull=True)
        validate_tree(workload.tree2, allow_underfull=True)

    def test_join_vs_nested_loop(self, workload):
        join = IncrementalDistanceJoin(
            workload.tree1, workload.tree2, counters=workload.counters
        )
        incremental = []
        for result in join:
            incremental.append(result.distance)
            if len(incremental) == 500:
                break
        brute = nested_loop_join(
            workload.points1, workload.points2, max_pairs=500
        )
        assert incremental == pytest.approx(
            [r.distance for r in brute]
        )

    def test_three_semi_join_implementations_agree(self, workload):
        semi = [
            r.distance
            for r in IncrementalDistanceSemiJoin(
                workload.tree1, workload.tree2,
                counters=workload.counters,
            )
        ]
        knn1 = [
            r.distance
            for r in KNearestNeighborJoin(
                workload.tree1, workload.tree2, k=1,
                counters=workload.counters,
            )
        ]
        baseline = [
            r.distance
            for r in nn_semi_join(
                [(e.oid, e.obj) for e in workload.tree1.items()],
                workload.tree2,
            )
        ]
        assert semi == pytest.approx(knn1)
        assert semi == pytest.approx(baseline)

    def test_quadtree_agrees_with_rtree(self, workload):
        bounds = Rect((0.0, 0.0), (10000.0, 10000.0))
        quad1 = PRQuadtree(bounds, bucket_capacity=16)
        for point in workload.points1:
            quad1.insert(point)
        quad_join = IncrementalDistanceJoin(
            quad1, workload.tree2, counters=CounterRegistry()
        )
        rtree_join = IncrementalDistanceJoin(
            workload.tree1, workload.tree2,
            counters=CounterRegistry(),
        )
        for __ in range(300):
            assert next(quad_join).distance == pytest.approx(
                next(rtree_join).distance
            )

    def test_hybrid_queue_agrees_with_memory(self, workload):
        dt = suggest_dt(workload)
        memory = IncrementalDistanceJoin(
            workload.tree1, workload.tree2, counters=workload.counters
        )
        hybrid = IncrementalDistanceJoin(
            workload.tree1, workload.tree2,
            JoinSpec(queue="hybrid", queue_dt=dt), counters=CounterRegistry(),
        )
        for __ in range(1000):
            assert next(memory).distance == pytest.approx(
                next(hybrid).distance
            )

    def test_join_correct_after_update_churn(self, workload):
        """Dynamic scenario: heavy insert/delete churn on one side,
        then the join must still match brute force exactly."""
        import random

        from repro.geometry.metrics import EUCLIDEAN
        from repro.geometry.point import Point
        from repro.geometry.rectangle import Rect
        from tests.conftest import make_tree

        rng = random.Random(251)
        points = list(workload.points1[:150])
        tree = make_tree(points, max_entries=8)
        live = {i: p for i, p in enumerate(points)}
        # Churn: delete half, insert replacements, delete some of those.
        for oid in list(live)[::2]:
            assert tree.delete(oid, Rect.from_point(live.pop(oid)))
        for __ in range(60):
            p = Point((rng.uniform(0, 10000), rng.uniform(0, 10000)))
            live[tree.insert(obj=p)] = p
        for oid in list(live)[-20:]:
            assert tree.delete(oid, Rect.from_point(live.pop(oid)))
        validate_tree(tree)

        join = IncrementalDistanceJoin(
            tree, workload.tree2, counters=CounterRegistry()
        )
        got = []
        for result in join:
            got.append((result.distance, result.oid1))
            if len(got) == 200:
                break
        truth = sorted(
            (EUCLIDEAN.distance(p, q), oid)
            for oid, p in live.items()
            for q in workload.points2
        )[:200]
        assert [g[0] for g in got] == pytest.approx(
            [t[0] for t in truth]
        )

    def test_adaptive_queue_in_semi_join(self, workload):
        semi_plain = [
            r.distance
            for r in IncrementalDistanceSemiJoin(
                workload.tree1, workload.tree2,
                counters=workload.counters,
            )
        ]
        semi_adaptive = [
            r.distance
            for r in IncrementalDistanceSemiJoin(
                workload.tree1, workload.tree2, JoinSpec(queue="adaptive"),
                counters=CounterRegistry(),
            )
        ]
        assert semi_plain == pytest.approx(semi_adaptive)

    def test_estimation_invisible_in_results(self, workload):
        plain = IncrementalDistanceJoin(
            workload.tree1, workload.tree2,
            JoinSpec(estimate=False, max_pairs=400),
            counters=workload.counters,
        )
        estimated = IncrementalDistanceJoin(
            workload.tree1, workload.tree2, JoinSpec(max_pairs=400),
            counters=CounterRegistry(),
        )
        assert [r.distance for r in plain] == pytest.approx(
            [r.distance for r in estimated]
        )
