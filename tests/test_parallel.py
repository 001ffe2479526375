"""Tests for the partitioned parallel join engine."""

import os
import pickle
import signal
import time

import pytest

from repro.core.pairs import OBJ
from repro.core.spec import JoinSpec
from repro.errors import JoinError, QueryError, QuerySyntaxError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.parallel import (
    GridPartitioner,
    ParallelDistanceJoin,
    ParallelDistanceSemiJoin,
    make_partitioner,
    reference_point,
)
from repro.query.executor import Database
from repro.query.parser import parse
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_nn, make_points, make_tree


def results_as_triples(join):
    return [(r.distance, r.oid1, r.oid2) for r in join]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


class TestPartitioners:
    def test_reference_point_is_mbr_center(self):
        rect = Rect((0.0, 2.0), (4.0, 10.0))
        assert reference_point(rect) == (2.0, 6.0)

    def test_grid_assignment_partitions_every_object(self):
        points = make_points(100, seed=3)
        tree = make_tree(points)
        partitioner = GridPartitioner(tree.bounds(), partitions=4)
        groups = partitioner.assign(tree.items())
        assigned = [obj.oid for group in groups.values() for obj in group]
        assert sorted(assigned) == list(range(100))
        # non-empty groups only
        assert all(groups[idx] for idx in groups)

    def test_grid_tile_rects_cover_bounds(self):
        bounds = Rect((0.0, 0.0), (10.0, 10.0))
        partitioner = GridPartitioner(bounds, partitions=4)
        assert len(partitioner.tiles) == 4
        for tile in partitioner.tiles:
            assert bounds.contains_rect(tile.rect)

    def test_grid_assignment_is_deterministic(self):
        bounds = Rect((0.0, 0.0), (10.0, 10.0))
        p1 = GridPartitioner(bounds, partitions=9)
        p2 = GridPartitioner(bounds, partitions=9)
        rect = Rect((3.2, 7.7), (3.2, 7.7))
        assert p1.tile_of(rect) == p2.tile_of(rect)

    def test_str_balances_skewed_data(self):
        # All mass in one corner: a uniform grid puts everything in one
        # tile, STR splits it into roughly equal groups.
        points = [
            Point((x / 100.0, y / 100.0))
            for x in range(10) for y in range(10)
        ]
        tree = bulk_load_str(points + [Point((100.0, 100.0))])
        grid = make_partitioner("grid", tree, tree, 4)
        str_part = make_partitioner("str", tree, tree, 4)
        grid_sizes = sorted(
            len(g) for g in grid.assign(tree.items()).values()
        )
        str_sizes = sorted(
            len(g) for g in str_part.assign(tree.items()).values()
        )
        assert max(grid_sizes) == 100  # grid collapses
        assert max(str_sizes) <= 40    # STR stays balanced

    def test_str_assignment_partitions_every_object(self):
        points = make_points(120, seed=8)
        tree = make_tree(points)
        partitioner = make_partitioner("str", tree, tree, 6)
        groups = partitioner.assign(tree.items())
        assigned = sorted(
            obj.oid for group in groups.values() for obj in group
        )
        assert assigned == list(range(120))

    def test_unknown_method_rejected(self):
        tree = make_tree(make_points(10, seed=1))
        with pytest.raises(Exception):
            make_partitioner("voronoi", tree, tree, 4)


# ----------------------------------------------------------------------
# task plumbing
# ----------------------------------------------------------------------


class TestTasks:
    def test_tasks_are_picklable(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ParallelDistanceJoin(tree_a, tree_b, workers=2)
        assert join.tasks
        for task in join.tasks:
            clone = pickle.loads(pickle.dumps(task))
            assert clone.task_id == task.task_id
            assert len(clone.objects1) == len(task.objects1)

    def test_task_translates_to_original_oids(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = ParallelDistanceJoin(tree_a, tree_b, workers=2,
                                    partitions=4)
        oids1 = set()
        oids2 = set()
        for task in join.tasks:
            oids1.update(o.oid for o in task.objects1)
            oids2.update(o.oid for o in task.objects2)
        assert oids1 == {e.oid for e in tree_a.items()}
        assert oids2 == {e.oid for e in tree_b.items()}


# ----------------------------------------------------------------------
# equivalence with the sequential algorithm
# ----------------------------------------------------------------------


class TestParallelJoin:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("thread", 4),
    ])
    @pytest.mark.parametrize("method", ["grid", "str"])
    def test_matches_brute_force(
        self, small_trees, backend, workers, method
    ):
        tree_a, tree_b, truth = small_trees
        join = ParallelDistanceJoin(
            tree_a, tree_b, workers=workers, backend=backend,
            partitions=4, partition_method=method, batch_size=16,
        )
        assert results_as_triples(join) == truth

    def test_stop_after_k_prefix(self, small_trees):
        tree_a, tree_b, truth = small_trees
        for k in (1, 10, 57):
            join = ParallelDistanceJoin(
                tree_a, tree_b, JoinSpec(max_pairs=k), workers=2,
                backend="thread", partitions=4,
            )
            assert results_as_triples(join) == truth[:k]

    def test_medium_dataset(self, medium_trees):
        tree_a, tree_b, __, ___, truth = medium_trees
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=500), workers=3,
            backend="thread", partitions=6,
        )
        assert results_as_triples(join) == truth[:500]

    def test_distance_window(self, small_trees):
        tree_a, tree_b, truth = small_trees
        expected = [t for t in truth if 5.0 <= t[0] <= 20.0]
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(min_distance=5.0, max_distance=20.0),
            workers=2, backend="thread", partitions=4,
        )
        assert results_as_triples(join) == expected

    def test_pair_filter_sees_original_oids(self, small_trees):
        tree_a, tree_b, truth = small_trees
        keep = lambda pair: (
            pair.item1.kind != OBJ or pair.item1.oid % 2 == 0
        )
        expected = [t for t in truth if t[1] % 2 == 0][:30]
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(pair_filter=keep, max_pairs=30),
            workers=2, backend="thread", partitions=4,
        )
        assert results_as_triples(join) == expected

    def test_process_backend(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=40), workers=2,
            backend="process", partitions=2, batch_size=8,
        )
        assert results_as_triples(join) == truth[:40]

    def test_unpicklable_filter_falls_back_to_threads(
        self, small_trees
    ):
        tree_a, tree_b, __ = small_trees
        counters = CounterRegistry()
        join = ParallelDistanceJoin(
            tree_a, tree_b,
            JoinSpec(pair_filter=lambda pair: True),  # lambdas don't pickle
            workers=2, backend="process", counters=counters,
        )
        assert join.backend == "thread"
        assert counters.value("parallel_backend_fallback") == 1

    def test_results_carry_payload_objects(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=5), workers=2, backend="thread",
        )
        for result in join:
            assert isinstance(result.obj1, Point)
            assert isinstance(result.obj2, Point)

    def test_empty_inputs_yield_nothing(self):
        empty = RStarTree(dim=2)
        other = make_tree(make_points(10, seed=4))
        assert list(ParallelDistanceJoin(empty, other, workers=2)) == []
        assert list(ParallelDistanceJoin(other, empty, workers=2)) == []

    def test_dimension_mismatch_rejected(self):
        t2 = RStarTree(dim=2)
        t3 = RStarTree(dim=3)
        with pytest.raises(JoinError):
            ParallelDistanceJoin(t2, t3)

    def test_invalid_arguments_rejected(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with pytest.raises(Exception):
            ParallelDistanceJoin(tree_a, tree_b, workers=0)
        with pytest.raises(Exception):
            ParallelDistanceJoin(tree_a, tree_b, backend="gpu")
        with pytest.raises(Exception):
            ParallelDistanceJoin(tree_a, tree_b, JoinSpec(max_pairs=0))

    def test_close_stops_iteration(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ParallelDistanceJoin(
            tree_a, tree_b, workers=2, backend="thread",
        )
        next(join)
        join.close()
        with pytest.raises(StopIteration):
            next(join)

    def test_context_manager_closes(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with ParallelDistanceJoin(
            tree_a, tree_b, workers=2, backend="thread"
        ) as join:
            next(join)
        with pytest.raises(StopIteration):
            next(join)

    def test_counters_aggregate_worker_work(self, small_trees):
        tree_a, tree_b, __ = small_trees
        counters = CounterRegistry()
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=50), workers=2,
            backend="thread", partitions=4, counters=counters,
        )
        produced = sum(1 for __ in join)
        assert produced == 50
        assert counters.value("shard_rows_reported") == 50
        assert counters.value("shard_pairs_total") == len(join.tasks)
        assert counters.value("dist_calcs") > 0
        assert counters.value("shard_batches") > 0
        breakdown = join.worker_breakdown()
        assert breakdown
        assert sum(
            s.value("pairs_reported") for s in breakdown.values()
        ) == counters.value("pairs_reported")


    def test_stop_after_prunes_shard_pairs(self, small_trees):
        # Lazy, MINDIST-bounded admission applies to every backend.
        tree_a, tree_b, truth = small_trees
        counters = CounterRegistry()
        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(max_pairs=20), workers=2,
            backend="thread", partitions=4, counters=counters,
        )
        assert results_as_triples(join) == truth[:20]
        snap = counters.snapshot()
        assert snap["shard_pairs_pruned"] > 0
        assert snap["shard_pairs_routed"] + snap["shard_pairs_pruned"] \
            == snap["shard_pairs_total"]


class TestExecutorFaults:
    """Every pool failure is a JoinError that releases the pool, and
    iteration afterwards reports exhaustion."""

    def assert_failed_closed(self, join):
        assert join._executor._closed
        with pytest.raises(StopIteration):
            next(join)

    def test_lanes_do_not_fork_the_caller(self):
        """A lane forked while another lane's manager thread holds its
        executor's lock inherits the lock held and can hang; lanes come
        from a fork server instead (no process starts here)."""
        from repro.parallel.executor import make_pool

        pool = make_pool("process", 2)
        try:
            assert [
                lane._mp_context.get_start_method() for lane in pool._lanes
            ] == ["forkserver", "forkserver"]
        finally:
            pool.shutdown()

    def test_killed_lane_is_a_join_error(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ParallelDistanceJoin(
            tree_a, tree_b, workers=2, backend="process",
            partitions=4, batch_size=4, timeout=30,
        )
        next(join)
        lanes = join._executor._pool._lanes
        for lane in lanes:
            for pid in list(lane._processes):
                os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not all(lane._broken for lane in lanes):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(JoinError, match="failed on task"):
            for __ in join:
                pass
        self.assert_failed_closed(join)

    def test_raising_worker_names_the_task(self, small_trees):
        tree_a, tree_b, __ = small_trees

        def broken(pair):
            raise ZeroDivisionError("boom")

        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(pair_filter=broken), workers=2,
            backend="thread", partitions=4,
        )
        with pytest.raises(JoinError, match=r"task \d+.*boom"):
            next(join)
        self.assert_failed_closed(join)

    def test_timeout_is_a_join_error(self, small_trees):
        tree_a, tree_b, __ = small_trees
        slept = []

        def slow_once(pair):
            if not slept:
                slept.append(True)
                time.sleep(0.5)
            return True

        join = ParallelDistanceJoin(
            tree_a, tree_b, JoinSpec(pair_filter=slow_once), workers=2,
            backend="thread", partitions=4, timeout=0.05,
        )
        with pytest.raises(JoinError, match="timed out"):
            next(join)
        self.assert_failed_closed(join)


class TestParallelSemiJoin:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("thread", 4),
    ])
    def test_matches_brute_force_nn(
        self, points_small_a, points_small_b, backend, workers
    ):
        tree_a = make_tree(points_small_a)
        tree_b = make_tree(points_small_b)
        truth = brute_force_nn(points_small_a, points_small_b)
        join = ParallelDistanceSemiJoin(
            tree_a, tree_b, workers=workers, backend=backend,
            partitions=4,
        )
        seen = {}
        previous = -1.0
        for result in join:
            assert result.distance >= previous
            previous = result.distance
            assert result.oid1 not in seen
            seen[result.oid1] = (result.distance, result.oid2)
        assert len(seen) == len(points_small_a)
        for oid, (distance, partner) in seen.items():
            assert distance == pytest.approx(truth[oid][0])

    def test_max_pairs_truncates_output(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ParallelDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_pairs=10), workers=2,
            backend="thread", partitions=4,
        )
        assert len(list(join)) == 10

    def test_max_distance_limits_reported_objects(
        self, points_small_a, points_small_b
    ):
        tree_a = make_tree(points_small_a)
        tree_b = make_tree(points_small_b)
        truth = brute_force_nn(points_small_a, points_small_b)
        limit = 3.0
        join = ParallelDistanceSemiJoin(
            tree_a, tree_b, JoinSpec(max_distance=limit), workers=2,
            backend="thread", partitions=4,
        )
        results = list(join)
        expected = {o for o, (d, __) in truth.items() if d <= limit}
        assert {r.oid1 for r in results} == expected


# ----------------------------------------------------------------------
# SQL / CLI wiring
# ----------------------------------------------------------------------


class TestSqlParallel:
    def test_parse_parallel_hint(self):
        query = parse(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
            "ORDER BY d STOP AFTER 10 PARALLEL 4"
        )
        assert query.stop_after == 10
        assert query.parallel == 4

    def test_parallel_requires_positive_integer(self):
        with pytest.raises(QuerySyntaxError):
            parse(
                "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
                "PARALLEL 0"
            )

    def test_parallel_rejects_descending(self):
        with pytest.raises(QuerySyntaxError):
            parse(
                "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
                "ORDER BY d DESC PARALLEL 2"
            )

    def test_executor_rejects_descending_query(self, small_trees):
        # A Query object assembled without the parser must still be
        # rejected at planning time.
        query = parse(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "PARALLEL 2"
        )
        query.descending = True
        db = Database()
        db.create_relation("a", make_points(10, seed=1))
        db.create_relation("b", make_points(10, seed=2))
        with pytest.raises(QueryError):
            list(db.execute(query))

    def test_sql_parallel_matches_sequential(
        self, points_small_a, points_small_b
    ):
        db = Database()
        db.create_relation("a", points_small_a)
        db.create_relation("b", points_small_b)
        base = (
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d STOP AFTER 25"
        )
        sequential = [
            (r.d, r.oid1, r.oid2) for r in db.execute(base)
        ]
        parallel = [
            (r.d, r.oid1, r.oid2)
            for r in db.execute(base + " PARALLEL 3")
        ]
        assert parallel == sequential

    def test_sql_parallel_semi_join(
        self, points_small_a, points_small_b
    ):
        db = Database()
        db.create_relation("a", points_small_a)
        db.create_relation("b", points_small_b)
        base = (
            "SELECT *, MIN(d) FROM a, b, "
            "DISTANCE(a.geom, b.geom) AS d GROUP BY a.geom"
        )
        sequential = {r.oid1: r.d for r in db.execute(base)}
        parallel = {
            r.oid1: r.d for r in db.execute(base + " PARALLEL 2")
        }
        assert parallel == pytest.approx(sequential)

    def test_explain_reports_parallel_operator(
        self, points_small_a, points_small_b
    ):
        db = Database()
        db.create_relation("a", points_small_a)
        db.create_relation("b", points_small_b)
        plan = db.explain(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "STOP AFTER 5 PARALLEL 4"
        )
        assert plan.operator == "ParallelDistanceJoin"
        assert plan.parallel == 4
        assert "parallel workers: 4" in plan.pretty()

    def test_cli_workers_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        for path, seed in ((csv1, 5), (csv2, 6)):
            path.write_text("".join(
                f"{p.coords[0]},{p.coords[1]}\n"
                for p in make_points(30, seed=seed)
            ))
        code = cli_main([
            "query",
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d STOP AFTER 3",
            "--relation", f"a={csv1}",
            "--relation", f"b={csv2}",
            "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3
