"""Tests for the partitioned engine's parts: the STR tiler, the task
plumbing, the router on its two backends (inline and process lanes),
the process lanes' failure contract, and the ``PARALLEL n`` / CLI
``--workers n`` spellings of ``SHARDS n``."""

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
from repro.query.executor import Database
from repro.query.parser import parse
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.shard import ShardRouterJoin, ShardRouterSemiJoin
from repro.shard.executor import StreamExecutor
from repro.shard.partition import STRPartitioner, reference_point
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_nn, make_points, make_tree


def results_as_triples(join):
    return [(r.distance, r.oid1, r.oid2) for r in join]


# Lane filters live at module level: a process lane unpickles them by
# reference.  Module state is per lane process.
_SLEPT = []


def keep_even_outer(pair):
    return pair.item1.kind != OBJ or pair.item1.oid % 2 == 0


def broken_filter(pair):
    raise ZeroDivisionError("boom")


def slow_once_filter(pair):
    if not _SLEPT:
        _SLEPT.append(True)
        time.sleep(0.5)
    return True


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


class TestSTRTiler:
    def test_reference_point_is_mbr_center(self):
        rect = Rect((0.0, 2.0), (4.0, 10.0))
        assert reference_point(rect) == (2.0, 6.0)

    def test_balances_skewed_data(self):
        # All mass in one corner plus one far outlier: quantile cuts
        # still split it into roughly equal groups.
        points = [
            Point((x / 100.0, y / 100.0))
            for x in range(10) for y in range(10)
        ]
        tree = bulk_load_str(points + [Point((100.0, 100.0))])
        tiler = STRPartitioner(4, [entry.rect for entry in tree.items()])
        sizes = sorted(
            len(g) for g in tiler.assign(tree.items()).values()
        )
        assert sum(sizes) == 101
        assert max(sizes) <= 40

    @pytest.mark.parametrize("tiles", [1, 4, 6, 9])
    def test_assignment_partitions_every_object(self, tiles):
        points = make_points(120, seed=8)
        tree = make_tree(points)
        tiler = STRPartitioner(
            tiles, [entry.rect for entry in tree.items()]
        )
        groups = tiler.assign(tree.items())
        assigned = sorted(
            obj.oid for group in groups.values() for obj in group
        )
        assert assigned == list(range(120))
        assert all(groups[idx] for idx in groups)

    def test_assignment_is_a_function_of_the_rect(self):
        tree = make_tree(make_points(50, seed=3))
        rects = [entry.rect for entry in tree.items()]
        rect = Rect((31.2, 77.7), (31.2, 77.7))
        assert STRPartitioner(9, rects).tile_of(rect) == \
            STRPartitioner(9, rects).tile_of(rect)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            STRPartitioner(4, [])


# ----------------------------------------------------------------------
# task plumbing
# ----------------------------------------------------------------------


class TestTasks:
    def test_tasks_are_picklable(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ShardRouterJoin(tree_a, tree_b, shards=2)
        assert join.tasks
        for task in join.tasks:
            clone = pickle.loads(pickle.dumps(task))
            assert clone.task_id == task.task_id
            assert len(clone.objects1) == len(task.objects1)

    def test_task_translates_to_original_oids(self, small_trees):
        tree_a, tree_b, truth = small_trees
        join = ShardRouterJoin(tree_a, tree_b, shards=4)
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


class TestRouterJoin:
    # The process lanes' full, ranged and semi-join streams are
    # tests/test_shard_equivalence.py's fixed-seed example; each lane
    # start costs a process, so the lanes appear here only where they
    # change what is checked.

    @pytest.mark.parametrize("batch_size", [4, 64])
    @pytest.mark.parametrize("shards", [1, 2, 4, 9])
    def test_matches_brute_force(self, small_trees, shards, batch_size):
        tree_a, tree_b, truth = small_trees
        join = ShardRouterJoin(
            tree_a, tree_b, shards=shards, batch_size=batch_size,
        )
        assert results_as_triples(join) == truth

    def test_stop_after_k_prefix(self, small_trees):
        tree_a, tree_b, truth = small_trees
        for k in (1, 10, 57):
            join = ShardRouterJoin(
                tree_a, tree_b, JoinSpec(max_pairs=k), shards=4,
            )
            assert results_as_triples(join) == truth[:k]

    def test_medium_dataset(self, medium_trees):
        tree_a, tree_b, __, ___, truth = medium_trees
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=500), shards=6,
        )
        assert results_as_triples(join) == truth[:500]

    def test_distance_window(self, small_trees):
        tree_a, tree_b, truth = small_trees
        expected = [t for t in truth if 5.0 <= t[0] <= 20.0]
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(min_distance=5.0, max_distance=20.0),
            shards=4,
        )
        assert results_as_triples(join) == expected

    def test_pair_filter_sees_original_oids(self, small_trees):
        tree_a, tree_b, truth = small_trees
        expected = [t for t in truth if t[1] % 2 == 0][:30]
        join = ShardRouterJoin(
            tree_a, tree_b,
            JoinSpec(pair_filter=keep_even_outer, max_pairs=30), shards=4,
        )
        assert results_as_triples(join) == expected

    def test_unpicklable_filter_falls_back_to_serial(self, small_trees):
        tree_a, tree_b, __ = small_trees
        counters = CounterRegistry()
        join = ShardRouterJoin(
            tree_a, tree_b,
            JoinSpec(pair_filter=lambda pair: True),  # lambdas don't pickle
            workers=2, backend="process", counters=counters,
        )
        assert join.backend == "serial"
        assert counters.value("parallel_backend_fallback") == 1

    def test_results_carry_payload_objects(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=5), shards=2,
        )
        for result in join:
            assert isinstance(result.obj1, Point)
            assert isinstance(result.obj2, Point)

    def test_empty_inputs_yield_nothing(self):
        empty = RStarTree(dim=2)
        other = make_tree(make_points(10, seed=4))
        assert list(ShardRouterJoin(empty, other, shards=2)) == []
        assert list(ShardRouterJoin(other, empty, shards=2)) == []

    def test_dimension_mismatch_rejected(self):
        t2 = RStarTree(dim=2)
        t3 = RStarTree(dim=3)
        with pytest.raises(JoinError):
            ShardRouterJoin(t2, t3)

    def test_invalid_arguments_rejected(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with pytest.raises(ValueError):
            ShardRouterJoin(tree_a, tree_b, workers=0)
        with pytest.raises(ValueError, match="backend"):
            ShardRouterJoin(tree_a, tree_b, backend="thread")
        with pytest.raises(ValueError):
            ShardRouterJoin(tree_a, tree_b, JoinSpec(max_pairs=0))

    def test_close_stops_iteration(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ShardRouterJoin(tree_a, tree_b, shards=2)
        next(join)
        join.close()
        with pytest.raises(StopIteration):
            next(join)

    def test_context_manager_closes(self, small_trees):
        tree_a, tree_b, __ = small_trees
        with ShardRouterJoin(tree_a, tree_b, shards=2) as join:
            next(join)
        with pytest.raises(StopIteration):
            next(join)

    def test_counters_aggregate_inline_work(self, small_trees):
        tree_a, tree_b, __ = small_trees
        counters = CounterRegistry()
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=50), shards=4,
            counters=counters,
        )
        assert sum(1 for __ in join) == 50
        assert join.backend == "serial"
        assert counters.value("shard_rows_reported") == 50
        assert counters.value("shard_pairs_total") == len(join.tasks)
        assert counters.value("dist_calcs") > 0
        assert counters.value("shard_batches") > 0
        # Inline tasks run on no lane, so there is no per-lane split.
        assert join.worker_breakdown() == {}

    def test_stop_after_prunes_shard_pairs(self, small_trees):
        # Lazy, MINDIST-bounded admission on the inline backend.
        tree_a, tree_b, truth = small_trees
        counters = CounterRegistry()
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(max_pairs=20), shards=4,
            counters=counters,
        )
        assert results_as_triples(join) == truth[:20]
        snap = counters.snapshot()
        assert snap["shard_pairs_pruned"] > 0
        assert snap["shard_pairs_routed"] + snap["shard_pairs_pruned"] \
            == snap["shard_pairs_total"]

    def test_lanes_filter_and_count_like_inline(self, small_trees):
        """On two lanes: the pair filter sees original ids, and the
        lanes' counters merge into the router's registry."""
        tree_a, tree_b, truth = small_trees
        counters = CounterRegistry()
        join = ShardRouterJoin(
            tree_a, tree_b,
            JoinSpec(pair_filter=keep_even_outer, max_pairs=20),
            workers=2, backend="process", shards=4, counters=counters,
        )
        assert join.backend == "process"
        assert results_as_triples(join) == \
            [t for t in truth if t[1] % 2 == 0][:20]
        assert counters.value("shard_rows_reported") == 20
        assert counters.value("shard_pairs_total") == len(join.tasks)
        assert counters.value("dist_calcs") > 0
        assert counters.value("shard_batches") > 0
        breakdown = join.worker_breakdown()
        assert breakdown
        assert all(label.startswith("pid-") for label in breakdown)
        assert sum(
            s.value("pairs_reported") for s in breakdown.values()
        ) == counters.value("pairs_reported")
        # Lazy, MINDIST-bounded admission applies on lanes too.
        snap = counters.snapshot()
        assert snap["shard_pairs_pruned"] > 0
        assert snap["shard_pairs_routed"] + snap["shard_pairs_pruned"] \
            == snap["shard_pairs_total"]


class TestLaneFaults:
    """Every lane failure is a JoinError that releases the lanes, and
    iteration afterwards reports exhaustion."""

    def assert_failed_closed(self, join):
        assert join._executor._closed
        with pytest.raises(StopIteration):
            next(join)

    def test_lanes_do_not_fork_the_caller(self):
        """A lane forked while another lane's manager thread holds its
        executor's lock inherits the lock held and can hang; lanes come
        from a fork server instead (no process starts here)."""
        executor = StreamExecutor(lambda task_id: None, 2)
        try:
            assert [
                lane._mp_context.get_start_method()
                for lane in executor._lanes
            ] == ["forkserver", "forkserver"]
        finally:
            executor.close()

    def test_killed_lane_is_a_join_error(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ShardRouterJoin(
            tree_a, tree_b, workers=1, backend="process",
            shards=4, batch_size=4, timeout=30,
        )
        next(join)
        lanes = join._executor._lanes
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

    def test_raising_task_names_the_task(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(pair_filter=broken_filter),
            workers=1, backend="process", shards=4,
        )
        assert join.backend == "process"
        with pytest.raises(JoinError, match=r"task \d+.*boom"):
            next(join)
        self.assert_failed_closed(join)

    def test_timeout_is_a_join_error(self, small_trees):
        tree_a, tree_b, __ = small_trees
        join = ShardRouterJoin(
            tree_a, tree_b, JoinSpec(pair_filter=slow_once_filter),
            workers=1, backend="process", shards=4, timeout=0.05,
        )
        assert join.backend == "process"
        with pytest.raises(JoinError, match="timed out"):
            next(join)
        self.assert_failed_closed(join)


class TestRouterSemiJoin:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_brute_force_nn(
        self, points_small_a, points_small_b, shards
    ):
        tree_a = make_tree(points_small_a)
        tree_b = make_tree(points_small_b)
        truth = brute_force_nn(points_small_a, points_small_b)
        join = ShardRouterSemiJoin(tree_a, tree_b, shards=shards)
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
        join = ShardRouterSemiJoin(
            tree_a, tree_b, JoinSpec(max_pairs=10), shards=4,
        )
        assert len(list(join)) == 10

    def test_max_distance_limits_reported_objects(
        self, points_small_a, points_small_b
    ):
        tree_a = make_tree(points_small_a)
        tree_b = make_tree(points_small_b)
        truth = brute_force_nn(points_small_a, points_small_b)
        limit = 3.0
        join = ShardRouterSemiJoin(
            tree_a, tree_b, JoinSpec(max_distance=limit), shards=4,
        )
        results = list(join)
        expected = {o for o, (d, __) in truth.items() if d <= limit}
        assert {r.oid1 for r in results} == expected


# ----------------------------------------------------------------------
# SQL / CLI wiring: PARALLEL n and --workers n spell SHARDS n
# ----------------------------------------------------------------------


def small_db(points_a, points_b):
    db = Database()
    db.create_relation("a", points_a)
    db.create_relation("b", points_b)
    return db


class TestSqlParallel:
    def test_parallel_hint_is_shards(self):
        query = parse(
            "SELECT * FROM a, b, DISTANCE(a.g, b.g) AS d "
            "ORDER BY d STOP AFTER 10 PARALLEL 4"
        )
        assert query.stop_after == 10
        assert query.shards == 4
        assert not hasattr(query, "parallel")

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

    def test_executor_rejects_descending_query(self):
        # A Query object assembled without the parser must still be
        # rejected at planning time.
        query = parse(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "PARALLEL 2"
        )
        query.descending = True
        db = small_db(make_points(10, seed=1), make_points(10, seed=2))
        with pytest.raises(QueryError):
            list(db.execute(query))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sql_parallel_matches_sequential(
        self, points_small_a, points_small_b, workers
    ):
        db = small_db(points_small_a, points_small_b)
        base = (
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d STOP AFTER 25"
        )
        sequential = [
            (r.d, r.oid1, r.oid2) for r in db.execute(base)
        ]
        parallel = [
            (r.d, r.oid1, r.oid2)
            for r in db.execute(base + f" PARALLEL {workers}")
        ]
        assert parallel == sequential

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sql_parallel_semi_join(
        self, points_small_a, points_small_b, workers
    ):
        db = small_db(points_small_a, points_small_b)
        base = (
            "SELECT *, MIN(d) FROM a, b, "
            "DISTANCE(a.geom, b.geom) AS d GROUP BY a.geom"
        )
        sequential = {r.oid1: r.d for r in db.execute(base)}
        parallel = {
            r.oid1: r.d
            for r in db.execute(base + f" PARALLEL {workers}")
        }
        assert parallel == pytest.approx(sequential)

    def test_explain_parallel_is_explain_shards(
        self, points_small_a, points_small_b
    ):
        db = small_db(points_small_a, points_small_b)
        sql = (
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "STOP AFTER 5 "
        )
        parallel = db.explain(sql + "PARALLEL 2")
        shards = db.explain(sql + "SHARDS 2")
        assert parallel.operator == "ShardRouterJoin"
        assert parallel.shards == 2
        assert parallel.pretty() == shards.pretty()
        route = [
            line for line in parallel.pretty().splitlines()
            if line.startswith("  shard")
        ]
        assert route[0] == "  shards: 2 per relation"
        assert route[1].startswith("  shard route (str): ")

    def test_cli_workers_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        for path, seed in ((csv1, 5), (csv2, 6)):
            path.write_text("".join(
                f"{p.coords[0]},{p.coords[1]}\n"
                for p in make_points(30, seed=seed)
            ))
        args = [
            "query",
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d STOP AFTER 3",
            "--relation", f"a={csv1}",
            "--relation", f"b={csv2}",
        ]
        outputs = []
        for flags in ([], ["--workers", "2"], ["--shards", "2"]):
            assert cli_main(args + flags) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].strip().splitlines()) == 3
        assert outputs[0] == outputs[1] == outputs[2]
        with pytest.raises(SystemExit, match="spelling"):
            cli_main(args + ["--workers", "2", "--shards", "2"])
