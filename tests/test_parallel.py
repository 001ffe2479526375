"""Tests for the partitioned engine's parts: the STR tiler, the task
plumbing, the inline router, and the ``PARALLEL n`` / CLI
``--workers n`` spellings of ``SHARDS n``."""

import collections
import math
import multiprocessing
import pickle
import random
import threading

import pytest

from repro.core.distance_join import JoinResult
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
from repro.shard.merge import OrderedStreamMerge
from repro.shard.partition import STRPartitioner, reference_point
from repro.util.counters import CounterRegistry

from tests.conftest import brute_force_nn, make_points, make_tree


def results_as_triples(join):
    return [(r.distance, r.oid1, r.oid2) for r in join]


def keep_even_outer(pair):
    return pair.item1.kind != OBJ or pair.item1.oid % 2 == 0


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


def result(distance, oid1, oid2):
    return JoinResult(distance, oid1, None, oid2, None)


def triples(results):
    return [(r.distance, r.oid1, r.oid2) for r in results]


def scripted_streams(rng, tasks=5, rows=12):
    """Ordered per-task streams over a few distances, so tie groups
    span streams; some streams are empty."""
    streams = {}
    for task_id in range(tasks):
        distances = sorted(
            rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0))
            for __ in range(rng.randint(0, rows))
        )
        streams[task_id] = [
            result(d, rng.randrange(10), rng.randrange(40))
            for d in distances
        ]
    return streams


def valid_bounds(rng, streams, share=0.5):
    """Lower bounds no stream undercuts, on about ``share`` of the
    tasks (all of them at ``share=1``)."""
    bounds = {}
    for task_id, rows in streams.items():
        if rng.random() >= share:
            continue
        if rows:
            bounds[task_id] = max(
                0.0, rows[0].distance - rng.choice((0.0, 0.25, 0.5))
            )
        else:
            bounds[task_id] = rng.uniform(0.0, 6.0)
    return bounds


class TestMerge:
    """The watermark merge over scripted task streams, pulled through
    one ``pull(task_id) -> (results, done)`` callable."""

    def merge(self, streams, batch, bounds=None, **options):
        pulls, admitted = [], []

        def pull(task_id):
            pulls.append(task_id)
            rows = streams[task_id]
            taken, streams[task_id] = rows[:batch], rows[batch:]
            return taken, not streams[task_id]

        merge = OrderedStreamMerge(
            pull, sorted(streams), lower_bounds=bounds,
            on_admit=admitted.append, **options,
        )
        return merge, pulls, admitted

    def test_tie_groups_come_out_canonical(self):
        merge, __, ___ = self.merge({
            0: [result(1.0, 5, 0), result(2.0, 1, 1)],
            1: [result(1.0, 2, 7), result(1.0, 2, 3), result(3.0, 0, 0)],
        }, batch=1)
        assert [(r.distance, r.oid1, r.oid2) for r in merge] == [
            (1.0, 2, 3), (1.0, 2, 7), (1.0, 5, 0), (2.0, 1, 1),
            (3.0, 0, 0),
        ]

    def test_pending_task_is_pulled_only_once_due(self):
        merge, pulls, admitted = self.merge({
            0: [result(d, 0, d) for d in (1.0, 2.0, 3.0)],
            1: [result(d, 1, d) for d in (10.0, 11.0)],
        }, batch=2, bounds={1: 9.0})
        assert [next(merge).distance for __ in range(3)] == [1.0, 2.0, 3.0]
        # Stream 0 ended at 3.0 < 9.0: task 1 is still closed.
        assert pulls == [0, 0] and admitted == []
        assert merge.watermark() == 9.0
        assert [r.distance for r in merge] == [10.0, 11.0]
        assert pulls == [0, 0, 1] and admitted == [1]

    def test_empty_streams_are_pulled_once(self):
        merge, pulls, admitted = self.merge(
            {0: [], 1: [result(1.0, 0, 0)], 2: []}, batch=3,
            bounds={2: 0.5},
        )
        assert triples(merge) == [(1.0, 0, 0)]
        assert sorted(pulls) == [0, 1, 2] and admitted == [2]
        merge, pulls, __ = self.merge({0: [], 1: []}, batch=1)
        assert list(merge) == [] and sorted(pulls) == [0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_output_is_the_canonical_order(self, seed):
        rng = random.Random(seed)
        streams = scripted_streams(rng)
        expected = sorted(
            (r.distance, r.oid1, r.oid2)
            for rows in streams.values() for r in rows
        )
        merge, __, admitted = self.merge(
            streams, batch=rng.randint(1, 4),
            bounds=valid_bounds(rng, streams),
        )
        assert triples(merge) == expected
        # Full consumption opens every pending task exactly once.
        assert len(admitted) == len(set(admitted))

    @pytest.mark.parametrize("batch", [1, 2, 3, 20])
    def test_each_task_is_pulled_until_done_and_no_further(self, batch):
        rng = random.Random(batch)
        streams = scripted_streams(rng)
        sizes = {task_id: len(rows) for task_id, rows in streams.items()}
        merge, pulls, __ = self.merge(
            streams, batch=batch, bounds=valid_bounds(rng, streams),
        )
        list(merge)
        assert collections.Counter(pulls) == {
            task_id: max(1, math.ceil(size / batch))
            for task_id, size in sizes.items()
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_semi_join_keeps_each_outer_nearest(self, seed):
        rng = random.Random(100 + seed)
        streams = scripted_streams(rng)
        canonical = sorted(
            (r.distance, r.oid1, r.oid2)
            for rows in streams.values() for r in rows
        )
        expected, seen = [], set()
        for row in canonical:
            if row[1] not in seen:
                seen.add(row[1])
                expected.append(row)
        merge, __, ___ = self.merge(
            streams, batch=rng.randint(1, 4),
            bounds=valid_bounds(rng, streams), dedup_outer=True,
            expected_outer=len(seen) if seed % 2 else None,
        )
        assert triples(merge) == expected

    def test_semi_join_stops_pulling_once_every_outer_is_seen(self):
        merge, pulls, __ = self.merge({
            0: [result(1.0, 0, 0), result(2.0, 0, 1), result(3.0, 0, 2)],
            1: [result(1.5, 1, 0), result(4.0, 1, 1)],
        }, batch=1, dedup_outer=True, expected_outer=2)
        assert triples(merge) == [(1.0, 0, 0), (1.5, 1, 0)]
        # Neither stream is drained: the outer set is complete.
        assert pulls == [0, 1, 0, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_restored_merge_continues_the_stream(self, seed):
        rng = random.Random(200 + seed)
        streams = scripted_streams(rng)
        bounds = valid_bounds(rng, streams)
        batch = rng.randint(1, 4)
        reference = triples(self.merge(
            {t: list(rows) for t, rows in streams.items()}, batch,
            dict(bounds),
        )[0])
        merge, __, admitted = self.merge(streams, batch, dict(bounds))
        cut = rng.randint(0, len(reference))
        taken = [next(merge) for __ in range(cut)]
        state = pickle.loads(pickle.dumps(merge.state()))
        opened = list(admitted)
        # The tasks' own progress lives in ``streams``, as a router's
        # task states live beside the merge state in its cursor.
        resumed, __, readmitted = self.merge(streams, batch, dict(bounds))
        resumed.restore(state)
        assert resumed.admitted_ids() == merge.admitted_ids()
        assert triples(taken) + triples(resumed) == reference
        # Restoring replays admission silently: only tasks still
        # pending at the cut are announced again.
        assert not set(opened) & set(readmitted)

    @pytest.mark.parametrize("seed", range(6))
    def test_early_stop_opens_only_tasks_it_needs(self, seed):
        rng = random.Random(300 + seed)
        streams = scripted_streams(rng, tasks=8)
        bounds = valid_bounds(rng, streams, share=1.0)
        total = sum(len(rows) for rows in streams.values())
        merge, pulls, admitted = self.merge(
            streams, batch=rng.randint(1, 4), bounds=bounds,
        )
        taken = [next(merge) for __ in range(rng.randint(1, total))]
        last = taken[-1].distance
        # A task is opened only once the frontier reaches its bound,
        # and a closed task is never pulled.
        assert all(bounds[task_id] <= last for task_id in admitted)
        assert set(pulls) <= set(admitted)
        assert merge.admitted_ids() == sorted(admitted)


# ----------------------------------------------------------------------
# equivalence with the sequential algorithm
# ----------------------------------------------------------------------


class TestRouterJoin:
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
        with pytest.raises(ValueError, match="shards"):
            ShardRouterJoin(tree_a, tree_b, shards=0)
        with pytest.raises(ValueError, match="batch_size"):
            ShardRouterJoin(tree_a, tree_b, batch_size=0)
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
        assert counters.value("shard_rows_reported") == 50
        assert counters.value("shard_pairs_total") == len(join.tasks)
        assert counters.value("dist_calcs") > 0
        assert counters.value("shard_batches") == join.batches_received

    def test_stop_after_prunes_shard_pairs(self, small_trees):
        # Lazy, MINDIST-bounded admission.
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

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_starts_no_thread_or_process(
        self, points_small_a, points_small_b, workers, monkeypatch
    ):
        def refuse(started):
            raise AssertionError(f"PARALLEL started {started!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", refuse
        )
        db = small_db(points_small_a, points_small_b)
        rows = list(db.execute(
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            f"ORDER BY d STOP AFTER 25 PARALLEL {workers}"
        ))
        assert len(rows) == 25

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
