"""Tests for the SHARDS SQL hint, EXPLAIN routing info, and the
shard CLI subcommands."""

import pytest

from repro.cli import main
from repro.errors import QueryError, QuerySyntaxError
from repro.geometry.point import Point
from repro.query.ast_nodes import Query
from repro.query.executor import Database
from repro.query.parser import parse
from repro.query.physical import _operator_for
from repro.shard import clear_caches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_points(n, seed):
    return [
        Point((
            float((i * 31 + seed * 17) % 97),
            float((i * 57 + seed * 29) % 89),
        ))
        for i in range(n)
    ]


def canonical(rows):
    """Sort equal-distance runs by (oid1, oid2): the canonical order
    the router emits directly; the sequential join is free to permute
    within a tie group."""
    out, group, last = [], [], None
    for row in rows:
        if last is not None and row.d != last:
            group.sort(key=lambda r: (r.oid1, r.oid2))
            out.extend(group)
            group = []
        group.append(row)
        last = row.d
    group.sort(key=lambda r: (r.oid1, r.oid2))
    out.extend(group)
    return [tuple(r) for r in out]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def db():
    database = Database()
    database.create_relation("a", make_points(70, 1))
    database.create_relation("b", make_points(80, 2))
    return database


BASE = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 20"
)


class TestParser:
    def test_shards_hint(self):
        query = parse(BASE + " SHARDS 4")
        assert query.shards == 4

    def test_shards_defaults_to_none(self):
        assert parse(BASE).shards is None

    def test_rejects_non_positive(self):
        with pytest.raises(QuerySyntaxError):
            parse(BASE + " SHARDS 0")
        with pytest.raises(QuerySyntaxError):
            parse(BASE + " SHARDS 2.5")

    def test_rejects_desc(self):
        with pytest.raises(QuerySyntaxError):
            parse(
                "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
                "ORDER BY d DESC SHARDS 2"
            )

    def test_rejects_parallel_combination(self):
        with pytest.raises(QuerySyntaxError):
            parse(BASE + " PARALLEL 2 SHARDS 2")

    def test_operator_selection_guards(self):
        query = Query(relation1="a", relation2="b", shards=2,
                      descending=True)
        with pytest.raises(QueryError):
            _operator_for(query)


class TestExecution:
    def test_equals_sequential(self, db):
        # Unbounded: the streams carry the same rows, canonical ties.
        full = BASE.replace(" STOP AFTER 20", "")
        sharded = [tuple(r) for r in db.execute(full + " SHARDS 4")]
        assert sharded == canonical(db.execute(full))

    def test_stop_after_prefix(self, db):
        sharded = [tuple(r) for r in db.execute(BASE + " SHARDS 4")]
        full = BASE.replace(" STOP AFTER 20", "")
        assert sharded == canonical(db.execute(full))[:20]

    def test_semi_join(self, db):
        sql = (
            "SELECT *, MIN(d) FROM a, b, DISTANCE(a.geom, b.geom) "
            "AS d GROUP BY a.geom ORDER BY d"
        )
        sharded = {
            (r.oid1, r.d) for r in db.execute(sql + " SHARDS 3")
        }
        sequential = {(r.oid1, r.d) for r in db.execute(sql)}
        assert sharded == sequential

    def test_counters_exposed(self, db):
        list(db.execute(BASE + " SHARDS 4"))
        snap = db.counters.snapshot()
        assert snap["shard_pairs_total"] == 16
        assert snap["shard_pairs_routed"] >= 1
        assert snap["shard_pairs_routed"] + snap["shard_pairs_pruned"] \
            == snap["shard_pairs_total"]

    def test_explain_reports_route(self, db):
        text = db.explain(BASE + " SHARDS 4").pretty()
        assert "shards: 4 per relation" in text
        assert "shard route (str):" in text
        assert "ShardRouterJoin" in text

    def test_explain_analyze_reports_counters(self, db):
        text = db.explain_analyze(BASE + " SHARDS 3").pretty()
        assert "shard_pairs_routed" in text

    def test_attribute_predicates(self, db):
        database = Database()
        database.create_relation(
            "a", make_points(40, 1),
            attributes={"pop": [float(i) for i in range(40)]},
        )
        database.create_relation("b", make_points(50, 2))
        sql = (
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "WHERE a.pop > 20 ORDER BY d"
        )
        sharded = [
            tuple(r) for r in database.execute(sql + " SHARDS 3")
        ]
        assert sharded == canonical(database.execute(sql))


class TestShardCli:
    @pytest.fixture
    def sources(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run_cli(capsys, "generate", "uniform", "--count", "60",
                "--seed", "3", "--out", a)
        run_cli(capsys, "generate", "uniform", "--count", "70",
                "--seed", "4", "--out", b)
        return a, b

    def test_query_shards_flag(self, capsys, sources):
        a, b = sources
        args = ("--relation", f"a={a}", "--relation", f"b={b}")
        code, plain, __ = run_cli(capsys, "query", BASE, *args)
        assert code == 0
        code, sharded, __ = run_cli(
            capsys, "query", BASE, *args, "--shards", "3"
        )
        assert code == 0
        assert sharded == plain

    def test_shard_build_list_stats(self, tmp_path, capsys, sources):
        a, __ = sources
        catalog_dir = str(tmp_path / "cat")
        code, stdout, __ = run_cli(
            capsys, "shard", "build", a, "--out", catalog_dir,
            "--shards", "4",
        )
        assert code == 0
        assert "fingerprint:" in stdout
        code, stdout, __ = run_cli(capsys, "shard", "list", catalog_dir)
        assert code == 0
        assert "4 shards" in stdout
        code, stdout, __ = run_cli(
            capsys, "shard", "stats", catalog_dir
        )
        assert code == 0
        assert stdout.count("shard ") == 4
        code, stdout, __ = run_cli(
            capsys, "shard", "stats", catalog_dir, "--shard", "0"
        )
        assert code == 0
        assert stdout.count("shard ") == 1

    def test_paged_shards_cursor(self, tmp_path, capsys, sources):
        a, b = sources
        args = ("--relation", f"a={a}", "--relation", f"b={b}")
        cursor = str(tmp_path / "cursor.bin")
        code, first, __ = run_cli(
            capsys, "query", BASE + " SHARDS 3", *args,
            "--page", "8", "--cursor", cursor,
        )
        assert code == 0
        code, second, __ = run_cli(
            capsys, "query", "--resume", cursor, *args, "--page", "12",
        )
        assert code == 0
        code, reference, __ = run_cli(capsys, "query", BASE, *args)
        assert code == 0
        assert (first + second) == reference
