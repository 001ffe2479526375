"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_generate_uniform(self, tmp_path, capsys):
        out = str(tmp_path / "pts.csv")
        code, stdout, __ = run(
            capsys, "generate", "uniform", "--count", "25", "--out", out
        )
        assert code == 0
        assert "25 points" in stdout
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 25
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_generate_water_roads(self, tmp_path, capsys):
        for kind in ("water", "roads"):
            out = str(tmp_path / f"{kind}.csv")
            code, *__ = run(
                capsys, "generate", kind, "--count", "40", "--out", out
            )
            assert code == 0

    def test_generate_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run(capsys, "generate", "clusters", "--count", "30",
            "--seed", "7", "--out", a)
        run(capsys, "generate", "clusters", "--count", "30",
            "--seed", "7", "--out", b)
        assert open(a).read() == open(b).read()


class TestIndexAndInfo:
    @pytest.fixture
    def csv_file(self, tmp_path, capsys):
        out = str(tmp_path / "pts.csv")
        run(capsys, "generate", "uniform", "--count", "120",
            "--out", out)
        return out

    def test_index_and_info(self, tmp_path, capsys, csv_file):
        snapshot = str(tmp_path / "tree.json")
        code, stdout, __ = run(
            capsys, "index", csv_file, "--out", snapshot,
            "--fanout", "8",
        )
        assert code == 0
        assert "indexed 120 points" in stdout
        code, stdout, __ = run(capsys, "info", snapshot)
        assert code == 0
        assert "objects:     120" in stdout
        assert "RStarTree" in stdout

    def test_index_guttman(self, tmp_path, capsys, csv_file):
        snapshot = str(tmp_path / "g.json")
        code, stdout, __ = run(
            capsys, "index", csv_file, "--out", snapshot,
            "--fanout", "8", "--guttman",
        )
        assert code == 0
        assert "GuttmanRTree" in stdout

    def test_bad_csv_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nnot,a,point\n")
        with pytest.raises(SystemExit):
            main(["index", str(bad), "--out", str(tmp_path / "x.json")])


class TestQueryAndExplain:
    @pytest.fixture
    def sources(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run(capsys, "generate", "uniform", "--count", "50",
            "--seed", "1", "--out", a)
        run(capsys, "generate", "uniform", "--count", "60",
            "--seed", "2", "--out", b)
        return a, b

    SQL = (
        "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
        "ORDER BY d STOP AFTER 5"
    )

    def test_query_csv_relations(self, capsys, sources):
        a, b = sources
        code, stdout, stderr = run(
            capsys, "query", self.SQL,
            "--relation", f"a={a}", "--relation", f"b={b}",
        )
        assert code == 0
        rows = stdout.strip().splitlines()
        assert len(rows) == 5
        distances = [float(r.split("\t")[0]) for r in rows]
        assert distances == sorted(distances)
        assert "5 row(s)" in stderr

    def test_query_snapshot_relation(self, tmp_path, capsys, sources):
        a, b = sources
        snapshot = str(tmp_path / "a.tree")
        run(capsys, "index", a, "--out", snapshot, "--fanout", "8")
        code, stdout, __ = run(
            capsys, "query", self.SQL,
            "--relation", f"a={snapshot}", "--relation", f"b={b}",
        )
        assert code == 0
        assert len(stdout.strip().splitlines()) == 5

    def test_query_limit_flag(self, capsys, sources):
        a, b = sources
        sql = (
            "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
            "ORDER BY d"
        )
        code, stdout, __ = run(
            capsys, "query", sql, "--relation", f"a={a}",
            "--relation", f"b={b}", "--limit", "3",
        )
        assert code == 0
        assert len(stdout.strip().splitlines()) == 3

    def test_explain(self, capsys, sources):
        a, b = sources
        code, stdout, __ = run(
            capsys, "explain", self.SQL,
            "--relation", f"a={a}", "--relation", f"b={b}",
        )
        assert code == 0
        assert "IncrementalDistanceJoin" in stdout
        assert "est. cost" in stdout

    def test_bad_relation_argument(self, capsys, sources):
        with pytest.raises(SystemExit):
            main(["query", self.SQL, "--relation", "nonsense"])

    def test_syntax_error_is_reported(self, capsys, sources):
        a, b = sources
        code, __, stderr = run(
            capsys, "query", "SELECT banana",
            "--relation", f"a={a}", "--relation", f"b={b}",
        )
        assert code == 1
        assert "error:" in stderr

    def test_missing_file_is_reported(self, capsys):
        code, __, stderr = run(
            capsys, "query", self.SQL,
            "--relation", "a=/does/not/exist.csv",
        )
        assert code == 1
        assert "error:" in stderr


class TestBenchCommand:
    def test_unknown_benchmark_reported(self, capsys):
        code, __, stderr = run(capsys, "bench", "not_a_real_bench")
        assert code == 1
        assert "no benchmark named" in stderr
        # ... and what there is to ask for instead.
        assert "table1.even_depthfirst" in stderr

    def test_bench_json_passthrough(self, capsys):
        import json

        code, stdout, __ = run(
            capsys, "bench", "table1.*", "--scale", "0.002", "--json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["meta"]["scale"] == 0.002
        assert list(payload["cases"]) == ["table1.even_depthfirst"]
        assert payload["cases"]["table1.even_depthfirst"]["pairs"] == 100

    def test_bench_runs_a_tier_of_the_registry(self, capsys):
        code, stdout, __ = run(
            capsys, "bench", "fig7.maxpairs_1*", "--tier", "full",
            "--scale", "0.002", "--repeat", "1",
        )
        assert code == 0
        assert stdout.split()[0] == "fig7.maxpairs_100"
        assert len(stdout.splitlines()) == 2

    def test_bench_leaves_the_environment_alone(self, capsys):
        import os

        before = dict(os.environ)
        run(capsys, "bench", "table1.*", "--scale", "0.002")
        assert dict(os.environ) == before

    def test_bench_profile_writes_pstats(self, tmp_path, capsys):
        import pstats

        profile = str(tmp_path / "bench.prof")
        code, __, stderr = run(
            capsys, "bench", "table1.*", "--scale", "0.002",
            "--profile", profile,
        )
        assert code == 0
        assert "profile ->" in stderr
        stats = pstats.Stats(profile)
        assert stats.total_calls > 0


class TestQueryTraceAndProfile:
    SQL = TestQueryAndExplain.SQL

    @pytest.fixture
    def sources(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run(capsys, "generate", "uniform", "--count", "50",
            "--seed", "1", "--out", a)
        run(capsys, "generate", "uniform", "--count", "60",
            "--seed", "2", "--out", b)
        return a, b

    def test_query_trace_export(self, tmp_path, capsys, sources):
        import json

        a, b = sources
        trace = str(tmp_path / "query_trace.json")
        code, stdout, stderr = run(
            capsys, "query", self.SQL,
            "--relation", f"a={a}", "--relation", f"b={b}",
            "--trace", trace,
        )
        assert code == 0
        assert len(stdout.strip().splitlines()) == 5
        assert "trace ->" in stderr
        payload = json.loads(open(trace).read())
        events = payload["traceEvents"]
        assert payload["metadata"]["sql"] == self.SQL
        # Real per-occurrence spans: join.init / join.expand phases.
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert any(name.startswith("join.") for name in names)

    def test_query_profile_writes_pstats(self, tmp_path, capsys,
                                         sources):
        import pstats

        a, b = sources
        profile = str(tmp_path / "query.prof")
        code, __, stderr = run(
            capsys, "query", self.SQL,
            "--relation", f"a={a}", "--relation", f"b={b}",
            "--profile", profile,
        )
        assert code == 0
        assert "profile ->" in stderr
        stats = pstats.Stats(profile)
        assert stats.total_calls > 0

    def test_explain_analyze_profile(self, tmp_path, capsys, sources):
        import pstats

        a, b = sources
        profile = str(tmp_path / "explain.prof")
        code, stdout, __ = run(
            capsys, "query", "EXPLAIN ANALYZE " + self.SQL,
            "--relation", f"a={a}", "--relation", f"b={b}",
            "--profile", profile,
        )
        assert code == 0
        assert pstats.Stats(profile).total_calls > 0
