"""Tests for the tiered benchmark suite and its regression gate
(repro.bench.suite, repro.bench.compare, repro.bench.registry)."""

import copy
import json

import pytest

from repro.bench import registry
from repro.bench.compare import (
    MIN_TIMED_SECONDS,
    compare_entries,
    compare_file,
)
from repro.bench.compare import main as compare_main
from repro.bench.registry import SMOKE, TIERS, BenchCase, cases_for
from repro.bench.suite import (
    MAX_ENTRIES,
    SCHEMA_VERSION,
    environment_fingerprint,
    load_trajectory,
    run_suite,
    trajectory_path,
    write_entry,
)
from repro.bench.suite import main as suite_main

#: Tiny-but-real suite runs: one deterministic case at minimal scale
#: keeps each run well under a second.
TINY = dict(scale=0.002, repeat=2, case_pattern="table1.*")


def tiny_entry():
    return run_suite(SMOKE, **TINY)


@pytest.fixture(scope="module")
def two_entries():
    return tiny_entry(), tiny_entry()


def timed(entry, seconds=1.0):
    """``entry`` with every case long enough for the soft gate to
    apply (the tiny runs themselves take milliseconds)."""
    clone = copy.deepcopy(entry)
    for record in clone["cases"].values():
        record["seconds"] = seconds
    return clone


class TestRegistry:
    def test_smoke_tier_has_all_paper_workloads(self):
        names = {case.name for case in cases_for(SMOKE)}
        for prefix in (
            "table1.", "fig6.", "fig7.", "fig8.", "fig9.", "fig10.",
            "shard.",
        ):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_duplicate_names_rejected(self):
        existing = registry.REGISTRY[0]
        with pytest.raises(ValueError):
            registry.register(BenchCase(
                name=existing.name, description="dup",
                spec=existing.spec, pairs=existing.pairs,
            ))

    def test_pairs_resolve_per_tier(self):
        case = next(
            c for c in registry.REGISTRY if c.name == "table1.even_depthfirst"
        )
        assert case.pairs_for(SMOKE) != case.pairs_for("full")

    def test_tier_configs_exist(self):
        assert set(TIERS) == {"smoke", "full"}
        assert TIERS[SMOKE].scale < TIERS["full"].scale


class TestSuite:
    def test_entry_shape(self, two_entries):
        entry, __ = two_entries
        assert entry["meta"]["suite"] == SMOKE
        assert entry["meta"]["python"]
        record = entry["cases"]["table1.even_depthfirst"]
        assert record["pairs"] > 0
        # seconds_all entries are rounded for the committed file.
        assert record["seconds"] == pytest.approx(
            min(record["seconds_all"]), abs=1e-6
        )
        assert len(record["seconds_all"]) == TINY["repeat"]
        assert record["counters"]["dist_calcs"] > 0
        assert record["deterministic"] is True
        assert record["counters_stable"] is True

    def test_counters_deterministic_across_runs(self, two_entries):
        first, second = two_entries
        for name, record in first["cases"].items():
            other = second["cases"][name]
            assert record["counters"] == other["counters"], name
            assert record["peaks"] == other["peaks"], name
            assert record["pairs"] == other["pairs"], name

    def test_write_entry_appends_and_caps(self, tmp_path, two_entries):
        path = str(tmp_path / "BENCH_t.json")
        entry = two_entries[0]
        write_entry(path, entry)
        data = write_entry(path, entry)
        assert data["schema"] == SCHEMA_VERSION
        assert len(data["entries"]) == 2
        data["entries"] = [entry] * MAX_ENTRIES
        with open(path, "w") as handle:
            json.dump(data, handle)
        data = write_entry(path, entry)
        assert len(data["entries"]) == MAX_ENTRIES

    def test_write_entry_reset_discards_history(self, tmp_path,
                                                two_entries):
        path = str(tmp_path / "BENCH_t.json")
        write_entry(path, two_entries[0])
        data = write_entry(path, two_entries[1], reset=True)
        assert len(data["entries"]) == 1

    def test_write_entry_failure_keeps_the_history(
        self, tmp_path, two_entries, monkeypatch
    ):
        path = tmp_path / "BENCH_t.json"
        write_entry(str(path), two_entries[0])
        before = path.read_bytes()
        real_dump = json.dump

        def dump_then_fail(data, handle, **options):
            real_dump(data["entries"][0], handle, **options)
            handle.flush()  # half a document is on disk ...
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            write_entry(str(path), two_entries[1])
        # ... but not where the committed history is.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_fingerprint_says_whether_the_tree_was_dirty(self):
        fingerprint = environment_fingerprint()
        assert "git" in fingerprint
        # None only where git itself is unavailable.
        assert fingerprint["dirty"] in (True, False, None)
        assert (fingerprint["git"] is None) == (
            fingerprint["dirty"] is None
        )

    def test_load_trajectory_missing_file_is_empty(self, tmp_path):
        data = load_trajectory(str(tmp_path / "nope.json"))
        assert data["entries"] == []

    def test_load_trajectory_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_trajectory(str(path))

    def test_trajectory_path_uses_tier(self, tmp_path):
        path = trajectory_path("smoke", root=str(tmp_path))
        assert path.endswith("BENCH_smoke.json")

    def test_main_writes_trajectory_and_trace(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_smoke.json")
        trace = str(tmp_path / "suite_trace.json")
        code = suite_main([
            "--tier", "smoke", "--case", "table1.*",
            "--scale", "0.002", "--repeat", "1",
            "--out", out, "--trace", trace,
        ])
        assert code == 0
        data = json.loads(open(out).read())
        assert len(data["entries"]) == 1
        events = json.loads(open(trace).read())["traceEvents"]
        assert any(
            e["ph"] == "X" and e["name"].startswith("case.")
            for e in events
        )
        assert "table1.even_depthfirst" in capsys.readouterr().out

    def test_main_no_match_is_error(self, tmp_path):
        code = suite_main([
            "--case", "nonexistent.*", "--scale", "0.002",
            "--out", str(tmp_path / "b.json"),
        ])
        assert code == 2

    def test_main_list_prints_cases(self, capsys):
        assert suite_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1.even_depthfirst" in out


class TestCompare:
    def _regress(self, entry, mutate):
        clone = copy.deepcopy(entry)
        mutate(clone["cases"]["table1.even_depthfirst"])
        return clone

    def test_identical_runs_pass(self, two_entries):
        first, second = two_entries
        # Identical means identical: every gate, wall time included.
        assert compare_entries([first], copy.deepcopy(first)).ok()
        # Two real runs agree on what is deterministic; their ~10 ms
        # wall times are the host's (the soft gate has its own test).
        report = compare_entries([first], second)
        assert not report.hard_regressions
        assert report.ok(hard_only=True)

    def test_counter_inflation_is_hard_regression(self, two_entries):
        first, second = two_entries

        def inflate(record):
            record["counters"]["dist_calcs"] = int(
                record["counters"]["dist_calcs"] * 1.5
            )

        report = compare_entries([first], self._regress(second, inflate))
        bad = [g.metric for g in report.hard_regressions]
        assert "counters.dist_calcs" in bad
        assert not report.ok()
        assert not report.ok(hard_only=True)  # hard gates always fail

    def test_two_x_slowdown_is_soft_regression(self, two_entries):
        first, second = two_entries

        def slow(record):
            record["seconds"] = record["seconds"] * 2.0 + 1.0

        report = compare_entries(
            [timed(first)], self._regress(timed(second), slow)
        )
        assert [g.metric for g in report.soft_regressions] == ["seconds"]
        assert not report.ok()
        assert report.ok(hard_only=True)  # CI mode tolerates wall time

    def test_case_too_short_to_time_is_unresolved(self, two_entries):
        first, second = two_entries
        short = MIN_TIMED_SECONDS / 10

        def slow(record):
            record["seconds"] = short * 50

        report = compare_entries(
            [timed(first, short)], self._regress(second, slow)
        )
        (gate,) = [g for g in report.gates if g.metric == "seconds"]
        assert gate.unresolved and not gate.regressed
        assert gate.row()["status"] == "unresolved (too short to time)"
        assert report.ok()
        # The hard gates of the same case are untouched.
        inflated = self._regress(second, lambda r: r["counters"].update(
            dist_calcs=r["counters"]["dist_calcs"] * 2
        ))
        assert compare_entries(
            [timed(first, short)], inflated
        ).hard_regressions

    def test_counter_drop_never_fails(self, two_entries):
        first, second = two_entries

        def optimize(record):
            record["counters"]["dist_calcs"] //= 2

        # Against its own copy: wall times equal, only the drop differs.
        report = compare_entries(
            [first], self._regress(first, optimize)
        )
        assert report.ok()

    def test_pair_count_change_fails_both_directions(self, two_entries):
        first, second = two_entries
        for delta in (+1, -1):
            report = compare_entries([first], self._regress(
                second, lambda r: r.update(pairs=r["pairs"] + delta)
            ))
            assert [g.metric for g in report.hard_regressions] == ["pairs"]

    def test_nondeterministic_case_gets_soft_counters(self, two_entries):
        first, second = two_entries
        loose = self._regress(
            second, lambda r: r.update(deterministic=False)
        )
        report = compare_entries([first], loose)
        kinds = {
            g.metric: g.kind for g in report.gates
            if g.case == "table1.even_depthfirst"
        }
        assert kinds["counters.dist_calcs"] == "soft"
        assert kinds["pairs"] == "hard"  # pair count stays exact

    def test_unstable_counters_demote_to_soft(self, two_entries):
        first, second = two_entries
        loose = self._regress(
            second, lambda r: r.update(counters_stable=False)
        )
        report = compare_entries([first], loose)
        kinds = {
            g.metric: g.kind for g in report.gates
            if g.case == "table1.even_depthfirst"
        }
        assert kinds["counters.dist_calcs"] == "soft"

    def test_new_case_skips_gating(self, two_entries):
        first, second = two_entries
        extended = copy.deepcopy(first)
        extended["cases"]["brand.new"] = copy.deepcopy(
            second["cases"]["table1.even_depthfirst"]
        )
        report = compare_entries([first], extended)
        assert report.new_cases == ["brand.new"]
        assert report.ok()

    def test_missing_case_is_warned(self, two_entries):
        first, second = two_entries
        shrunk = copy.deepcopy(second)
        shrunk["cases"].pop("table1.even_depthfirst")
        report = compare_entries([first], shrunk)
        assert report.missing_cases == ["table1.even_depthfirst"]

    def test_mad_band_adapts_to_history_noise(self, two_entries):
        # The soft gate is median + max(rel, MAD band): the relative
        # tolerance is a floor, while a noisy history *widens* the
        # band so flaky machines do not spuriously fail.
        first, second = two_entries

        def history_with(seconds_values):
            history = []
            for s in seconds_values:
                entry = copy.deepcopy(first)
                entry["cases"]["table1.even_depthfirst"]["seconds"] = s
                history.append(entry)
            return history

        newest = self._regress(
            second, lambda r: r.update(seconds=2.5)
        )
        # Tight 8-entry history: limit ~ 1.01 * 1.35, so 2.5s fails.
        tight = history_with([1.0 + 0.01 * (i % 3) for i in range(8)])
        report = compare_entries(tight, newest)
        assert "seconds" in [g.metric for g in report.soft_regressions]
        # Noisy history (seconds swing 1..2): the MAD term dominates
        # and the same 2.5s run stays inside the band.
        noisy = history_with([1.0, 2.0] * 4)
        assert compare_entries(noisy, newest).ok()


class TestCompareFile:
    def _write(self, path, entries):
        with open(path, "w") as handle:
            json.dump(
                {"schema": SCHEMA_VERSION, "entries": entries}, handle
            )

    def test_needs_two_entries(self, tmp_path, two_entries):
        path = str(tmp_path / "BENCH_one.json")
        self._write(path, [two_entries[0]])
        with pytest.raises(ValueError):
            compare_file(path)

    def test_main_exit_codes(self, tmp_path, two_entries, capsys):
        first, second = two_entries
        path = str(tmp_path / "BENCH_smoke.json")

        self._write(path, [first, first])
        assert compare_main(["--file", path]) == 0
        assert "OK:" in capsys.readouterr().out

        regressed = copy.deepcopy(second)
        record = regressed["cases"]["table1.even_depthfirst"]
        record["counters"]["dist_calcs"] *= 2
        self._write(path, [first, regressed])
        assert compare_main(["--file", path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL:" in out

        # Soft-only regression: fails by default, warns with
        # --hard-only (the CI configuration).
        slowed = timed(second, 3.0)
        self._write(path, [timed(first), slowed])
        assert compare_main(["--file", path]) == 1
        capsys.readouterr()
        assert compare_main(["--file", path, "--hard-only"]) == 0
        assert "WARN:" in capsys.readouterr().out

        # The same slowdown on a case too short to time: listed, and
        # never a failure.
        self._write(path, [first, slowed])
        assert compare_main(["--file", path]) == 0
        assert "unresolved (too short to time): table1" in (
            capsys.readouterr().out
        )

        assert compare_main(
            ["--file", str(tmp_path / "absent.json")]
        ) == 2

    def test_main_verbose_lists_ok_gates(self, tmp_path, two_entries,
                                         capsys):
        first, __ = two_entries
        path = str(tmp_path / "BENCH_smoke.json")
        self._write(path, [first, first])
        assert compare_main(["--file", path, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "counters.dist_calcs" in out
        assert "seconds" in out
