"""The registry is the one place an experiment is defined: no
registered case may rot, a sweep's checkpoint is the run stopped
there, shapes are evaluated (never silently skipped), and
EXPERIMENTS.md is the rendering of the committed entry
(repro.bench.registry, repro.bench.report)."""

import dataclasses
import fnmatch
import json
import pathlib
import re

import pytest

from repro.bench import report
from repro.bench.registry import (
    EXPERIMENTS,
    FULL,
    REGISTRY,
    SHAPES,
    SMOKE,
    TIERS,
    Experiment,
    Shape,
    cases_for,
)
from repro.bench.runner import run_join
from repro.bench.suite import run_case
from repro.bench.workloads import build_tiger_workload
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.spec import JoinSpec
from repro.util.counters import CounterRegistry

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Every case runs at this scale with its budget cut to this many
#: results: the point is that it builds, runs and repeats, not what
#: it measures.
TINY_SCALE = 0.002
TINY_PAIRS = 20


def truncated(budget):
    """A tier's budget cut to ``TINY_PAIRS`` (exhaustion is kept: at
    this scale a whole semi-join is a few dozen rows)."""
    if not isinstance(budget, tuple):
        return budget if budget is None else min(budget, TINY_PAIRS)
    marks = sorted({
        min(mark, TINY_PAIRS) for mark in budget if mark is not None
    })
    return tuple(marks) + ((None,) if budget[-1] is None else ())


@pytest.fixture(scope="module")
def tiny_load():
    loads = {}

    def load_for(case):
        key = (case.workload, min(TINY_SCALE, case.max_scale or 1.0))
        if key not in loads:
            loads[key] = case.workload(key[1])
        return loads[key]

    return load_for


def nonzero(counts):
    return {name: value for name, value in counts.items() if value}


class TestEveryCaseRuns:
    @pytest.mark.parametrize("tier, case", [
        pytest.param(tier, case, id=f"{tier}-{case.name}")
        for tier in TIERS for case in cases_for(tier)
    ])
    def test_builds_runs_and_repeats(self, tier, case, tiny_load):
        cut = dataclasses.replace(
            case, pairs={tier: truncated(case.pairs[tier])}
        )
        record = run_case(cut, tiny_load(case), tier, repeat=2)
        assert record["pairs"] > 0
        for label, reading in record.get("checkpoints", {}).items():
            assert reading["counters"], label
        if case.deterministic:
            # Run 2 repeated run 1, counter for counter, checkpoint
            # for checkpoint.
            assert record["counters_stable"]


class TestCheckpointIsTheStoppedRun:
    MARKS = (1, 7, 40, 200)

    @pytest.mark.parametrize("policy", ["even", "simultaneous"])
    def test_reading_at_k_equals_run_stopped_at_k(self, policy):
        load = build_tiger_workload(scale=0.004)

        def run(pairs, checkpoints=()):
            return run_join(
                lambda: IncrementalDistanceJoin(
                    load.tree1, load.tree2,
                    JoinSpec(node_policy=policy), counters=load.counters,
                ),
                pairs, load.counters, checkpoints=checkpoints,
                before=load.cold_caches,
            )

        sweep = run(self.MARKS[-1], self.MARKS)
        assert list(sweep.checkpoints) == [str(k) for k in self.MARKS]
        for mark in self.MARKS:
            stopped = run(mark)
            reading = sweep.checkpoints[str(mark)]
            assert nonzero(reading["counters"]) == nonzero(stopped.counters)
            assert nonzero(reading["peaks"]) == nonzero(stopped.peaks)
        assert sweep.counters == sweep.checkpoints["200"]["counters"]

    def test_a_count_the_join_runs_dry_before_is_not_recorded(self):
        run = run_join(
            lambda: iter(range(5)), None, CounterRegistry(),
            checkpoints=(2, 9, 12, None),
        )
        assert list(run.checkpoints) == ["2", "all"]
        assert run.pairs_produced == 5


def entry_of(**cases):
    """A synthetic trajectory entry: ``name={label: seconds}`` gives a
    sweep, ``name=seconds`` a plain case; queue peak = 100 x seconds."""
    def reading(seconds):
        return {
            "seconds": seconds, "seconds_all": [seconds * 2, seconds],
            "counters": {"dist_calcs": int(seconds * 10)},
            "peaks": {"queue_size": int(seconds * 100)},
        }

    records = {}
    for name, value in cases.items():
        name = name.replace("_", ".", 1)
        if isinstance(value, dict):
            last = list(value)[-1]
            records[name] = {
                **reading(value[last]),
                "pairs_requested": None if last == "all" else int(last),
                "workload": "water-roads-1",
                "checkpoints": {
                    label: reading(s) for label, s in value.items()
                },
            }
        else:
            records[name] = {
                **reading(value), "pairs_requested": 1000,
                "workload": "water-roads-0.02",
            }
    return {
        "meta": {
            "git": "abc1234", "dirty": True, "scale": 1.0, "repeat": 2,
            "timestamp": "2026-01-01T00:00:00Z", "python": "3.11.7",
            "implementation": "CPython", "platform": "Linux", "cpu_count": 2,
        },
        "cases": records,
    }


ENTRY = entry_of(
    t_even={"1": 2.0, "1000": 3.0}, t_basic={"1": 4.5, "1000": 9.0},
    n_loop=40.0,
)
Q = "peaks.queue_size"
HOLDS = Shape("T", "Even <= Basic in queue peak",
              ("t.even", 1000, Q), ("t.basic", 1000, Q))
FAILS = Shape("T", "Even is ten times smaller",
              ("t.even", 1000, Q), ("t.basic", 1000, Q), 0.1)
NOTED = dataclasses.replace(
    FAILS, gate=False, note="the synthetic maps overlap"
)


class TestShapes:
    def test_holds_and_fails(self):
        holds, fails = report.evaluate([HOLDS, FAILS], ENTRY)
        assert (holds.lhs, holds.rhs) == (300, 900)
        assert holds.holds and not holds.fails_check
        assert not fails.holds and fails.fails_check
        assert "**300** ≤ 0.1 × `t.basic`@1,000 peaks.queue_size **900**" in (
            fails.line()
        )

    def test_ungated_failure_is_printed_not_failed(self):
        (noted,) = report.evaluate([NOTED], ENTRY)
        assert not noted.holds and not noted.fails_check
        line = noted.line()
        assert line.startswith("- ✗ ")
        assert line.endswith(
            "(reported, not gated) -- the synthetic maps overlap"
        )

    @pytest.mark.parametrize("reading, missing", [
        (("t.gone", 1000, Q), "case 't.gone' is not in the entry"),
        (("t.even", 50, Q), "'t.even' has no checkpoint 50"),
        (("n.loop", 1000, Q), "'n.loop' has no checkpoint 1000"),
        (("t.even", 1000, "peaks.nope"), "no metric 'peaks.nope'"),
    ])
    def test_missing_is_an_error_never_a_pass(self, reading, missing):
        for shape in (
            dataclasses.replace(NOTED, lhs=reading),
            dataclasses.replace(HOLDS, rhs=reading),
        ):
            (verdict,) = report.evaluate([shape], ENTRY)
            assert missing in verdict.error
            assert not verdict.holds
            # ... even for a shape that is not a gate.
            assert verdict.fails_check
            assert "**error**" in verdict.line()

    def test_registered_shapes_name_registered_cases(self):
        experiments = {experiment.id for experiment in EXPERIMENTS}
        for shape in SHAPES:
            assert shape.experiment in experiments, shape.claim
            if not shape.gate:
                assert shape.note, shape.claim
            for name, mark, __ in (shape.lhs, shape.rhs):
                (case,) = [c for c in REGISTRY if c.name == name]
                marks = case.checkpoints_for(FULL)
                assert mark is None or mark in marks, (shape.claim, name)


SECTIONS = (
    Experiment("T", "Traversal", "Paper: Even wins.", ("t.*",),
               ("seconds", Q)),
    Experiment("N", "Nested loop", "Paper: Hours.", ("n.loop",),
               ("seconds", "seconds_all.0", "counters.dist_calcs")),
)
PAPER = {"n.loop": {"1000": {"seconds": 12600.0}},
         "t.even": {"1": {Q: 1_000_000}}}
GOLDEN_BODY = """\
## T — Traversal

Paper: Even wins.

Workload: water-roads-1.

*seconds*

| pairs | `t.basic` | `t.even` |
|---|---|---|
| 1 | 4.5 | 2 |
| 1,000 | 9 | 3 |

*peaks.queue_size*

| pairs | `t.basic` | `t.even` (paper) | `t.even` |
|---|---|---|---|
| 1 | 450 | 1,000,000 | 200 |
| 1,000 | 900 |  | 300 |

- ✓ Even <= Basic in queue peak: `t.even`@1,000 peaks.queue_size **300** \
≤ `t.basic`@1,000 peaks.queue_size **900**
- ✗ Even is ten times smaller: `t.even`@1,000 peaks.queue_size **300** ≤ \
0.1 × `t.basic`@1,000 peaks.queue_size **900** (reported, not gated) -- \
the synthetic maps overlap

## N — Nested loop

Paper: Hours.

Workload: water-roads-0.02.

| pairs | seconds (paper) | seconds | seconds_all.0 | counters.dist_calcs |
|---|---|---|---|---|
| 1,000 | 12,600 | 40 | 80 | 400 |


## Summary

| experiment |  | verdict | shapes |
|---|---|---|---|
| T | Traversal | ✓ | 1 of 2 shapes hold; 1 ✗ reported, not gated |
| N | Nested loop | ✓ | 0 of 0 shapes hold |
"""


class TestReport:
    def render(self, entry=ENTRY, shapes=(HOLDS, NOTED)):
        return report.render(
            entry, 3, experiments=SECTIONS, shapes=shapes, paper=PAPER
        )

    def test_golden_and_deterministic(self):
        text = self.render()
        assert text == self.render()
        head, body = text.split("## T", 1)
        assert "## T" + body == GOLDEN_BODY
        assert "entry 3 of `BENCH_full.json`: commit abc1234 plus " \
               "uncommitted changes" in head
        assert "report --tier full > EXPERIMENTS.md" in head

    def test_gated_failure_and_missing_case_mark_the_experiment(self):
        text = self.render(shapes=(FAILS,))
        assert "| T | Traversal | ✗ | 0 of 1 shapes hold |" in text
        entry = entry_of(t_even={"1": 2.0, "1000": 3.0})
        text = self.render(entry, shapes=())
        assert "**No case of this experiment is in the entry.**" in text
        assert "| N | Nested loop | ✗ |" in text

    @pytest.fixture
    def committed(self, tmp_path, monkeypatch):
        """A directory holding BENCH_full.json and its rendering, with
        the module's registry views swapped for the synthetic ones."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(report, "EXPERIMENTS", SECTIONS)
        monkeypatch.setattr(report, "SHAPES", (HOLDS, NOTED))
        (tmp_path / "BENCH_full.json").write_text(
            json.dumps({"schema": 1, "entries": [ENTRY]})
        )
        document = tmp_path / "EXPERIMENTS.md"
        document.write_text(report.render(
            ENTRY, 1, experiments=SECTIONS, shapes=(HOLDS, NOTED),
        ), encoding="utf-8")
        return document

    def test_check_passes_on_the_rendering(self, committed, capsys):
        assert report.main(["--check"]) == 0
        assert "OK:" in capsys.readouterr().out
        assert report.main([]) == 0
        assert capsys.readouterr().out == committed.read_text("utf-8")

    def test_check_catches_one_edited_digit(self, committed, capsys):
        text = committed.read_text("utf-8")
        committed.write_text(
            text.replace("| 1,000 | 9 | 3 |", "| 1,000 | 9 | 2 |"), "utf-8"
        )
        assert report.main(["--check"]) == 1
        assert "regenerate it, do not edit it" in capsys.readouterr().err

    def test_check_catches_a_failing_shape(
        self, committed, capsys, monkeypatch
    ):
        monkeypatch.setattr(report, "SHAPES", (HOLDS, FAILS))
        committed.write_text(report.render(
            ENTRY, 1, experiments=SECTIONS, shapes=(HOLDS, FAILS),
        ), encoding="utf-8")
        assert report.main(["--check"]) == 1
        assert "Even is ten times smaller" in capsys.readouterr().err

    def test_check_without_an_entry_is_an_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert report.main(["--check"]) == 2

    def test_committed_experiments_md_is_the_rendering(
        self, monkeypatch, capsys
    ):
        if not (REPO / "BENCH_full.json").exists():
            pytest.skip("no committed full-tier entry beside the tests")
        monkeypatch.chdir(REPO)
        assert report.main(["--tier", "full", "--check"]) == 0, (
            capsys.readouterr().err
        )


class TestExperimentIndex:
    def test_every_design_experiment_id_has_a_case(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        section = design.split("## 3. Experiment index")[1].split("## 4.")[0]
        ids = re.findall(r"^\| ([A-Z]+\d+) \|", section, re.MULTILINE)
        assert set(ids) >= {
            "T1", "F6", "F7", "F8", "F9", "F10", "X1", "A1", "A2",
            "AB1", "AB2", "AB3", "AB4", "EXT1", "EXT2", "OPT1",
        }
        by_id = {experiment.id: experiment for experiment in EXPERIMENTS}
        for tier in (SMOKE, FULL):
            names = [case.name for case in cases_for(tier)]
            for exp_id in ids:
                assert any(
                    fnmatch.filter(names, pattern)
                    for pattern in by_id[exp_id].cases
                ), (tier, exp_id)

    def test_every_case_belongs_to_an_experiment(self):
        for case in REGISTRY:
            assert any(
                fnmatch.fnmatch(case.name, pattern)
                for experiment in EXPERIMENTS
                for pattern in experiment.cases
            ), case.name
