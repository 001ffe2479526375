"""``python -m repro.bench.report`` -- EXPERIMENTS.md as output.

Renders the paper-versus-measured document from the newest entry of a
committed ``BENCH_<tier>.json`` and the registry
(:mod:`repro.bench.registry`): per experiment, the paper's claim, the
measured table (the paper's own values, stored with the cases, beside
ours), and every registered :class:`~repro.bench.registry.Shape`
evaluated on that one entry -- its two numbers, and a verdict mark
computed from them, never typed.  The rendering is a pure function of
the entry and the registry, so it is deterministic::

    python -m repro.bench.report --tier full > EXPERIMENTS.md
    python -m repro.bench.report --tier full --check     # CI

``--check`` exits non-zero when ``./EXPERIMENTS.md`` is not byte-equal
to the rendering, when a gated shape fails, or when a shape names a
case, checkpoint or metric the entry does not hold (an error, never a
silent pass).
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from repro.bench.registry import (
    EXPERIMENTS,
    FULL,
    REGISTRY,
    SHAPES,
    TIERS,
    Experiment,
    Reading,
    Shape,
)
from repro.bench.runner import checkpoint_label
from repro.bench.suite import load_trajectory, trajectory_path

__all__ = ["Verdict", "evaluate", "main", "read", "render"]


def read(entry: Mapping[str, Any], reading: Reading) -> float:
    """The value a :data:`Reading` names in ``entry``; a
    ``LookupError`` says which part of it the entry lacks."""
    case, mark, metric = reading
    record = entry["cases"].get(case)
    if record is None:
        raise LookupError(f"case {case!r} is not in the entry")
    if mark is not None:
        record = record.get("checkpoints", {}).get(checkpoint_label(mark))
        if record is None:
            raise LookupError(f"{case!r} has no checkpoint {mark}")
    try:
        return _walk(record, metric)
    except (KeyError, IndexError):
        raise LookupError(
            f"{_where(case, mark)} has no metric {metric!r}"
        ) from None


def _walk(record: Any, metric: str) -> Any:
    for part in metric.split("."):
        record = record[int(part) if isinstance(record, list) else part]
    return record


def _where(case: str, mark: Optional[int]) -> str:
    return f"`{case}`" if mark is None else f"`{case}`@{mark:,}"


@dataclass(frozen=True)
class Verdict:
    """A shape evaluated on one entry."""

    shape: Shape
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    error: str = ""

    @property
    def holds(self) -> bool:
        return not self.error and self.lhs <= self.shape.factor * self.rhs

    @property
    def fails_check(self) -> bool:
        return bool(self.error) or (self.shape.gate and not self.holds)

    def line(self) -> str:
        shape = self.shape
        if self.error:
            return f"- ✗ {shape.claim}: **error** -- {self.error}"
        times = "" if shape.factor == 1.0 else f"{shape.factor:g} × "
        text = (
            f"- {'✓' if self.holds else '✗'} {shape.claim}: "
            f"{_where(*shape.lhs[:2])} {shape.lhs[2]} "
            f"**{_fmt(self.lhs)}** ≤ {times}"
            f"{_where(*shape.rhs[:2])} {shape.rhs[2]} "
            f"**{_fmt(self.rhs)}**"
        )
        if not shape.gate:
            text += " (reported, not gated)"
        if shape.note and not self.holds:
            text += f" -- {shape.note}"
        return text


def evaluate(
    shapes: Sequence[Shape], entry: Mapping[str, Any]
) -> List[Verdict]:
    verdicts = []
    for shape in shapes:
        try:
            verdicts.append(Verdict(
                shape, read(entry, shape.lhs), read(entry, shape.rhs)
            ))
        except LookupError as exc:
            verdicts.append(Verdict(shape, error=str(exc)))
    return verdicts


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3g}"
    return f"{int(value):,}"


def _natural(text: str) -> List[Any]:
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", text)
    ]


def _rows(record: Mapping[str, Any]) -> Mapping[str, Any]:
    """A record's readings by row label: its checkpoints, or the
    whole run under the budget it was given."""
    return record.get("checkpoints") or {
        checkpoint_label(record["pairs_requested"]): record
    }


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    return [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
        *("| " + " | ".join(row) + " |" for row in rows),
    ]


def _tables(
    experiment: Experiment,
    records: Mapping[str, Mapping[str, Any]],
    paper: Mapping[str, Mapping[str, Mapping[str, float]]],
) -> List[str]:
    """One table (rows = pairs, columns = metrics) for a single case;
    otherwise one per metric (rows = pairs, columns = cases).  The
    paper's value, where the case stores one, sits left of ours."""
    labels = sorted(
        {label for record in records.values() for label in _rows(record)},
        key=lambda label: (label == "all", _natural(label)),
    )

    def cell(name: str, label: str, metric: str) -> str:
        try:
            return _fmt(_walk(_rows(records[name])[label], metric))
        except (KeyError, IndexError):
            return ""

    def columns(name: str, metric: str, title: str):
        quoted = {
            label: values[metric]
            for label, values in paper.get(name, {}).items()
            if metric in values
        }
        if quoted:
            yield f"{title} (paper)", lambda label: _fmt(quoted.get(label))
        yield title, lambda label: cell(name, label, metric)

    if len(records) == 1:
        (name,) = records
        groups = [[
            column for metric in experiment.metrics
            for column in columns(name, metric, metric)
        ]]
    else:
        groups = [
            [column for name in records
             for column in columns(name, metric, f"`{name}`")]
            for metric in experiment.metrics
        ]
    lines: List[str] = []
    for metric, group in zip(experiment.metrics, groups):
        if len(records) > 1:
            lines += [f"*{metric}*", ""]
        lines += _table(
            ["pairs"] + [title for title, __ in group],
            [[f"{int(label):,}" if label.isdigit() else label]
             + [value(label) for __, value in group] for label in labels],
        ) + [""]
    return lines


def render(
    entry: Mapping[str, Any],
    index: int,
    tier: str = FULL,
    experiments: Sequence[Experiment] = EXPERIMENTS,
    shapes: Sequence[Shape] = SHAPES,
    paper: Optional[Mapping[str, Any]] = None,
) -> str:
    """The document for one trajectory entry (number ``index``)."""
    if paper is None:
        paper = {case.name: case.paper for case in REGISTRY}
    meta = entry["meta"]
    commit = meta.get("git") or "unknown"
    if meta.get("dirty", True):
        commit += " plus uncommitted changes (an entry is written "\
                  "before its own commit exists)"
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Generated by `python -m repro.bench.report --tier {tier}` from "
        f"entry {index} of `BENCH_{tier}.json`: commit {commit}, "
        f"{meta.get('timestamp')}, scale {meta.get('scale'):g}, minimum "
        f"of {meta.get('repeat')} repetitions, "
        f"{meta.get('implementation')} {meta.get('python')} on "
        f"{meta.get('platform')} ({meta.get('cpu_count')} CPUs).  Do not "
        f"edit: every number and every verdict mark below is computed.  "
        f"To regenerate:",
        "",
        f"    python -m repro.bench.suite --tier {tier}    # appends an entry",
        f"    python -m repro.bench.report --tier {tier} > EXPERIMENTS.md",
        "",
        "The paper ran C++ on a Sun Ultra 1 with a real disk over the "
        "TIGER/Line *Water* (37,495 points) and *Roads* (200,482) "
        "centroids; this is pure Python over seeded synthetic data of "
        "the same cardinalities at scale 1.0, same tree parameters, "
        "simulated pages.  Absolute numbers differ by construction: "
        "what is compared is the **shape**, registered beside the cases "
        "(`repro.bench.registry.SHAPES`) as `lhs ≤ factor × rhs` and "
        "evaluated on this one entry -- ✓ holds, ✗ does not.  "
        "*Reported, not gated* marks a shape where the synthetic maps or "
        "the simulated substrate are known to differ; the sentence after "
        "it says why.  `seconds` is the minimum over the repetitions "
        "(`seconds_all.0`, the first, carries the process's warm-up).  "
        "A sweep is one run read at every checkpoint; a case without "
        "one appears in the row of its budget.",
        "",
    ]
    verdicts = evaluate(shapes, entry)
    summary = []
    for experiment in experiments:
        records = {
            name: entry["cases"][name]
            for pattern in experiment.cases
            for name in sorted(
                fnmatch.filter(entry["cases"], pattern), key=_natural
            )
        }
        mine = [v for v in verdicts if v.shape.experiment == experiment.id]
        lines += [
            f"## {experiment.id} — {experiment.title}", "",
            experiment.about, "",
        ]
        workloads = sorted({
            record["workload"] for record in records.values()
            if "workload" in record
        })
        if workloads:
            lines += [f"Workload: {', '.join(workloads)}.", ""]
        if records:
            lines += _tables(experiment, records, paper)
        else:
            lines += ["**No case of this experiment is in the entry.**", ""]
        lines += [verdict.line() for verdict in mine] + [""]
        failed = [v for v in mine if v.fails_check]
        noted = [v for v in mine if not v.holds and not v.fails_check]
        summary.append([
            experiment.id, experiment.title,
            "✗" if failed or not records else "✓",
            f"{sum(v.holds for v in mine)} of {len(mine)} shapes hold"
            + (f"; {len(noted)} ✗ reported, not gated" if noted else ""),
        ])
    lines += ["## Summary", ""] + _table(
        ["experiment", "", "verdict", "shapes"], summary
    )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.report",
        description="render EXPERIMENTS.md from the newest "
                    "BENCH_<tier>.json entry (to stdout)",
    )
    parser.add_argument(
        "--tier", default=FULL, choices=sorted(TIERS),
        help="tier whose trajectory to render (default: full)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="print nothing; exit 1 unless ./EXPERIMENTS.md is "
             "byte-equal to the rendering and every gated shape holds",
    )
    args = parser.parse_args(argv)
    path = trajectory_path(args.tier)
    try:
        entries = load_trajectory(path)["entries"]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"error: {path} holds no entry to render", file=sys.stderr)
        return 2
    text = render(
        entries[-1], len(entries), args.tier, EXPERIMENTS, SHAPES
    )
    problems = [
        verdict.line() for verdict in evaluate(SHAPES, entries[-1])
        if verdict.fails_check
    ]
    if not args.check:
        sys.stdout.write(text)
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
        return 0
    try:
        with open("EXPERIMENTS.md", "rb") as handle:
            committed = handle.read()
    except OSError:
        committed = None
    if committed != text.encode("utf-8"):
        problems.append(
            "EXPERIMENTS.md is not the rendering of the newest "
            f"{path} entry: regenerate it, do not edit it"
        )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print(f"OK: EXPERIMENTS.md matches entry {len(entries)} of "
              f"{path}; {len(SHAPES)} shapes evaluated")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
