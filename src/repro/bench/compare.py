"""``python -m repro.bench.compare`` -- the perf regression gate.

Diffs the **newest** entry of a ``BENCH_<tier>.json`` trajectory (the
run a PR just produced) against the **committed baseline history**
(every earlier entry) with noise-aware thresholds, and exits nonzero
on regression so CI can gate on it.

Two gate classes, matching what the metrics physically are:

hard gates (deterministic work counters)
    ``dist_calcs``, ``node_io``, queue peaks, and the produced pair
    count of cases marked ``deterministic`` are exact functions of
    code + seed + scale -- identical on every machine.  The newest
    value may not exceed the baseline *median* by more than
    ``--hard-tol`` (default 1%; the slack only forgives float-ordering
    jitter, not algorithmic growth).  Counter *drops* never fail: an
    optimisation is allowed to look like one.

soft gates (wall time)
    ``seconds`` is noisy, so the threshold is a
    median-absolute-deviation band over the baseline history:
    ``median + max(soft_rel * median, mad_k * 1.4826 * MAD, floor)``.
    With a long committed history the band tightens automatically;
    with a single baseline entry it degrades to the relative
    tolerance.  Cases marked non-deterministic get the same banded
    treatment for their counters.  A case whose baseline median is
    under :data:`MIN_TIMED_SECONDS` is listed as *unresolved (too
    short to time)* and never fails: tens of milliseconds move by a
    third between two runs of one commit.  That is the whole smoke
    tier; the full tier, where every case runs for seconds, is where
    wall time is gated.

``--hard-only`` demotes soft regressions to warnings (exit 0), which
is what CI uses: shared runners cannot promise comparable wall time,
but they can promise comparable *work*.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.bench.suite import load_trajectory, trajectory_path

__all__ = [
    "CompareConfig",
    "CompareReport",
    "GateResult",
    "compare_entries",
    "compare_file",
    "main",
]

#: Consistency factor turning a MAD into a robust sigma estimate.
MAD_SIGMA = 1.4826

#: Baseline wall time below which a case is too short to gate on.
MIN_TIMED_SECONDS = 0.25


@dataclass(frozen=True)
class CompareConfig:
    """Gate thresholds (see the module docstring for semantics)."""

    hard_tol: float = 0.01
    soft_rel: float = 0.35
    mad_k: float = 4.0
    soft_floor_s: float = 0.005


@dataclass(frozen=True)
class GateResult:
    """One gated metric of one case."""

    case: str
    metric: str
    kind: str  # "hard" | "soft"
    baseline: float
    limit: float
    value: float
    regressed: bool
    unresolved: bool = False

    def row(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "metric": self.metric,
            "gate": self.kind,
            "baseline": self.baseline,
            "limit": round(self.limit, 6),
            "new": self.value,
            "status": (
                "REGRESSED" if self.regressed
                else "unresolved (too short to time)" if self.unresolved
                else "ok"
            ),
        }


@dataclass
class CompareReport:
    """Every gate evaluated for one newest-vs-history comparison."""

    gates: List[GateResult] = field(default_factory=list)
    new_cases: List[str] = field(default_factory=list)
    missing_cases: List[str] = field(default_factory=list)

    @property
    def hard_regressions(self) -> List[GateResult]:
        return [g for g in self.gates if g.regressed and g.kind == "hard"]

    @property
    def soft_regressions(self) -> List[GateResult]:
        return [g for g in self.gates if g.regressed and g.kind == "soft"]

    def ok(self, hard_only: bool = False) -> bool:
        if self.hard_regressions:
            return False
        return hard_only or not self.soft_regressions


def _history_values(
    history: Sequence[Mapping[str, Any]], case: str, getter
) -> List[float]:
    values = []
    for entry in history:
        record = entry.get("cases", {}).get(case)
        if record is None:
            continue
        value = getter(record)
        if value is not None:
            values.append(float(value))
    return values


def _soft_limit(values: List[float], config: CompareConfig) -> float:
    median = statistics.median(values)
    mad = statistics.median(abs(v - median) for v in values)
    return median + max(
        config.soft_rel * median,
        config.mad_k * MAD_SIGMA * mad,
        config.soft_floor_s,
    )


def _hard_limit(values: List[float], config: CompareConfig) -> float:
    median = statistics.median(values)
    return median * (1.0 + config.hard_tol)


def compare_entries(
    history: Sequence[Mapping[str, Any]],
    newest: Mapping[str, Any],
    config: Optional[CompareConfig] = None,
) -> CompareReport:
    """Gate ``newest`` against ``history`` (the committed baseline)."""
    config = config if config is not None else CompareConfig()
    report = CompareReport()
    baseline_cases = set()
    for entry in history:
        baseline_cases.update(entry.get("cases", {}))
    new_cases = newest.get("cases", {})
    report.missing_cases = sorted(baseline_cases - set(new_cases))

    for case, record in sorted(new_cases.items()):
        if case not in baseline_cases:
            report.new_cases.append(case)
            continue
        deterministic = bool(record.get("deterministic", True)) and \
            bool(record.get("counters_stable", True))

        # Wall time: always a soft, MAD-banded gate.
        seconds = _history_values(
            history, case, lambda r: r.get("seconds")
        )
        if seconds and record.get("seconds") is not None:
            limit = _soft_limit(seconds, config)
            value = float(record["seconds"])
            baseline = statistics.median(seconds)
            timed = baseline >= MIN_TIMED_SECONDS
            report.gates.append(GateResult(
                case=case, metric="seconds", kind="soft",
                baseline=baseline, limit=limit, value=value,
                regressed=timed and value > limit, unresolved=not timed,
            ))

        # Work counters, queue peaks, and produced pairs.
        def gate_group(group: str) -> None:
            names = set(record.get(group, {}))
            for name in sorted(names):
                values = _history_values(
                    history, case, lambda r: r.get(group, {}).get(name)
                )
                if not values:
                    continue
                value = float(record[group][name])
                if deterministic:
                    limit = _hard_limit(values, config)
                    kind = "hard"
                else:
                    limit = _soft_limit(values, config)
                    kind = "soft"
                report.gates.append(GateResult(
                    case=case, metric=f"{group}.{name}", kind=kind,
                    baseline=statistics.median(values), limit=limit,
                    value=value, regressed=value > limit,
                ))

        gate_group("counters")
        gate_group("peaks")

        pairs_history = _history_values(
            history, case, lambda r: r.get("pairs")
        )
        if pairs_history and record.get("pairs") is not None:
            baseline_pairs = statistics.median(pairs_history)
            value = float(record["pairs"])
            # Producing *fewer* pairs than baseline is also a failure:
            # the workload itself changed, which invalidates every
            # other metric of the case.
            report.gates.append(GateResult(
                case=case, metric="pairs", kind="hard",
                baseline=baseline_pairs, limit=baseline_pairs,
                value=value, regressed=value != baseline_pairs,
            ))
    return report


def compare_file(
    path: str,
    config: Optional[CompareConfig] = None,
) -> CompareReport:
    """Compare a trajectory file's newest entry against the rest.

    Raises :class:`ValueError` when the file holds fewer than two
    entries -- there is nothing to gate against yet.
    """
    data = load_trajectory(path)
    entries = data.get("entries", [])
    if len(entries) < 2:
        raise ValueError(
            f"{path} holds {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}; "
            f"a comparison needs a baseline plus a new run (>= 2)"
        )
    return compare_entries(entries[:-1], entries[-1], config)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.compare",
        description="gate the newest BENCH_<tier>.json entry against "
                    "the committed baseline history",
    )
    parser.add_argument(
        "--tier", default="smoke",
        help="tier whose trajectory to check (default: smoke)",
    )
    parser.add_argument(
        "--file", default=None, metavar="FILE",
        help="trajectory file (default: ./BENCH_<tier>.json)",
    )
    parser.add_argument("--hard-tol", type=float, default=0.01)
    parser.add_argument("--soft-rel", type=float, default=0.35)
    parser.add_argument("--mad-k", type=float, default=4.0)
    parser.add_argument(
        "--hard-only", action="store_true",
        help="soft (wall-time) regressions warn instead of failing "
             "(for CI runners with unpredictable machines)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every gate, not just regressions",
    )
    args = parser.parse_args(argv)

    path = args.file or trajectory_path(args.tier)
    config = CompareConfig(
        hard_tol=args.hard_tol, soft_rel=args.soft_rel,
        mad_k=args.mad_k,
    )
    try:
        report = compare_file(path, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.bench.reporting import format_table

    shown = [
        gate for gate in report.gates
        if args.verbose or gate.regressed
    ]
    if shown:
        print(format_table(
            [gate.row() for gate in shown],
            columns=[
                "case", "metric", "gate", "baseline", "limit", "new",
                "status",
            ],
            title=f"bench gate: {path}",
        ))
    unresolved = [g.case for g in report.gates if g.unresolved]
    if unresolved:
        print(f"unresolved (too short to time): {', '.join(unresolved)}")
    if report.new_cases:
        print(f"new cases (no baseline yet): "
              f"{', '.join(report.new_cases)}")
    if report.missing_cases:
        print(f"WARNING: cases missing from the newest run: "
              f"{', '.join(report.missing_cases)}")

    hard = report.hard_regressions
    soft = report.soft_regressions
    total = len(report.gates)
    if hard:
        print(f"FAIL: {len(hard)} hard regression(s), "
              f"{len(soft)} soft, {total} gates checked")
        return 1
    if soft and not args.hard_only:
        print(f"FAIL: {len(soft)} soft (wall-time) regression(s), "
              f"{total} gates checked")
        return 1
    if soft:
        print(f"WARN: {len(soft)} soft regression(s) ignored "
              f"(--hard-only), {total} gates checked")
    else:
        print(f"OK: {total} gates checked, no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
