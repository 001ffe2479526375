"""``python -m repro.bench.suite`` -- the tiered benchmark runner.

Runs every :class:`~repro.bench.registry.BenchCase` registered for the
chosen tier min-of-N with fixed seeds, and **appends** one entry to
the performance trajectory file ``BENCH_<tier>.json`` (repo root by
default): wall time per case (all repetitions plus the min), the
paper's deterministic work counters (``dist_calcs``, ``node_io``,
queue peaks), span breakdowns from :mod:`repro.util.obs`, and an
environment fingerprint (interpreter, platform, CPU count, git
commit).  The trajectory is what :mod:`repro.bench.compare` gates
against, so the file is meant to be committed: each landed PR extends
the history, and a PR that quietly doubles ``dist_calcs`` fails the
gate instead of shipping.  A case registered with a checkpoint sweep
is run once and read at every mark (``checkpoints`` in its record).

Usage::

    python -m repro.bench.suite --tier smoke            # CI tier
    python -m repro.bench.suite --tier full             # paper scale;
                                  # minutes and ~2 GB, then re-render
                                  # EXPERIMENTS.md (repro.bench.report)
    python -m repro.bench.suite --tier smoke --trace t.json
    python -m repro.bench.suite --tier smoke --case 'fig6.*'

The ``--trace`` flag additionally exports the run as Chrome
trace-event JSON (Perfetto / ``chrome://tracing``) via
:mod:`repro.util.tracing`.
"""

from __future__ import annotations

import argparse
import fnmatch
import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro.bench.registry import BenchCase, TIERS, cases_for
from repro.bench.runner import run_join
from repro.bench.workloads import JoinWorkload, build_tiger_workload
from repro.util.obs import NULL_OBSERVER, Observer
from repro.util.telemetry import TraceContext

__all__ = [
    "environment_fingerprint",
    "load_trajectory",
    "main",
    "run_case",
    "run_suite",
    "summary",
    "trajectory_path",
    "write_entry",
]

#: Trajectory file schema version (bump on incompatible change).
SCHEMA_VERSION = 1

#: Entries retained per trajectory file; the oldest fall off so the
#: committed file stays reviewable.
MAX_ENTRIES = 100


def trajectory_path(tier: str, root: Optional[str] = None) -> str:
    """``BENCH_<tier>.json`` under ``root`` (default: cwd)."""
    return os.path.join(root or os.getcwd(), f"BENCH_{tier}.json")


def environment_fingerprint() -> Dict[str, Any]:
    """Where a measurement came from: interpreter, platform, CPU
    count, and (when available) the git commit of the tree.  An entry
    is appended before its own commit exists, so ``git`` names the
    *parent* whenever ``dirty`` is true."""
    fingerprint: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], capture_output=True, text=True, timeout=5,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    fingerprint["git"] = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain")
    fingerprint["dirty"] = None if status is None else bool(status)
    return fingerprint


def run_case(
    case: BenchCase,
    load: JoinWorkload,
    tier: str,
    repeat: int,
    suite_obs: Optional[Observer] = None,
) -> Dict[str, Any]:
    """Execute one case min-of-N and return its trajectory record.

    Every repetition runs against cold caches and reset counters;
    wall time keeps the minimum (the classic min-of-N noise filter --
    the minimum is the run least disturbed by the machine, and the
    first repetition carries one-off process warm-up: ``seconds_all``
    keeps it visible), while counters come from the last repetition
    and are checked for stability across repetitions -- at every
    checkpoint of a sweep, not only at its end.
    """
    pairs = case.pairs_for(tier)
    marks = case.checkpoints_for(tier)
    # Data-dependent knobs (an oracle MaxDist costs a join of its own)
    # are memoised on the workload: resolve them before the clock runs.
    case.spec_for(load, pairs)
    seconds_all: List[float] = []
    mark_seconds: Dict[str, List[float]] = {}
    counters_stable = True
    run = None
    reference = None
    case_obs = Observer(max_events=0)
    for __ in range(max(1, repeat)):
        obs = Observer(max_events=0)
        span = (
            suite_obs.span(f"case.{case.name}")
            if suite_obs is not None else NULL_OBSERVER.span("")
        )
        with span:
            run = run_join(
                lambda: case.build(load, obs, pairs),
                pairs,
                load.counters,
                label=case.name,
                # Every repetition starts from cold caches, zeroed
                # counters and a collected heap: what the previous
                # case left for the cyclic collector would otherwise
                # be paid for, at a random moment, by this one.
                before=lambda: (
                    load.cold_caches(), load.reset_counters(),
                    gc.collect(),
                ),
                checkpoints=marks,
            )
        seconds_all.append(run.seconds)
        for label, reading in run.checkpoints.items():
            mark_seconds.setdefault(label, []).append(
                reading.pop("seconds")
            )
        # Zeros dropped: a counter first touched late in repetition 1
        # already exists, at 0, in the early readings of repetition 2.
        counted = [
            {name: value for name, value in counts.items() if value}
            for reading in (
                {"counters": run.counters, "peaks": run.peaks},
                *run.checkpoints.values(),
            )
            for counts in (reading["counters"], reading["peaks"])
        ]
        if reference is None:
            reference = counted
        elif counted != reference:
            counters_stable = False
        case_obs = obs
    assert run is not None
    snapshot = case_obs.snapshot()
    record: Dict[str, Any] = {
        "description": case.description,
        "workload": load.name,
        "pairs_requested": pairs,
        "pairs": run.pairs_produced,
        "seconds": min(seconds_all),
        "seconds_all": [round(s, 6) for s in seconds_all],
        "counters": dict(run.counters),
        "peaks": dict(run.peaks),
        "spans": {
            name: [count, round(total, 6)]
            for name, (count, total, __, ___) in sorted(
                snapshot.spans.items()
            )
        },
        "deterministic": case.deterministic,
        "counters_stable": counters_stable,
    }
    if marks:
        record["checkpoints"] = {
            label: {
                "seconds": min(mark_seconds[label]),
                "seconds_all": [
                    round(s, 6) for s in mark_seconds[label]
                ],
                **reading,
            }
            for label, reading in run.checkpoints.items()
        }
    return record


def run_suite(
    tier: str,
    repeat: Optional[int] = None,
    scale: Optional[float] = None,
    case_pattern: Optional[str] = None,
    suite_obs: Optional[Observer] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run a tier's cases and return one trajectory entry (not yet
    written; see :func:`write_entry`)."""
    config = TIERS[tier]
    repeat = repeat if repeat is not None else config.repeat
    scale = scale if scale is not None else config.scale
    cases = cases_for(tier)
    if case_pattern:
        cases = [
            case for case in cases
            if fnmatch.fnmatch(case.name, case_pattern)
        ]
    loads: Dict[Any, JoinWorkload] = {}

    def load_for(case: BenchCase) -> JoinWorkload:
        key = (case.workload, min(scale, case.max_scale or scale))
        if key not in loads:
            # Water x Roads at the tier's scale serves most cases and
            # stays; of the others only the one in use is kept (cases
            # sharing one are registered together, and two paper-scale
            # trees are a few hundred MB).
            for other in list(loads):
                if other != (build_tiger_workload, scale):
                    del loads[other]
            loads[key] = case.workload(key[1])
        return loads[key]

    results: Dict[str, Any] = {}
    for case in cases:
        if progress is not None:
            progress(case)
        results[case.name] = run_case(
            case, load_for(case), tier, repeat, suite_obs=suite_obs
        )
    return {
        "meta": {
            "suite": tier,
            "scale": scale,
            "repeat": repeat,
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            **environment_fingerprint(),
        },
        "cases": results,
    }


def load_trajectory(path: str) -> Dict[str, Any]:
    """Read a trajectory file; a missing file is an empty history."""
    if not os.path.exists(path):
        return {"schema": SCHEMA_VERSION, "entries": []}
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError(
            f"{path} is not a BENCH trajectory file "
            f"(expected an object with an 'entries' list)"
        )
    return data


def write_entry(
    path: str, entry: Dict[str, Any], reset: bool = False
) -> Dict[str, Any]:
    """Append ``entry`` to the trajectory at ``path`` (capped at
    :data:`MAX_ENTRIES`, oldest dropped); returns the file content.

    The file is the committed history: it is replaced atomically (a
    flushed, synced temporary file beside it, then ``os.replace``), so an
    interrupt or a full disk mid-dump leaves the old bytes in place.
    """
    data = (
        {"schema": SCHEMA_VERSION, "entries": []}
        if reset else load_trajectory(path)
    )
    data["schema"] = SCHEMA_VERSION
    data["entries"].append(entry)
    if len(data["entries"]) > MAX_ENTRIES:
        data["entries"] = data["entries"][-MAX_ENTRIES:]
    scratch = f"{path}.{os.getpid()}.tmp"
    try:
        with open(scratch, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        if os.path.exists(scratch):
            os.unlink(scratch)
        raise
    return data


def summary(entry: Dict[str, Any]) -> str:
    """One line per case of an entry: time, distance calculations,
    node I/O (what ``suite`` and ``repro bench`` print)."""
    return "\n".join(
        f"{name:<32} {record['seconds']*1e3:9.2f} ms  "
        f"dist_calcs={record['counters'].get('dist_calcs', 0):>9,}  "
        f"node_io={record['counters'].get('node_io', 0):>6,}"
        + ("" if record["counters_stable"] else "  [UNSTABLE]")
        for name, record in entry["cases"].items()
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.suite",
        description="run the tiered benchmark suite and append the "
                    "results to BENCH_<tier>.json",
    )
    parser.add_argument(
        "--tier", default="smoke", choices=sorted(TIERS),
        help="which registered tier to run (default: smoke)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="min-of-N repetitions per case (default: the tier's)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale override (default: the tier's)",
    )
    parser.add_argument(
        "--case", default=None, metavar="GLOB",
        help="only run cases whose name matches this glob",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="trajectory file (default: ./BENCH_<tier>.json)",
    )
    parser.add_argument(
        "--reset", action="store_true",
        help="start a fresh trajectory instead of appending",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also export the run as Chrome trace-event JSON "
             "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the tier's registered cases and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for case in cases_for(args.tier):
            pairs = case.pairs.get(args.tier)
            print(f"{case.name:<32} pairs={pairs!s:<8} "
                  f"{'hard-gated' if case.deterministic else 'soft'}  "
                  f"{case.description}")
        return 0

    suite_obs = Observer(trace=TraceContext.mint())
    started = time.perf_counter()
    entry = run_suite(
        args.tier, repeat=args.repeat, scale=args.scale,
        case_pattern=args.case, suite_obs=suite_obs,
        progress=lambda case: print(
            f"  running {case.name} ...", file=sys.stderr
        ),
    )
    elapsed = time.perf_counter() - started
    if not entry["cases"]:
        print("error: no cases matched", file=sys.stderr)
        return 2

    out = args.out or trajectory_path(args.tier)
    data = write_entry(out, entry, reset=args.reset)
    print(summary(entry))
    print(
        f"suite '{args.tier}': {len(entry['cases'])} case(s) in "
        f"{elapsed:.2f}s -> {out} "
        f"(entry {len(data['entries'])}/{MAX_ENTRIES})"
    )
    if args.trace:
        from repro.util.tracing import observer_trace, write_chrome_trace

        write_chrome_trace(
            args.trace,
            observer_trace(
                suite_obs, process_name="repro.bench.suite",
                thread_name=f"tier-{args.tier}",
            ),
            metadata={"tier": args.tier, "entry": entry["meta"]},
        )
        print(f"trace -> {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
