"""End-to-end measurement: set-ups, checked replays, the six metrics.

Run shape: three to eight complete set-ups (``setup_s`` sums each
set-up phase's fastest execution), the reference rows by a different
code path, one warm-up replay of the workload's fixed script, then
timed replays until ``--seconds`` of measured time have passed (at
least ``MIN_REPLAYS``).

The script is fixed, so step *i* does the same work in every replay --
the step count and the row checksum are checked to be identical -- and
differs only by what disturbed it.  Host contention on a shared runner
only ever adds time, so each step's fastest execution across replays
is kept and every timing metric is computed from those undisturbed
step times.  The median whole replay is printed beside each metric so
that a disturbed run is visible.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional

from perf import workloads

MIN_REPLAYS = 3
#: At least SETUPS complete set-ups; more (up to MAX_SETUPS) while they
#: have taken under SETUP_SECONDS together.
SETUPS = 3
MAX_SETUPS = 8
SETUP_SECONDS = 2.5

#: name -> (unit, True when lower is better); the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", True),
    "first_pair_ms": ("ms", True),
    "pairs_per_s": ("pairs/s", False),
    "op_p50_ms": ("ms", True),
    "op_p90_ms": ("ms", True),
    "peak_rss_mb": ("MiB", True),
}


def percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile, linearly interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def script_metrics(
    steps: List[float], replay: Any
) -> Dict[str, float]:
    """The four per-script metrics from one duration per step."""
    ops = [sum(steps[i] for i in op) for op in replay.ops]
    firsts = [sum(steps[i] for i in first) for first in replay.firsts]
    return {
        "first_pair_ms": statistics.median(firsts) * 1e3,
        "pairs_per_s": replay.rows / sum(steps),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
    }


def load_expected(path: Path, smoke: bool) -> Dict[str, str]:
    with open(path) as handle:
        return json.load(handle)["smoke" if smoke else "full"]


class Run:
    """Set-ups, reference rows, and the bookkeeping of checked replays."""

    def __init__(self, args: argparse.Namespace, timed_setup: bool) -> None:
        self.attempted = 0
        self.failed = 0
        self.shape: Optional[tuple] = None
        self.digest: Optional[str] = None
        self.expected_digest: Optional[str] = None
        if args.seed == workloads.DEFAULT_SEED:
            self.expected_digest = load_expected(
                Path(args.expected), args.smoke
            ).get(args.workload)
        # Set-up is a fixed script too: time its phases (generate each
        # map, load each tree, boot the service, register each
        # subscription) and keep each phase's fastest execution.
        phases: List[List[float]] = []
        spent = 0.0
        while not phases or timed_setup and (
            len(phases) < SETUPS
            or spent < SETUP_SECONDS and len(phases) < MAX_SETUPS
        ):
            if phases:
                workload.close()
            gc.collect()
            workload = workloads.make_workload(
                args.workload, args.seed, smoke=args.smoke
            )
            steps = workloads.Steps()
            workload.setup(steps)
            phases.append(steps.durations)
            spent += sum(steps.durations)
        self.setup_s = sum(min(column) for column in zip(*phases))
        self.setups = len(phases)
        self.workload = workload
        workload.reference()

    def replay(self, timed_part_done: Any = None) -> Any:
        """One replay, checked: rows as the reference path computes
        them, the same steps and checksum as every other replay, and
        -- for the default seed -- the committed checksum.  A replay
        that fails any check fails all its ops."""
        replay = self.workload.repeat()
        if timed_part_done is not None:
            timed_part_done()
        self.workload.check(replay)
        replay.results = None  # checked; keep only the samples
        shape = (len(replay.steps), replay.ops, replay.firsts, replay.digest)
        if self.shape is None:
            self.shape = shape
            self.digest = replay.digest
            if self.expected_digest not in (None, replay.digest):
                replay.notes.append(
                    f"checksum {replay.digest} is not the committed "
                    f"{self.expected_digest}"
                )
        if shape != self.shape:
            replay.notes.append("steps or checksum differ between replays")
        self.attempted += len(replay.ops)
        if replay.notes:
            self.failed += len(replay.ops)
        for note in replay.notes:
            print(f"  FAILED: {note}")
        return replay

    def close(self) -> None:
        self.workload.close()


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    run = Run(args, timed_setup=not args.smoke)
    try:
        run.replay()  # warm-up: SoA mirrors, buffer pools, caches
        replays = []
        measured = 0.0
        while measured < args.seconds or len(replays) < MIN_REPLAYS:
            replay = run.replay()
            replays.append(replay)
            measured += sum(replay.steps)
            if args.smoke:
                break
    finally:
        run.close()

    # The script is fixed, so step i does the same work in every
    # replay and differs only by what disturbed it: keep its fastest
    # execution.
    quiet = [min(column) for column in zip(*(r.steps for r in replays))]
    values = script_metrics(quiet, replays[0])
    values["setup_s"] = run.setup_s
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    whole = [script_metrics(r.steps, r) for r in replays]

    first = replays[0]
    print(f"workload {args.workload}  seed {args.seed}: {len(replays)} "
          f"replays of {len(first.steps)} steps, {len(first.ops)} ops, "
          f"{first.rows} rows and {sum(first.steps):.2f} s each, after "
          f"{run.setups} set-ups and one warm-up replay; one closed-loop "
          "client")
    print(f"checksum {run.digest}")
    print(f"  {'metric':<14} {'value':>12} {'unit':<8} "
          f"{'median replay':>14} {'off by':>7}")
    for name, (unit, lower) in END_TO_END.items():
        line = f"  {name:<14} {values[name]:12.4f} {unit:<8}"
        if name in whole[0]:
            typical = statistics.median(m[name] for m in whole)
            off = abs(typical - values[name]) / values[name]
            line += f" {typical:14.4f} {off:7.1%}"
        print(line)
    print(f"  {'error_rate':<14} {run.failed / run.attempted:12.4f} "
          f"{'ratio':<8} ({run.failed} of {run.attempted} ops failed)")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, __) in END_TO_END.items()
        },
    }
