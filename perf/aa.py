"""A/A check: is the benchmark steadier than its own bounds?

    python3 perf/aa.py [--runs N] [--out perf/AA_BASELINE.json]

Runs every workload of ``BENCHMARK.json`` as two sets of ``N``
alternating runs of this same checkout (A, B, A, B, ...), each run
with another seed, the way the acceptance driver does.  Per
``workload/metric`` it prints both medians, how much worse the worse
set is, each set's spread (inter-quartile distance over median) and
PASS or FAIL against the metric's bound:

* the two medians must agree within the bound;
* both spreads must stay within the bound (``setup_s`` excepted, as in
  the driver's rule).

Exits non-zero on any FAIL.  The noise rule for later issues: a timing
metric that fails here is fixed by lengthening the workload's script or
``run_seconds``, or it is moved to the per-layer list -- its bound is
not widened past 0.25 and it is never made an alias of another metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(
    command: List[str], workload: str, seed: int, seconds: int
) -> Dict[str, Any]:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}")
    return result["metrics"]


def spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (at least 5)")
    parser.add_argument("--seed", type=int, default=4001)
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable)")
    parser.add_argument("--out", help="also write the table as JSON")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    table: Dict[str, Any] = {}
    failures = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets: List[Dict[str, List[float]]] = [{}, {}]
        for index in range(2 * args.runs):
            metrics = run_once(
                spec["command"], workload, args.seed + index,
                spec["run_seconds"],
            )
            for name, metric in metrics.items():
                sets[index % 2].setdefault(name, []).append(
                    metric["value"]
                )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (statistics.median(s[name]) for s in sets)
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            spreads = [spread(s[name]) for s in sets]
            ok = abs(worse) <= bound and (
                name == "setup_s" or max(spreads) <= bound
            )
            failures += not ok
            table[f"{workload}/{name}"] = {
                "unit": metric["unit"], "median_a": a, "median_b": b,
                "b_worse_by": worse, "spread_a": spreads[0],
                "spread_b": spreads[1], "bound": bound, "pass": ok,
            }
            print(f"{workload + '/' + name:<32} A {a:12.4f}  B {b:12.4f} "
                  f"{metric['unit']:<8} B worse by {worse:+7.1%}  spread "
                  f"{spreads[0]:5.1%} {spreads[1]:5.1%}  bound {bound:.2f}"
                  f"  {'PASS' if ok else 'FAIL'}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "runs_per_set": args.runs, "first_seed": args.seed,
                "run_seconds": spec["run_seconds"], "results": table,
            }, handle, indent=1)
            handle.write("\n")
    print(f"{failures} of {len(table)} workload/metric pairs FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
