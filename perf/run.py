"""The repository's benchmark: one workload per process.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off (:mod:`perf.measure`);
``--trace 1`` is a separate run that installs the boundary wrappers of
:mod:`perf.trace` and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one replay (perf's own test)")
    parser.add_argument("--expected", default=str(EXPECTED_FILE),
                        help="committed checksums of the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: no src/repro beside perf/ -- run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing feeds dict/set layout; pin it so two runs of
        # one seed execute the same instructions.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perf import measure, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.trace:
        result = trace.measure_layers(args)
    else:
        result = measure.measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
