"""Shard router pruning -- routed vs pruned shard pairs and wall time.

Runs the Water ⋈ Roads ``STOP AFTER k`` workload through the
sequential :class:`IncrementalDistanceJoin` and through
:class:`repro.shard.ShardRouterJoin` at several shard counts, twice
per shard count:

- **unpruned**: the full join consumed to exhaustion -- every shard
  pair that survives range pruning must eventually be routed;
- **pruned**: ``STOP AFTER k`` -- lazy admission opens shard pairs in
  MINDIST order only as the merge frontier reaches their bound, so
  the far pairs are never touched.

The table reports the routed/pruned split (deterministic: the same
workload always routes the same pairs) and the wall-clock effect.
Results are bit-identical to the sequential join either way; the
shard counters are what this benchmark is really about, and the
``shard.router_pruning`` case in the smoke suite hard-gates them.

Usage::

    python benchmarks/bench_shard_router.py            # full table
    python benchmarks/bench_shard_router.py --tiny     # CI smoke
"""

from __future__ import annotations

from typing import List, Optional

import pytest

import sys as _sys
from pathlib import Path as _Path

# Allow `python benchmarks/bench_*.py` without installing the
# benchmarks package (pytest imports it via the repo root).
_sys.path.insert(0, str(_Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    SCRIPT_SCALE,
    TEST_SCALE,
    bench_args,
    best_of,
    emit,
    workload,
)
from repro.bench.reporting import write_run_metrics
from repro.bench.runner import consume, run_join
from repro.core.distance_join import IncrementalDistanceJoin
from repro.shard import ShardRouterJoin, clear_caches

#: Shard counts swept by the script (per relation; pairs = N x N).
SHARD_COUNTS = [2, 4, 8]

#: STOP AFTER sizes swept by the full script run.
SCRIPT_PAIRS = [100, 1000]


def _fresh_router(load, shards: int, pairs: Optional[int]):
    """A router over fresh catalogs with all caches bypassed, so every
    repetition measures the same work (build + route + join)."""
    clear_caches()
    return ShardRouterJoin(
        load.tree1, load.tree2, shards=shards, max_pairs=pairs,
        counters=load.counters, catalog_cache=False,
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_shard_router_smoke(benchmark, shards):
    load = workload(TEST_SCALE)

    def once():
        load.cold_caches()
        load.reset_counters()
        consume(_fresh_router(load, shards, 50))

    benchmark(once)


def test_pruning_is_deterministic():
    load = workload(TEST_SCALE)
    snaps = []
    for __ in range(2):
        load.cold_caches()
        load.reset_counters()
        consume(_fresh_router(load, 4, 50))
        snaps.append({
            key: value
            for key, value in load.counters.snapshot().items()
            if key.startswith("shard_pairs")
        })
    assert snaps[0] == snaps[1]
    assert snaps[0]["shard_pairs_pruned"] > 0


def _shard_counters(run) -> dict:
    return {
        "routed": run.counters.get("shard_pairs_routed", 0),
        "pruned": run.counters.get("shard_pairs_pruned", 0),
        "total": run.counters.get("shard_pairs_total", 0),
    }


def _measure(
    load, pairs: int,
    measured: Optional[List[tuple]] = None,
    repeat: int = 1,
) -> List[dict]:
    rows = []
    sequential = best_of(repeat, lambda: run_join(
        lambda: IncrementalDistanceJoin(
            load.tree1, load.tree2,
            max_pairs=pairs, counters=load.counters,
        ),
        pairs, load.counters, before=load.cold_caches,
        label="sequential",
    ))
    if measured is not None:
        measured.append((sequential, {"pairs_requested": pairs}))
    rows.append({
        "variant": "sequential",
        "k": pairs,
        "pairs": sequential.pairs_produced,
        "time_s": round(sequential.seconds, 4),
        "routed": "-",
        "pruned": "-",
        "dist_calcs": sequential.dist_calcs,
    })
    for shards in SHARD_COUNTS:
        for mode, cap in (("unpruned", None), ("pruned", pairs)):
            run = best_of(repeat, lambda: run_join(
                lambda: _fresh_router(load, shards, cap),
                None, load.counters, before=load.cold_caches,
                label=f"shards-{shards}-{mode}",
            ))
            counters = _shard_counters(run)
            if measured is not None:
                measured.append((run, {
                    "pairs_requested": pairs,
                    "shards": shards,
                    "mode": mode,
                }))
            rows.append({
                "variant": f"shards x{shards} ({mode})",
                "k": pairs if mode == "pruned" else "-",
                "pairs": run.pairs_produced,
                "time_s": round(run.seconds, 4),
                "routed": (
                    f"{counters['routed']}/{counters['total']}"
                ),
                "pruned": counters["pruned"],
                "dist_calcs": run.dist_calcs,
            })
    return rows


def _configure(parser) -> None:
    parser.add_argument(
        "--tiny", action="store_true",
        help="one small configuration (CI smoke test)",
    )
    parser.set_defaults(scale=None)


def main(argv: Optional[List[str]] = None) -> None:
    args = bench_args(
        argv, "shard router pruning benchmark", configure=_configure
    )

    if args.tiny:
        scale = args.scale if args.scale is not None else 0.005
        pair_sweep = [50]
    else:
        scale = args.scale if args.scale is not None else SCRIPT_SCALE
        pair_sweep = SCRIPT_PAIRS

    load = workload(scale)
    rows = []
    measured: Optional[List[tuple]] = [] if args.metrics else None
    for pairs in pair_sweep:
        rows.extend(_measure(load, pairs, measured, repeat=args.repeat))
    emit(
        args, rows,
        columns=[
            "variant", "k", "pairs", "time_s", "routed", "pruned",
            "dist_calcs",
        ],
        title=(
            f"Shard router pruning, Water x Roads at scale {scale:g}"
        ),
    )
    if args.metrics and measured:
        write_run_metrics(
            args.metrics,
            [run for run, __ in measured],
            [labels for __, labels in measured],
        )
        print(f"metrics -> {args.metrics} (+ .prom)")


if __name__ == "__main__":
    main()
