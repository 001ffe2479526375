"""Measured execution of join iterators.

A :class:`MeasuredRun` captures elapsed time plus the counter totals
the paper's Table 1 reports (distance calculations, maximum queue
size, node I/O) for producing a given number of result pairs.

Timing always uses the monotonic ``time.perf_counter`` clock --
``time.time`` is subject to NTP adjustment and coarse resolution,
which makes small benchmark runs noisy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.util.counters import CounterRegistry


@dataclass
class MeasuredRun:
    """Outcome of one measured join execution."""

    label: str
    pairs_requested: Optional[int]
    pairs_produced: int
    seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    peaks: Dict[str, int] = field(default_factory=dict)
    #: Readings taken inside the run, keyed by checkpoint label
    #: (``"1000"``, ``"all"``): seconds, counters and peaks so far.
    checkpoints: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def dist_calcs(self) -> int:
        """Object distance calculations (Table 1 measure)."""
        return self.counters.get("dist_calcs", 0)

    @property
    def node_io(self) -> int:
        """Buffer-pool misses on tree nodes (Table 1 measure)."""
        return self.counters.get("node_io", 0)

    @property
    def max_queue_size(self) -> int:
        """Peak priority-queue size (Table 1 measure)."""
        return self.peaks.get("queue_size", 0)

    def row(self) -> Dict[str, Any]:
        """A flat dict for table formatting."""
        return {
            "label": self.label,
            "pairs": self.pairs_produced,
            "time_s": round(self.seconds, 4),
            "dist_calcs": self.dist_calcs,
            "max_queue": self.max_queue_size,
            "node_io": self.node_io,
        }


def consume(iterator: Iterator[Any], limit: Optional[int] = None) -> int:
    """Pull up to ``limit`` items (all of them when None); returns the
    number consumed."""
    count = 0
    for __ in iterator:
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def checkpoint_label(mark: Optional[int]) -> str:
    """How a checkpoint is keyed in a record (None = exhaustion)."""
    return "all" if mark is None else str(mark)


def run_join(
    make_join,
    pairs: Optional[int],
    counters: CounterRegistry,
    label: str = "",
    before=None,
    checkpoints: Sequence[Optional[int]] = (),
) -> MeasuredRun:
    """Build a join via ``make_join()``, consume ``pairs`` results, and
    capture time + counters.

    ``checkpoints`` (ascending result counts ending at ``pairs``; None
    = exhaustion) makes the run a sweep: the join is incremental, so
    the K-pair measurement is a prefix of the longer run, and the
    reading taken when result K arrives is exactly what a run stopped
    there reports.  A count the join runs dry before is not recorded.

    Counters are reset before the run so the measurement covers exactly
    this execution (including the join's own tree reads).  ``before``
    is an optional callable run first -- typically
    ``workload.cold_caches`` so node I/O starts from a cold buffer
    pool.
    """
    if before is not None:
        before()
    counters.reset()
    start = time.perf_counter()
    join = make_join()
    stream = iter(join)
    produced = 0
    readings: Dict[str, Dict[str, Any]] = {}
    for mark in checkpoints or (pairs,):
        produced += consume(
            stream, None if mark is None else mark - produced
        )
        if mark is not None and produced < mark:
            continue
        if checkpoints:
            readings[checkpoint_label(mark)] = {
                "seconds": time.perf_counter() - start,
                "counters": dict(counters.snapshot()),
                "peaks": dict(counters.snapshot_peaks()),
            }
    elapsed = time.perf_counter() - start
    if pairs is not None and hasattr(join, "close"):
        # Stopped early: release a partitioned join's pool and let it
        # finalize its routing counters inside this measurement, not
        # whenever the collector finds it.
        join.close()
    return MeasuredRun(
        label=label,
        pairs_requested=pairs,
        pairs_produced=produced,
        seconds=elapsed,
        counters=dict(counters.snapshot()),
        peaks=dict(counters.snapshot_peaks()),
        checkpoints=readings,
    )
