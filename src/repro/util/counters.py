"""Performance-counter registry.

The paper's Table 1 reports three performance measures besides wall
clock time: object distance calculations, maximum priority-queue size,
and node I/O operations.  Every component of this library reports its
work through a :class:`CounterRegistry` so the benchmark harness can
collect exactly those measures (and more) deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple


class Counter:
    """A single named counter tracking a running total and a high-water mark.

    ``add`` accumulates into ``value``; ``observe`` additionally updates
    ``peak`` with the supplied level (used for gauge-style measures such
    as the current queue size).
    """

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.peak = 0

    def add(self, amount: int = 1) -> None:
        """Increase the running total by ``amount``."""
        self.value += amount
        if self.value > self.peak:
            self.peak = self.value

    def observe(self, level: int) -> None:
        """Record an instantaneous level; updates the high-water mark."""
        if level > self.peak:
            self.peak = level

    def reset(self) -> None:
        """Zero both the running total and the high-water mark."""
        self.value = 0
        self.peak = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value}, peak={self.peak})"


@dataclass
class CounterSnapshot:
    """A frozen, picklable view of a registry: totals plus peaks.

    Snapshots are plain dataclasses of dicts, so they pickle cheaply
    (cursors carry one) and subtract (:meth:`delta_from`).
    """

    values: Dict[str, int] = field(default_factory=dict)
    peaks: Dict[str, int] = field(default_factory=dict)

    def value(self, name: str) -> int:
        """Total of ``name`` at snapshot time (0 if never touched)."""
        return self.values.get(name, 0)

    def peak(self, name: str) -> int:
        """High-water mark of ``name`` at snapshot time."""
        return self.peaks.get(name, 0)

    def delta_from(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """The increment between ``earlier`` and this snapshot.

        Values subtract (what happened in between); peaks keep this
        snapshot's high-water marks (a peak is a level, not a flow).
        Used to report the work of one query against a registry that
        outlives it.

        A total *below* the earlier snapshot's means the registry was
        ``reset()`` in between; everything it now reports happened
        since that reset, so the delta is the current total.  Deltas
        are therefore never negative.
        """
        values: Dict[str, int] = {}
        for name, total in self.values.items():
            previous = earlier.values.get(name, 0)
            increment = total - previous if total >= previous else total
            if increment:
                values[name] = increment
        return CounterSnapshot(values=values, peaks=dict(self.peaks))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value}" for name, value in sorted(self.values.items())
        )
        return f"CounterSnapshot({body})"


class CounterRegistry:
    """A mapping of counter names to :class:`Counter` objects.

    Counters are created on first use, so components can simply call
    ``registry.add("node_io")`` without prior registration.

    Well-known counter names used by this library:

    - ``node_io``            -- R-tree node reads that missed the buffer pool
    - ``node_reads``         -- all R-tree node reads (hit or miss)
    - ``dist_calcs``         -- object/object distance computations
    - ``bound_calcs``        -- node/rect MINDIST / MAXDIST computations
    - ``queue_inserts``      -- insertions into the main pair queue
    - ``queue_size``         -- gauge: current main-queue size (peak matters)
    - ``pq_disk_writes``     -- hybrid-queue pair records written to disk
    - ``pq_disk_reads``      -- hybrid-queue pair records read back
    - ``pairs_reported``     -- result pairs produced
    - ``pruned_range``       -- pairs pruned by the [Dmin, Dmax] range
    - ``pruned_seen``        -- semi-join pairs pruned by the seen-set
    - ``pruned_dmax``        -- semi-join pairs pruned by d_max bounds
    - ``estimator_trims``    -- Dmax reductions by the K-pairs estimator
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it if needed."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def add(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``self.counter(name).add(amount)``."""
        self.counter(name).add(amount)

    def observe(self, name: str, level: int) -> None:
        """Shorthand for ``self.counter(name).observe(level)``."""
        self.counter(name).observe(level)

    def value(self, name: str) -> int:
        """Current total of ``name`` (0 if the counter was never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def peak(self, name: str) -> int:
        """High-water mark of ``name`` (0 if never touched)."""
        counter = self._counters.get(name)
        return counter.peak if counter is not None else 0

    def reset(self) -> None:
        """Reset every counter to zero without discarding them."""
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self) -> Mapping[str, int]:
        """An immutable view of current totals, for reporting."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot_peaks(self) -> Mapping[str, int]:
        """An immutable view of current peaks, for reporting."""
        return {name: c.peak for name, c in sorted(self._counters.items())}

    def full_snapshot(self) -> CounterSnapshot:
        """Totals and peaks together as a picklable value object."""
        return CounterSnapshot(
            values={n: c.value for n, c in self._counters.items()},
            peaks={n: c.peak for n, c in self._counters.items()},
        )

    def __iter__(self) -> Iterator[Tuple[str, Counter]]:
        return iter(sorted(self._counters.items()))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={c.value}" for name, c in sorted(self._counters.items())
        )
        return f"CounterRegistry({body})"


#: A default registry used when callers do not supply their own.  The
#: benchmark harness always creates private registries; the global one
#: exists so simple interactive use "just works".
GLOBAL_COUNTERS = CounterRegistry()
