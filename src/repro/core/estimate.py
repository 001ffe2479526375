"""Maximum-distance estimation from a bound on the number of result
pairs (paper Sections 2.2.4 and 2.3).

When the caller promises to consume at most ``K`` result pairs, the
algorithm can shrink the effective maximum distance ``D_max`` on the
fly: it maintains a set ``M`` of queue pairs whose generated object
pairs are guaranteed to fall inside the current ``[D_min, D_max]``
range, together with a lower bound on how many object pairs each can
generate.  As soon as the pairs in ``M`` can account for more than
``K`` object pairs, the entries with the largest ``d_max`` are evicted
and ``D_max`` drops to the evicted value -- everything farther can
never be needed.

``M`` is realized as an :class:`AddressableMaxQueue` (the paper's
``Q_M`` priority queue plus hash table).

Two variants exist:

- :class:`JoinEstimator` -- for the distance join; ``M`` is keyed by
  the *queue row*, named as the queue names it: by the sequence number
  :class:`~repro.core.tiebreak.KeyMaker` gave it (``abs(key[3])``).
  Counts multiply the two subtree cardinalities, and a row leaves ``M``
  when it is dequeued from the main queue.  A pair has exactly one
  generating expansion (a node has one parent, and the side expanded is
  a function of the pair's levels), so no two queued rows are the same
  pair and an entry is never replaced.
- :class:`SemiJoinEstimator` -- for the distance semi-join; ``M`` is
  keyed by the pair's *first item* (each outer object yields one result
  at most), counts use only the first item's subtree, an existing entry
  is replaced only by one with a smaller ``d_max``, and a node may not
  enter ``M`` after it has been expanded (its descendants may already
  be counted).

Both take a whole block per :meth:`offer` with sequential semantics
(each row tested against the ``D_max`` its predecessors left, trimmed
after); the join's loop is fused -- state in locals, one booking per
block -- and every trim, from either ``offer`` or ``on_report``, is
the one eviction loop :meth:`AddressableMaxQueue.trim`.

Subtree-cardinality bounds come from the tree's minimum fan-out
(*safe*: ``D_max`` never drops below the true K-th distance) or, in
*aggressive* mode, from average occupancy, which may over-trim and
force the driver to restart the query (paper's restart caveat,
signalled via :class:`repro.errors.RestartRequired`).
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional, Tuple

from repro.core.heap import AddressableMaxQueue
from repro.core.pairs import CandidateBlock, Item, Pair
from repro.util.counters import CounterRegistry

_INF = float("inf")


class _EstimatorBase:
    """State shared by the two estimator variants."""

    def __init__(
        self,
        k: int,
        dmin: float,
        dmax: float,
        counters: CounterRegistry,
        aggressive: bool = False,
    ) -> None:
        self.k = k
        self.dmin = dmin
        self.dmax = dmax
        self.counters = counters
        self.aggressive = aggressive
        self.trimmed = False
        self._m: AddressableMaxQueue = AddressableMaxQueue()
        self._total = 0

    @property
    def current_dmax(self) -> float:
        """The current (possibly estimator-reduced) maximum distance."""
        return self.dmax

    #: Extracts the generation count from a stored M value (None: the
    #: value is the count).
    _count_of = None

    def _settle(
        self, total: int, evicted: int, dmax: Optional[float]
    ) -> None:
        """Book a trim -- what :meth:`AddressableMaxQueue.trim`
        returned, or a block's worth of it: the remaining total and, if
        anything was evicted, ``D_max`` dropped to the last evicted
        d_max."""
        self._total = total
        if evicted:
            self.dmax = dmax
            self.trimmed = True
            self.counters.add("estimator_trims", evicted)

    def on_report(self) -> None:
        """One result pair was reported: one fewer still owed."""
        if self.k > 0:
            self.k -= 1
        # Evict largest-d_max entries while the remainder still covers
        # the k pairs we owe.  ``total < k`` leaves nothing to evict
        # whatever the largest entry's count is, so that case never
        # touches Q_M (here and in both ``offer`` loops).
        if self._total >= self.k:
            self._settle(*self._m.trim(self._total, self.k, self._count_of))

    @property
    def tracked_pairs(self) -> int:
        """Number of entries currently in M (introspection/testing)."""
        return len(self._m)

    @property
    def tracked_total(self) -> int:
        """Sum of generation lower bounds over M (introspection)."""
        return self._total

    # ------------------------------------------------------------------
    # suspendable-cursor support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """A picklable snapshot of the estimator (counters excluded).

        ``M`` is carried verbatim via
        :meth:`~repro.core.heap.AddressableMaxQueue.state` -- its
        insertion counter breaks priority ties, so the lazy-deletion
        structure must survive suspension for trims to replay
        identically.
        """
        return {
            "k": self.k,
            "dmin": self.dmin,
            "dmax": self.dmax,
            "aggressive": self.aggressive,
            "trimmed": self.trimmed,
            "m": self._m.state(),
            "total": self._total,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this estimator with a :meth:`state` snapshot.

        The counters reference set at construction is kept: snapshots
        never carry a registry.
        """
        self.k = state["k"]
        self.dmin = state["dmin"]
        self.dmax = state["dmax"]
        self.aggressive = state["aggressive"]
        self.trimmed = state["trimmed"]
        self._m.restore_state(state["m"])
        self._total = state["total"]


class JoinEstimator(_EstimatorBase):
    """Maximum-distance estimation for the distance join."""

    def offer(self, block: CandidateBlock, count: int) -> None:
        """Consider a keyed block of pairs just inserted into the main
        queue.

        Row ``r`` has MINDIST ``block.dists[r]``, d_max
        ``block.uppers[r]`` and the sequence number ``abs(block.seq0) +
        r``, its key in ``M``.  The block is one node expansion's worth
        (or a single pair), so child kind and level are uniform and
        ``count`` -- the lower bound on the object pairs each can
        generate (product of the two subtree bounds) -- is one value.
        Semantics are sequential: every row is tested against the
        ``dmax`` the rows before it left behind, and trimmed after,
        exactly as if offered one at a time.  The loop is fused: state
        in locals, booked once per block, and the insert written out
        (:meth:`AddressableMaxQueue.insert` for a key that is new and
        ascending, so the sequence number is the tie-break as well),
        which leaves one call per eligible row: the shared eviction
        loop.
        """
        m = self._m
        heap, live, trim = m._heap, m._live, m.trim
        dmin, dmax, k, total = self.dmin, self.dmax, self.k, self._total
        evicted = 0
        seq0 = abs(block.seq0)
        for seq, mindist, est_dmax in zip(
            range(seq0, seq0 + len(block.dists)), block.dists, block.uppers
        ):
            # All object pairs generated from an eligible pair are
            # certain to land inside [dmin, current dmax].
            if mindist >= dmin and est_dmax <= dmax:
                live[seq] = (est_dmax, count)
                heappush(heap, (-est_dmax, seq, seq))
                total += count
                if total >= k:
                    total, n, last = trim(total, k)
                    if n:
                        evicted += n
                        dmax = last
        self._settle(total, evicted, dmax)

    def on_dequeue(self, seq: int, item1: Item, item2: Item) -> None:
        """Row ``seq`` (the pair ``(item1, item2)``) left the main
        queue; its children will re-offer."""
        existing = self._m.delete(seq)
        if existing is not None:
            self._total -= existing[1]


class SemiJoinEstimator(_EstimatorBase):
    """Maximum-distance estimation for the distance semi-join.

    ``M`` entries are keyed by the first item; the stored value is
    ``(count, second-item identity)`` so that dequeues of the exact
    pair can be recognized.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._processed_first: set = set()

    def state(self) -> dict:
        out = super().state()
        out["processed_first"] = set(self._processed_first)
        return out

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._processed_first = set(state["processed_first"])

    @staticmethod
    def _count_of(value) -> int:
        # M values are (count, second-item identity) tuples here.
        return value[0]

    def offer(self, block: CandidateBlock, count: int) -> None:
        """Consider a block of pairs (the :meth:`JoinEstimator.offer`
        contract); ``count`` bounds the objects under each item1."""
        dmin = self.dmin
        m = self._m
        for row, (mindist, est_dmax) in enumerate(
            zip(block.dists, block.uppers)
        ):
            if not (mindist >= dmin and est_dmax <= self.dmax):
                continue
            item1 = block.first(row)
            first = item1.identity()
            if item1.is_node and first in self._processed_first:
                # The node was expanded before: its descendants may
                # already be represented in M, and re-adding it would
                # double-count.
                continue
            existing = m.get(first)
            if existing is not None:
                if existing[0] <= est_dmax:
                    continue  # keep the tighter existing entry
                self._total -= existing[1][0]
            m.insert(
                first, est_dmax, (count, block.second(row).identity())
            )
            self._total += count
            if self._total >= self.k:
                self._settle(*m.trim(self._total, self.k, self._count_of))

    def on_dequeue(self, seq: int, item1: Item, item2: Item) -> None:
        """Remove the exact pair ``(item1, item2)`` from M when it
        leaves the main queue (``M`` is keyed by the outer item, so
        ``seq`` goes unused)."""
        first = item1.identity()
        existing = self._m.get(first)
        if existing is not None and existing[1][1] == item2.identity():
            self._m.delete(first)
            self._total -= existing[1][0]

    def on_expand_first(self, pair: Pair) -> None:
        """Item1 (a node) is being expanded: bar it from M forever and
        drop any M entry keyed by it (its children take over)."""
        first = pair.item1.identity()
        self._processed_first.add(first)
        existing = self._m.delete(first)
        if existing is not None:
            self._total -= existing[1][0]

    def on_report_first(self, first_identity: Tuple) -> None:
        """A result for this outer object was reported: purge its M
        entry and decrement the owed-pair count."""
        existing = self._m.delete(first_identity)
        if existing is not None:
            self._total -= existing[1][0]
        self.on_report()
