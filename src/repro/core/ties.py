"""Canonical tie order over a sequential join.

The incremental join reports equal-distance pairs in traversal order
(Section 2.2.2's tie-breaking decides which node pair expands first).
:class:`CanonicalTies` re-emits each equal-distance group in ``(oid1,
oid2)`` order, so every SQL plan -- any node policy, the shard
router's merge, a cursor resumed at any page -- returns the same rows
in the same order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.core.distance_join import IncrementalDistanceJoin, JoinResult

__all__ = ["CanonicalTies"]


class CanonicalTies:
    """A sequential join's results with every equal-distance group in
    ``(oid1, oid2)`` order, cut at the join's ``max_pairs`` only once
    the group holding the cap-th result is complete.

    A stream cut at exactly ``cap`` results could split a tie group in
    the join's traversal order, dropping members that rank earlier in
    the canonical ``(distance, oid1, oid2)`` order than kept ones -- a
    consumer would then see a traversal-dependent subset of the ties.
    Extending past the cap to the end of the boundary group restores
    determinism and stays safe to truncate there: any dropped pair is
    strictly farther than ``cap`` pairs of this stream alone.  Past the
    cap the join's bound is raised one result at a time to peek at the
    tie tail; estimation cannot have pruned that tail, because its
    bound is an upper bound on the ``cap``-th distance and the join
    prunes strictly above it.

    A group is complete once the join's queue head lies strictly beyond
    its distance -- a pure probe, and on tie-free input the only cost,
    one per result -- or once the join yields a result beyond it, which
    is held for the next group (or, past the cap, dropped).  The state
    is explicit fields, not generator state, so it suspends with its
    owner (:meth:`state`).
    """

    __slots__ = (
        "join", "cap", "pulled", "emitted", "ready", "held", "done",
    )

    def __init__(
        self,
        join: IncrementalDistanceJoin,
        saved: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.join = join
        self.cap = join.spec.max_pairs
        if saved is None:
            self.pulled = 0
            self.emitted = 0
            self.ready: Deque[JoinResult] = deque()
            self.held: Optional[JoinResult] = None
            self.done = False
        else:
            self.pulled = saved["pulled"]
            self.emitted = saved["emitted"]
            self.ready = deque(JoinResult(*r) for r in saved["ready"])
            held = saved["held"]
            self.held = None if held is None else JoinResult(*held)
            self.done = saved["done"]

    @property
    def exhausted(self) -> bool:
        return self.done and not self.ready

    def __iter__(self) -> "CanonicalTies":
        return self

    def __next__(self) -> JoinResult:
        if not self.ready:
            if not self.done:
                self._collect()
            if not self.ready:
                raise StopIteration
        self.emitted += 1
        return self.ready.popleft()

    def _pull(self, tail: bool) -> Optional[JoinResult]:
        """The join's next result; past the cap only for a tie tail."""
        if self.cap is not None and self.pulled >= self.cap:
            if not tail:
                return None
            self.join.max_pairs = self.pulled + 1
        try:
            result = next(self.join)
        except StopIteration:
            return None
        self.pulled += 1
        return result

    def _complete(self, distance: float) -> bool:
        join = self.join
        # The queue is the join's whole state; its head probe charges
        # nothing and touches no tier.
        head = join._queue.head_distance()
        if head is None:
            # Empty: done -- unless an aggressive estimator's restart
            # is due, whose replay may still reach this distance.
            return join.progress_signals()["done"]
        return head > (-distance if join.descending else distance)

    def _collect(self) -> None:
        """Fill :attr:`ready` with the next complete group, sorted."""
        first = self.held if self.held is not None else self._pull(False)
        self.held = None
        if first is None:
            self.done = True
            return
        group = [first]
        distance = first.distance
        while not self._complete(distance):
            within_cap = self.cap is None or self.pulled < self.cap
            result = self._pull(tail=True)
            if result is None:
                self.done = True
                break
            if result.distance != distance:
                if within_cap:
                    self.held = result
                else:
                    self.done = True
                break
            group.append(result)
        if (
            self.cap is not None and self.pulled >= self.cap
            and self.held is None
        ):
            self.done = True
        if len(group) > 1:
            group.sort(key=lambda r: (r.oid1, r.oid2))
        self.ready.extend(group)

    def state(self) -> Dict[str, Any]:
        return {
            "pulled": self.pulled,
            "emitted": self.emitted,
            "ready": [tuple(r) for r in self.ready],
            "held": None if self.held is None else tuple(self.held),
            "done": self.done,
        }
