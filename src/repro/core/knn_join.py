"""k-nearest-neighbour join: the natural generalization of the
distance semi-join.

The paper's distance semi-join reports, for each outer object, its
single nearest inner object.  Modern spatial engines generalize this
to the *k-NN join*: each outer object is paired with its ``k`` nearest
inner objects, pairs still reported globally in increasing distance
(so the operator stays incremental and pipelineable).  With ``k = 1``
this class is exactly the distance semi-join.

The paper's pruning machinery generalizes soundly:

- the seen *bit string* becomes a per-object counter: pairs whose
  outer object already has ``k`` partners are filtered (Outside /
  Inside1 / Inside2 placements unchanged);
- the d_max bounds generalize from the minimum to the k-th smallest:
  if ``k`` sibling candidate pairs ``(i1, e_1..e_k)`` exist, every
  outer object under ``i1`` has ``k`` partners within the k-th
  smallest ``d_max`` (each non-empty ``e_j`` contributes at least one
  distinct partner), so a pair whose MINDIST exceeds that bound can
  contain none of the k-NN results;
- the maximum-distance estimator's per-pair generation count becomes
  ``count(i1) * min(k, count(i2))``.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pairs import NODE, CandidateBlock, Item, Pair
from repro.core.spec import JoinSpec
from repro.core.semi_join import (
    DMAX_GLOBAL_ALL,
    DMAX_GLOBAL_NODES,
    INSIDE1,
    INSIDE2,
    IncrementalDistanceSemiJoin,
)
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer
from repro.util.validation import require


class KNearestNeighborJoin(IncrementalDistanceSemiJoin):
    """For each outer object, its ``k`` nearest inner objects, pairs in
    global distance order.

    Takes every :class:`IncrementalDistanceSemiJoin` parameter plus
    ``k`` (default 1 = the paper's semi-join).
    """

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        spec: Optional[JoinSpec] = None,
        *,
        k: int = 1,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        check_consistency: bool = False,
        _resume: Optional[Dict[str, Any]] = None,
    ) -> None:
        require(k >= 1, "k must be at least 1")
        self.k = k
        super().__init__(
            tree1, tree2, spec, counters=counters, observer=observer,
            check_consistency=check_consistency, _resume=_resume,
        )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def _init_state(self) -> None:
        self._partner_counts: Dict[int, int] = {}
        self._done_count = 0
        # Per-first-item k smallest d_max values (max-heap via negation)
        # for the global strategies.
        self._bound_lists: Dict[Tuple, List[float]] = {}
        super()._init_state()

    def _object_done(self, oid: int) -> bool:
        return self._partner_counts.get(oid, 0) >= self.k

    def _complete(self) -> bool:
        return self._done_count >= len(self.tree1)

    # ------------------------------------------------------------------
    # counter-based filtering (replaces the bitset)
    # ------------------------------------------------------------------

    def _skip_result(self, item1: Item, item2: Item) -> bool:
        if self._object_done(item1.oid):
            self.counters.add("pruned_seen")
            return True
        return False

    def _skip_popped(self, pair: Pair) -> bool:
        item1 = pair.item1
        if (
            self.filter_strategy in (INSIDE1, INSIDE2)
            and item1.kind != NODE
            and self._object_done(item1.oid)
        ):
            self.counters.add("pruned_seen")
            return True
        if self.dmax_strategy in (DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL):
            bound = self._global_bound(item1.identity())
            if bound is not None and pair.distance > bound:
                self.counters.add("pruned_dmax")
                return True
        return False

    def _keep_mask(
        self, side: int, level: int, children: List[Item]
    ) -> Optional[List[bool]]:
        if side != 1 or level or self.filter_strategy != INSIDE2:
            return None
        counts, k = self._partner_counts, self.k
        return [counts.get(child.oid, 0) < k for child in children]

    def _on_report(self, item1: Item, item2: Item) -> None:
        oid = item1.oid
        count = self._partner_counts.get(oid, 0) + 1
        self._partner_counts[oid] = count
        if count >= self.k:
            self._done_count += 1
            if self._estimator is not None:
                self._estimator.on_report_first(item1.identity())
                return
        if self._estimator is not None:
            self._estimator.on_report()

    # ------------------------------------------------------------------
    # k-th-smallest d_max bounds
    # ------------------------------------------------------------------

    def _estimator_count(self, item1: Item, item2: Item) -> int:
        outer = self._count_lower_bound(1, item1)
        inner = self._count_lower_bound(2, item2)
        return outer * min(self.k, inner)

    def _global_bound(self, key: Tuple):
        """The current k-th smallest d_max for ``key`` (None until k
        values have been observed)."""
        values = self._bound_lists.get(key)
        if values is None or len(values) < self.k:
            return None
        return -values[0]  # max of the k smallest

    def _observe_bound(self, key: Tuple, item2: Item,
                       est_dmax: float) -> None:
        # With k >= 2 the k smallest observed d_max values must be
        # witnessed by k *distinct* partners.  Distinct object second
        # items guarantee that (each (i1, o2) pair is generated at most
        # once); a node and one of its descendants do not, so node
        # observations are admitted only for k = 1, where any single
        # bound is valid.
        if self.k > 1 and item2.kind == NODE:
            return
        values = self._bound_lists.setdefault(key, [])
        if len(values) < self.k:
            heapq.heappush(values, -est_dmax)
        elif est_dmax < -values[0]:
            heapq.heapreplace(values, -est_dmax)

    def _with_global(
        self, block: CandidateBlock, uppers: Sequence[float],
        local: Sequence[Optional[float]],
    ) -> List[Optional[float]]:
        # Row by row: observe the row's d_max into its outer item's k
        # smallest, then tighten the row's bound with the k-th of them.
        item2 = block.head()[1]  # every row's inner kind
        bounds: List[Optional[float]] = []
        for key, upper, bound in zip(self._outer_keys(block), uppers, local):
            self._observe_bound(key, item2, upper)
            stored = self._global_bound(key)
            if stored is not None and (bound is None or stored < bound):
                bound = stored
            bounds.append(bound)
        return bounds

    # ------------------------------------------------------------------
    # suspendable cursor
    # ------------------------------------------------------------------

    def _state_extra(self):
        extra = super()._state_extra()
        extra["k"] = self.k
        extra["partner_counts"] = dict(self._partner_counts)
        extra["done_count"] = self._done_count
        extra["bound_lists"] = {
            key: list(values)
            for key, values in self._bound_lists.items()
        }
        return extra

    def _restore_extra(self, extra) -> None:
        super()._restore_extra(extra)
        self.k = extra["k"]
        self._partner_counts = dict(extra["partner_counts"])
        self._done_count = extra["done_count"]
        self._bound_lists = {
            key: list(values)
            for key, values in extra["bound_lists"].items()
        }
