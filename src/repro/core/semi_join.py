"""The incremental distance semi-join (paper Section 2.3).

The distance semi-join reports, for each object of the outer relation
(``tree1``), its nearest object in the inner relation (``tree2``) --
pairs still arrive in order of increasing distance, so the full result
is the discrete-Voronoi clustering the paper describes.

Built on :class:`IncrementalDistanceJoin` with two families of
strategies evaluated in Section 4.2:

*Filter placement* -- where pairs whose outer object was already
reported are discarded:

- ``"outside"``: the join runs unchanged and duplicates are filtered
  at the output (the paper's "Outside");
- ``"inside1"``: popped pairs whose first item is an already-seen
  object (or obr) are discarded before any further work ("Inside1");
- ``"inside2"``: additionally, such children are never enqueued during
  node expansion ("Inside2").

*d_max exploitation* -- pruning pairs that cannot contain any outer
object's nearest neighbour, using the upper-bound distances:

- ``"none"``: no d_max pruning;
- ``"local"``: while expanding a node, entries whose MINDIST to the
  fixed outer item exceeds the smallest d_max among the sibling
  candidates are dropped ("Local");
- ``"global_nodes"``: additionally, the smallest d_max ever observed
  for each outer *node* is remembered and applied to future pairs
  ("GlobalNodes");
- ``"global_all"``: the same for outer objects too ("GlobalAll").

The seen-set ``S_A`` is the bit string of Section 3.2
(:class:`repro.util.Bitset`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.estimate import SemiJoinEstimator
from repro.core.pairs import NODE, CandidateBlock, Item, Pair
from repro.core.spec import (  # noqa: F401  (re-exported for back-compat)
    DMAX_GLOBAL_ALL,
    DMAX_GLOBAL_NODES,
    DMAX_LOCAL,
    DMAX_NONE,
    DMAX_STRATEGIES,
    FILTER_STRATEGIES,
    INSIDE1,
    INSIDE2,
    OUTSIDE,
    JoinSpec,
)
from repro.util.bitset import Bitset


class IncrementalDistanceSemiJoin(IncrementalDistanceJoin):
    """Incremental distance semi-join of ``tree1`` with ``tree2``.

    Takes the parameters of :class:`IncrementalDistanceJoin`; two spec
    fields apply only here:

    Parameters
    ----------
    filter_strategy:
        One of ``"outside"``, ``"inside1"``, ``"inside2"``.
    dmax_strategy:
        One of ``"none"``, ``"local"``, ``"global_nodes"``,
        ``"global_all"``.  The paper's d_max strategies all build on
        Inside2 filtering, so any value other than ``"none"`` requires
        ``filter_strategy="inside2"``.

    Both are :class:`~repro.core.spec.JoinSpec` fields; the
    combination rules live in :meth:`JoinSpec.validate`, which also
    rejects ``descending`` here (use
    :class:`~repro.core.reverse.ReverseDistanceSemiJoin`).
    """

    _spec_semi_join = True
    _estimator_class = SemiJoinEstimator

    #: Partners per outer object: the semi-join is the k-NN join
    #: (:class:`~repro.core.knn_join.KNearestNeighborJoin`) at k = 1,
    #: so its Local bound is the smallest sibling d_max.
    k = 1

    def _cache_counters(self) -> None:
        super()._cache_counters()
        self._c_pruned_seen = self.counters.counter("pruned_seen")
        self._c_pruned_dmax = self.counters.counter("pruned_dmax")

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def _init_state(self) -> None:
        self._seen = Bitset(max(1, len(self.tree1)))
        self._bounds = {}
        super()._init_state()

    def _estimator_count(self, item1: Item, item2: Item) -> int:
        # Each outer object contributes at most one semi-join result,
        # so only item1's subtree bounds the generated pairs.
        return self._count_lower_bound(1, item1)

    def _complete(self) -> bool:
        return len(self._seen) >= len(self.tree1)

    # ------------------------------------------------------------------
    # seen-set filtering
    # ------------------------------------------------------------------

    def _skip_result(self, item1: Item, item2: Item) -> bool:
        if item1.oid in self._seen:
            self._c_pruned_seen.add()
            return True
        return False

    def _skip_popped(self, pair: Pair) -> bool:
        item1 = pair.item1
        if (
            self.filter_strategy in (INSIDE1, INSIDE2)
            and item1.kind != NODE
            and item1.oid in self._seen
        ):
            self._c_pruned_seen.add()
            return True
        if self.dmax_strategy in (DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL):
            bound = self._bounds.get(item1.identity())
            if bound is not None and pair.distance > bound:
                self._c_pruned_dmax.add()
                return True
        return False

    def _keep_mask(
        self, side: int, level: int, children: List[Item]
    ) -> Optional[List[bool]]:
        # Inside2: only outer objects (side-1 leaf children) are seen.
        if side != 1 or level or self.filter_strategy != INSIDE2:
            return None
        return self._seen.missing([child.oid for child in children])

    def _on_report(self, item1: Item, item2: Item) -> None:
        self._seen.add(item1.oid)
        if self.obs.enabled:
            # Coverage timeline: how fast the semi-join saturates the
            # outer relation (sampled via the observer's knob).
            self.obs.gauge("semijoin.seen", float(len(self._seen)))
        if self._estimator is not None:
            self._estimator.on_report_first(item1.identity())

    def _on_expand(self, pair: Pair, side: int) -> None:
        if side == 1 and self._estimator is not None and pair.item1.is_node:
            self._estimator.on_expand_first(pair)

    # ------------------------------------------------------------------
    # d_max pruning
    # ------------------------------------------------------------------

    def _tracks_global(self, item: Item) -> bool:
        if self.dmax_strategy == DMAX_GLOBAL_ALL:
            return True
        if self.dmax_strategy == DMAX_GLOBAL_NODES:
            return item.kind == NODE
        return False

    def _filter_candidates(
        self, pair: Pair, side: int, block: CandidateBlock
    ) -> CandidateBlock:
        """The d_max hooks over the block's columns: each row's bound
        is the Local one, tightened by the remembered bound of its
        outer item under GlobalNodes / GlobalAll; a row whose MINDIST
        exceeds its bound is dropped (one ``pruned_dmax`` each)."""
        if self.dmax_strategy == DMAX_NONE or not block.dists:
            return block
        # Each row's estimation d_max, charged by the per-pair rule and
        # kept on the block, where the enqueue finds it.
        uppers = block.uppers = self._dmax_of(block, *block.head())
        bounds = self._local_bounds(block, uppers)
        if self._tracks_global(block.first(0)):
            bounds = self._with_global(block, uppers, bounds)
        kept = [
            row for row, (d, bound) in enumerate(zip(block.dists, bounds))
            if bound is None or not d > bound
        ]
        pruned = len(block) - len(kept)
        if not pruned:
            return block
        self._c_pruned_dmax.add(pruned)
        return block.take(kept)

    def _local_bounds(
        self, block: CandidateBlock, uppers: Sequence[float]
    ) -> Sequence[Optional[float]]:
        """Each row's Local bound: the k-th smallest d_max among the
        rows sharing its outer item (``None`` with fewer than k)."""
        k = self.k
        if block.side == 2:
            # The inner node was expanded: one outer item, the partner.
            return [_kth_smallest(uppers, k)] * len(uppers)
        if block.side == 1:
            # The children of one node are distinct outer items (the
            # tree refuses a duplicate oid): each row is its own group.
            return uppers if k == 1 else [None] * len(uppers)
        # Simultaneous: grouped by the row's child of node 1.
        groups: Dict[int, List[float]] = {}
        for i, upper in zip(block.rows, uppers):
            groups.setdefault(i, []).append(upper)
        kth = {i: _kth_smallest(group, k) for i, group in groups.items()}
        return [kth[i] for i in block.rows]

    def _outer_keys(self, block: CandidateBlock) -> List[Tuple]:
        """Each row's outer item identity, what ``_bounds`` is keyed
        by (and cursors carry)."""
        if block.side == 2:
            return [block.other.identity()] * len(block)
        items = block.items
        return [items[i].identity() for i in block.rows]

    def _with_global(
        self, block: CandidateBlock, uppers: Sequence[float],
        local: Sequence[Optional[float]],
    ) -> List[Optional[float]]:
        """GlobalNodes / GlobalAll, row by row: tighten each row's
        bound with the smallest d_max remembered for its outer item,
        then remember the row's own."""
        remembered = self._bounds
        bounds: List[Optional[float]] = []
        for key, upper, bound in zip(self._outer_keys(block), uppers, local):
            stored = remembered.get(key)
            if stored is None:
                remembered[key] = upper
            else:
                if stored < bound:
                    bound = stored
                remembered[key] = min(stored, upper)
            bounds.append(bound)
        return bounds

    # ------------------------------------------------------------------
    # suspendable cursor
    # ------------------------------------------------------------------

    def _state_extra(self):
        return {
            "seen": self._seen.state(),
            "bounds": dict(self._bounds),
        }

    def _restore_extra(self, extra) -> None:
        self._seen = Bitset.from_state(extra["seen"])
        self._bounds = dict(extra["bounds"])


def _kth_smallest(values: Sequence[float], k: int) -> Optional[float]:
    """The k-th smallest of ``values``; ``None`` with fewer than k."""
    if len(values) < k:
        return None
    return min(values) if k == 1 else heapq.nsmallest(k, values)[-1]
