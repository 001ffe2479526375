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

from typing import Dict, List, Tuple

from typing import Optional

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
from repro.rtree.base import RTreeBase
from repro.util.bitset import Bitset


class IncrementalDistanceSemiJoin(IncrementalDistanceJoin):
    """Incremental distance semi-join of ``tree1`` with ``tree2``.

    Accepts every parameter of :class:`IncrementalDistanceJoin` plus:

    Parameters
    ----------
    filter_strategy:
        One of ``"outside"``, ``"inside1"``, ``"inside2"``.
    dmax_strategy:
        One of ``"none"``, ``"local"``, ``"global_nodes"``,
        ``"global_all"``.  The paper's d_max strategies all build on
        Inside2 filtering, so any value other than ``"none"`` requires
        ``filter_strategy="inside2"``.

    Both are :class:`~repro.core.spec.JoinSpec` fields, so they may
    arrive via a spec or as keywords; the combination rules live in
    :meth:`JoinSpec.validate`, which also rejects ``descending`` here
    (use :class:`~repro.core.reverse.ReverseDistanceSemiJoin`).
    """

    _spec_semi_join = True
    _estimator_class = SemiJoinEstimator

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        spec: Optional[JoinSpec] = None,
        **kwargs,
    ) -> None:
        # Set before super().__init__, which calls _init_state().
        self._seen: Bitset = Bitset(0)
        self._bounds: Dict[Tuple, float] = {}
        super().__init__(tree1, tree2, spec, **kwargs)
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

    def _skip_result(self, pair: Pair) -> bool:
        if pair.item1.oid in self._seen:
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

    def _skip_child(self, side: int, child: Item) -> bool:
        if (
            side == 1
            and self.filter_strategy == INSIDE2
            and child.kind != NODE
            and child.oid in self._seen
        ):
            self._c_pruned_seen.add()
            return True
        return False

    def _on_report(self, pair: Pair) -> None:
        self._seen.add(pair.item1.oid)
        if self.obs.enabled:
            # Coverage timeline: how fast the semi-join saturates the
            # outer relation (sampled via the observer's knob).
            self.obs.gauge("semijoin.seen", float(len(self._seen)))
        if self._estimator is not None:
            self._estimator.on_report_first(pair.item1.identity())

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
        if self.dmax_strategy == DMAX_NONE or not block.dists:
            return block

        scored = list(zip(
            block.pairs(), self._dmax_of(block, *block.head())
        ))

        # Local bounds: the smallest d_max among the candidates sharing
        # the same outer item.  Meaningful when the inner node was
        # expanded (all candidates share item1) and, for the
        # simultaneous policy, within each item1 group.
        local: Dict[Tuple, float] = {}
        for child_pair, est_dmax in scored:
            key = child_pair.item1.identity()
            best = local.get(key)
            if best is None or est_dmax < best:
                local[key] = est_dmax

        use_global = self.dmax_strategy in (
            DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL
        )
        kept: List[int] = []
        for row, (child_pair, est_dmax) in enumerate(scored):
            key = child_pair.item1.identity()
            bound = local[key]
            if use_global and self._tracks_global(child_pair.item1):
                stored = self._bounds.get(key)
                if stored is not None and stored < bound:
                    bound = stored
                new_bound = est_dmax if stored is None else min(
                    stored, est_dmax
                )
                self._bounds[key] = new_bound
            if child_pair.distance > bound:
                self._c_pruned_dmax.add()
                continue
            kept.append(row)
        return block if len(kept) == len(block) else block.take(kept)

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
