"""Reverse (farthest-first) variants (paper Section 2.2.5 / 2.3).

:class:`ReverseDistanceJoin` reports object pairs in *decreasing*
distance order: the queue is ordered on the negated distance, and
every pair except object/object uses its ``d_max`` function as the key
(an upper bound on the distances of the object pairs it generates,
which is consistent in the reversed sense: expanding a pair can only
lower the bound).

:class:`ReverseDistanceSemiJoin` reports, for each outer object, its
*farthest* inner object, pairs in decreasing distance order -- the
paper notes this is the natural reverse semi-join (the first pair
``(o1, o2)`` of a reverse join is o1's farthest partner); the
"nearest, reported in reverse order" reading would require computing
the last such pair and is dismissed as extremely inefficient.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.pairs import NODE, Item, Pair
from repro.core.spec import JoinSpec
from repro.util.bitset import Bitset


class ReverseDistanceJoin(IncrementalDistanceJoin):
    """Distance join producing the farthest pairs first.

    Takes the parameters of :class:`IncrementalDistanceJoin`; the
    spec's ``descending`` is forced True, which turns the estimator
    off (the maximum-distance estimation of Section 2.2.4 does not
    apply to the reversed order; a minimum-distance analogue is future
    work, as in the paper).
    """

    def _pin(self, spec: JoinSpec) -> JoinSpec:
        return spec.evolve(descending=True)


class ReverseDistanceSemiJoin(ReverseDistanceJoin):
    """For each outer object, its farthest inner object, farthest pairs
    first.

    Filtering uses the same bit-string seen-set as the forward
    semi-join: once ``(o1, o2)`` is reported, every other pair
    containing ``o1`` has a smaller distance and is suppressed, both
    when popped and when generated.
    """

    def _init_state(self) -> None:
        self._seen = Bitset(max(1, len(self.tree1)))
        super()._init_state()

    def _complete(self) -> bool:
        return len(self._seen) >= len(self.tree1)

    def _skip_result(self, item1: Item, item2: Item) -> bool:
        if item1.oid in self._seen:
            self.counters.add("pruned_seen")
            return True
        return False

    def _skip_popped(self, pair: Pair) -> bool:
        item1 = pair.item1
        if item1.kind != NODE and item1.oid in self._seen:
            self.counters.add("pruned_seen")
            return True
        return False

    def _keep_mask(
        self, side: int, level: int, children: List[Item]
    ) -> Optional[List[bool]]:
        if side != 1 or level:
            return None
        return self._seen.missing([child.oid for child in children])

    def _on_report(self, item1: Item, item2: Item) -> None:
        self._seen.add(item1.oid)

    def _state_extra(self):
        return {"seen": self._seen.state()}

    def _restore_extra(self, extra) -> None:
        self._seen = Bitset.from_state(extra["seen"])
