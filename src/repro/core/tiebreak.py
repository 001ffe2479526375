"""Priority-queue key construction and tie-breaking policies.

The queue is ordered primarily by pair distance.  How ties are broken
determines the traversal pattern (paper Section 2.2.2): the goal is to
produce result pairs as soon as possible, so pairs containing objects
or object bounding rectangles order ahead of pairs of nodes, and among
node pairs the *depth-first* policy gives priority to deeper nodes
while *breadth-first* gives it to shallower ones.
"""

from __future__ import annotations

from array import array
from operator import neg
from typing import Sequence, Tuple

from repro.core.pairs import (
    DIST_CODE, NODE, OBJ, ROW_CODE, CandidateBlock, Item, Pair,
)

#: Tie-break policy names.
DEPTH_FIRST = "depth_first"
BREADTH_FIRST = "breadth_first"

POLICIES = (DEPTH_FIRST, BREADTH_FIRST)


class KeyMaker:
    """Builds totally ordered queue keys for pairs.

    A key is the tuple ``(signed distance, kind rank, level key, seq
    key)``:

    - *kind rank*: 0 for resolved object/object pairs, 1 for pairs of
      object bounding rectangles, 2 for pairs with one node, 3 for
      node/node pairs -- result-bearing pairs surface first at equal
      distance;
    - *level key*: the sum of node levels (leaves are level 0), negated
      for breadth-first so that shallower pairs win ties;
    - *seq key*: a monotone counter making the order total; negated for
      depth-first so that, all else equal, the most recently generated
      (deepest) pair is processed next.

    Parameters
    ----------
    tie_break:
        :data:`DEPTH_FIRST` or :data:`BREADTH_FIRST`.
    descending:
        Order by decreasing distance (the reverse/farthest-first
        variant of Section 2.2.5); implemented by negating the distance
        component.
    """

    def __init__(
        self, tie_break: str = DEPTH_FIRST, descending: bool = False
    ) -> None:
        if tie_break not in POLICIES:
            raise ValueError(
                f"unknown tie-break policy {tie_break!r}; "
                f"expected one of {POLICIES}"
            )
        self.tie_break = tie_break
        self.descending = descending
        # A plain integer (not itertools.count) so a suspended join can
        # snapshot and restore the sequence position -- the seq
        # component is part of every queue key, and resumed runs must
        # generate byte-identical keys to preserve tie ordering.
        self._seq = 0

    def _shape(
        self, kind1: int, level1: int, kind2: int, level2: int
    ) -> Tuple[int, int]:
        """The ``(kind rank, level key)`` of a pair of items with these
        kinds and levels -- all a key needs beside distance and seq."""
        nodes = (kind1 == NODE) + (kind2 == NODE)
        if nodes:
            rank = 1 + nodes
        elif kind1 == OBJ and kind2 == OBJ:
            rank = 0
        else:
            rank = 1
        level_sum = 0
        if kind1 == NODE:
            level_sum += level1
        if kind2 == NODE:
            level_sum += level2
        if self.tie_break == DEPTH_FIRST:
            return rank, level_sum
        return rank, -level_sum

    def _take(self, n: int) -> Tuple[int, int]:
        """Consume ``n`` sequence numbers; returns the seq key of the
        first and the stride to the next (depth-first keys negate)."""
        seq = self._seq
        self._seq = seq + n
        if self.tie_break == DEPTH_FIRST:
            return -seq, -1
        return seq, 1

    def key(self, pair: Pair, distance: float) -> Tuple:
        """The queue key for ``pair`` ordered at ``distance``.

        ``distance`` is passed separately because the reverse variant
        keys unresolved pairs by their d_max bound rather than by
        ``pair.distance``.
        """
        item1, item2 = pair.item1, pair.item2
        rank, level = self._shape(
            item1.kind, item1.level, item2.kind, item2.level
        )
        return (
            -distance if self.descending else distance,
            rank, level, self._take(1)[0],
        )

    def key_block(
        self, block: CandidateBlock, item1: Item, item2: Item,
        distances: array,
    ) -> None:
        """Key a whole block headed by ``item1`` / ``item2``
        (:meth:`CandidateBlock.head`): row ``r`` is ordered at
        ``distances[r]``.

        One expansion's rows share kind and level structure (the child
        kind and level are uniform across a node's entries, and the
        partner is fixed), so the block gets one ``(rank, level)`` shape
        and a run of sequence numbers; its keys -- built on demand by
        :meth:`CandidateBlock.key` / ``keys`` -- are bit-identical to
        calling :meth:`key` on each row's pair in order, including the
        sequence numbers consumed.  ``keyd`` is ``distances`` itself
        on an ascending join, a negated copy on a descending one.
        """
        block.rank, block.level = self._shape(
            item1.kind, item1.level, item2.kind, item2.level
        )
        block.seq0, block.step = self._take(len(distances))
        block.keyd = (
            array(DIST_CODE, map(neg, distances)) if self.descending
            else distances
        )

    def key_batch(self, first: Pair, distances: Sequence[float]) -> list:
        """Keys for a batch of pairs sharing ``first``'s shape, ordered
        at ``distances`` (the :meth:`key_block` contract, for callers
        holding pairs)."""
        distances = array(DIST_CODE, distances)
        block = CandidateBlock(
            distances, array(ROW_CODE, [0]) * len(distances),
            [first.item1], first.item2, 1,
        )
        self.key_block(block, first.item1, first.item2, distances)
        return block.keys()

    @property
    def seq(self) -> int:
        """The next sequence number :meth:`key` will consume."""
        return self._seq

    def restore_seq(self, value: int) -> None:
        """Reposition the sequence counter (cursor resume)."""
        self._seq = int(value)

    @staticmethod
    def distance_of(key: Tuple) -> float:
        """Recover the unsigned distance from a key (sign-independent)."""
        return abs(key[0])
