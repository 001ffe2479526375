"""The R*-tree of Beckmann, Kriegel, Schneider and Seeger (1990).

This is the index the paper runs all experiments on.  It differs from
the classic R-tree in three ways, all implemented here:

- *ChooseSubtree* minimizes overlap enlargement at the level above the
  leaves (and area enlargement higher up) -- lazily, see below;
- the split picks its axis by minimum margin sum and its distribution
  by minimum overlap (see :func:`repro.rtree.split.rstar_split`);
- the first overflow on each level during an insertion triggers
  *forced reinsertion* of the 30% of entries farthest from the node
  center instead of an immediate split.

**ChooseSubtree at level 1 is lazy and exact.**  The rule keeps the
first entry minimizing ``(overlap enlargement, area enlargement,
area)``: the minimum of ``(overlap, growth, area, index)``.  Only the
first term costs a pass over the node per entry.  It is the difference
of two sums in entry order -- the enlarged rectangle's overlap with
every sibling minus the entry's own -- and is never negative, in
floats too: enlarging cannot shrink a ``min(hi) - max(lo)`` extent,
and subtracting, multiplying and adding non-negative floats round
monotonically, so terms, sums and difference keep their order.  Hence:

- an entry's key is at least ``(0.0, growth, area, index)``: evaluate
  overlap in ``(growth, area, index)`` order and stop once that bound
  no longer beats the incumbent (no later entry's does) -- at the
  latest after the first entry with zero overlap enlargement;
- an entry that already covers the rectangle is its own enlargement:
  both sums are one sum, the term is exactly ``0.0``, no sibling read;
- a sibling the *enlarged* rectangle misses adds ``0.0`` to both sums,
  so its "before" term is skipped.

What is evaluated is the float the exhaustive rule computes (same
terms, same order), so the winner is the same entry, node for node
(oracle: ``tests/test_rtree.py``; shapes: ``test_counter_drift.py``).
The key is computed from the entries' coordinate tuples, not from
:class:`Rect` objects: each union, area and overlap is the product
``Rect.union`` / ``area`` / ``overlap_area`` would form, from 1.0 in
axis order, with an ``extent <= 0.0`` giving ``0.0`` -- so a descent
builds no rectangle per entry and picks what the ``Rect`` methods
would (oracle: ``tests/test_rtree.py::TestTupleChooseSubtree``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry.rectangle import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.entry import BranchEntry
from repro.rtree.node import Node
from repro.rtree.split import rstar_split

#: Fraction of entries removed on forced reinsertion (R* paper: 30%).
REINSERT_FRACTION = 0.3

_INF = float("inf")


def _overlap(alo, ahi, blo, bhi) -> float:
    """``Rect.overlap_area`` of two rectangles given as corner tuples."""
    result = 1.0
    for a_lo, a_hi, b_lo, b_hi in zip(alo, ahi, blo, bhi):
        extent = (b_hi if b_hi < a_hi else a_hi) - (
            b_lo if b_lo > a_lo else a_lo
        )
        if extent <= 0.0:
            return 0.0
        result *= extent
    return result


class RStarTree(RTreeBase):
    """R*-tree; see :class:`repro.rtree.base.RTreeBase` for parameters."""

    def _choose_subtree(self, node: Node, rect: Rect) -> BranchEntry:
        entries = node.entries
        rlo, rhi = rect.lo, rect.hi
        # (area enlargement, area, position): the whole rule above
        # level 1, the cheap tail of the key at level 1.  Each term is
        # Rect.union(...).area() / Rect.area() of the coordinates.
        ranked = []
        for index, entry in enumerate(entries):
            own = entry.rect
            area = grown = 1.0
            for a, b, c, d in zip(own.lo, own.hi, rlo, rhi):
                area *= b - a
                grown *= (d if d > b else b) - (c if c < a else a)
            ranked.append((grown - area, area, index))
        if node.level != 1:
            return entries[min(ranked)[2]]
        # Children are leaves: overlap enlargement leads the key.  It
        # is evaluated in rank order, and only while a zero of it could
        # still win (module docstring).
        ranked.sort()
        best_key = (_INF, _INF, _INF, len(entries))
        for growth, area, index in ranked:
            if best_key <= (0.0, growth, area, index):
                break
            entry = entries[index]
            own = entry.rect
            olo, ohi = own.lo, own.hi
            overlap = 0.0
            if any(c < a or d > b for a, b, c, d in zip(olo, ohi, rlo, rhi)):
                # The enlarged rectangle, as Rect.union builds it.
                elo = tuple(map(min, olo, rlo))
                ehi = tuple(map(max, ohi, rhi))
                before = after = 0.0
                for other in entries:
                    if other is entry:
                        continue
                    slo, shi = other.rect.lo, other.rect.hi
                    term = _overlap(elo, ehi, slo, shi)
                    if term > 0.0:
                        after += term
                        before += _overlap(olo, ohi, slo, shi)
                overlap = after - before
            best_key = min(best_key, (overlap, growth, area, index))
        return entries[best_key[3]]

    def _split_entries(self, entries) -> Tuple[List, List]:
        return rstar_split(entries, self.min_entries)

    def _handle_overflow(self, node: Node):
        # Forced reinsertion: once per level per insertion, and never
        # for the root.
        if (
            node.page_id != self.root_id
            and node.level not in self._reinserted_levels
        ):
            self._reinserted_levels.add(node.level)
            self._force_reinsert(node)
            return None
        return self._split_node(node)

    def _force_reinsert(self, node: Node) -> None:
        """Remove the 30% of entries farthest from the node's center and
        queue them for reinsertion ("close reinsert": nearest first)."""
        center = node.mbr().center()
        reinsert_count = max(1, int(REINSERT_FRACTION * self.max_entries))

        def center_dist(entry) -> float:
            entry_center = entry.rect.center()
            return sum(
                (a - b) ** 2 for a, b in zip(center, entry_center)
            )

        ranked = sorted(node.entries, key=center_dist, reverse=True)
        to_reinsert = ranked[:reinsert_count]
        node.entries = ranked[reinsert_count:]
        self._write_node(node)
        self.counters.add("forced_reinserts", len(to_reinsert))
        # Close reinsert: entries nearest the center are reinserted
        # first; _pending is a stack, so push farthest first.
        for entry in to_reinsert:
            self._pending.append((entry, node.level))
