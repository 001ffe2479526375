"""Plane sweep for the "Simultaneous" node-processing policy.

When both nodes of a node/node pair are expanded at once (paper
Section 2.2.2, Figure 4), the cross product of their entries is pruned
with the classic spatial-join optimizations of Brinkhoff et al.:

1. *search-space restriction*: entries of one node farther than the
   maximum distance from the other node's region cannot contribute;
2. *plane sweep*: both entry lists are sorted along one axis and only
   entries whose projections come within ``D_max`` of each other are
   paired -- the paper's modification of the intersection-only sweep,
   which must look ahead to ``x2 + D_max`` instead of ``x2``.

There is one sweep loop, :func:`sweep_index_pairs`, over coordinate
lists and a presorted order.  :func:`sweep_entry_indices` (entry
objects: the scalar expansion; :func:`sweep_pairs` for the
within-distance baseline) feeds it a freshly sorted order; the
batch-kernel expansion feeds it the order cached on
each node's columnar mirror (``EntrySoA.sweep_columns``), filtered by
:func:`restrict_order`.  Both orders are the same stable sort, so the
two paths yield identical pairs in identical order by construction.

The restriction, too, has two forms that keep the same entries:
:func:`restrict_entries` tests every entry object, and
:func:`restrict_order` tests only the entries a bisection of the
cached sweep keys leaves as candidates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import sqrt
from typing import Iterator, List, Sequence, Tuple

from repro.geometry.metrics import Metric
from repro.geometry.rectangle import Rect

_INF = float("inf")

# How far restrict_order widens its sweep-axis cut: a fraction of the
# operands' magnitude, far above the rounding of the cut and of the
# exact test's gap, plus an absolute term above 2**-511, below which a
# gap's square underflows and sqrt(gap * gap) may fall short of gap.
_CUT_SLACK = 2.0 ** -40
_CUT_FLOOR = 2.0 ** -500


def restrict_entries(
    entries: Sequence,
    other_region: Rect,
    metric: Metric,
    max_distance: float,
) -> List:
    """Keep only entries within ``max_distance`` of ``other_region``.

    This is the "marking" step: entries whose MINDIST to the space
    spanned by the other node exceeds the maximum distance can never
    appear in a result pair.
    """
    if max_distance == _INF:
        return list(entries)
    return [
        e
        for e in entries
        if metric.mindist_rect_rect(e.rect, other_region) <= max_distance
    ]


def sweep_pairs(
    entries1: Sequence,
    entries2: Sequence,
    max_gap: float,
    axis: int = 0,
) -> Iterator[Tuple[object, object]]:
    """Yield entry pairs whose ``axis`` projections approach within
    ``max_gap``; every qualifying pair is produced exactly once.

    With ``max_gap = 0`` this degenerates to the intersection-join
    sweep of Brinkhoff et al.; the distance join sweeps along the axis
    up to ``hi + D_max`` (Figure 4: ``r1`` must also be checked against
    ``s3``, not only the projection-intersecting ``s1`` and ``s2``).
    """
    for i, j in sweep_entry_indices(entries1, entries2, max_gap, axis):
        yield entries1[i], entries2[j]


def sweep_entry_indices(
    entries1: Sequence,
    entries2: Sequence,
    max_gap: float,
    axis: int = 0,
) -> Iterator[Tuple[int, int]]:
    """:func:`sweep_pairs` as ``(i, j)`` positions in the two lists
    (of anything with a ``rect``)."""
    lo1 = [e.rect.lo[axis] for e in entries1]
    lo2 = [e.rect.lo[axis] for e in entries2]
    if max_gap == _INF:
        order1, order2 = range(len(lo1)), range(len(lo2))
    else:
        order1 = sorted(range(len(lo1)), key=lo1.__getitem__)
        order2 = sorted(range(len(lo2)), key=lo2.__getitem__)
    hi1 = [e.rect.hi[axis] for e in entries1]
    hi2 = [e.rect.hi[axis] for e in entries2]
    return sweep_index_pairs(lo1, hi1, order1, lo2, hi2, order2, max_gap)


def sweep_index_pairs(
    lo1: Sequence[float],
    hi1: Sequence[float],
    order1: Sequence[int],
    lo2: Sequence[float],
    hi2: Sequence[float],
    order2: Sequence[int],
    max_gap: float,
) -> Iterator[Tuple[int, int]]:
    """The plane sweep over coordinate lists (one axis, projected).

    ``lo1``/``hi1`` and ``lo2``/``hi2`` are indexed by entry; ``order1``
    and ``order2`` are the entries to sweep, stably sorted on ``lo``
    (ties in entry order).  Yields ``(i, j)`` entry-index pairs whose
    projections approach within ``max_gap``, each once, in two-pointer
    order.  With an infinite gap nothing is pruned: every pair of
    ``order1`` x ``order2`` is yielded in the orders' own sequence, and
    callers pass entry order there.
    """
    if max_gap == _INF:
        for i in order1:
            for j in order2:
                yield i, j
        return

    n1 = len(order1)
    n2 = len(order2)
    i = j = 0
    while i < n1 and j < n2:
        ai = order1[i]
        bj = order2[j]
        if lo1[ai] <= lo2[bj]:
            reach = hi1[ai] + max_gap
            k = j
            while k < n2 and lo2[order2[k]] <= reach:
                yield ai, order2[k]
                k += 1
            i += 1
        else:
            reach = hi2[bj] + max_gap
            k = i
            while k < n1 and lo1[order1[k]] <= reach:
                yield order1[k], bj
                k += 1
            j += 1


def restrict_order(
    lo: Sequence[Sequence[float]],
    hi: Sequence[Sequence[float]],
    order: Sequence[int],
    keys: Sequence[float],
    other_region: Rect,
    p: float,
    max_distance: float,
) -> List[int]:
    """The search-space restriction over a node's cached columns.

    ``lo[k][i]`` / ``hi[k][i]`` are entry ``i``'s axis-``k`` corners,
    ``order`` the entries stably sorted on ``lo[0]`` and ``keys`` those
    ``lo[0]`` values in that order (``EntrySoA.sweep_columns``); ``p``
    is the Minkowski order, 1, 2 or infinity.  Returns the entries of
    ``order``, in ``order``'s sequence, whose MINDIST to
    ``other_region`` is at most ``max_distance`` -- the entries
    :func:`restrict_entries` keeps, tested on the same floats the batch
    ``mindist`` kernel reads.  The work follows the candidates, not the
    node:

    1. *The cut.*  A bisection of ``keys`` drops every entry whose
       ``lo[0]`` lies beyond ``other_region.hi[0] + max_distance``.
       When ``hi is lo`` (every entry a point) it also drops those
       below ``other_region.lo[0] - max_distance``; a rectangle's
       ``hi[0]`` is not sorted, so other nodes have no lower cut.  Each
       cut is widened (:func:`_widening`) so that a dropped entry's
       axis-0 gap exceeds ``max_distance`` even after rounding, and so
       does every norm of it: rounding in the cut never drops an entry
       the test keeps.
    2. *The exact test* of each candidate: ``Metric.mindist_rect_rect``
       operation for operation -- the elif gap chain per axis, then a
       left-to-right sum of squares and ``sqrt`` (L2), a sum (L1) or a
       max (L-infinity).  A gap is never NaN or negative, so starting
       each norm from 0.0 and skipping zero gaps leaves its bits as
       they are.
    """
    r_lo, r_hi = other_region.lo, other_region.hi
    top = r_hi[0]
    stop = bisect_right(
        keys, top + max_distance + _widening(top, max_distance)
    )
    start = 0
    if hi is lo:
        bottom = r_lo[0]
        start = bisect_left(
            keys, bottom - max_distance - _widening(bottom, max_distance),
            0, stop,
        )
    axes = tuple(zip(lo, hi, r_lo, r_hi))
    kept = []
    for i in order[start:stop]:
        norm = 0.0
        for a_lo, a_hi, b_lo, b_hi in axes:
            c = a_hi[i]
            if c < b_lo:
                gap = b_lo - c
            else:
                c = a_lo[i]
                if not b_hi < c:
                    continue
                gap = c - b_hi
            if p == 2.0:
                norm += gap * gap
            elif p == 1.0:
                norm += gap
            elif gap > norm:
                norm = gap
        if (sqrt(norm) if p == 2.0 else norm) <= max_distance:
            kept.append(i)
    return kept


def _widening(edge: float, max_distance: float) -> float:
    return (abs(edge) + max_distance) * _CUT_SLACK + _CUT_FLOOR
