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
lists and a presorted order.  :func:`sweep_pairs` (entry objects: the
scalar expansion, the within-distance baseline) feeds it a freshly
sorted order; the batch-kernel expansion feeds it the order cached on
each node's columnar mirror (``EntrySoA.sweep_columns``), filtered by
the restriction.  Both orders are the same stable sort, so the two
paths yield identical pairs in identical order by construction.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.geometry.metrics import Metric
from repro.geometry.rectangle import Rect

_INF = float("inf")


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
    lo1 = [e.rect.lo[axis] for e in entries1]
    lo2 = [e.rect.lo[axis] for e in entries2]
    if max_gap == _INF:
        order1, order2 = range(len(lo1)), range(len(lo2))
    else:
        order1 = sorted(range(len(lo1)), key=lo1.__getitem__)
        order2 = sorted(range(len(lo2)), key=lo2.__getitem__)
    hi1 = [e.rect.hi[axis] for e in entries1]
    hi2 = [e.rect.hi[axis] for e in entries2]
    for i, j in sweep_index_pairs(
        lo1, hi1, order1, lo2, hi2, order2, max_gap
    ):
        yield entries1[i], entries2[j]


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
