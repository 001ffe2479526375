"""Bounded incremental distance scan against a partner tree.

When a standing join sees an insertion, the only new candidate pairs
are the inserted object against the partner relation.  The probe
walks the partner tree pruning every subtree whose MINDIST to the new
object exceeds the repair bound (the current K-th/watermark
distance), so its cost tracks the local pair density around the new
object rather than the relation size -- this is what makes per-update
repair asymptotically cheaper than re-running the join.

Every node bound is charged through
:class:`~repro.core.pairs.PairDistance` (``bound_calcs``), every
exact object distance likewise (``dist_calcs``), and each evaluated
partner object bumps ``live_probe_pairs``; the set of nodes expanded
is exactly *all* nodes within the bound, so the charged counters are
deterministic regardless of traversal order.

Given a kernel set (:func:`repro.kernels.resolve_kernels`), a node is
one batch call over its columnar mirror (``Node.entries_soa``) instead
of a Python call per entry: the same floats, entries, order and
counter totals, charged in bulk (docs/KERNELS.md).  The per-entry loop
is the usual fallback: no numpy, ``kernel="scalar"``, or a leaf or
probe object that is not a point.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

from repro.core.pairs import Item, NODE, OBJ, PairDistance
from repro.errors import LiveError
from repro.geometry.point import Point
from repro.rtree.base import RTreeBase
from repro.rtree.entry import LeafEntry
from repro.util.counters import CounterRegistry

__all__ = ["ProbeResult", "probe_partner"]


class ProbeResult(NamedTuple):
    """Outcome of one bounded partner scan.

    ``found`` holds every partner leaf entry within ``bound`` of the
    probe object, with its exact distance.  ``exhaustive`` is True
    when the bound excluded nothing -- no subtree was pruned and no
    evaluated object fell beyond the bound -- i.e. the scan saw the
    complete partner relation.  ``bound`` is the distance the scan
    was made at: a result answers any bound up to it.
    """

    found: List[Tuple[float, LeafEntry]]
    exhaustive: bool
    bound: float

    def within(self, bound: float) -> "ProbeResult":
        """The scan at ``bound`` read off this wider one.

        Every object within ``bound`` lies in nodes whose MINDIST is
        within it, all of which this scan visited: the entries with
        ``d <= bound`` are the ones a scan at ``bound`` finds (in
        another order).  That scan would have excluded nothing only if
        this one excluded nothing and found nothing beyond ``bound``.
        A narrower scan may have missed pairs: :class:`LiveError`.
        """
        if bound > self.bound:
            raise LiveError(
                f"a probe at bound {self.bound!r} cannot answer bound "
                f"{bound!r}"
            )
        found = [pair for pair in self.found if pair[0] <= bound]
        return ProbeResult(
            found, self.exhaustive and len(found) == len(self.found),
            bound,
        )


def probe_partner(
    tree: RTreeBase,
    distance: PairDistance,
    probe_item: Item,
    bound: float,
    counters: CounterRegistry,
    kernels: Optional[Any] = None,
) -> ProbeResult:
    """All partner objects within ``bound`` of ``probe_item``.

    The traversal visits exactly the nodes whose MINDIST to the probe
    object is ``<= bound`` (stack order is irrelevant to the visited
    set), computing the exact object distance at every reached leaf
    entry.  Node I/O is charged to the tree's registry and, when that
    differs from ``counters``, mirrored there -- the same accounting
    rule the join operators use.  ``kernels`` (a
    :class:`~repro.kernels.batch.BatchKernels` of ``distance``'s
    metric, or None) evaluates whole nodes at once.
    """
    found: List[Tuple[float, LeafEntry]] = []
    exhaustive = True
    shared = tree.counters is counters
    rect = probe_item.rect
    point = probe_item.obj if isinstance(probe_item.obj, Point) else None
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        hit = tree.pool.contains(node_id)
        node = tree.read_node(node_id)
        if not shared:
            counters.add("node_reads")
            if not hit:
                counters.add("node_io")
        entries = node.entries
        leaf = node.is_leaf
        soa = node.entries_soa() if kernels is not None and entries else None
        if soa is not None and (
            not leaf or (soa.pts is not None and point is not None)
        ):
            if leaf:
                d = kernels.point_distance(soa.pts, point.coords)
                distance._dist_calcs.add(soa.n)
                counters.add("live_probe_pairs", soa.n)
            else:
                d = kernels.mindist(rect.lo, rect.hi, soa.lo, soa.hi)
                distance._bound_calcs.add(soa.n)
            within = kernels.np.flatnonzero(d <= bound).tolist()
            if len(within) < soa.n:
                exhaustive = False
            if leaf:
                dists = d.tolist()
                found.extend((dists[i], entries[i]) for i in within)
            else:
                stack.extend(entries[i].child_id for i in within)
        elif leaf:
            for entry in entries:
                other = Item(
                    OBJ, entry.rect, oid=entry.oid, obj=entry.obj
                )
                d = distance.object_distance(probe_item, other)
                counters.add("live_probe_pairs")
                if d <= bound:
                    found.append((d, entry))
                else:
                    exhaustive = False
        else:
            child_level = node.level - 1
            for entry in entries:
                child = Item(
                    NODE, entry.rect,
                    node_id=entry.child_id, level=child_level,
                )
                if distance.mindist(probe_item, child) <= bound:
                    stack.append(entry.child_id)
                else:
                    exhaustive = False
    return ProbeResult(found, exhaustive, bound)
