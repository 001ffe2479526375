"""The columnar (struct-of-arrays) mirror of a node's entry list.

An R-tree node stores a Python list of entry objects, each holding a
:class:`~repro.geometry.rectangle.Rect` of coordinate tuples -- ideal
for the object API, hostile to vectorization.  :func:`build` mirrors
one node's entries into contiguous ``float64`` arrays once; the node
caches the result until its entry list is mutated (see
``Node.entries_soa`` / ``Node.invalidate_soa``).

Only imported when numpy is available -- gate through
:func:`repro.kernels.build_entry_soa`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["EntrySoA", "build"]


class EntrySoA:
    """Columnar view of one node's entries.

    Attributes
    ----------
    n:
        Number of entries mirrored.
    lo, hi:
        ``(n, dim)`` float64 arrays of the entry rectangles' corners
        (``None`` when ``n == 0``).
    pts:
        ``(n, dim)`` float64 array of the entries' point payloads, or
        ``None`` unless *every* entry is a leaf entry whose object is a
        :class:`~repro.geometry.point.Point` of the node's
        dimensionality.  The object-distance kernel path requires it.
    items:
        Scratch cache for the vectorized expansion: child ``Item``
        lists keyed by item kind.  Items are immutable once built, so
        a node expanded against many partners reuses one list instead
        of reconstructing its children per expansion; the cache lives
        and dies with the SoA (node mutation invalidates both).
    sweep_lo, sweep_hi, sweep_order:
        The plane sweep's columns (:meth:`sweep_columns`), ``None``
        until first asked for; cached and invalidated like ``items``.
    """

    __slots__ = (
        "n", "lo", "hi", "pts", "items",
        "sweep_lo", "sweep_hi", "sweep_order",
    )

    def __init__(self, n: int, lo, hi, pts) -> None:
        self.n = n
        self.lo = lo
        self.hi = hi
        self.pts = pts
        self.items = {}
        self.sweep_lo = None
        self.sweep_hi = None
        self.sweep_order = None

    def sweep_columns(self):
        """``(lo, hi, order)`` on the sweep axis (axis 0): the entries'
        lower and upper coordinates as float lists, and the entry
        indices stably sorted on ``lo`` -- what
        :func:`repro.core.planesweep.sweep_index_pairs` walks.  Built
        once per SoA, so a node swept against many partners sorts once.
        """
        if self.sweep_order is None:
            lo = self.lo[:, 0].tolist()
            self.sweep_lo = lo
            self.sweep_hi = self.hi[:, 0].tolist()
            self.sweep_order = sorted(range(self.n), key=lo.__getitem__)
        return self.sweep_lo, self.sweep_hi, self.sweep_order

    def __repr__(self) -> str:
        kind = "points" if self.pts is not None else "rects"
        return f"EntrySoA(n={self.n}, {kind})"


def build(entries: Sequence) -> EntrySoA:
    """Mirror ``entries`` (leaf or branch) into an :class:`EntrySoA`."""
    n = len(entries)
    if n == 0:
        # A fresh instance per call, never a shared singleton: the
        # ``items`` scratch cache must live and die with *this*
        # node's SoA.  A process-global empty SoA would share one
        # items dict across every empty node of every tree, leaking
        # child Items between unrelated trees once a consumer caches
        # into it (delete-then-reinsert leaves nodes empty routinely).
        return EntrySoA(0, None, None, None)
    lo = np.array([e.rect.lo for e in entries], dtype=np.float64)
    hi = np.array([e.rect.hi for e in entries], dtype=np.float64)
    pts = _point_payloads(entries, lo.shape[1])
    return EntrySoA(n, lo, hi, pts)


def _point_payloads(entries: Sequence, dim: int) -> Optional[np.ndarray]:
    coords = []
    for e in entries:
        point_coords = getattr(e, "point_coords", None)
        if point_coords is None:
            return None  # branch entries (or foreign entry types)
        c = point_coords()
        if c is None or len(c) != dim:
            return None
        coords.append(c)
    return np.array(coords, dtype=np.float64)
