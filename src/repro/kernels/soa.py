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
    cols_lo, cols_hi, sweep_order, sweep_keys:
        The restriction's and the plane sweep's columns
        (:meth:`sweep_columns`), ``None`` until first asked for; cached
        and invalidated like ``items``.
    """

    __slots__ = (
        "n", "lo", "hi", "pts", "items",
        "cols_lo", "cols_hi", "sweep_order", "sweep_keys",
    )

    def __init__(self, n: int, lo, hi, pts) -> None:
        self.n = n
        self.lo = lo
        self.hi = hi
        self.pts = pts
        self.items = {}
        self.cols_lo = None
        self.cols_hi = None
        self.sweep_order = None
        self.sweep_keys = None

    def sweep_columns(self):
        """``(lo, hi, order, keys)``: the entries' corners as per-axis
        lists of Python floats (``lo[k][i]`` is entry ``i``'s axis-``k``
        lower coordinate), the entry indices stably sorted on ``lo[0]``
        (the sweep axis), and those ``lo[0]`` values in that order --
        what :func:`repro.core.planesweep.restrict_order` bisects and
        :func:`repro.core.planesweep.sweep_index_pairs` walks.

        When every entry is a point (``lo == hi``) one list per axis
        serves both corners, so ``hi is lo``; ``keys`` holds the float
        objects of ``lo[0]``, not copies.  Built once per SoA (never
        for an empty one), so a node restricted and swept against many
        partners converts and sorts once.
        """
        if self.sweep_order is None:
            lo = self.lo.T.tolist()
            self.cols_lo = lo
            self.cols_hi = (
                lo if np.array_equal(self.lo, self.hi)
                else self.hi.T.tolist()
            )
            axis = lo[0]
            order = sorted(range(self.n), key=axis.__getitem__)
            self.sweep_order = order
            self.sweep_keys = [axis[i] for i in order]
        return self.cols_lo, self.cols_hi, self.sweep_order, self.sweep_keys

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
