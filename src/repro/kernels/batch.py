"""Bit-reproducible batch MINDIST / MAXDIST / MINMAXDIST kernels.

Each kernel evaluates a rectangle bound (or an exact point distance)
for many item pairs in one numpy call and is **bit-identical** to the
scalar :class:`~repro.geometry.metrics.MinkowskiMetric` evaluation of
the same inputs.  That property is engineered, not hoped for:

- every arithmetic step (subtract, multiply, add, ``sqrt``) is an
  IEEE-754 correctly-rounded operation in both CPython and numpy, so
  identical operand order gives identical bits;
- per-dimension accumulations run left-to-right exactly like the
  scalar loops (no pairwise/SIMD reassociation -- the loop over
  dimensions here is a Python loop over *columns*, each column op
  vectorized over pairs);
- selection steps (``max``/``min``/branch chains) replicate the
  scalar comparison polarity with ``np.where``, preserving Python's
  keep-first-on-ties and NaN-propagation behaviour.

Supported metrics are L1, L2 and L-infinity (general ``L_p`` needs
``pow``, whose libm implementation numpy does not reproduce exactly).
This module imports numpy unconditionally; gate access through
:func:`repro.kernels.resolve_kernels`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.metrics import MinkowskiMetric

__all__ = ["BatchKernels"]


class BatchKernels:
    """Batch bound evaluation for one :class:`MinkowskiMetric`.

    All rectangle arguments are coordinate arrays broadcastable to a
    common ``(n, dim)`` shape (a single rectangle may be passed as its
    ``(dim,)`` lo/hi tuples); every method returns a ``(n,)`` float64
    array.  Argument *order* is significant: ``(lo1, hi1)`` plays the
    role of the scalar bounds' first rectangle, so NaN-producing
    degenerate inputs (infinite coordinates) resolve identically.

    The ``np`` attribute re-exports the numpy module so callers can
    build masks without importing numpy at module scope themselves.
    """

    __slots__ = ("metric", "p")

    np = np

    def __init__(self, metric: MinkowskiMetric) -> None:
        self.metric = metric
        self.p = float(metric.p)

    # ------------------------------------------------------------------
    # the norm: replicates MinkowskiMetric.combine left-to-right
    # ------------------------------------------------------------------

    def _combine(self, deltas: np.ndarray) -> np.ndarray:
        if deltas.ndim == 1:
            deltas = deltas.reshape(1, -1)
        p = self.p
        dim = deltas.shape[1]
        if p == 2.0:
            # The squares summed left to right.  The scalar sum's 0.0
            # seed is dropped: a square is never -0.0, so
            # 0.0 + x * x == x * x.
            squares = deltas * deltas
            acc = squares[:, 0]
            for k in range(1, dim):
                acc = acc + squares[:, k]
            return np.sqrt(acc)
        if p == 1.0:
            # sum() starts from (int) 0: the first term is 0.0 + d0.
            acc = 0.0 + deltas[:, 0]
            for k in range(1, dim):
                acc = acc + deltas[:, k]
            return acc
        # L-infinity: max() keeps the incumbent unless strictly beaten.
        acc = deltas[:, 0]
        for k in range(1, dim):
            dk = deltas[:, k]
            acc = np.where(dk > acc, dk, acc)
        return acc

    # ------------------------------------------------------------------
    # rectangle bounds
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(*arrays):
        # No explicit broadcasting: the ufunc calls below broadcast a
        # single rectangle's (dim,) corners against (n, dim) arrays on
        # their own, which is far cheaper than materializing the
        # broadcast (this sits on the node-expansion hot path).
        return [np.asarray(a, dtype=np.float64) for a in arrays]

    def mindist(self, lo1, hi1, lo2, hi2) -> np.ndarray:
        """Batch ``Metric.mindist_rect_rect`` (elif-chain per dimension)."""
        lo1, hi1, lo2, hi2 = self._coerce(lo1, hi1, lo2, hi2)
        deltas = np.where(
            hi1 < lo2, lo2 - hi1,
            np.where(hi2 < lo1, lo1 - hi2, 0.0),
        )
        return self._combine(deltas)

    def maxdist(self, lo1, hi1, lo2, hi2) -> np.ndarray:
        """Batch ``Metric.maxdist_rect_rect``."""
        lo1, hi1, lo2, hi2 = self._coerce(lo1, hi1, lo2, hi2)
        x = hi1 - lo2
        y = hi2 - lo1
        deltas = np.where(y > x, y, x)  # max(x, y): y only if strictly >
        return self._combine(deltas)

    def minmaxdist(self, lo1, hi1, lo2, hi2) -> np.ndarray:
        """Batch ``Metric.minmaxdist_rect_rect``."""
        lo1, hi1, lo2, hi2 = self._coerce(lo1, hi1, lo2, hi2)
        c1 = np.abs(lo1 - lo2)
        c2 = np.abs(lo1 - hi2)
        c3 = np.abs(hi1 - lo2)
        c4 = np.abs(hi1 - hi2)
        # min(c1, c2, c3, c4): keep the incumbent unless strictly below.
        face_gap = c1
        for c in (c2, c3, c4):
            face_gap = np.where(c < face_gap, c, face_gap)
        x = hi1 - lo2
        y = hi2 - lo1
        max_comp = np.where(y > x, y, x)
        if max_comp.ndim == 1:
            max_comp = max_comp.reshape(1, -1)
            face_gap = face_gap.reshape(1, -1)
        best = np.full(max_comp.shape[0], math.inf)
        for k in range(max_comp.shape[1]):
            deltas = max_comp.copy()
            deltas[:, k] = face_gap[:, k]
            value = self._combine(deltas)
            best = np.where(value < best, value, best)
        return best

    # ------------------------------------------------------------------
    # exact point/point distances
    # ------------------------------------------------------------------

    def point_distance(self, a, b) -> np.ndarray:
        """Batch ``MinkowskiMetric.distance`` over coordinate arrays.

        ``b`` is row-aligned with ``a``, or one point's coordinates
        that every row of ``a`` is measured against.  One subtraction
        serves every axis column; the squares (L2) need no
        ``abs``.
        """
        deltas = np.asarray(a, dtype=np.float64) - np.asarray(
            b, dtype=np.float64
        )
        return self._combine(deltas if self.p == 2.0 else np.abs(deltas))
