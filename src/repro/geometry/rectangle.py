"""Immutable n-dimensional axis-aligned rectangles (hyper-rectangles).

Rectangles are the workhorse of the R-tree substrate: node regions,
entry keys, and object bounding rectangles are all :class:`Rect`.
Distance computations between rectangles/points live in
:mod:`repro.geometry.metrics`; this module provides the purely
set-theoretic operations (union, intersection, containment, area,
margin, overlap) that the R*-tree insertion and split algorithms need.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import DimensionMismatchError, GeometryError
from repro.geometry.point import Point


class Rect:
    """An immutable axis-aligned hyper-rectangle ``[lo, hi]`` per dimension.

    Degenerate rectangles (``lo == hi`` in some or all dimensions) are
    allowed; a point is representable as a degenerate rectangle via
    :meth:`from_point`.

    Examples
    --------
    >>> r = Rect((0, 0), (2, 3))
    >>> r.area(), r.margin()
    (6.0, 10.0)
    >>> r.contains_point(Point((1, 1)))
    True
    """

    __slots__ = ("lo", "hi")

    def __init__(
        self, lo: Iterable[float], hi: Iterable[float]
    ) -> None:
        lo_t: Tuple[float, ...] = tuple(map(float, lo))
        hi_t: Tuple[float, ...] = tuple(map(float, hi))
        if not lo_t:
            raise GeometryError("a rectangle needs at least one dimension")
        if len(lo_t) != len(hi_t):
            raise DimensionMismatchError(len(lo_t), len(hi_t))
        for a, b in zip(lo_t, hi_t):
            if a > b:
                raise GeometryError(
                    f"rectangle has lo > hi in some dimension: {a} > {b}"
                )
        object.__setattr__(self, "lo", lo_t)
        object.__setattr__(self, "hi", hi_t)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    def __reduce__(self):
        # Immutability blocks the default slot-state pickling (it goes
        # through __setattr__); reconstruct through the constructor so
        # rectangles pickle (cursors carry them).
        return (Rect, (self.lo, self.hi))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_point(cls, point: Point) -> "Rect":
        """The degenerate rectangle covering exactly ``point``.

        A point's coordinates are already a non-empty tuple of floats,
        so both corners share that one tuple instead of converting and
        comparing them again.
        """
        rect = object.__new__(cls)
        object.__setattr__(rect, "lo", point.coords)
        object.__setattr__(rect, "hi", point.coords)
        return rect

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "Rect":
        """The minimum bounding rectangle of a non-empty point set."""
        if not points:
            raise GeometryError("cannot bound an empty point set")
        dim = points[0].dim
        lo = list(points[0].coords)
        hi = list(points[0].coords)
        for p in points[1:]:
            p.check_dim(dim)
            for i, c in enumerate(p.coords):
                if c < lo[i]:
                    lo[i] = c
                if c > hi[i]:
                    hi[i] = c
        return cls(lo, hi)

    @classmethod
    def union_of(cls, rects: Sequence["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty rect set."""
        if not rects:
            raise GeometryError("cannot bound an empty rectangle set")
        lo = list(rects[0].lo)
        hi = list(rects[0].hi)
        dim = len(lo)
        for r in rects[1:]:
            if len(r.lo) != dim:
                raise DimensionMismatchError(dim, len(r.lo))
            for i in range(dim):
                if r.lo[i] < lo[i]:
                    lo[i] = r.lo[i]
                if r.hi[i] > hi[i]:
                    hi[i] = r.hi[i]
        return cls(lo, hi)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the rectangle."""
        return len(self.lo)

    def side(self, i: int) -> float:
        """Extent of the rectangle along dimension ``i``."""
        return self.hi[i] - self.lo[i]

    def center(self) -> Point:
        """The center point of the rectangle."""
        return Point((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def area(self) -> float:
        """Volume (area in 2-d) of the rectangle."""
        result = 1.0
        for a, b in zip(self.lo, self.hi):
            result *= b - a
        return result

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree split criterion uses this)."""
        return sum(b - a for a, b in zip(self.lo, self.hi))

    def is_degenerate(self) -> bool:
        """True if the rectangle has zero extent in every dimension."""
        return all(a == b for a, b in zip(self.lo, self.hi))

    # ------------------------------------------------------------------
    # set operations
    # ------------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """The smallest rectangle containing both ``self`` and ``other``.

        The union of two valid rectangles is valid, so it is built
        directly, without the constructor's conversion and checks.
        """
        if len(self.lo) != len(other.lo):
            raise DimensionMismatchError(len(self.lo), len(other.lo))
        rect = object.__new__(Rect)
        object.__setattr__(rect, "lo", tuple(map(min, self.lo, other.lo)))
        object.__setattr__(rect, "hi", tuple(map(max, self.hi, other.hi)))
        return rect

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping region, or ``None`` if the rects are disjoint."""
        self._check_dim(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        for a, b in zip(lo, hi):
            if a > b:
                return None
        return Rect(lo, hi)

    def intersects(self, other: "Rect") -> bool:
        """True if the rectangles share at least a boundary point."""
        self._check_dim(other)
        for a_lo, a_hi, b_lo, b_hi in zip(
            self.lo, self.hi, other.lo, other.hi
        ):
            if a_lo > b_hi or b_lo > a_hi:
                return False
        return True

    def overlap_area(self, other: "Rect") -> float:
        """Volume of the intersection (0.0 when disjoint)."""
        self._check_dim(other)
        result = 1.0
        for a_lo, a_hi, b_lo, b_hi in zip(
            self.lo, self.hi, other.lo, other.hi
        ):
            extent = min(a_hi, b_hi) - max(a_lo, b_lo)
            if extent <= 0.0:
                return 0.0
            result *= extent
        return result

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside or on the boundary."""
        point.check_dim(len(self.lo))
        return all(
            a <= c <= b for a, c, b in zip(self.lo, point.coords, self.hi)
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely within ``self``."""
        self._check_dim(other)
        return all(
            a_lo <= b_lo and b_hi <= a_hi
            for a_lo, a_hi, b_lo, b_hi in zip(
                self.lo, self.hi, other.lo, other.hi
            )
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for ``self`` to also cover ``other``.

        This is the classic R-tree ChooseLeaf criterion.
        """
        return self.union(other).area() - self.area()

    def corners(self) -> Iterator[Point]:
        """Iterate over all ``2^dim`` corner points."""
        dim = len(self.lo)
        for mask in range(1 << dim):
            yield Point(
                self.hi[i] if mask & (1 << i) else self.lo[i]
                for i in range(dim)
            )

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------

    def _check_dim(self, other: "Rect") -> None:
        if len(self.lo) != len(other.lo):
            raise DimensionMismatchError(len(self.lo), len(other.lo))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        lo = ", ".join(f"{c:g}" for c in self.lo)
        hi = ", ".join(f"{c:g}" for c in self.hi)
        return f"Rect(({lo}), ({hi}))"
