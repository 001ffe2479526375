"""Immutable n-dimensional points."""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from repro.errors import DimensionMismatchError, GeometryError


class Point:
    """An immutable point in n-dimensional space.

    Points behave like fixed-length sequences of floats and support
    value equality and hashing, so they can key dictionaries and be
    stored in sets.

    Examples
    --------
    >>> p = Point((1.0, 2.0))
    >>> p.dim, p[0], p[1]
    (2, 1.0, 2.0)
    >>> Point((0, 0)) == Point((0.0, 0.0))
    True
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[float]) -> None:
        coords_tuple: Tuple[float, ...] = tuple(map(float, coords))
        if not coords_tuple:
            raise GeometryError("a point needs at least one coordinate")
        object.__setattr__(self, "coords", coords_tuple)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    def __reduce__(self):
        # Immutability blocks the default slot-state pickling (it goes
        # through __setattr__); reconstruct through the constructor so
        # points pickle (cursors carry them).
        return (Point, (self.coords,))

    @property
    def dim(self) -> int:
        """Dimensionality of the point."""
        return len(self.coords)

    @property
    def x(self) -> float:
        """First coordinate (convenience for 2-d use)."""
        return self.coords[0]

    @property
    def y(self) -> float:
        """Second coordinate (convenience for 2-d use)."""
        if len(self.coords) < 2:
            raise GeometryError("point has no y coordinate")
        return self.coords[1]

    def check_dim(self, other_dim: int) -> None:
        """Raise :class:`DimensionMismatchError` unless dims agree."""
        if len(self.coords) != other_dim:
            raise DimensionMismatchError(len(self.coords), other_dim)

    def __getitem__(self, index: int) -> float:
        return self.coords[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c:g}" for c in self.coords)
        return f"Point(({inner}))"

    def translated(self, offsets: Iterable[float]) -> "Point":
        """A new point offset by ``offsets`` component-wise."""
        offsets_tuple = tuple(float(o) for o in offsets)
        if len(offsets_tuple) != len(self.coords):
            raise DimensionMismatchError(len(self.coords), len(offsets_tuple))
        return Point(c + o for c, o in zip(self.coords, offsets_tuple))
