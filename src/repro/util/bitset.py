"""Fixed-capacity bit-string set of small non-negative integers.

The paper (Section 3.2) represents the semi-join "seen" set ``S_A`` as a
bit string because membership tests and insertions dominate, and notes
that even for a million elements the bit string occupies only 122 KB.
This module provides that representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.util.validation import require_non_negative


class Bitset:
    """A set of integers in ``[0, capacity)`` backed by a ``bytearray``.

    Membership tests and insertions are O(1); iteration is O(capacity).
    The structure grows automatically when an index beyond the current
    capacity is added, doubling to amortize reallocation.

    Examples
    --------
    >>> s = Bitset(16)
    >>> s.add(3), s.add(11)
    (True, True)
    >>> 3 in s, 4 in s
    (True, False)
    >>> len(s)
    2
    >>> sorted(s)
    [3, 11]
    """

    __slots__ = ("_bits", "_count")

    def __init__(self, capacity: int = 64, items: Iterable[int] = ()) -> None:
        require_non_negative(capacity, "capacity")
        self._bits = bytearray((capacity + 7) // 8)
        self._count = 0
        for item in items:
            self.add(item)

    @property
    def capacity(self) -> int:
        """Number of distinct indices representable without growing."""
        return len(self._bits) * 8

    def _grow_to(self, index: int) -> None:
        needed = index // 8 + 1
        new_size = max(needed, 2 * len(self._bits), 8)
        self._bits.extend(b"\x00" * (new_size - len(self._bits)))

    def add(self, index: int) -> bool:
        """Insert ``index``; return True if it was not already present."""
        require_non_negative(index, "index")
        byte, bit = index >> 3, 1 << (index & 7)
        if byte >= len(self._bits):
            self._grow_to(index)
        if self._bits[byte] & bit:
            return False
        self._bits[byte] |= bit
        self._count += 1
        return True

    def discard(self, index: int) -> bool:
        """Remove ``index`` if present; return True if it was present."""
        require_non_negative(index, "index")
        byte, bit = index >> 3, 1 << (index & 7)
        if byte >= len(self._bits) or not self._bits[byte] & bit:
            return False
        self._bits[byte] &= ~bit & 0xFF
        self._count -= 1
        return True

    def clear(self) -> None:
        """Remove all elements, keeping the allocated capacity."""
        for i in range(len(self._bits)):
            self._bits[i] = 0
        self._count = 0

    def __contains__(self, index: int) -> bool:
        if index < 0:
            return False
        byte = index >> 3
        if byte >= len(self._bits):
            return False
        return bool(self._bits[byte] & (1 << (index & 7)))

    def missing(self, indices: Iterable[int]) -> List[bool]:
        """``[i not in self for i in indices]`` in one pass: the
        semi-join tests a whole leaf's children at once.

        >>> Bitset(16, [3]).missing([3, 4, -1, 99])
        [False, True, True, True]
        """
        bits = self._bits
        size = len(bits) << 3
        return [
            not (0 <= i < size and bits[i >> 3] >> (i & 7) & 1)
            for i in indices
        ]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        for byte_index, byte in enumerate(self._bits):
            if not byte:
                continue
            base = byte_index << 3
            for bit in range(8):
                if byte & (1 << bit):
                    yield base + bit

    def __repr__(self) -> str:
        preview = ", ".join(str(i) for _, i in zip(range(8), self))
        suffix = ", ..." if self._count > 8 else ""
        return f"Bitset({{{preview}{suffix}}}, size={self._count})"

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the bit string itself."""
        return len(self._bits)

    def state(self) -> tuple:
        """A compact picklable snapshot: ``(bit string, count)``."""
        return (bytes(self._bits), self._count)

    @classmethod
    def from_state(cls, state: tuple) -> "Bitset":
        """Rebuild a bitset from a :meth:`state` snapshot."""
        bits, count = state
        out = cls(0)
        out._bits = bytearray(bits)
        out._count = count
        return out
