"""The maintained candidate frontier of a standing join.

:class:`ResultStore` keeps the best pairs of the current data in
canonical ``(distance, oid1, oid2)`` order.  For a top-K standing
query it holds up to ``capacity = K + F`` pairs: the first K are the
*reported* result, the F pairs behind them are the Eppstein-style
frontier that absorbs deletions -- a retraction inside the top K is
repaired by promoting the next frontier pair, no tree work needed.
A range query (no K) stores every qualifying pair, so the store is
always complete and deletions never need a refill.

Keys and entries live in two parallel sorted lists: binary searches
run on the key tuples alone, so object payloads (which need not be
orderable) never participate in comparisons.  One dict per side maps
an oid to the keys of its stored pairs (a short list: one object is in
a handful of the best pairs), so retracting an object costs a dict
miss or a few bisects, not a scan.  :meth:`ResultStore.merge` and
:meth:`ResultStore.remove_oid` say what they did to the reported
prefix, so the standing join never snapshots the result for deltas.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.distance_join import JoinResult
from repro.live.delta import pair_key

__all__ = ["ResultStore"]

Key = Tuple[float, int, int]


class ResultStore:
    """Sorted pair store with an optional capacity.

    ``complete`` is maintained by the owning
    :class:`~repro.live.standing.StandingJoin`: True when the store
    holds *every* qualifying pair of the current data, False when it
    holds only the ``len(self)`` best ones.
    """

    __slots__ = ("capacity", "complete", "_keys", "_entries", "_by_oid")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.complete = True
        self._keys: List[Key] = []
        self._entries: List[JoinResult] = []
        #: ``_by_oid[side - 1][oid]``: keys of the stored pairs whose
        #: ``side`` object is ``oid`` (no entry for an oid in none).
        self._by_oid: Tuple[Dict[int, List[Key]], ...] = ({}, {})

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[JoinResult]:
        return iter(self._entries)

    def __getitem__(self, index):
        """The pair at a canonical position (or a slice of them)."""
        return self._entries[index]

    def add(self, entry: JoinResult) -> bool:
        """Insert ``entry`` at its canonical position.

        Returns False (and changes nothing) when the pair is already
        present -- updates are idempotent per (distance, oid, oid).
        """
        return bool(self.merge([entry], None)[1])

    def merge(
        self, entries: List[JoinResult], k: Optional[int]
    ) -> Tuple[List[JoinResult], List[JoinResult]]:
        """:meth:`add` each of ``entries``; returns ``(left, entered)``
        in canonical order: the old pairs pushed past position ``k``
        and the added ones now below it (all of them when ``k`` is
        None).  Nothing is dropped (:meth:`trim` afterwards), and
        ``left`` is read before anything moves: a large batch pushes a
        demoted pair beyond ``capacity`` too, where :meth:`trim` would
        drop it unseen.
        """
        ranked = sorted(entries, key=pair_key)
        keys = self._keys
        reported = len(keys) if k is None else min(len(keys), k)
        # The batch can push out at most one reported pair per entry.
        at_risk = self._entries[max(0, reported - len(ranked)):reported]
        entered = []
        for entry in ranked:
            key = pair_key(entry)
            pos = bisect_left(keys, key)
            if pos < len(keys) and keys[pos] == key:
                continue
            keys.insert(pos, key)
            self._entries.insert(pos, entry)
            self._index(key)
            # Ascending order: whatever is added later lands behind,
            # so this position is final.
            if k is None or pos < k:
                entered.append(entry)
        pushed = 0 if k is None else reported + len(entered) - k
        left = at_risk[len(at_risk) - pushed:] if pushed > 0 else []
        return left, entered

    def trim(self) -> int:
        """Drop pairs beyond ``capacity``; returns how many fell off."""
        if self.capacity is None or len(self._keys) <= self.capacity:
            return 0
        dropped = self._keys[self.capacity:]
        del self._keys[self.capacity:]
        del self._entries[self.capacity:]
        for key in dropped:
            self._unindex(0, key)
            self._unindex(1, key)
        return len(dropped)

    def remove_oid(
        self, side: int, oid: int
    ) -> List[Tuple[int, JoinResult]]:
        """Retract every pair whose ``side`` object is ``oid``.

        Returns ``(position, pair)`` for each, in canonical order;
        the position is the one the pair held before the call.
        """
        keys = self._by_oid[side - 1].pop(oid, None)
        if keys is None:
            return []
        removed = []
        # Back to front: deleting a pair moves only the pairs behind.
        for pos in sorted(
            (bisect_left(self._keys, key) for key in keys), reverse=True
        ):
            self._unindex(2 - side, self._keys.pop(pos))
            removed.append((pos, self._entries.pop(pos)))
        removed.reverse()
        return removed

    def _index(self, key: Key) -> None:
        for by_oid, oid in zip(self._by_oid, key[1:]):
            by_oid.setdefault(oid, []).append(key)

    def _unindex(self, which: int, key: Key) -> None:
        by_oid = self._by_oid[which]
        keys = by_oid[key[1 + which]]
        if len(keys) == 1:
            del by_oid[key[1 + which]]
        else:
            keys.remove(key)

    def _reindex(self) -> None:
        self._by_oid = ({}, {})
        for key in self._keys:
            self._index(key)

    def tail_key(self) -> Key:
        """Key of the worst stored pair (store must be non-empty)."""
        return self._keys[-1]

    def top(self, k: Optional[int]) -> List[JoinResult]:
        """The reported result: best ``k`` pairs (all when ``k`` is
        None)."""
        if k is None:
            return list(self._entries)
        return self._entries[:k]

    def top_keys(self, k: Optional[int]) -> List[Key]:
        if k is None:
            return list(self._keys)
        return self._keys[:k]

    def replace(self, entries: List[JoinResult]) -> None:
        """Reset the store to ``entries`` (sorted, then trimmed)."""
        ranked = sorted(entries, key=pair_key)[:self.capacity]
        self._keys = [pair_key(e) for e in ranked]
        self._entries = ranked
        self._reindex()

    # ------------------------------------------------------------------
    # cursor support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """Picklable snapshot -- keys only; payloads are reattached at
        load time from the (fingerprint-checked) trees."""
        return {
            "capacity": self.capacity,
            "complete": self.complete,
            "keys": list(self._keys),
        }

    @classmethod
    def from_state(
        cls, state: dict, entries: List[JoinResult]
    ) -> "ResultStore":
        store = cls(state["capacity"])
        store.complete = state["complete"]
        store._keys = [tuple(k) for k in state["keys"]]
        store._entries = entries
        store._reindex()
        return store
