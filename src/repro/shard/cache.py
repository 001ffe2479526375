"""The shard router's plan cache.

The **route cache** memoizes the ordered shard-pair plan -- a pure
function of (catalog fingerprints, metric, distance range).  It keys on
*content fingerprints*
(:attr:`repro.shard.catalog.ShardCatalog.fingerprint` is a SHA-1 over
shard membership), so a hit is valid by construction: any insert,
delete, or re-partitioning changes the fingerprint and silently
misses.

It is a small process-wide LRU serving the repeated-query pattern of a
long-lived service; the benchmark harness clears it so measured
counters stay build-inclusive.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

#: Default entry bound (plans are tiny).
ROUTE_CACHE_ENTRIES = 128


class LRUCache:
    """A bounded mapping evicting the least recently used entry."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        try:
            value = self._entries[key]
        except KeyError:
            return None
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_ROUTE_CACHE = LRUCache(ROUTE_CACHE_ENTRIES)


def route_cache() -> LRUCache:
    """The process-wide shard-pair plan cache."""
    return _ROUTE_CACHE


def clear_caches() -> None:
    """Drop all cached plans (tests, benchmarks)."""
    _ROUTE_CACHE.clear()
