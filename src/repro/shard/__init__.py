"""Sharded relations: persistent catalogs + a pruning shard router.

- :mod:`repro.shard.catalog` -- partition a relation into per-shard
  R-trees with manifests, fingerprints, MBRs, and cost-model stats;
  persist and lazily reload them through the buffer pool.
- :mod:`repro.shard.router` -- the :class:`ShardRouterJoin` /
  :class:`ShardRouterSemiJoin` operators: shard pairs ordered by
  MINDIST lower bound, lazily admitted by the watermark merge, pruned
  when the consumer stops first; fully suspendable.
- :mod:`repro.shard.cache` -- the fingerprint-keyed plan cache.

See ``docs/SHARDING.md`` for the catalog format, the pruning rule,
and the cache keys.
"""

from repro.shard.cache import clear_caches, route_cache
from repro.shard.catalog import (
    CATALOG_FORMAT,
    CATALOG_VERSION,
    DEFAULT_SHARDS,
    ShardCatalog,
    ShardInfo,
    catalog_for,
)
from repro.shard.router import (
    InlineShardExecutor,
    ShardPair,
    ShardRouterJoin,
    ShardRouterSemiJoin,
    plan_shard_pairs,
)

__all__ = [
    "CATALOG_FORMAT",
    "CATALOG_VERSION",
    "DEFAULT_SHARDS",
    "InlineShardExecutor",
    "ShardCatalog",
    "ShardInfo",
    "ShardPair",
    "ShardRouterJoin",
    "ShardRouterSemiJoin",
    "catalog_for",
    "clear_caches",
    "plan_shard_pairs",
    "route_cache",
]
