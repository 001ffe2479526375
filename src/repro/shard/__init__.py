"""The partitioned join engine: shard catalogs and the shard router.

- :mod:`repro.shard.partition` -- the reference-point STR tiler that
  splits a relation into disjoint shards.
- :mod:`repro.shard.catalog` -- partition a relation into per-shard
  R-trees with manifests, fingerprints, MBRs, and cost-model stats;
  persist and lazily reload them through the buffer pool.
- :mod:`repro.shard.task` -- the per-shard-pair join task and its live
  state.
- :mod:`repro.shard.merge` -- the watermark k-way merge with lazy
  admission.
- :mod:`repro.shard.router` -- the :class:`ShardRouterJoin` /
  :class:`ShardRouterSemiJoin` operators: shard pairs ordered by
  MINDIST lower bound, lazily admitted by the watermark merge, pruned
  when the consumer stops first, run inline; fully suspendable.
- :mod:`repro.shard.cache` -- the fingerprint-keyed plan cache.

SQL reaches the router with ``SHARDS n`` (``PARALLEL n`` and the CLI's
``--workers n`` are parse-time spellings of it).  See
``docs/SHARDING.md`` for the catalog format, the pruning rule, and the
cache keys.
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
    ShardPair,
    ShardRouterJoin,
    ShardRouterSemiJoin,
    plan_shard_pairs,
)

__all__ = [
    "CATALOG_FORMAT",
    "CATALOG_VERSION",
    "DEFAULT_SHARDS",
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
