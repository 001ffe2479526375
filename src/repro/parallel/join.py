"""``ParallelDistanceJoin``: the pooled, ephemeral-catalog spelling of
the shard router.

The partitioned engine is :class:`~repro.shard.router.ShardRouterJoin`
(partition -> route -> execute -> merge; see ``docs/SHARDING.md``).
The two classes here only adapt the constructor the ``PARALLEL n`` hint
and ``--workers`` use: ``partitions`` is the shard count (default: one
per worker), catalogs are built from the trees for this one join and
never cached, and ``backend="auto"`` picks ``serial`` for one worker
and ``thread`` otherwise (choose ``"process"`` explicitly for
CPU-bound scaling).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.spec import JoinSpec
from repro.parallel.executor import SERIAL, THREAD, default_workers
from repro.parallel.partition import GRID
from repro.rtree.base import RTreeBase
from repro.shard.router import ShardRouterJoin


class ParallelDistanceJoin(ShardRouterJoin):
    """Partitioned parallel incremental distance join of two R-trees
    (every other argument is the router's)."""

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        spec: Optional[JoinSpec] = None,
        *,
        workers: Optional[int] = None,
        backend: str = "auto",
        partitions: Optional[int] = None,
        partition_method: str = GRID,
        **engine: Any,
    ) -> None:
        if workers is None:
            workers = default_workers()
        if backend == "auto":
            backend = SERIAL if workers == 1 else THREAD
        shards, partition_method = self.routing(
            partition_method=partition_method,
            workers=workers, partitions=partitions,
        )
        super().__init__(
            tree1, tree2, spec,
            shards=shards,
            partition_method=partition_method,
            catalog_cache=False,
            backend=backend,
            workers=workers,
            **engine,
        )

    @classmethod
    def routing(
        cls,
        shards: Optional[int] = None,
        partition_method: str = GRID,
        *,
        workers: Optional[int] = None,
        partitions: Optional[int] = None,
        **__: Any,
    ) -> Tuple[int, str]:
        """One grid tile per worker unless ``partitions`` says
        otherwise (the router's ``shards`` is not this spelling's)."""
        if partitions is None:
            partitions = default_workers() if workers is None else workers
        return partitions, partition_method


class ParallelDistanceSemiJoin(ParallelDistanceJoin):
    """Partitioned parallel distance semi-join (see
    :class:`~repro.shard.router.ShardRouterSemiJoin`)."""

    _semi_join = True
