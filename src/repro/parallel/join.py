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

from typing import Any, Dict, Optional, Tuple

from repro.core.spec import JoinSpec
from repro.parallel.executor import SERIAL, THREAD, default_workers
from repro.parallel.partition import GRID
from repro.rtree.base import RTreeBase
from repro.shard.router import DEFAULT_BATCH_SIZE, ShardRouterJoin
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer


class ParallelDistanceJoin(ShardRouterJoin):
    """Partitioned parallel incremental distance join of two R-trees
    (the other arguments are the router's)."""

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
        batch_size: int = DEFAULT_BATCH_SIZE,
        timeout: Optional[float] = None,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        _resume: Optional[Dict[str, Any]] = None,
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
            batch_size=batch_size,
            timeout=timeout,
            counters=counters,
            observer=observer,
            _resume=_resume,
        )

    @classmethod
    def routing(
        cls,
        shards: Optional[int] = None,
        partition_method: str = GRID,
        *,
        workers: Optional[int] = None,
        partitions: Optional[int] = None,
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
