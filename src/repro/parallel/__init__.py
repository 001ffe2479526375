"""Building blocks of the partitioned join engine.

The engine itself is :class:`repro.shard.router.ShardRouterJoin`; this
package holds what it is made of -- the reference-point tilers
(:mod:`~repro.parallel.partition`), the picklable per-pair join task
and its live state (:mod:`~repro.parallel.plan`), the thread/process
pool backends (:mod:`~repro.parallel.executor`) and the watermark k-way
merge (:mod:`~repro.parallel.merge`) -- plus the ``PARALLEL n``
constructor adapters (:mod:`~repro.parallel.join`).

See ``docs/SHARDING.md`` for the architecture and the correctness
argument.
"""

from repro.parallel.executor import (
    BACKENDS,
    DEFAULT_BATCH_SIZE,
    PROCESS,
    SERIAL,
    THREAD,
    StreamExecutor,
    TaskBatch,
    default_workers,
)
from repro.parallel.merge import OrderedStreamMerge
from repro.parallel.partition import (
    GRID,
    PARTITION_METHODS,
    STR,
    GridPartitioner,
    Partitioner,
    STRPartitioner,
    TaskObject,
    Tile,
    joint_bounds,
    make_partitioner,
    reference_point,
)
from repro.parallel.plan import JoinSpec, TaskState, TileJoinTask

# Last: the adapters subclass the router, which imports the modules
# above.
from repro.parallel.join import (  # noqa: E402
    ParallelDistanceJoin,
    ParallelDistanceSemiJoin,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BATCH_SIZE",
    "GRID",
    "PARTITION_METHODS",
    "PROCESS",
    "SERIAL",
    "STR",
    "THREAD",
    "GridPartitioner",
    "JoinSpec",
    "OrderedStreamMerge",
    "ParallelDistanceJoin",
    "ParallelDistanceSemiJoin",
    "Partitioner",
    "STRPartitioner",
    "StreamExecutor",
    "TaskBatch",
    "TaskObject",
    "TaskState",
    "Tile",
    "TileJoinTask",
    "default_workers",
    "joint_bounds",
    "make_partitioner",
    "reference_point",
]
