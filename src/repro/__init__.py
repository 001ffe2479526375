"""repro -- Incremental distance join algorithms for spatial databases.

A complete reproduction of Hjaltason & Samet, *Incremental Distance
Join Algorithms for Spatial Databases* (SIGMOD 1998): the incremental
distance join and distance semi-join operators, the R*-tree substrate
they run on, the paper's engineering strategies (tie-breaking, node
policies, distance ranges, maximum-distance estimation, the hybrid
memory/disk priority queue, semi-join filters), the non-incremental
baselines, synthetic TIGER-like data sets, and a small SQL dialect with
``DISTANCE JOIN`` / ``STOP AFTER``.  On top of the paper, the shard
router (:mod:`repro.shard`) runs the join partitioned into shard
pairs of STR-tiled catalogs behind an order-preserving stream merge,
inline in this process: from SQL with the ``SHARDS <n>`` hint
(``PARALLEL <n>`` spells the same, as do the CLI flags ``--shards`` /
``--workers``), from the library as ``ShardRouterJoin``.

Quickstart
----------
>>> from repro import Point, RStarTree, IncrementalDistanceJoin
>>> a = RStarTree(dim=2)
>>> b = RStarTree(dim=2)
>>> for x in range(5):
...     _ = a.insert_point((float(x), 0.0))
...     _ = b.insert_point((float(x) + 0.25, 1.0))
>>> join = IncrementalDistanceJoin(a, b)
>>> first = next(join)
>>> round(first.distance, 4)
1.0308
"""

from repro.errors import (
    ConsistencyError,
    GeometryError,
    JoinError,
    QueryError,
    QuerySyntaxError,
    ReproError,
    StorageError,
    TreeError,
    TreeInvariantError,
)
from repro.geometry import (
    CHESSBOARD,
    EUCLIDEAN,
    MANHATTAN,
    LineSegment,
    Metric,
    MinkowskiMetric,
    Point,
    PointObject,
    Polygon,
    Rect,
    SpatialObject,
)
from repro.rtree import (
    GuttmanRTree,
    RStarTree,
    bulk_load_str,
    incremental_nearest,
    nearest_neighbors,
    nearest_neighbors_bnb,
    range_search,
    validate_tree,
)
from repro.core import (
    BASIC,
    BREADTH_FIRST,
    DEPTH_FIRST,
    DMAX_GLOBAL_ALL,
    DMAX_GLOBAL_NODES,
    DMAX_LOCAL,
    DMAX_NONE,
    EVEN,
    INSIDE1,
    INSIDE2,
    OUTSIDE,
    SIMULTANEOUS,
    IncrementalDistanceJoin,
    IncrementalDistanceSemiJoin,
    IntersectionJoin,
    JoinResult,
    JoinSpec,
    KNearestNeighborJoin,
    ReverseDistanceJoin,
    ReverseDistanceSemiJoin,
    all_nearest_neighbors,
    closest_pair,
    closest_pairs,
    intersection_join,
)
from repro.util.counters import CounterRegistry, CounterSnapshot

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GeometryError",
    "StorageError",
    "TreeError",
    "TreeInvariantError",
    "QueryError",
    "QuerySyntaxError",
    "JoinError",
    "ConsistencyError",
    # geometry
    "Point",
    "Rect",
    "Metric",
    "MinkowskiMetric",
    "EUCLIDEAN",
    "MANHATTAN",
    "CHESSBOARD",
    "SpatialObject",
    "PointObject",
    "LineSegment",
    "Polygon",
    # r-tree
    "RStarTree",
    "GuttmanRTree",
    "bulk_load_str",
    "range_search",
    "nearest_neighbors",
    "nearest_neighbors_bnb",
    "incremental_nearest",
    "validate_tree",
    # joins
    "JoinSpec",
    "IncrementalDistanceJoin",
    "IncrementalDistanceSemiJoin",
    "ReverseDistanceJoin",
    "ReverseDistanceSemiJoin",
    "JoinResult",
    "KNearestNeighborJoin",
    "closest_pair",
    "closest_pairs",
    "all_nearest_neighbors",
    "IntersectionJoin",
    "intersection_join",
    "BASIC",
    "EVEN",
    "SIMULTANEOUS",
    "DEPTH_FIRST",
    "BREADTH_FIRST",
    "OUTSIDE",
    "INSIDE1",
    "INSIDE2",
    "DMAX_NONE",
    "DMAX_LOCAL",
    "DMAX_GLOBAL_NODES",
    "DMAX_GLOBAL_ALL",
    # misc
    "CounterRegistry",
    "CounterSnapshot",
]
