"""Workload construction for the benchmark cases.

The paper's workload is "join *Water* with *Roads*" over R*-trees with
fan-out 50 and a 256-page buffer.  :func:`build_tiger_workload` builds
the synthetic equivalent at a configurable scale (1.0 = the paper's
37,495 x 200,482 points) with exactly those tree parameters.  The
other factories -- the swapped order, segment data, uniform points in
d dimensions, the packing ablation -- take a scale too, so a
:class:`~repro.bench.registry.BenchCase` names its workload by
naming a factory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.datasets.tiger_like import (
    ROADS_FULL_SIZE,
    WATER_FULL_SIZE,
    roads_points,
    water_points,
)
from repro.geometry.point import Point
from repro.rtree.base import RTreeBase
from repro.rtree.bulk import bulk_load_str
from repro.util.counters import CounterRegistry
from repro.util.validation import require


@dataclass
class JoinWorkload:
    """Two loaded trees plus their shared counter registry."""

    name: str
    tree1: RTreeBase
    tree2: RTreeBase
    counters: CounterRegistry
    points1: List[Point]
    points2: List[Point]
    #: :func:`oracle_distance` results already measured on these trees.
    memo: Dict[Any, float] = field(default_factory=dict, repr=False)

    def reset_counters(self) -> None:
        """Zero the counters (call between build and measurement)."""
        self.counters.reset()

    def cold_caches(self) -> None:
        """Empty both trees' buffer pools so node I/O measurements
        start from a cold cache, as each of the paper's runs does."""
        self.tree1.pool.clear()
        self.tree2.pool.clear()

    def swapped(self) -> "JoinWorkload":
        """The workload with relation order reversed (Roads ⋈ Water)."""
        return JoinWorkload(
            name=f"{self.name}-swapped",
            tree1=self.tree2,
            tree2=self.tree1,
            counters=self.counters,
            points1=self.points2,
            points2=self.points1,
        )


def build_tiger_workload(
    scale: float = 0.1,
    max_entries: int = 50,
    buffer_pages: int = 256,
    counters: Optional[CounterRegistry] = None,
) -> JoinWorkload:
    """Water ⋈ Roads at ``scale`` times the paper's cardinalities.

    Trees are STR bulk-loaded (the paper's trees are prebuilt too);
    counters are reset after loading so measurements see only query
    work.
    """
    require(0.0 < scale <= 1.0, "scale must be in (0, 1]")
    counters = counters if counters is not None else CounterRegistry()
    water_count = max(10, int(WATER_FULL_SIZE * scale))
    roads_count = max(10, int(ROADS_FULL_SIZE * scale))
    water = water_points(water_count)
    roads = roads_points(roads_count)
    tree_water = bulk_load_str(
        water, max_entries=max_entries, buffer_pages=buffer_pages,
        counters=counters, dim=2,
    )
    tree_roads = bulk_load_str(
        roads, max_entries=max_entries, buffer_pages=buffer_pages,
        counters=counters, dim=2,
    )
    counters.reset()
    return JoinWorkload(
        name=f"water-roads-{scale:g}",
        tree1=tree_water,
        tree2=tree_roads,
        counters=counters,
        points1=water,
        points2=roads,
    )


def suggest_dt(workload: JoinWorkload, bands: int = 50) -> float:
    """A reasonable hybrid-queue ``D_T`` for a workload.

    The paper picks ``D_T`` empirically per data set (the distances of
    pairs number 7,663 and 34,906).  This heuristic divides the
    diagonal of the two data sets' joint bounding box by ``bands``:
    pair distances concentrate far below the diagonal, so the first
    band holds the hot prefix while distant pairs spill to disk.
    """
    require(bands >= 1, "bands must be at least 1")
    bounds1 = workload.tree1.bounds()
    bounds2 = workload.tree2.bounds()
    if bounds1 is None or bounds2 is None:
        return 1.0
    joint = bounds1.union(bounds2)
    diagonal = math.sqrt(
        sum((hi - lo) ** 2 for lo, hi in zip(joint.lo, joint.hi))
    )
    return max(diagonal / bands, 1e-9)


def oracle_distance(
    workload: JoinWorkload, rank: Optional[int], semi: bool = False
) -> float:
    """The distance of result number ``rank`` (None = the last one) of
    the default join -- or, with ``semi``, of the Local semi-join.

    The paper sets Figure 7's and Figure 10's ``MaxDist`` from known
    pair distances the same way.  Measured once per workload and kept
    in ``workload.memo``: a spec factory calls this inside the timed
    region, so the suite resolves every case's spec once beforehand.
    """
    from repro.core.distance_join import IncrementalDistanceJoin
    from repro.core.semi_join import IncrementalDistanceSemiJoin

    if (rank, semi) not in workload.memo:
        operator = (
            IncrementalDistanceSemiJoin if semi
            else IncrementalDistanceJoin
        )
        distance = 0.0
        for count, result in enumerate(
            operator(workload.tree1, workload.tree2), start=1
        ):
            distance = result.distance
            if count == rank:
                break
        workload.memo[rank, semi] = distance
    return workload.memo[rank, semi]


def roads_water(scale: float) -> JoinWorkload:
    """Roads x Water: the larger relation first (Section 4.1.1)."""
    return build_tiger_workload(scale=scale).swapped()


def _loaded(
    name: str, objects1: Sequence[Any], objects2: Sequence[Any],
    load=bulk_load_str,
) -> JoinWorkload:
    """Two trees with the paper's node and buffer parameters."""
    counters = CounterRegistry()
    tree1, tree2 = (
        load(objects, max_entries=50, buffer_pages=256,
             counters=counters)
        for objects in (objects1, objects2)
    )
    counters.reset()
    return JoinWorkload(
        name, tree1, tree2, counters, list(objects1), list(objects2)
    )


def segment_workload(scale: float) -> JoinWorkload:
    """EXT1: Water and Roads as line segments (16,000 x 80,000 at
    scale 1.0), the "more complex spatial features" of Section 5."""
    from repro.datasets.tiger_like import roads_segments, water_segments

    return _loaded(
        f"segments-{scale:g}",
        water_segments(max(50, round(16_000 * scale))),
        roads_segments(max(50, round(80_000 * scale))),
    )


def uniform_workload(scale: float, dim: int = 2) -> JoinWorkload:
    """EXT2 / OPT1: two uniform point sets in ``[0, 100]^dim``,
    30,000 points each at scale 1.0 (never fewer than 1,000)."""
    from repro.datasets.synthetic import uniform_points

    count = max(1_000, round(30_000 * scale))
    return _loaded(
        f"uniform-{dim}d-{scale:g}",
        uniform_points(count, seed=dim, dim=dim, extent=100.0),
        uniform_points(count, seed=dim + 100, dim=dim, extent=100.0),
    )


def analyzed_workload(scale: float) -> JoinWorkload:
    """OPT1: uniform 2-d points with the cost model's tree statistics
    already collected -- ANALYZE is set-up, not the cost of a query
    (:func:`repro.query.costmodel.collect_stats` memoises per tree)."""
    from repro.query.costmodel import collect_stats

    load = uniform_workload(scale)
    collect_stats(load.tree1)
    collect_stats(load.tree2)
    load.counters.reset()
    return load


def packed_workload(scale: float, packing: str = "str") -> JoinWorkload:
    """AB4: Water x Roads packed by ``str`` / ``hilbert`` / ``morton``
    order, or built by R* insertion (``rstar``) as the paper's were."""
    from functools import partial

    from repro.rtree.rstar import RStarTree
    from repro.rtree.spacefill import bulk_load_curve

    def insert_each(objects, **tree_kwargs):
        tree = RStarTree(dim=2, **tree_kwargs)
        for obj in objects:
            tree.insert(obj=obj)
        return tree

    return _loaded(
        f"water-roads-{packing}-{scale:g}",
        water_points(max(10, int(WATER_FULL_SIZE * scale))),
        roads_points(max(10, int(ROADS_FULL_SIZE * scale))),
        load=insert_each if packing == "rstar"
        else partial(bulk_load_curve, curve=packing),
    )
