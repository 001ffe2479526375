"""Quickstart: the incremental distance join in five minutes.

Builds two small R*-trees, runs a distance join, a distance semi-join,
and shows the pipelined (STOP AFTER) consumption pattern the paper's
algorithms are designed for.

Run:  python examples/quickstart.py
"""

from repro import (
    IncrementalDistanceJoin,
    IncrementalDistanceSemiJoin,
    JoinSpec,
    Point,
    RStarTree,
)
from repro.datasets import uniform_points


def main():
    # 1. Index two point relations (anything with an .mbr() works too).
    restaurants = RStarTree(dim=2)
    hotels = RStarTree(dim=2)
    for point in uniform_points(500, seed=1, extent=100.0):
        restaurants.insert(obj=point)
    for point in uniform_points(80, seed=2, extent=100.0):
        hotels.insert(obj=point)
    print(f"indexed {len(restaurants)} restaurants, {len(hotels)} hotels")

    # 2. Distance join: (restaurant, hotel) pairs, closest first.
    #    The join is an iterator -- consuming 5 pairs costs only the
    #    work needed for 5 pairs.
    join = IncrementalDistanceJoin(restaurants, hotels)
    print("\n5 closest (restaurant, hotel) pairs:")
    for __ in range(5):
        pair = next(join)
        print(
            f"  restaurant #{pair.oid1} <-> hotel #{pair.oid2}  "
            f"distance {pair.distance:.3f}"
        )

    # ... and it can simply be resumed later.
    print("next 3 pairs, resumed from the same iterator:")
    for __ in range(3):
        pair = next(join)
        print(f"  {pair.oid1} <-> {pair.oid2}  d={pair.distance:.3f}")

    # 3. Distance semi-join: each restaurant's nearest hotel, reported
    #    in order of distance (a discrete-Voronoi clustering).
    semi = IncrementalDistanceSemiJoin(restaurants, hotels)
    print("\n3 restaurants best served by a hotel:")
    for __ in range(3):
        pair = next(semi)
        print(
            f"  restaurant #{pair.oid1} -> hotel #{pair.oid2}  "
            f"d={pair.distance:.3f}"
        )

    # 4. Distance range: pairs between 5 and 10 units apart.
    ranged = IncrementalDistanceJoin(
        restaurants, hotels,
        JoinSpec(min_distance=5.0, max_distance=10.0, max_pairs=4),
    )
    print("\n4 pairs with distance in [5, 10]:")
    for pair in ranged:
        print(f"  {pair.oid1} <-> {pair.oid2}  d={pair.distance:.3f}")

    # 5. Any query object type: the nearest hotel to a street corner.
    from repro import incremental_nearest
    corner = Point((50.0, 50.0))
    nearest = next(incremental_nearest(hotels, corner))
    print(
        f"\nnearest hotel to {corner}: #{nearest.oid} at "
        f"distance {nearest.distance:.3f}"
    )


if __name__ == "__main__":
    main()
