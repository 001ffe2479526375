"""The paper's motivating scenario: assign every store its closest
warehouse (Section 1).

The distance semi-join of the stores relation with the warehouse
relation reports (store, warehouse) pairs in order of distance; once a
store has been paired it never appears again, so the complete result
partitions the stores like a discrete Voronoi diagram with the
warehouses as sites -- a geometric operation obtained from a database
primitive, no computational-geometry library involved.

Run:  python examples/closest_warehouse.py
"""

from collections import defaultdict

from repro import IncrementalDistanceSemiJoin, JoinSpec, Point, RStarTree
from repro.datasets import gaussian_clusters


def main():
    # Stores cluster around a few population centres; warehouses are
    # placed on a sparse grid.
    stores = gaussian_clusters(
        600, seed=11, clusters=5, extent=1000.0, spread=60.0
    )
    warehouses = [
        Point((x * 250.0 + 125.0, y * 250.0 + 125.0))
        for x in range(4)
        for y in range(4)
    ]

    store_tree = RStarTree(dim=2)
    for store in stores:
        store_tree.insert(obj=store)
    warehouse_tree = RStarTree(dim=2)
    for warehouse in warehouses:
        warehouse_tree.insert(obj=warehouse)

    # GlobalAll is the paper's best full-result strategy (Figure 9).
    semi = IncrementalDistanceSemiJoin(
        store_tree, warehouse_tree,
        JoinSpec(filter_strategy="inside2", dmax_strategy="global_all"),
    )

    assignment = defaultdict(list)
    worst = None
    for pair in semi:
        assignment[pair.oid2].append(pair.oid1)
        worst = pair  # pairs arrive in increasing distance order

    print(f"assigned {len(stores)} stores to {len(warehouses)} warehouses")
    print("\nwarehouse load (stores served):")
    for wid in sorted(assignment, key=lambda w: -len(assignment[w])):
        bar = "#" * (len(assignment[wid]) // 5)
        print(f"  warehouse {wid:>2} at {warehouses[wid]}: "
              f"{len(assignment[wid]):>3} {bar}")
    unused = [w for w in range(len(warehouses)) if w not in assignment]
    if unused:
        print(f"  unused warehouses: {unused}")

    print(
        f"\nworst-served store: #{worst.oid1} at {worst.obj1}, "
        f"{worst.distance:.1f} units from warehouse #{worst.oid2}"
    )

    # Because the result streams in distance order, a planner can stop
    # as soon as service distances get too long -- no need to finish.
    semi = IncrementalDistanceSemiJoin(store_tree, warehouse_tree)
    covered = 0
    for pair in semi:
        if pair.distance > 150.0:
            break
        covered += 1
    print(
        f"\n{covered} of {len(stores)} stores lie within 150 units of "
        f"their warehouse (computed incrementally, stopped early)"
    )


if __name__ == "__main__":
    main()
