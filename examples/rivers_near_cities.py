"""GIS scenario from the paper's introduction: cities and rivers.

Demonstrates the three queries Section 1 motivates, expressed through
the SQL layer (Figure 1 syntax with the STOP AFTER extension):

1. "find the city nearest to any river"           -- STOP AFTER 1
2. "... such that the city has a large population" -- filter + pipeline
3. "find cities within 5 miles of any river"       -- WHERE d <= 5

Cities are synthetic points with attached populations; rivers are the
TIGER-like water centroids.

Run:  python examples/rivers_near_cities.py
"""

import random

from repro import IncrementalDistanceJoin, JoinSpec
from repro.core.pairs import OBJ
from repro.datasets import water_points
from repro.datasets.synthetic import uniform_points
from repro.query import Database


def main():
    rng = random.Random(2024)
    cities = uniform_points(400, seed=31)
    populations = {
        oid: int(rng.lognormvariate(11.0, 1.2)) for oid in range(len(cities))
    }
    rivers = water_points(1500)

    db = Database()
    db.create_relation(
        "cities", cities,
        attributes={"pop": [populations[i] for i in range(len(cities))]},
    )
    db.create_relation("rivers", rivers)

    # --- Query 1: the city nearest to any river. -----------------------
    row = next(iter(db.execute(
        "SELECT * FROM cities, rivers, "
        "DISTANCE(cities.geom, rivers.geom) AS d "
        "ORDER BY d STOP AFTER 1"
    )))
    print(
        f"city nearest to any river: city #{row.oid1} at {row.geom1}, "
        f"{row.d:.1f} units from river point #{row.oid2}"
    )

    # --- Query 2: nearest city with population > 500,000. --------------
    # Option 1 of the paper's Section 5 discussion: run the incremental
    # join and filter the pipeline -- no index rebuild, and the first
    # qualifying pair arrives after only as much work as it needs.
    join = db.execute(
        "SELECT * FROM cities, rivers, "
        "DISTANCE(cities.geom, rivers.geom) AS d ORDER BY d"
    )
    examined = 0
    for row in join:
        examined += 1
        if populations[row.oid1] > 500_000:
            print(
                f"nearest big city: #{row.oid1} "
                f"(pop {populations[row.oid1]:,}) at {row.d:.1f} units "
                f"after examining {examined} candidate pairs"
            )
            break

    # Option 2: restrict first via the pair_filter hook (the paper's
    # parameterized-distance-function route), useful when the
    # selection is highly selective.
    filtered = IncrementalDistanceJoin(
        db.relation("cities"), db.relation("rivers"),
        JoinSpec(
            pair_filter=lambda pair: (
                pair.item1.kind != OBJ  # node pairs pass through untouched
                or populations[pair.item1.oid] > 500_000
            ),
            max_pairs=1,
        ),
    )
    result = next(filtered)
    print(
        f"same answer via pair_filter: city #{result.oid1}, "
        f"d={result.distance:.1f}"
    )

    # Option 3: let the optimizer choose.  With a stored attribute the
    # predicate goes straight into the SQL; EXPLAIN shows which of the
    # paper's two plans the cost model picked.
    sql = (
        "SELECT * FROM cities, rivers, "
        "DISTANCE(cities.geom, rivers.geom) AS d "
        "WHERE cities.pop > 500000 ORDER BY d STOP AFTER 1"
    )
    plan = db.explain(sql)
    row = next(iter(db.execute(sql)))
    print(
        f"same answer via SQL predicate: city #{row.oid1}, "
        f"d={row.d:.1f} (strategy: {plan.strategy}, selectivity "
        f"{plan.selectivity1:.2f})"
    )

    # --- Query 3: cities within 250 units of any river. ----------------
    # A distance semi-join with a maximum distance: each city reported
    # at most once, with its closest river point.
    within = db.execute(
        "SELECT *, MIN(d) FROM cities, rivers, "
        "DISTANCE(cities.geom, rivers.geom) AS d "
        "WHERE d <= 250 GROUP BY cities.geom ORDER BY d"
    )
    riverside = list(within)
    print(f"\n{len(riverside)} of {len(cities)} cities lie within "
          f"250 units of a river; five closest:")
    for row in riverside[:5]:
        print(f"  city #{row.oid1:>3}  d={row.d:7.2f}")


if __name__ == "__main__":
    main()
