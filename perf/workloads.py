"""The four benchmark workloads: inputs, set-up, one repeat, verification.

Every workload is a *fixed script of work*.  ``setup()`` builds the
inputs from the seed (and is itself timed as ``setup_s``),
``reference()`` computes the expected rows by a different code path,
and ``repeat()`` replays the script once and returns the raw samples
the end-to-end metrics are computed from.  The program under test only
ever sees generated inputs.

Why the seed perturbs the inputs instead of redrawing them: drawing
Water and Roads from fresh generator seeds moves the join's work by
+-15 % and its time to first pair by 40x (which node pairs tie at
MINDIST 0 is chaotic in the data), and redrawing the update script
moves ``live_churn``'s metrics by 13-31 %, so no regression bound
could be resolved across seeds.  The maps are therefore the
generators' default ones -- the stand-in for the paper's single
TIGER/Line extract -- and the update script's choices are fixed, with
every coordinate (of both maps and of every scripted insert) moved by
a seeded uniform offset of +-``JITTER``.  Distances, rows and
checksums differ per seed; the work does not, beyond near-ties
falling the other way.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.workloads import suggest_dt
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.spec import JoinSpec
from repro.datasets.tiger_like import (
    EXTENT,
    ROADS_FULL_SIZE,
    WATER_FULL_SIZE,
    roads_points,
    water_points,
)
from repro.geometry.point import Point
from repro.query.executor import Database
from repro.rtree.bulk import bulk_load_str
from repro.service import JoinService, ServiceClient
from repro.util.counters import CounterRegistry

DEFAULT_SEED = 1998

#: The paper's tree parameters (Section 4): fan-out 50, 256 buffer pages.
FANOUT = 50
BUFFER_PAGES = 256

#: Half-width of the seeded coordinate offset, in universe units (the
#: universe is 10 000 wide; neighbouring road centroids are ~10 apart).
JITTER = 0.01

#: Rows of each join workload checked against the scalar reference.
REFERENCE_ROWS = 2000

#: First object id of scripted inserts (clear of bulk-loaded ids).
INSERT_OID_BASE = 1_000_000

SQL_HEAD = (
    "SELECT * FROM water, roads, "
    "DISTANCE(water.geom, roads.geom) AS d "
)

#: Workload sizes.  ``smoke`` shrinks every workload to a few hundred
#: milliseconds for ``perf/test_perf_smoke.py``.
SIZES: Dict[str, Dict[str, Any]] = {
    "join_topk": {"scale": 0.1, "pairs": 10_000, "page": 25},
    "join_spill": {"scale": 0.05, "pairs": 10_000, "page": 25},
    "service_sql_mix": {"scale": 0.05, "page": 25},
    "live_churn": {"scale": 0.05, "blocks": 20, "adhoc_every": 15},
}
SMOKE_SIZES: Dict[str, Dict[str, Any]] = {
    "join_topk": {"scale": 0.01, "pairs": 2_000, "page": 50},
    "join_spill": {"scale": 0.01, "pairs": 2_000, "page": 50},
    "service_sql_mix": {"scale": 0.01, "page": 25},
    "live_churn": {"scale": 0.01, "blocks": 10, "adhoc_every": 12},
}


@dataclass
class Replay:
    """Raw samples of one replay of a workload's script.

    ``steps`` holds the duration of every timed client call in script
    order; together they are the replay's wall time.  ``ops`` and
    ``firsts`` name, by step index, the calls that make up each op and
    each issue-to-first-row interval, so that the same step can be
    compared across replays (see ``perf/measure.py``).  ``repeat()`` fills
    the timing and ``results``; ``check()`` then verifies the results
    and fills ``rows``, ``digest`` and ``notes`` outside the timed part.
    """

    steps: List[float]
    ops: List[Tuple[int, ...]]
    firsts: List[Tuple[int, ...]]
    #: what the consumer received, for ``check`` (untimed) to verify
    results: Any
    rows: int = 0
    digest: str = ""
    notes: List[str] = field(default_factory=list)
    #: workload-specific counts for the per-layer report
    extra: Dict[str, int] = field(default_factory=dict)


class Steps:
    """Times the client calls of one replay."""

    def __init__(self) -> None:
        self.durations: List[float] = []

    def timed(self, call: Any, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = call(*args, **kwargs)
        self.durations.append(time.perf_counter() - started)
        return result

    @property
    def last(self) -> int:
        return len(self.durations) - 1


def make_maps(
    scale: float, seed: int, steps: Steps
) -> Tuple[List[Point], List[Point]]:
    """Water and Roads at ``scale``, perturbed by ``seed``."""
    uniform = random.Random(seed).uniform

    def perturbed(generate: Any, full_size: int) -> List[Point]:
        out = []
        for point in generate(max(10, int(full_size * scale))):
            x, y = point.coords
            out.append(Point((
                min(EXTENT, max(0.0, x + uniform(-JITTER, JITTER))),
                min(EXTENT, max(0.0, y + uniform(-JITTER, JITTER))),
            )))
        return out

    water = steps.timed(perturbed, water_points, WATER_FULL_SIZE)
    roads = steps.timed(perturbed, roads_points, ROADS_FULL_SIZE)
    return water, roads


def load_tree(points: Sequence[Point], counters: CounterRegistry):
    return bulk_load_str(
        list(points), max_entries=FANOUT, buffer_pages=BUFFER_PAGES,
        counters=counters, dim=2,
    )


def row_key(d: float, oid1: int, oid2: int) -> str:
    """The canonical spelling of one result row in a checksum."""
    return f"{float(d).hex()},{oid1},{oid2};"


def non_decreasing(distances: Sequence[float]) -> bool:
    return all(a <= b for a, b in zip(distances, distances[1:]))


# ----------------------------------------------------------------------
# join_topk / join_spill: the library iterator
# ----------------------------------------------------------------------


class JoinWorkload:
    """Water x Roads through ``IncrementalDistanceJoin``, paged.

    ``join_topk`` bounds the join (``max_pairs``), so the estimator
    prunes and the memory queue stays small; ``join_spill`` runs the
    hybrid queue with no bound -- the consumer just stops -- so every
    generated pair is queued and most are written to the disk tier.
    """

    def __init__(self, name: str, seed: int, size: Dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.scale = size["scale"]
        self.pairs = size["pairs"]
        self.page = size["page"]
        self.counters = CounterRegistry()
        self.tree1 = self.tree2 = None
        self.spec: Optional[JoinSpec] = None
        self.expected_head: List[Tuple[float, int, int]] = []

    def setup(self, steps: Steps) -> None:
        water, roads = make_maps(self.scale, self.seed, steps)
        self.tree1 = steps.timed(load_tree, water, self.counters)
        self.tree2 = steps.timed(load_tree, roads, self.counters)
        if self.name == "join_spill":
            # A twentieth of the suggested band width: the hot prefix
            # is small and nearly every insert goes to the disk tier.
            self.spec = JoinSpec(
                queue="hybrid", queue_dt=suggest_dt(self) / 20.0
            )
        else:
            self.spec = JoinSpec(max_pairs=self.pairs)

    def close(self) -> None:
        self.tree1 = self.tree2 = None

    def reference(self) -> None:
        """The head of the stream by the scalar kernels and the memory
        queue -- neither is on the measured path of either workload's
        vector kernels, and the hybrid queue is bypassed entirely."""
        count = min(REFERENCE_ROWS, self.pairs)
        join = IncrementalDistanceJoin(
            self.tree1, self.tree2,
            JoinSpec(kernel="scalar", max_pairs=count),
            counters=CounterRegistry(),
        )
        self.expected_head = [
            (r.distance, r.oid1, r.oid2) for r in join
        ]

    def repeat(self) -> Replay:
        self.tree1.pool.clear()
        self.tree2.pool.clear()
        gc.collect()
        page, total = self.page, self.pairs
        pages: List[list] = []
        steps: List[float] = []
        clock = time.perf_counter
        mark = clock()
        join = IncrementalDistanceJoin(
            self.tree1, self.tree2, self.spec, counters=self.counters
        )
        first = next(join)
        now = clock()
        steps.append(now - mark)
        mark = now
        pages.append([first] + list(islice(join, page - 1)))
        for __ in range(total // page - 1):
            now = clock()
            steps.append(now - mark)
            mark = now
            pages.append(list(islice(join, page)))
        steps.append(clock() - mark)
        del join
        # Step 0 runs to the first pair, step 1 completes page one.
        return Replay(
            steps=steps,
            ops=[(0, 1)] + [(i,) for i in range(2, len(steps))],
            firsts=[(0,)],
            results=[r for rows in pages for r in rows],
        )

    def check(self, replay: Replay) -> None:
        flat = replay.results
        sha = hashlib.sha1()
        for r in flat:
            sha.update(row_key(r.distance, r.oid1, r.oid2).encode())
        replay.rows, replay.digest = len(flat), sha.hexdigest()
        head = [
            (r.distance, r.oid1, r.oid2)
            for r in flat[:len(self.expected_head)]
        ]
        if len(flat) != self.pairs:
            replay.notes.append(f"{len(flat)} rows, expected {self.pairs}")
        if not non_decreasing([r.distance for r in flat]):
            replay.notes.append("distances decrease")
        if head != self.expected_head:
            replay.notes.append("head differs from the scalar reference")


# ----------------------------------------------------------------------
# the in-process HTTP service shared by the two service workloads
# ----------------------------------------------------------------------


class ServedDatabase:
    """A ``JoinService`` on an ephemeral port, its loop in one thread."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.service = JoinService(db, counters=db.counters)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.service.start(port=0))
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        if not started.wait(30):
            raise RuntimeError("the join service did not start")
        self.client = ServiceClient(port=self.service.port, timeout=120)

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self._loop
        ).result(30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30)
        self._loop.close()


def page_query(
    client: ServiceClient, steps: Steps, sql: str, strategy: str, k: int,
) -> Tuple[List[Dict[str, Any]], List[Tuple[int, ...]], Tuple[int, ...]]:
    """Admit ``sql`` and page it to the end.

    Returns the rows, one op per ``/next`` round trip, and the steps
    from issuing the query to the arrival of its first page.
    """
    session = steps.timed(client.query, sql, strategy=strategy)
    admitted = steps.last
    rows: List[Dict[str, Any]] = []
    ops: List[Tuple[int, ...]] = []
    while True:
        reply = steps.timed(client.next, session, k=k)
        ops.append((steps.last,))
        rows.extend(reply["rows"])
        if reply["done"]:
            return rows, ops, (admitted,) + ops[0]


def rows_digest(sha: "hashlib._Hash", rows: Sequence[Dict[str, Any]]) -> None:
    for r in rows:
        sha.update(row_key(r["d"], r["oid1"], r["oid2"]).encode())
    sha.update(b"|")


# ----------------------------------------------------------------------
# service_sql_mix: thirteen statements through the pager
# ----------------------------------------------------------------------


def sql_mix_statements() -> List[Tuple[str, str]]:
    """(sql, strategy) of one cycle, in canonical order."""
    tail = "ORDER BY d STOP AFTER "
    statements = [
        (f"{SQL_HEAD}WHERE d >= {x} {tail}10", "auto")
        for x in (0, 5, 10, 20, 40, 80)
    ]
    statements += [
        (f"{SQL_HEAD}{tail}1000", "auto"),
        (f"{SQL_HEAD}WHERE d >= 2 {tail}1000", "auto"),
        (f"{SQL_HEAD}WHERE d <= 25 ORDER BY d", "auto"),
        ("SELECT *, MIN(d) FROM water, roads, "
         "DISTANCE(water.geom, roads.geom) AS d "
         f"GROUP BY water.geom {tail}500", "auto"),
        (f"{SQL_HEAD}WHERE water.area > 90 {tail}500", "prefilter"),
        (f"{SQL_HEAD}WHERE roads.lanes >= 6 {tail}500", "pipeline"),
        (f"{SQL_HEAD}{tail}1000 SHARDS 4", "auto"),
    ]
    return statements


def serve_maps(
    scale: float, seed: int, attributes: bool, steps: Steps
) -> Tuple["ServedDatabase", List[Point], List[Point]]:
    """Both maps as bulk-loaded relations ``water`` and ``roads`` of a
    database behind a running service; object ids are list positions."""
    water, roads = make_maps(scale, seed, steps)
    db = Database(counters=CounterRegistry())
    rng = random.Random(seed + 1)
    db.create_relation(
        "water", steps.timed(load_tree, water, db.counters),
        attributes={"area": [rng.uniform(0.0, 100.0) for __ in water]}
        if attributes else None,
    )
    db.create_relation(
        "roads", steps.timed(load_tree, roads, db.counters),
        attributes={"lanes": [float(rng.randint(1, 8)) for __ in roads]}
        if attributes else None,
    )
    return steps.timed(ServedDatabase, db), water, roads


class SqlMixWorkload:
    """Thirteen statements paged over HTTP, in a fixed order (a
    seeded order moved time to first row by 10-15 % across seeds: what
    each statement finds in the buffer pool depends on its predecessor)."""

    def __init__(self, name: str, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.scale = size["scale"]
        self.page = size["page"]
        self.served: Optional[ServedDatabase] = None
        self.statements = sql_mix_statements()
        self.shards_sql = self.statements[-1][0]
        self.expected: List[List[Tuple[float, int, int]]] = []

    @property
    def counters(self) -> CounterRegistry:
        return self.served.db.counters

    def setup(self, steps: Steps) -> None:
        self.served, __, __ = serve_maps(
            self.scale, self.seed, True, steps
        )

    def close(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None

    def reference(self) -> None:
        """Each statement straight through the physical plan, no
        scheduler, cursor, JSON or HTTP in the way.  This also builds
        the shard catalogs and fills the route cache, so the ``SHARDS``
        statement is served warm in every measured replay."""
        db = self.served.db
        self.expected = [
            [(r.d, r.oid1, r.oid2)
             for r in db.physical_plan(sql, strategy=strategy).rows()]
            for sql, strategy in self.statements
        ]

    def repeat(self) -> Replay:
        gc.collect()
        client = self.served.client
        steps = Steps()
        ops: List[Tuple[int, ...]] = []
        firsts = []
        results = []
        for sql, strategy in self.statements:
            rows, paged, first = page_query(
                client, steps, sql, strategy, self.page
            )
            results.append(rows)
            ops += paged
            firsts.append(first)
        return Replay(
            steps=steps.durations, ops=ops, firsts=firsts, results=results,
        )

    def check(self, replay: Replay) -> None:
        sha = hashlib.sha1()
        for (sql, __), rows, expected in zip(
            self.statements, replay.results, self.expected
        ):
            rows_digest(sha, rows)
            got = [(r["d"], r["oid1"], r["oid2"]) for r in rows]
            if got != expected:
                replay.notes.append(f"rows differ from the plan's: {sql}")
            elif not non_decreasing([r["d"] for r in rows]):
                replay.notes.append(f"distances decrease: {sql}")
        replay.rows = sum(len(rows) for rows in replay.results)
        replay.digest = sha.hexdigest()


# ----------------------------------------------------------------------
# live_churn: updates beside standing subscriptions and ad-hoc reads
# ----------------------------------------------------------------------

WATCH_LIMITS = (10, 100, 1000, 1000)
ADHOC_SQL = SQL_HEAD + "ORDER BY d STOP AFTER 10"
DRAIN_PAGE = 512


class LiveChurnWorkload:
    """Four ``WATCH`` subscriptions maintained under a scripted stream
    of ``POST /update``s, with an ad-hoc read every few updates.

    The script is made of blocks of six updates -- insert two new
    roads near random water points, delete a road that the
    subscriptions currently report, delete the first new road,
    re-insert the reported road, delete the second new road -- so the
    relations' content after every block, and so after every repeat,
    is the content they started with.
    """

    def __init__(self, name: str, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.scale = size["scale"]
        self.blocks = size["blocks"]
        self.adhoc_every = size["adhoc_every"]
        self.served: Optional[ServedDatabase] = None
        self.sessions: List[str] = []
        self.held: List[Dict[Tuple[int, int], float]] = []
        self.script: List[Tuple[str, int, List[float]]] = []
        self.verified: Optional[str] = None

    @property
    def counters(self) -> CounterRegistry:
        return self.served.db.counters

    def setup(self, steps: Steps) -> None:
        self.served, water, roads = serve_maps(
            self.scale, self.seed, False, steps
        )
        client = self.served.client
        self.sessions = [
            steps.timed(
                client.watch,
                f"WATCH {SQL_HEAD}ORDER BY d STOP AFTER {k} NOTIFY",
            )
            for k in WATCH_LIMITS
        ]
        # Drain the bootstrap: the initial result arrives as '+' rows.
        self.held = [{} for __ in self.sessions]
        for index in range(len(self.sessions)):
            self._apply(index, self._drain(index, steps))
        steps.timed(self._write_script, water, roads)

    def _write_script(
        self, water_points: List[Point], roads_points: List[Point]
    ) -> None:
        rng = random.Random(DEFAULT_SEED)  # the choices are fixed ...
        offset = random.Random(self.seed + 3).uniform  # ... the seed nudges
        water = [list(p.coords) for p in water_points]
        roads = [list(p.coords) for p in roads_points]
        reported = sorted({oid2 for __, oid2 in self.held[-1]})
        self.script = []
        oid = INSERT_OID_BASE
        for __ in range(self.blocks):
            fresh = []
            for __ in range(2):
                x, y = water[rng.randrange(len(water))]
                fresh.append((oid, [
                    min(EXTENT, max(0.0, x + rng.uniform(-50.0, 50.0)
                                    + offset(-JITTER, JITTER))),
                    min(EXTENT, max(0.0, y + rng.uniform(-50.0, 50.0)
                                    + offset(-JITTER, JITTER))),
                ]))
                oid += 1
            victim = reported[rng.randrange(len(reported))]
            (a, at), (b, bt) = fresh
            self.script += [
                ("insert", a, at),
                ("insert", b, bt),
                ("delete", victim, roads[victim]),
                ("delete", a, at),
                ("insert", victim, roads[victim]),
                ("delete", b, bt),
            ]

    def close(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None

    def _drain(self, index: int, steps: Steps) -> List[Dict[str, Any]]:
        client, session = self.served.client, self.sessions[index]
        rows: List[Dict[str, Any]] = []
        while True:
            page = steps.timed(client.deltas, session, k=DRAIN_PAGE)
            rows.extend(page)
            if len(page) < DRAIN_PAGE:
                return rows

    def _apply(self, index: int, deltas: Sequence[Dict[str, Any]]) -> None:
        held = self.held[index]
        for row in deltas:
            key = (row["oid1"], row["oid2"])
            if row["op"] == "+":
                held[key] = row["d"]
            else:
                del held[key]

    def reference(self) -> None:
        """Nothing to precompute: every replay is checked by
        recomputing each subscription's query on the current trees."""

    def verify_replay(self) -> List[str]:
        """Live replay == recomputation: every subscription's replayed
        delta set equals a fresh execution of its query."""
        notes = []
        db = self.served.db
        for k, held in zip(WATCH_LIMITS, self.held):
            fresh = {
                (r.oid1, r.oid2): r.d
                for r in db.execute(f"{SQL_HEAD}ORDER BY d STOP AFTER {k}")
            }
            if held != fresh:
                notes.append(
                    f"STOP AFTER {k} subscription diverged from a "
                    "fresh execution of its query"
                )
        return notes

    def repeat(self) -> Replay:
        gc.collect()
        client = self.served.client
        steps = Steps()
        ops: List[Tuple[int, ...]] = []
        firsts = []
        delta_pages: List[Tuple[int, list]] = []
        adhoc: List[list] = []
        for count, (op, oid, point) in enumerate(self.script, 1):
            steps.timed(client.update, "roads", op, oid, point)
            ops.append((steps.last,))
            for index in range(len(self.sessions)):
                delta_pages.append((index, self._drain(index, steps)))
            if count % self.adhoc_every == 0:
                rows, __, first = page_query(
                    client, steps, ADHOC_SQL, "auto", 10
                )
                adhoc.append(rows)
                firsts.append(first)
        return Replay(
            steps=steps.durations, ops=ops, firsts=firsts,
            results=(delta_pages, adhoc),
        )

    def check(self, replay: Replay) -> None:
        delta_pages, adhoc = replay.results
        sha = hashlib.sha1()
        for index, deltas in delta_pages:
            self._apply(index, deltas)
            for r in deltas:
                sha.update(
                    f"{index}{r['op']}".encode()
                    + row_key(r["d"], r["oid1"], r["oid2"]).encode()
                )
        digest = sha.copy().hexdigest()
        if digest != self.verified:
            # The same deltas from the same state end in the same
            # state: recompute only when the stream is new.
            replay.notes += self.verify_replay()
            self.verified = digest
        for page in adhoc:
            rows_digest(sha, page)
            if len(page) != 10 or not non_decreasing(
                [r["d"] for r in page]
            ):
                replay.notes.append("ad-hoc read returned a wrong page")
        delta_rows = sum(len(deltas) for __, deltas in delta_pages)
        replay.extra["delta_rows"] = delta_rows
        replay.rows = delta_rows + sum(len(page) for page in adhoc)
        replay.digest = sha.hexdigest()


WORKLOADS = {
    "join_topk": JoinWorkload,
    "join_spill": JoinWorkload,
    "service_sql_mix": SqlMixWorkload,
    "live_churn": LiveChurnWorkload,
}


def make_workload(name: str, seed: int, smoke: bool = False):
    sizes = SMOKE_SIZES if smoke else SIZES
    return WORKLOADS[name](name, seed, sizes[name])
