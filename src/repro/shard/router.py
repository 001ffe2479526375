"""The shard router: the one partition -> route -> execute -> merge
operator.

:class:`ShardRouterJoin` provides the incremental iterator contract of
:class:`~repro.core.distance_join.IncrementalDistanceJoin` -- result
pairs in non-decreasing distance, ``stop after K`` costing only
incremental work -- over relations partitioned into
:class:`~repro.shard.catalog.ShardCatalog` shards.  It plans one task
per shard pair, bounds each task below by
``metric.mindist_rect_rect(mbr1, mbr2)``, and hands the bounds to the
watermark merge's lazy-admission rule
(:class:`~repro.shard.merge.OrderedStreamMerge`): a shard pair is
*routed* (opened, its shard trees built/loaded, its join run) only
when the merge frontier reaches its bound, and *pruned* -- never
touched at all -- when the consumer stops first.  Shard pairs whose
bound exceeds ``max_distance`` (or whose MAXDIST cannot reach
``min_distance``) are range-pruned before the merge even sees them.

Output is bit-identical to the sequential join with canonical ties
(the ``(distance, oid1, oid2)`` order) for every shard count; the
routing decisions are observable as counters::

    shard_pairs_total         planned shard pairs (cross product)
    shard_pairs_range_pruned  eliminated upfront by the distance range
    shard_pairs_routed        admitted by the watermark rule
    shard_pairs_pruned        never admitted (finalized when the
                              operator closes; includes range-pruned)

Routed tasks run inline, in this process, over the catalogs' own
shard trees: the merge pulls a task's next batch through one callable
(:meth:`ShardRouterJoin._pull`), which opens the task on first use.
Every counter is therefore deterministic and the whole operator is
*suspendable*: :meth:`ShardRouterJoin.save` captures the merge state,
every opened task's join cursor and soft-cap position, and the routing
counters, and :meth:`ShardRouterJoin.load` resumes bit-identically
against deterministically rebuilt catalogs (the ``shard`` cursor kind;
see "Cursor format" in ``docs/SERVICE.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import cursor
from repro.core.distance_join import JoinResult
from repro.core.spec import JoinSpec
from repro.errors import CursorError, JoinError
from repro.rtree.base import RTreeBase
from repro.shard.cache import route_cache as _route_cache
from repro.shard.catalog import (
    DEFAULT_SHARDS,
    ShardCatalog,
    catalog_for,
)
from repro.shard.merge import OrderedStreamMerge
from repro.shard.partition import STR
from repro.shard.task import TaskState, TileJoinTask
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer
from repro.util.validation import require

_INF = float("inf")

#: Default result pairs per task batch.
DEFAULT_BATCH_SIZE = 64


class ShardPair(NamedTuple):
    """One planned shard-pair task and its admission bound."""

    task_id: int
    sid1: int
    sid2: int
    bound: float


def plan_shard_pairs(
    catalog1: ShardCatalog,
    catalog2: ShardCatalog,
    metric: Any,
    min_distance: float = 0.0,
    max_distance: float = _INF,
) -> Tuple[List[ShardPair], int, bool]:
    """Order shard pairs by MINDIST lower bound; range-prune pairs
    that cannot intersect ``[min_distance, max_distance]``.

    A pure function of its arguments, memoized in the route cache
    (keyed on catalog fingerprints, metric, and range).  Returns
    ``(pairs, range_pruned, cache_hit)``; EXPLAIN calls this directly
    to describe the route without constructing an operator.
    """
    key = (
        catalog1.fingerprint, catalog2.fingerprint,
        type(metric).__name__, repr(metric),
        min_distance, max_distance,
    )
    cached = _route_cache().get(key)
    if cached is not None:
        return cached[0], cached[1], True
    candidates: List[Tuple[float, int, int]] = []
    range_pruned = 0
    for info1 in catalog1.infos:
        for info2 in catalog2.infos:
            bound = metric.mindist_rect_rect(info1.mbr, info2.mbr)
            if bound > max_distance:
                range_pruned += 1
                continue
            if min_distance > 0.0 and metric.maxdist_rect_rect(
                info1.mbr, info2.mbr
            ) < min_distance:
                range_pruned += 1
                continue
            candidates.append(
                (bound, info1.shard_id, info2.shard_id)
            )
    candidates.sort()
    pairs = [
        ShardPair(task_id, sid1, sid2, bound)
        for task_id, (bound, sid1, sid2) in enumerate(candidates)
    ]
    _route_cache().put(key, (pairs, range_pruned))
    return pairs, range_pruned, False


def route_summary(
    catalog1: ShardCatalog,
    catalog2: ShardCatalog,
    pairs: List[ShardPair],
    range_pruned: int,
) -> Dict[str, Any]:
    """What EXPLAIN prints of a route (:func:`plan_shard_pairs`'
    result): shard counts, the tiler, the planned pair order and the
    upfront range pruning."""
    return {
        "shards": (len(catalog1), len(catalog2)),
        "method": STR,
        "pairs_total": len(catalog1) * len(catalog2),
        "pairs_planned": len(pairs),
        "range_pruned": range_pruned,
        "order": [(pair.sid1, pair.sid2, pair.bound) for pair in pairs],
    }


class ShardRouterJoin(cursor.SuspendableOperator):
    """Cost-bounded shard-routed incremental distance join.

    Parameters
    ----------
    tree1, tree2:
        The two joined relations' indexes (catalogs are derived from
        them unless ``catalogs`` is given).
    shards:
        Shards per relation (default 4), cut by the STR tiler; tasks
        are the cross product of the two catalogs' non-empty shards.
    catalogs:
        Optional prebuilt ``(catalog1, catalog2)`` pair -- e.g. opened
        from disk with :meth:`ShardCatalog.open` -- overriding
        derivation from the trees.  Both must be cut into the same
        number of shards, which is then the router's ``shards``; a
        ``shards`` argument that contradicts it is a ``ValueError``.
    batch_size:
        Result pairs per task batch.
    catalog_cache:
        Reuse catalogs memoized on the trees (default).  The benchmark
        harness disables this so repeated runs charge identical build
        counters.
    spec:
        A :class:`~repro.core.spec.JoinSpec`, applied inside every
        task (None means ``JoinSpec()``).  Validated with
        ``JoinSpec.validate(parallel=True)``, which *explicitly*
        rejects what the engine cannot honour (``descending`` -- the
        merge is a min-merge -- and a non-memory ``queue`` tier).
    counters:
        As in the sequential join.  Tasks and their shard trees charge
        this registry directly, so the counters are exact and
        deterministic.
    observer:
        Stage-timing sink (:class:`~repro.util.obs.Observer`).  Unlike
        the sequential join, the default is a private *enabled*
        observer: the engine's instrumentation costs clock reads per
        batch, not per pair, so :meth:`stage_breakdown` works out of
        the box.
    """

    _semi_join = False

    _cursor_kind = "shard"

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        spec: Optional[JoinSpec] = None,
        *,
        shards: Optional[int] = None,
        catalogs: Optional[Tuple[ShardCatalog, ShardCatalog]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        catalog_cache: bool = True,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        _resume: Optional[Dict[str, Any]] = None,
    ) -> None:
        if tree1.dim != tree2.dim:
            raise JoinError(
                f"cannot join trees of dimension {tree1.dim} and "
                f"{tree2.dim}"
            )
        spec = JoinSpec() if spec is None else spec
        spec.validate(parallel=True)
        if _resume is not None:
            if _resume["method"] != STR:
                raise CursorError(
                    f"the cursor's catalogs were cut with the "
                    f"{_resume['method']!r} tiler; this build cuts "
                    f"{STR!r} only"
                )
            shards = _resume["shards"]
            batch_size = _resume["batch_size"]
        if catalogs is not None:
            # The cursor records one shard count and rebuilds both
            # catalogs from it, so it must be theirs.
            cut = sorted({catalog.shards for catalog in catalogs})
            require(len(cut) == 1,
                    f"the catalogs are cut into {cut} shards, not one "
                    f"count")
            require(shards in (None, cut[0]),
                    f"shards={shards} contradicts the catalogs, cut "
                    f"into {cut[0]}")
            shards = cut[0]
        if shards is None:
            shards = DEFAULT_SHARDS
        require(shards >= 1, "shards must be at least 1")
        require(batch_size >= 1, "batch_size must be at least 1")

        self.spec = spec
        self.tree1 = tree1
        self.tree2 = tree2
        self.shards = shards
        self.batch_size = batch_size
        self.max_pairs = spec.max_pairs
        self.counters = counters if counters is not None else tree1.counters
        self.obs = observer if observer is not None else Observer(
            max_events=0
        )
        # Semi-join task streams stay uncapped: duplicate outer
        # objects are discarded only after the merge.
        self.task_spec = (
            spec.evolve(max_pairs=None) if self._semi_join else spec
        )

        with self.obs.span("shard.route"):
            if catalogs is not None:
                self.catalog1, self.catalog2 = catalogs
            else:
                self.catalog1 = catalog_for(
                    tree1, shards,
                    counters=self.counters, cache=catalog_cache,
                )
                self.catalog2 = catalog_for(
                    tree2, shards,
                    counters=self.counters, cache=catalog_cache,
                )
            self.pairs, self.range_pruned, plan_cached = plan_shard_pairs(
                self.catalog1, self.catalog2, spec.metric,
                spec.min_distance, spec.max_distance,
            )
        self.pairs_total = (
            len(self.catalog1) * len(self.catalog2)
        )

        #: The opened tasks: a task is closed (no shard tree built or
        #: loaded, no join constructed) until its first batch is pulled.
        self._tasks: Dict[int, TaskState] = {}
        self._merge: Optional[OrderedStreamMerge] = None
        self._produced = 0
        self._routed = 0
        self._closed = False
        self._finalized = False
        #: Task result batches pulled so far.  Batch pulls are the
        #: operator's natural preemption points: the scheduler's
        #: quantum loop reads this to yield between batches instead of
        #: mid-batch.
        self.batches_received = 0

        if _resume is not None:
            # :meth:`load`: the suspended run already charged the
            # routing counters; put its cursor body back instead.  A
            # restore that fails must not charge pruning from __del__.
            self._finalized = True
            self._restore(_resume)
            return
        if plan_cached:
            self.counters.add("shard_plan_cache_hits")
        self.counters.add("shard_pairs_total", self.pairs_total)
        self.counters.add("shard_pairs_range_pruned", self.range_pruned)
        self.counters.observe("shard_partitions", shards)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def route_plan(self) -> Dict[str, Any]:
        """Static routing summary (EXPLAIN): shard counts, planned
        pair order, and upfront range pruning."""
        return route_summary(
            self.catalog1, self.catalog2, self.pairs, self.range_pruned
        )

    def _task(self, task_id: int) -> TileJoinTask:
        """The description of one planned pair's join (``task_id``
        indexes :attr:`pairs`).  Asking for it loads the two shards of
        a catalog opened from disk."""
        pair = self.pairs[task_id]
        return TileJoinTask(
            task_id=task_id,
            objects1=self.catalog1.table(pair.sid1),
            objects2=self.catalog2.table(pair.sid2),
            spec=self.task_spec,
            semi_join=self._semi_join,
        )

    @property
    def tasks(self) -> List[TileJoinTask]:
        """Every planned pair's task, in admission (bound) order."""
        return [self._task(pair.task_id) for pair in self.pairs]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _open(
        self, task_id: int, saved: Optional[Dict[str, Any]] = None
    ) -> TaskState:
        """Open (or resume) a task over the catalogs' own shard trees,
        charging this operator's registry."""
        pair = self.pairs[task_id]
        return TaskState(
            self._task(task_id),
            self.catalog1.tree(pair.sid1),
            self.catalog2.tree(pair.sid2),
            self.counters,
            saved,
        )

    def _pull(self, task_id: int) -> Tuple[Sequence[JoinResult], bool]:
        """The merge's one way into a task: open it on first use,
        advance it one batch, and return ``(results, done)``."""
        task = self._tasks.get(task_id)
        if task is None:
            task = self._tasks[task_id] = self._open(task_id)
        results = task.advance(self.batch_size)
        self.batches_received += 1
        self.counters.add("shard_batches")
        return results, task.done

    def _on_admit(self, task_id: int) -> None:
        self._routed += 1
        self.counters.add("shard_pairs_routed")

    def _start(self) -> None:
        self._merge = OrderedStreamMerge(
            self._pull,
            [pair.task_id for pair in self.pairs],
            dedup_outer=self._semi_join,
            expected_outer=len(self.tree1),
            lower_bounds={
                pair.task_id: pair.bound for pair in self.pairs
            },
            on_admit=self._on_admit,
        )

    def __iter__(self) -> "ShardRouterJoin":
        return self

    def __next__(self) -> JoinResult:
        if self._closed:
            raise StopIteration
        if not self.pairs or (
            self.max_pairs is not None
            and self._produced >= self.max_pairs
        ):
            self.close()
            raise StopIteration
        if self._merge is None:
            self._start()
        try:
            if self.obs.enabled:
                with self.obs.span("shard.merge"):
                    result = next(self._merge)
            else:
                result = next(self._merge)
        except StopIteration:
            self.close()
            raise
        self._produced += 1
        self.counters.add("shard_rows_reported")
        return result

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Finalize routing counters.

        Safe to call repeatedly; iteration afterwards reports
        exhaustion.  Also invoked when the iterator is exhausted, when
        ``max_pairs`` is reached, and on garbage collection.  Shard
        pairs never admitted by the time the operator closes were
        *pruned*: the watermark rule proved the consumer could not
        need them.
        """
        if self._closed:
            return
        self._closed = True
        if not self._finalized:
            self._finalized = True
            self.counters.add(
                "shard_pairs_pruned", self.pairs_total - self._routed
            )

    def __enter__(self) -> "ShardRouterJoin":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def progress_signals(self) -> Dict[str, Any]:
        """Raw progress facts (see the sequential operator's
        :meth:`progress_signals`).  The router has no single queue,
        but it does have a certified global head: the merge watermark
        (minimum over admitted stream heads and pending shard-pair
        bounds), which feeds the distance-fraction estimate."""
        if self._merge is not None:
            head = self._merge.watermark()
        elif self.pairs:
            head = self.pairs[0].bound
        else:
            head = None
        return {
            "operator": type(self).__name__,
            "produced": self._produced,
            "max_pairs": self.max_pairs,
            "head_distance": head,
            "min_distance": self.spec.min_distance,
            "max_distance": self.spec.max_distance,
            "descending": self.spec.descending,
            "queue_len": 0,
            "done": self._closed or not self.pairs,
            "batches_received": self.batches_received,
            "tasks": len(self.pairs),
            "shard_pairs_total": self.pairs_total,
            "shard_pairs_routed": self._routed,
        }

    def stage_breakdown(self) -> Dict[str, float]:
        """Wall seconds per pipeline stage, aggregated so far.

        - ``partition``: catalog construction and route planning;
        - ``merge``: recombination, *including* the time spent opening
          and advancing the shard-pair tasks it pulls from.
        """
        return {
            "partition": self.obs.span_seconds("shard.route"),
            "merge": self.obs.span_seconds("shard.merge"),
        }

    def trace_events(self) -> List[Dict[str, Any]]:
        """The execution so far as Chrome trace events: one track of
        the route/merge spans, plus per-occurrence events when the
        observer records them; load with Perfetto or
        ``chrome://tracing``.
        """
        from repro.util import tracing

        return tracing.sort_events(tracing.observer_trace(
            self.obs, process_name="repro partitioned join",
        ))

    def write_trace(self, path: str) -> str:
        """Write :meth:`trace_events` to ``path`` as trace JSON."""
        from repro.util import tracing

        return tracing.write_chrome_trace(
            path, self.trace_events(),
            metadata={"shards": self.shards, "tasks": len(self.pairs)},
        )

    # ------------------------------------------------------------------
    # suspendable cursor (save / load: cursor.SuspendableOperator)
    # ------------------------------------------------------------------

    def _cursor_body(self) -> Dict[str, Any]:
        """The merge state (per-stream buffers and admission flags),
        every opened task's join cursor plus its soft-cap position,
        the routing progress, and enough configuration to rebuild
        identical catalogs at :meth:`load` time: catalogs are rebuilt
        from the trees deterministically and checked against the
        saved catalog fingerprints (a cursor taken over externally
        supplied catalogs resumes only if rebuilt catalogs have
        identical content).
        """
        merge = self._merge
        return {
            "catalogs": (
                self.catalog1.fingerprint, self.catalog2.fingerprint
            ),
            "shards": self.shards,
            "method": STR,
            "batch_size": self.batch_size,
            "produced": self._produced,
            "routed": self._routed,
            "closed": self._closed,
            "finalized": self._finalized,
            "batches_received": self.batches_received,
            "tasks": {
                task_id: task.state()
                for task_id, task in self._tasks.items()
            },
            "merge": merge.state() if merge is not None else None,
        }

    def _restore(self, body: dict) -> None:
        """Put a :meth:`_cursor_body` back (constructor resume path)."""
        saved_catalogs = tuple(body["catalogs"])
        rebuilt = (self.catalog1.fingerprint, self.catalog2.fingerprint)
        if saved_catalogs != rebuilt:
            raise CursorError(
                "rebuilt catalogs do not match the cursor: saved "
                f"{saved_catalogs!r}, got {rebuilt!r}"
            )
        self._produced = body["produced"]
        self._routed = body["routed"]
        self.batches_received = body["batches_received"]
        if body["merge"] is not None:
            self._start()
            self._merge.restore(body["merge"])
            for task_id, task_state in body["tasks"].items():
                self._tasks[task_id] = self._open(task_id, task_state)
        self._closed = body["closed"]
        self._finalized = body["finalized"]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards="
            f"({len(self.catalog1)}, {len(self.catalog2)}), "
            f"pairs={len(self.pairs)}, "
            f"routed={self._routed}, produced={self._produced})"
        )


class ShardRouterSemiJoin(ShardRouterJoin):
    """Shard-routed distance semi-join.

    Each routed shard pair runs a sequential semi-join (nearest
    inner-shard partner per outer object); the watermark merge
    recombines candidates in global distance order and keeps the first
    (hence globally nearest) result per outer object id -- the same
    output set as the sequential semi-join.  Lazy admission still
    applies: a candidate at distance ``d`` is only emitted once every
    pending shard pair's bound exceeds ``d``, so a closer partner can
    never hide in a pruned pair.  The merge stops as soon as every
    outer object has been reported; shard pairs still pending then are
    pruned.

    When equally-distant nearest neighbours exist in different inner
    shards, the reported partner is the one with the smallest inner
    object id (the canonical choice); the sequential operator reports
    whichever its traversal finds first.  Distances always agree.

    Task streams run uncapped (``max_pairs`` applies only to merged
    output).
    """

    _semi_join = True
