"""The shard router: a distance join over two shard catalogs.

:class:`ShardRouterJoin` provides the incremental iterator contract of
:class:`~repro.core.distance_join.IncrementalDistanceJoin` -- result
pairs in non-decreasing distance, ``stop after K`` costing only
incremental work -- over relations partitioned into
:class:`~repro.shard.catalog.ShardCatalog` shards.  It plans one task
per shard pair, bounds each task below by
``metric.mindist_rect_rect(mbr1, mbr2)``, and hands the bounds to the
watermark merge's lazy-admission rule
(:class:`~repro.parallel.merge.OrderedStreamMerge`): a shard pair is
*routed* (opened, its shard trees built/loaded, its join run) only
when the merge frontier reaches its bound, and *pruned* -- never
touched at all -- when the consumer stops first.  Shard pairs whose
bound exceeds ``max_distance`` (or whose MAXDIST cannot reach
``min_distance``) are range-pruned before the merge even sees them.

Output is bit-identical to the sequential join with canonical ties
(the same ``(distance, oid1, oid2)`` order the parallel engine
produces) for every shard count and method; the routing decisions are
observable as deterministic counters::

    shard_pairs_total         planned shard pairs (cross product)
    shard_pairs_range_pruned  eliminated upfront by the distance range
    shard_pairs_routed        admitted by the watermark rule
    shard_pairs_pruned        never admitted (finalized when the
                              operator closes; includes range-pruned)

Tasks execute inline -- serially, in this process -- through
:class:`InlineShardExecutor`, which speaks the same
``request``/``next_batch`` protocol as the parallel
:class:`~repro.parallel.executor.StreamExecutor`.  Inline execution
keeps every counter deterministic and, unlike the multiprocessing
parallel join, makes the whole operator *suspendable*:
:meth:`ShardRouterJoin.save` captures the merge state, every opened
task's join cursor and soft-cap position, and the routing counters,
and :meth:`ShardRouterJoin.load` resumes bit-identically against
deterministically rebuilt catalogs (the ``shard`` cursor kind; see
"Cursor format" in ``docs/SERVICE.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core import cursor
from repro.core.distance_join import (
    IncrementalDistanceJoin,
    JoinResult,
)
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.errors import CursorError, JoinError
from repro.parallel.executor import DEFAULT_BATCH_SIZE, TaskBatch
from repro.parallel.merge import OrderedStreamMerge
from repro.parallel.partition import STR
from repro.parallel.plan import _translated_filter
from repro.rtree.base import RTreeBase
from repro.shard.cache import route_cache as _route_cache
from repro.shard.catalog import (
    DEFAULT_SHARDS,
    ShardCatalog,
    catalog_for,
)
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer
from repro.util.validation import require

_INF = float("inf")

#: Shared empty snapshot for inline batches: inline tasks charge the
#: router's registry directly, so batches carry no counter delta.
_EMPTY_COUNTERS = CounterRegistry().full_snapshot()


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


class _InlineTask:
    """State of one shard-pair join executed inline.

    The task is *closed* until its first batch is requested: no shard
    tree is built or loaded, no join constructed.  The per-stream soft
    cap (finish the tie group containing the cap-th result; see
    :func:`repro.parallel.plan._soft_capped`) is kept as explicit
    fields rather than generator state so the task can suspend.
    """

    __slots__ = ("pair", "join", "table1", "table2",
                 "emitted", "boundary", "done")

    def __init__(self, pair: ShardPair) -> None:
        self.pair = pair
        self.join: Optional[IncrementalDistanceJoin] = None
        self.table1: Optional[list] = None
        self.table2: Optional[list] = None
        self.emitted = 0
        self.boundary = float("-inf")
        self.done = False

    @property
    def opened(self) -> bool:
        return self.join is not None

    def _worker_spec(self, router: "ShardRouterJoin") -> JoinSpec:
        spec = router.worker_spec
        if spec.pair_filter is not None:
            spec = spec.evolve(pair_filter=_translated_filter(
                spec.pair_filter, self.table1, self.table2
            ))
        return spec

    def open(
        self,
        router: "ShardRouterJoin",
        join_cursor: Optional[dict] = None,
    ) -> None:
        """Build the shard pair's join, or resume it from
        ``join_cursor``."""
        tree1 = router.catalog1.tree(self.pair.sid1)
        tree2 = router.catalog2.tree(self.pair.sid2)
        self.table1 = router.catalog1.table(self.pair.sid1)
        self.table2 = router.catalog2.table(self.pair.sid2)
        cls = (
            IncrementalDistanceSemiJoin
            if router._semi_join else IncrementalDistanceJoin
        )
        spec = self._worker_spec(router)
        if join_cursor is None:
            self.join = cls(tree1, tree2, spec, counters=router.counters)
        else:
            self.join = cls.load(
                join_cursor, tree1, tree2,
                counters=router.counters,
                pair_filter=spec.pair_filter,
            )

    def advance(
        self, router: "ShardRouterJoin", batch_size: int
    ) -> List[JoinResult]:
        """Pull up to ``batch_size`` translated results."""
        if self.join is None:
            self.open(router)
        cap = router.cap
        results: List[JoinResult] = []
        while len(results) < batch_size and not self.done:
            if cap is not None and self.emitted >= cap:
                # Past the cap: peek one result at a time for the tie
                # tail (the estimation bound stays honest; see
                # _soft_capped).
                self.join.max_pairs = self.emitted + 1
            try:
                result = next(self.join)
            except StopIteration:
                self.done = True
                break
            if (
                cap is not None
                and self.emitted >= cap
                and result.distance > self.boundary
            ):
                self.done = True
                break
            self.boundary = result.distance
            self.emitted += 1
            original1 = self.table1[result.oid1]
            original2 = self.table2[result.oid2]
            results.append(JoinResult(
                result.distance,
                original1.oid, original1.obj,
                original2.oid, original2.obj,
            ))
        return results

    def state(self) -> Dict[str, Any]:
        return {
            "emitted": self.emitted,
            "boundary": self.boundary,
            "done": self.done,
            "join": self.join.save() if self.join is not None else None,
        }

    def restore(
        self, router: "ShardRouterJoin", state: Dict[str, Any]
    ) -> None:
        self.emitted = state["emitted"]
        self.boundary = state["boundary"]
        self.done = state["done"]
        if state["join"] is not None:
            self.open(router, state["join"])


class InlineShardExecutor:
    """Drives shard-pair tasks inline, speaking the
    :class:`~repro.parallel.executor.StreamExecutor` protocol the
    watermark merge consumes (``request`` enqueues, ``next_batch``
    advances exactly one requested task and returns its batch)."""

    def __init__(self, router: "ShardRouterJoin") -> None:
        self._router = router
        self.tasks: Dict[int, _InlineTask] = {
            pair.task_id: _InlineTask(pair) for pair in router.pairs
        }
        self._queue: deque = deque()
        self._queued: set = set()

    def request(self, task_id: int, batch_size: int) -> None:
        if task_id not in self._queued:
            self._queued.add(task_id)
            self._queue.append(task_id)

    def next_batch(self, batch_size: int) -> TaskBatch:
        if not self._queue:
            raise JoinError(
                "inline shard executor: no outstanding request"
            )
        task_id = self._queue.popleft()
        self._queued.discard(task_id)
        task = self.tasks[task_id]
        results = task.advance(self._router, batch_size)
        return TaskBatch(
            task_id=task_id,
            results=tuple(results),
            produced=task.emitted,
            done=task.done,
            counters=_EMPTY_COUNTERS,
            worker="inline",
            spans=None,
        )

    def close(self) -> None:
        self._queue.clear()
        self._queued.clear()


class ShardRouterJoin(cursor.SuspendableOperator):
    """Cost-bounded shard-routed incremental distance join.

    Parameters
    ----------
    tree1, tree2:
        The two joined relations' indexes (catalogs are derived from
        them unless ``catalogs`` is given).
    shards:
        Shards per relation (default 4); tasks are the cross product
        of the two catalogs' non-empty shards.
    partition_method:
        ``"grid"`` or ``"str"`` tiling for catalog construction.
    catalogs:
        Optional prebuilt ``(catalog1, catalog2)`` pair -- e.g. opened
        from disk with :meth:`ShardCatalog.open` -- overriding
        derivation from the trees.
    batch_size:
        Results per inline task advance.
    catalog_cache:
        Reuse catalogs memoized on the trees (default).  The benchmark
        harness disables this so repeated runs charge identical build
        counters.
    spec / **knobs:
        As in :class:`~repro.parallel.join.ParallelDistanceJoin`
        (validated with ``JoinSpec.validate(parallel=True)``: no
        ``descending``, no queue-tier choice).
    counters / observer:
        As in the parallel join; all shard trees and per-pair joins
        charge this registry directly, so counters are exact and --
        inline execution being serial -- deterministic.
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
        partition_method: str = STR,
        catalogs: Optional[Tuple[ShardCatalog, ShardCatalog]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        catalog_cache: bool = True,
        _resume: Optional[Dict[str, Any]] = None,
        **knobs: Any,
    ) -> None:
        if tree1.dim != tree2.dim:
            raise JoinError(
                f"cannot join trees of dimension {tree1.dim} and "
                f"{tree2.dim}"
            )
        spec = JoinSpec.coalesce(spec, knobs)
        spec.validate(parallel=True)
        if _resume is not None:
            shards = _resume["shards"]
            partition_method = _resume["partition_method"]
            batch_size = _resume["batch_size"]
        if shards is None:
            shards = DEFAULT_SHARDS
        require(shards >= 1, "shards must be at least 1")
        require(batch_size >= 1, "batch_size must be at least 1")

        self.spec = spec
        self.tree1 = tree1
        self.tree2 = tree2
        self.shards = shards
        self.partition_method = partition_method
        self.batch_size = batch_size
        self.max_pairs = spec.max_pairs
        self.counters = counters if counters is not None else tree1.counters
        self.obs = observer if observer is not None else Observer(
            max_events=0
        )
        # Semi-join worker streams stay uncapped: duplicate outer
        # objects are discarded only after the merge.
        self.worker_spec = (
            spec.evolve(max_pairs=None) if self._semi_join else spec
        )
        #: Per-stream soft cap for plain joins (None for semi-joins).
        self.cap = None if self._semi_join else spec.max_pairs

        with self.obs.span("shard.route"):
            if catalogs is not None:
                self.catalog1, self.catalog2 = catalogs
            else:
                self.catalog1 = catalog_for(
                    tree1, shards, partition_method,
                    counters=self.counters, cache=catalog_cache,
                )
                self.catalog2 = catalog_for(
                    tree2, shards, partition_method,
                    counters=self.counters, cache=catalog_cache,
                )
            self.pairs, self.range_pruned, plan_cached = plan_shard_pairs(
                self.catalog1, self.catalog2, spec.metric,
                spec.min_distance, spec.max_distance,
            )
        self.pairs_total = (
            len(self.catalog1) * len(self.catalog2)
        )

        self._executor: Optional[InlineShardExecutor] = None
        self._merge: Optional[OrderedStreamMerge] = None
        self._produced = 0
        self._routed = 0
        self._closed = False
        self._finalized = False
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
        return {
            "shards": (len(self.catalog1), len(self.catalog2)),
            "method": self.partition_method,
            "pairs_total": self.pairs_total,
            "pairs_planned": len(self.pairs),
            "range_pruned": self.range_pruned,
            "order": [
                (pair.sid1, pair.sid2, pair.bound)
                for pair in self.pairs
            ],
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _on_admit(self, task_id: int) -> None:
        self._routed += 1
        self.counters.add("shard_pairs_routed")

    def _on_batch(self, batch: TaskBatch) -> None:
        self.batches_received += 1
        self.counters.add("shard_batches")

    def _start(self) -> None:
        self._executor = InlineShardExecutor(self)
        self._merge = self._make_merge()

    def _make_merge(self) -> OrderedStreamMerge:
        return OrderedStreamMerge(
            self._executor,
            [pair.task_id for pair in self.pairs],
            self.batch_size,
            on_batch=self._on_batch,
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
        """Finalize routing counters and drop task state.

        Safe to call repeatedly.  Shard pairs never admitted by the
        time the operator closes were *pruned*: the watermark rule
        proved the consumer could not need them.
        """
        if self._closed:
            return
        self._closed = True
        if not self._finalized:
            self._finalized = True
            self.counters.add(
                "shard_pairs_pruned", self.pairs_total - self._routed
            )
        if self._executor is not None:
            self._executor.close()

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
        :meth:`progress_signals`).  Unlike the parallel join, the
        router *does* have a certified global head: the merge
        watermark (minimum over admitted stream heads and pending
        shard-pair bounds), which feeds the distance-fraction
        estimate."""
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
        identical content)."""
        merge = self._merge
        return {
            "catalogs": (
                self.catalog1.fingerprint, self.catalog2.fingerprint
            ),
            "shards": self.shards,
            "partition_method": self.partition_method,
            "batch_size": self.batch_size,
            "produced": self._produced,
            "routed": self._routed,
            "closed": self._closed,
            "finalized": self._finalized,
            "batches_received": self.batches_received,
            "tasks": {
                task_id: task.state()
                for task_id, task in (
                    self._executor.tasks if self._executor is not None
                    else {}
                ).items()
                if task.opened or task.done
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
                self._executor.tasks[task_id].restore(self, task_state)
        self._closed = body["closed"]
        self._finalized = body["finalized"]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards="
            f"({len(self.catalog1)}, {len(self.catalog2)}), "
            f"pairs={len(self.pairs)}, routed={self._routed}, "
            f"produced={self._produced})"
        )


class ShardRouterSemiJoin(ShardRouterJoin):
    """Shard-routed distance semi-join.

    Each routed shard pair runs a sequential semi-join (nearest
    inner-shard partner per outer object); the watermark merge
    recombines candidates in global distance order and keeps the first
    result per outer object id, exactly like
    :class:`~repro.parallel.join.ParallelDistanceSemiJoin`.  Lazy
    admission still applies: a candidate at distance ``d`` is only
    emitted once every pending shard pair's bound exceeds ``d``, so a
    closer partner can never hide in a pruned pair.  The merge stops
    as soon as every outer object has been reported; shard pairs still
    pending then are pruned.
    """

    _semi_join = True

    def _make_merge(self) -> OrderedStreamMerge:
        return OrderedStreamMerge(
            self._executor,
            [pair.task_id for pair in self.pairs],
            self.batch_size,
            on_batch=self._on_batch,
            dedup_outer=True,
            expected_outer=len(self.tree1),
            lower_bounds={
                pair.task_id: pair.bound for pair in self.pairs
            },
            on_admit=self._on_admit,
        )
