"""Per-pair join tasks: the unit of work of the partitioned engine.

A :class:`TileJoinTask` is a picklable description of one shard-pair
join: the two shards' object lists plus the *unified*
:class:`repro.core.spec.JoinSpec` of strategy knobs -- the same spec
type that configures the sequential operators, so the engine ships
exactly the configuration it was given (validated once, by
``JoinSpec.validate(parallel=True)``, rather than silently dropping
unsupported knobs).  A :class:`TaskState` runs it: the ordinary
sequential :class:`IncrementalDistanceJoin` or
:class:`IncrementalDistanceSemiJoin` over two small R*-trees -- the
paper's algorithm, unchanged, inside each partition pair -- advanced
one batch at a time wherever the executor backend put it (inline in
the router, or inside a pool worker).

Shard trees carry dense local object ids; results are translated back
to the original ids before they leave the task, so the merge never
sees local numbering.  A user ``pair_filter`` is wrapped the same way:
it always observes original object ids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.distance_join import (
    IncrementalDistanceJoin,
    JoinResult,
)
from repro.core.pairs import NODE, Item, Pair
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.parallel.partition import TaskObject
from repro.rtree.base import DEFAULT_MAX_ENTRIES, RTreeBase
from repro.rtree.bulk import bulk_load_str
from repro.util.counters import CounterRegistry

__all__ = ["CanonicalTies", "JoinSpec", "TaskState", "TileJoinTask"]


@dataclass
class TileJoinTask:
    """One shard-pair join, fully described and picklable.

    ``spec`` carries the join knobs; ``semi_join`` selects the
    operator and ``max_entries`` the fanout of shard trees a pool
    worker builds from the object lists (engine concerns, so they live
    on the task, not the spec).

    ``spec.max_pairs`` bounds the task's stream.  For the plain join
    the consumer's ``stop after K`` bound is safe per stream: the
    global K-smallest results can never include more than K elements
    of any one ordered stream, so capping (and with it the paper's
    maximum-distance estimation) applies per shard pair -- except that
    the stream must finish the equal-distance group containing its
    K-th result (see :meth:`TaskState.advance`).  For the semi-join
    duplicate outer objects are discarded *after* merging, so tasks
    get a spec with ``max_pairs=None``.
    """

    task_id: int
    objects1: List[TaskObject]
    objects2: List[TaskObject]
    spec: JoinSpec = field(default_factory=JoinSpec)
    semi_join: bool = False
    max_entries: int = DEFAULT_MAX_ENTRIES

    def __repr__(self) -> str:
        return (
            f"TileJoinTask(id={self.task_id}, "
            f"sizes=({len(self.objects1)}, {len(self.objects2)}))"
        )


class CanonicalTies:
    """A sequential join's results with every equal-distance group in
    ``(oid1, oid2)`` order, cut at the join's ``max_pairs`` only once
    the group holding the cap-th result is complete.

    A stream cut at exactly ``cap`` results could split a tie group in
    the join's traversal order, dropping members that rank earlier in
    the canonical ``(distance, oid1, oid2)`` order than kept ones -- a
    consumer would then see a traversal-dependent subset of the ties.
    Extending past the cap to the end of the boundary group restores
    determinism and stays safe to truncate there: any dropped pair is
    strictly farther than ``cap`` pairs of this stream alone.  Past the
    cap the join's bound is raised one result at a time to peek at the
    tie tail; estimation cannot have pruned that tail, because its
    bound is an upper bound on the ``cap``-th distance and the join
    prunes strictly above it.

    A group is complete once the join's queue head lies strictly beyond
    its distance -- a pure probe, and on tie-free input the only cost,
    one per result -- or once the join yields a result beyond it, which
    is held for the next group (or, past the cap, dropped).  The state
    is explicit fields, not generator state, so it suspends with its
    owner (:meth:`state`).
    """

    __slots__ = (
        "join", "cap", "pulled", "emitted", "ready", "held", "done",
    )

    def __init__(
        self,
        join: IncrementalDistanceJoin,
        saved: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.join = join
        self.cap = join.spec.max_pairs
        if saved is None:
            self.pulled = 0
            self.emitted = 0
            self.ready: Deque[JoinResult] = deque()
            self.held: Optional[JoinResult] = None
            self.done = False
        else:
            self.pulled = saved["pulled"]
            self.emitted = saved["emitted"]
            self.ready = deque(JoinResult(*r) for r in saved["ready"])
            held = saved["held"]
            self.held = None if held is None else JoinResult(*held)
            self.done = saved["done"]

    @property
    def exhausted(self) -> bool:
        return self.done and not self.ready

    def __iter__(self) -> "CanonicalTies":
        return self

    def __next__(self) -> JoinResult:
        if not self.ready:
            if not self.done:
                self._collect()
            if not self.ready:
                raise StopIteration
        self.emitted += 1
        return self.ready.popleft()

    def _pull(self, tail: bool) -> Optional[JoinResult]:
        """The join's next result; past the cap only for a tie tail."""
        if self.cap is not None and self.pulled >= self.cap:
            if not tail:
                return None
            self.join.max_pairs = self.pulled + 1
        try:
            result = next(self.join)
        except StopIteration:
            return None
        self.pulled += 1
        return result

    def _complete(self, distance: float) -> bool:
        join = self.join
        # The queue is the join's whole state; its head probe charges
        # nothing and touches no tier.
        head = join._queue.head_distance()
        if head is None:
            # Empty: done -- unless an aggressive estimator's restart
            # is due, whose replay may still reach this distance.
            return join.progress_signals()["done"]
        return head > (-distance if join.descending else distance)

    def _collect(self) -> None:
        """Fill :attr:`ready` with the next complete group, sorted."""
        first = self.held if self.held is not None else self._pull(False)
        self.held = None
        if first is None:
            self.done = True
            return
        group = [first]
        distance = first.distance
        while not self._complete(distance):
            within_cap = self.cap is None or self.pulled < self.cap
            result = self._pull(tail=True)
            if result is None:
                self.done = True
                break
            if result.distance != distance:
                if within_cap:
                    self.held = result
                else:
                    self.done = True
                break
            group.append(result)
        if (
            self.cap is not None and self.pulled >= self.cap
            and self.held is None
        ):
            self.done = True
        if len(group) > 1:
            group.sort(key=lambda r: (r.oid1, r.oid2))
        self.ready.extend(group)

    def state(self) -> Dict[str, Any]:
        return {
            "pulled": self.pulled,
            "emitted": self.emitted,
            "ready": [tuple(r) for r in self.ready],
            "held": None if self.held is None else tuple(self.held),
            "done": self.done,
        }


class TaskState:
    """The live join of one :class:`TileJoinTask` between batches.

    The per-stream soft cap is the :class:`CanonicalTies` rule, whose
    explicit fields let an inline task suspend (:meth:`state`).
    """

    __slots__ = ("task", "join", "ties")

    def __init__(
        self,
        task: TileJoinTask,
        tree1: RTreeBase,
        tree2: RTreeBase,
        counters: CounterRegistry,
        saved: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Build the pair's join over its two shard trees, charging
        ``counters`` -- or put a :meth:`state` snapshot back."""
        self.task = task
        spec = task.spec
        if spec.pair_filter is not None:
            spec = spec.evolve(pair_filter=_translated_filter(
                spec.pair_filter, task.objects1, task.objects2
            ))
        cls = (
            IncrementalDistanceSemiJoin
            if task.semi_join else IncrementalDistanceJoin
        )
        if saved is None:
            self.join = cls(tree1, tree2, spec, counters=counters)
            self.ties = CanonicalTies(self.join)
        else:
            self.join = cls.load(
                saved["join"], tree1, tree2,
                counters=counters, pair_filter=spec.pair_filter,
            )
            self.ties = CanonicalTies(self.join, saved["ties"])

    @property
    def emitted(self) -> int:
        return self.ties.emitted

    @property
    def done(self) -> bool:
        return self.ties.exhausted

    def advance(self, batch_size: int) -> List[JoinResult]:
        """Pull up to ``batch_size`` results, translated to original
        ids; the stream ends only after the equal-distance group
        containing the cap-th result is complete (:class:`CanonicalTies`:
        the merge's global ``cap`` smallest then never depend on how
        this stream ordered its ties)."""
        table1 = self.task.objects1
        table2 = self.task.objects2
        results: List[JoinResult] = []
        for result in islice(self.ties, batch_size):
            original1 = table1[result.oid1]
            original2 = table2[result.oid2]
            results.append(JoinResult(
                result.distance,
                original1.oid, original1.obj,
                original2.oid, original2.obj,
            ))
        return results

    def state(self) -> Dict[str, Any]:
        return {"join": self.join.save(), "ties": self.ties.state()}


def load_objects(
    objects: List[TaskObject],
    max_entries: int,
    counters: CounterRegistry,
) -> RTreeBase:
    """STR bulk load a shard's objects, preserving payloads.

    Objects with a payload are loaded as that payload (so exact-shape
    distances keep working); payload-less entries are loaded as their
    bounding rectangle.
    """
    return bulk_load_str(
        [o.obj if o.obj is not None else o.rect for o in objects],
        max_entries=max_entries,
        counters=counters,
    )


def _translated_filter(
    pair_filter: Callable[[Pair], bool],
    table1: List[TaskObject],
    table2: List[TaskObject],
) -> Callable[[Pair], bool]:
    """Wrap a user pair filter so it sees original object ids."""

    def _original(item: Item, table: List[TaskObject]) -> Item:
        if item.kind == NODE or item.oid < 0:
            return item
        original = table[item.oid]
        return Item(item.kind, item.rect, node_id=item.node_id,
                    level=item.level, oid=original.oid, obj=item.obj)

    def keep(pair: Pair) -> bool:
        return pair_filter(Pair(
            _original(pair.item1, table1),
            _original(pair.item2, table2),
            pair.distance,
        ))

    return keep
