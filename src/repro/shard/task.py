"""Per-pair join tasks: the unit of work of the partitioned engine.

A :class:`TileJoinTask` describes one shard-pair join: the two shards'
translation tables plus the *unified*
:class:`repro.core.spec.JoinSpec` of strategy knobs -- the same spec
type that configures the sequential operators, so the engine runs
exactly the configuration it was given (validated once, by
``JoinSpec.validate(parallel=True)``, rather than silently dropping
unsupported knobs).  A :class:`TaskState` runs it: the ordinary
sequential :class:`IncrementalDistanceJoin` or
:class:`IncrementalDistanceSemiJoin` over the catalogs' two shard
R*-trees -- the paper's algorithm, unchanged, inside each partition
pair -- advanced one batch at a time by the router.

Shard trees carry dense local object ids; results are translated back
to the original ids before they leave the task, so the merge never
sees local numbering.  A user ``pair_filter`` is wrapped the same way:
it always observes original object ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional

from repro.core.distance_join import (
    IncrementalDistanceJoin,
    JoinResult,
)
from repro.core.pairs import NODE, Item, Pair
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.core.ties import CanonicalTies
from repro.shard.partition import TaskObject
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry

__all__ = ["TaskState", "TileJoinTask"]


@dataclass
class TileJoinTask:
    """One shard-pair join.

    ``objects1`` / ``objects2`` map each shard tree's local object ids
    to the original objects (:class:`TaskObject`); ``spec`` carries
    the join knobs; ``semi_join`` selects the operator (an engine
    concern, so it lives on the task, not the spec).

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

    def __repr__(self) -> str:
        return (
            f"TileJoinTask(id={self.task_id}, "
            f"sizes=({len(self.objects1)}, {len(self.objects2)}))"
        )


class TaskState:
    """The live join of one :class:`TileJoinTask` between batches.

    The per-stream soft cap is the :class:`CanonicalTies` rule, whose
    explicit fields let a task suspend (:meth:`state`).
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
