"""Order-preserving k-way merge of per-partition result streams.

Every shard-pair task yields its result pairs in non-decreasing
distance, so a task's next known distance is a *frontier watermark*:
nothing it will ever emit can be closer than its buffered head.  A
result pair may therefore be released to the consumer only once its
distance is below every live stream's watermark (streams that finished
drop out).  This is the classic watermark condition of ordered stream
merging (cf. the frontier maintenance in *Dynamic Enumeration of
Similarity Joins*, Agarwal et al.).

Equal distances get one extra refinement: the merge gathers the whole
tie group -- every pair at the minimal distance, across all streams --
before emitting any of it, and sorts the group by ``(oid1, oid2)``.
The output order is then the *canonical* total order
``(distance, oid1, oid2)``, identical for every shard count and
batch size, which is what makes the partitioned join's output
deterministic and testable against the sequential algorithm.  Waiting
for the group is safe and cheap: it only requires each live stream's
watermark to move strictly past the tie distance, i.e. at most one
extra buffered element per stream.

The merge is fully incremental: pulling ``K`` results consumes at most
``K`` pairs plus one watermark element from each stream, so ``stop
after K`` costs the same incremental work as the sequential join,
divided across shard pairs.

Lazy admission (the shard router's pruning rule) generalizes the
watermark condition to streams that have not been *opened* yet: a
pending stream with a known lower bound ``L`` on every distance it can
produce (MINDIST of its shard-pair MBRs) behaves exactly like a live
stream whose watermark is ``L``.  It must be opened -- *admitted* --
before any tie group at distance ``d >= L`` may be emitted
(non-strict, because MINDIST is attainable), and it stays closed while
``L`` exceeds the admitted frontier.  When the consumer stops early,
never-admitted streams were proven unable to contribute: they are
pruned without doing any join work, and the output is still
bit-identical to the fully sequential join.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.core.distance_join import JoinResult

#: Pulls a task's next batch: ``pull(task_id) -> (results, done)``.
Pull = Callable[[int], Tuple[Sequence[JoinResult], bool]]


class _Stream:
    """The buffer over one task's ordered result stream."""

    __slots__ = ("task_id", "buffer", "done", "admitted")

    def __init__(self, task_id: int, admitted: bool = True) -> None:
        self.task_id = task_id
        self.buffer: Deque[JoinResult] = deque()
        self.done = False
        # Pending (not yet admitted) streams are never polled; their
        # lower bound stands in for a buffered head as the watermark.
        self.admitted = admitted

    @property
    def needs_data(self) -> bool:
        return not self.done and not self.buffer


class OrderedStreamMerge:
    """Merge per-task result streams into one globally ordered stream.

    Parameters
    ----------
    pull:
        ``pull(task_id) -> (results, done)``: the task's next batch of
        ordered results, and whether its stream has ended.  The first
        pull of a task opens it.
    task_ids:
        Ids of every task feeding the merge.
    dedup_outer:
        Semi-join mode: emit only the first (nearest) result for each
        outer object id and drop the rest.
    expected_outer:
        With ``dedup_outer``, the number of distinct outer objects;
        the merge finishes early once all of them have been reported.
    lower_bounds:
        Optional map ``task_id -> lower bound`` on every distance the
        task can produce.  Tasks listed here start *pending*: they are
        lazily admitted (opened) only once the admitted frontier
        reaches their bound, and are never touched otherwise.  Tasks
        absent from the map are admitted immediately.
    on_admit:
        Callback invoked with the task id each time a pending stream
        is admitted (routing counters hook in here).  Not re-invoked
        by :meth:`restore`.
    """

    def __init__(
        self,
        pull: Pull,
        task_ids: List[int],
        dedup_outer: bool = False,
        expected_outer: Optional[int] = None,
        lower_bounds: Optional[Dict[int, float]] = None,
        on_admit: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._pull = pull
        self._lower_bounds = dict(lower_bounds or {})
        self._on_admit = on_admit
        self._streams: Dict[int, _Stream] = {
            task_id: _Stream(
                task_id, admitted=task_id not in self._lower_bounds
            )
            for task_id in task_ids
        }
        self._dedup_outer = dedup_outer
        self._expected_outer = expected_outer
        self._seen_outer: Set[int] = set()
        self._ready: Deque[JoinResult] = deque()

    # ------------------------------------------------------------------
    # stream plumbing
    # ------------------------------------------------------------------

    def _fill(self, needy: List[_Stream]) -> None:
        """Pull one batch for each needy stream, in order."""
        for stream in needy:
            results, done = self._pull(stream.task_id)
            stream.buffer.extend(results)
            if done:
                stream.done = True

    def _fill_all_live(self) -> None:
        """Ensure every live admitted stream is buffered."""
        while True:
            needy = [
                s for s in self._streams.values()
                if s.admitted and s.needs_data
            ]
            if not needy:
                return
            self._fill(needy)

    # ------------------------------------------------------------------
    # lazy admission
    # ------------------------------------------------------------------

    def _admit(self, stream: _Stream) -> None:
        stream.admitted = True
        if self._on_admit is not None:
            self._on_admit(stream.task_id)

    def _admit_due(self) -> None:
        """Open every pending stream the watermark condition requires.

        A pending stream's bound ``L`` must be admitted before a tie
        group at ``d >= L`` can form, i.e. once ``L`` is at or below
        the admitted frontier (the minimum admitted buffered head).
        When no admitted stream has anything left, only the pending
        streams at the *minimum* bound are opened -- opening more
        would do work the consumer may never ask for.  Loops until
        stable, since a newly admitted stream can lower the frontier.
        """
        while True:
            heads = [
                s.buffer[0].distance
                for s in self._streams.values()
                if s.admitted and s.buffer
            ]
            pending = [
                s for s in self._streams.values() if not s.admitted
            ]
            if not pending:
                return
            if heads:
                frontier = min(heads)
                due = [
                    s for s in pending
                    if self._lower_bounds[s.task_id] <= frontier
                ]
                if not due:
                    return
            else:
                low = min(
                    self._lower_bounds[s.task_id] for s in pending
                )
                due = [
                    s for s in pending
                    if self._lower_bounds[s.task_id] == low
                ]
            for stream in due:
                self._admit(stream)
            self._fill_all_live()

    def watermark(self) -> Optional[float]:
        """Frontier distance: nothing the merge will ever emit can be
        closer than this (None once everything is exhausted)."""
        values = [
            s.buffer[0].distance
            for s in self._streams.values()
            if s.admitted and s.buffer
        ]
        values.extend(
            self._lower_bounds[s.task_id]
            for s in self._streams.values() if not s.admitted
        )
        return min(values, default=None)

    def admitted_ids(self) -> List[int]:
        """Task ids opened so far (construction-time or lazily)."""
        return sorted(
            s.task_id for s in self._streams.values() if s.admitted
        )

    # ------------------------------------------------------------------
    # the watermark merge
    # ------------------------------------------------------------------

    def _collect_tie_group(self) -> List[JoinResult]:
        """Pop the full group of pairs at the global minimum distance.

        Precondition: every live admitted stream has a buffered head
        and no pending stream's lower bound is at or below the
        frontier (:meth:`_admit_due` ran).  A stream contributes its
        leading run of pairs at the minimum distance; the run is only
        complete once the stream's watermark (next buffered element)
        moves strictly past it or the stream ends.  Pending streams
        need no draining: their bound exceeds the tie distance, so
        their watermark is already past it.
        """
        d = min(
            s.buffer[0].distance
            for s in self._streams.values() if s.buffer
        )
        group: List[JoinResult] = []
        for stream in self._streams.values():
            if not stream.admitted:
                continue
            while True:
                while stream.buffer and stream.buffer[0].distance == d:
                    group.append(stream.buffer.popleft())
                if stream.buffer or stream.done:
                    break
                self._fill([stream])
        group.sort(key=lambda r: (r.oid1, r.oid2))
        return group

    def _emit_group(self, group: List[JoinResult]) -> None:
        if not self._dedup_outer:
            self._ready.extend(group)
            return
        for result in group:
            if result.oid1 in self._seen_outer:
                continue
            self._seen_outer.add(result.oid1)
            self._ready.append(result)

    def _semi_join_complete(self) -> bool:
        return (
            self._dedup_outer
            and self._expected_outer is not None
            and len(self._seen_outer) >= self._expected_outer
        )

    # ------------------------------------------------------------------
    # iterator protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[JoinResult]:
        return self

    def __next__(self) -> JoinResult:
        while not self._ready:
            if self._semi_join_complete():
                raise StopIteration
            self._fill_all_live()
            self._admit_due()
            if not any(s.buffer for s in self._streams.values()):
                raise StopIteration
            self._emit_group(self._collect_tie_group())
        return self._ready.popleft()

    # ------------------------------------------------------------------
    # suspend / resume
    # ------------------------------------------------------------------

    def state(self) -> Dict:
        """Picklable snapshot of the merge: per-stream buffers, done
        and admission flags, the semi-join bitset, and emitted-but-
        unconsumed results.  The tasks' own join state is saved
        separately by the owning operator."""
        return {
            "streams": [
                {
                    "task": s.task_id,
                    "buffer": [tuple(r) for r in s.buffer],
                    "done": s.done,
                    "admitted": s.admitted,
                }
                for s in self._streams.values()
            ],
            "seen_outer": sorted(self._seen_outer),
            "ready": [tuple(r) for r in self._ready],
        }

    def restore(self, state: Dict) -> None:
        """Restore a :meth:`state` snapshot in place.

        Admission flags are replayed silently (``on_admit`` does not
        refire; the owner's counters carry that history).
        """
        for record in state["streams"]:
            stream = self._streams[record["task"]]
            stream.buffer = deque(
                JoinResult(*r) for r in record["buffer"]
            )
            stream.done = record["done"]
            stream.admitted = record["admitted"]
        self._seen_outer = set(state["seen_outer"])
        self._ready = deque(JoinResult(*r) for r in state["ready"])
