"""Standing distance-join queries with incremental result repair.

A :class:`StandingJoin` registers a :class:`~repro.core.spec.JoinSpec`
over two mutable R-trees and keeps the reported result -- the best K
pairs, or every pair within a distance range -- continuously correct
under ``insert`` / ``delete``, emitting the repair as a deterministic
delta stream (:mod:`repro.live.delta`) instead of re-running the
join.

The maintained state is a :class:`~repro.live.frontier.ResultStore`
holding ``capacity = K + F`` pairs: the reported top K plus an
Eppstein-style candidate frontier of F runners-up.

*Insertion* only creates pairs between the new object and the partner
relation, so the repair is a bounded incremental distance scan
(:func:`~repro.live.probe.probe_partner`) against the current
watermark -- the K-th/worst stored distance -- pruning every partner
subtree that provably cannot beat it.  Several joins that see one
insert against the same partner share one scan, made at the widest
of their watermarks (:func:`share_insert_probes`).

*Deletion* retracts the stored pairs containing the object; a hole in
the reported top K is refilled by promoting frontier pairs.  Only
when the frontier itself is exhausted (``len(store) < K`` while the
store is known incomplete) does the join fall back to one bounded
re-enumeration (a *refill*, counted in ``live_refills``), which also
rebuilds the frontier so subsequent deletions are cheap again.

The store invariant at every rest point: the store holds exactly the
``len(store)`` smallest qualifying pairs of the current data under
the canonical ``(distance, oid1, oid2)`` key, and ``store.complete``
marks when it holds *all* of them.  Range-mode stores (no K) are
always complete, so they never refill.

A repair's deltas are the pairs it moved across position K, as the
store reports them while it merges and retracts (``ResultStore.merge``
/ ``remove_oid``): an update costs the pairs it touches and the
partner nodes it probes, never a pass over the K reported pairs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core import cursor
from repro.core.distance_join import (
    IncrementalDistanceJoin,
    JoinResult,
)
from repro.core.pairs import Item, OBJ, PairDistance
from repro.core.spec import JoinSpec
from repro.errors import CursorError, LiveError
from repro.geometry.rectangle import Rect
from repro.kernels import resolve_kernels
from repro.live.delta import ADD, REMOVE, Delta, pair_key
from repro.live.frontier import ResultStore
from repro.live.probe import ProbeResult, probe_partner
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry
from repro.util.obs import NULL_OBSERVER, Observer

__all__ = [
    "StandingJoin",
    "share_insert_probes",
    "validate_live_spec",
]

_INF = float("inf")


def validate_live_spec(spec: JoinSpec) -> JoinSpec:
    """The subset of join specs a standing query can maintain.

    Incremental repair relies on the canonical ascending pair order
    and on every stored pair staying re-derivable from the trees
    alone, which rules out the farthest-first direction, external pair
    filters (not re-checkable against retractions), obr leaves (the
    payload would need re-resolution on refill), and the disk-backed
    queue tiers (the standing state is the store, not a queue).
    """
    spec.validate()
    if spec.descending:
        raise LiveError(
            "standing joins maintain the ascending (closest-first) "
            "result; descending is not supported"
        )
    if spec.pair_filter is not None:
        raise LiveError(
            "standing joins cannot maintain a pair_filter; filter "
            "the delta stream instead"
        )
    if spec.leaf_mode != "direct":
        raise LiveError(
            'standing joins require leaf_mode="direct" (obr payloads '
            "cannot be re-resolved during repair)"
        )
    if spec.queue != "memory":
        raise LiveError(
            "standing joins keep their state in the result store; "
            "queue tiers do not apply"
        )
    if spec.max_pairs is None and spec.max_distance == _INF:
        raise LiveError(
            "a standing join needs a finite result: give max_pairs "
            "(top-K) and/or max_distance (range)"
        )
    return spec


class StandingJoin(cursor.SuspendableOperator):
    """One standing distance-join query over two mutable trees.

    Parameters
    ----------
    tree1, tree2:
        The two (distinct) input trees.  Updates are addressed by
        side: ``insert(oid, obj, side=1)`` mutates ``tree1``.
    spec:
        The join configuration; see :func:`validate_live_spec` for
        the supported subset.
        ``spec.max_pairs`` selects top-K mode; ``None`` with a finite
        ``max_distance`` selects range mode.
    frontier:
        Candidate-frontier size F for top-K mode (default
        ``max(8, K)``); the store keeps ``K + F`` pairs.
    counters:
        Shared :class:`~repro.util.counters.CounterRegistry`; repairs
        charge ``dist_calcs`` / ``bound_calcs`` exactly like the
        static operators, plus ``live_repairs`` (updates processed),
        ``live_probe_pairs`` (partner objects evaluated by insert
        probes) and ``live_refills`` (frontier-exhausted rescans).
    """

    _cursor_kind = "live"
    #: A standing cursor is only valid against the exact tree
    #: *version* its store was maintained for.
    _cursor_versioned = True

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        spec: JoinSpec,
        *,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        frontier: Optional[int] = None,
        _resume: Optional[Dict[str, Any]] = None,
    ) -> None:
        validate_live_spec(spec)
        if tree1 is tree2:
            raise LiveError(
                "standing self joins are not supported: one update "
                "would change both sides at once"
            )
        for tree in (tree1, tree2):
            if not hasattr(tree, "_mutations"):
                raise LiveError(
                    "standing joins need mutation-versioned trees "
                    f"(no _mutations on {type(tree).__name__})"
                )
        if _resume is not None:
            frontier = _resume["frontier"] or None
        if frontier is not None and frontier < 1:
            raise LiveError("frontier must be at least 1")
        self.tree1 = tree1
        self.tree2 = tree2
        self.spec = spec
        self.max_pairs = spec.max_pairs
        if spec.max_pairs is None:
            self._frontier = 0
            self._capacity: Optional[int] = None
        else:
            self._frontier = (
                frontier if frontier is not None
                else max(8, spec.max_pairs)
            )
            self._capacity = spec.max_pairs + self._frontier
        self.counters = (
            counters if counters is not None else tree1.counters
        )
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.distance = PairDistance(spec.metric, self.counters)
        self._kern = resolve_kernels(spec.kernel, spec.metric)
        self._store = ResultStore(self._capacity)
        self._objects: Dict[int, Dict[int, Tuple[Any, Rect]]] = {
            1: {}, 2: {},
        }
        self._outbox: Deque[Delta] = deque()
        self._seq = 0
        self._updates = 0
        self._expected = [tree1._mutations, tree2._mutations]
        self._load_objects()
        if _resume is not None:
            # :meth:`load`: put a cursor body back instead of
            # enumerating and publishing the initial result.
            self._restore(_resume)
            return
        self._rescan()
        # The registration itself publishes the initial result: a
        # subscriber pages these ADD deltas first, then the repairs.
        self._emit([], self.result())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def updates(self) -> int:
        """Updates processed since registration."""
        return self._updates

    @property
    def seq(self) -> int:
        """Sequence number of the most recent delta."""
        return self._seq

    @property
    def complete(self) -> bool:
        """True when the store holds every qualifying pair."""
        return self._store.complete

    def result(self) -> List[JoinResult]:
        """The currently reported pairs, canonical order."""
        return self._store.top(self.max_pairs)

    def pending(self) -> int:
        """Deltas emitted but not yet polled."""
        return len(self._outbox)

    def poll(self, limit: Optional[int] = None) -> List[Delta]:
        """Drain up to ``limit`` deltas (all when ``None``)."""
        if limit is None:
            limit = len(self._outbox)
        out: List[Delta] = []
        while self._outbox and len(out) < limit:
            out.append(self._outbox.popleft())
        return out

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(
        self,
        oid: int,
        obj: Any,
        rect: Optional[Rect] = None,
        side: int = 1,
    ) -> List[Delta]:
        """Insert ``obj`` into side ``side`` and repair the result.

        Returns the deltas this repair emitted (they are also queued
        for :meth:`poll`).
        """
        return self._insert(oid, obj, rect, side, mutate=True)

    def observe_insert(
        self,
        oid: int,
        obj: Any,
        rect: Optional[Rect] = None,
        side: int = 1,
        *,
        probe: Optional[ProbeResult] = None,
    ) -> List[Delta]:
        """Repair after an insert already applied to the tree.

        For fan-out: when several standing joins watch the same
        trees, one of them (or the caller) applies the mutation and
        the rest observe it.  ``probe`` is a partner scan made for
        this insert at a bound no narrower than this join's
        (:func:`share_insert_probes`); without one the join probes
        itself.
        """
        return self._insert(oid, obj, rect, side, mutate=False,
                            probe=probe)

    def delete(self, oid: int, side: int = 1) -> List[Delta]:
        """Delete object ``oid`` from side ``side`` and repair."""
        return self._delete(oid, side, mutate=True)

    def observe_delete(self, oid: int, side: int = 1) -> List[Delta]:
        """Repair after a delete already applied to the tree."""
        return self._delete(oid, side, mutate=False)

    def _insert(
        self,
        oid: int,
        obj: Any,
        rect: Optional[Rect],
        side: int,
        mutate: bool,
        probe: Optional[ProbeResult] = None,
    ) -> List[Delta]:
        tree = self._tree(side)
        if rect is None:
            rect = RTreeBase._rect_of(obj)
        if oid in self._objects[side]:
            raise LiveError(
                f"oid {oid} already present on side {side}"
            )
        if probe is not None:
            # Read down to this join's bound -- or refused -- before
            # anything changes.
            probe = probe.within(self._insert_bound()[0])
        if mutate:
            self._check_sync()
            tree.insert(obj=obj, rect=rect, oid=oid)
            self._expected[side - 1] = tree._mutations
        else:
            self._observe_mutation(side)
        self._objects[side][oid] = (obj, rect)
        left, entered = self._repair_insert(oid, obj, rect, side, probe)
        self._updates += 1
        self.counters.add("live_repairs")
        if self.obs.enabled:
            self.obs.event("live.insert", value=float(oid))
        return self._emit(left, entered)

    def _delete(
        self, oid: int, side: int, mutate: bool
    ) -> List[Delta]:
        tree = self._tree(side)
        entry = self._objects[side].get(oid)
        if entry is None:
            raise LiveError(f"unknown oid {oid} on side {side}")
        obj, rect = entry
        if mutate:
            self._check_sync()
            if not tree.delete(oid, rect):
                raise LiveError(
                    f"oid {oid} vanished from side {side} out of band"
                )
            self._expected[side - 1] = tree._mutations
        else:
            self._observe_mutation(side)
        del self._objects[side][oid]
        store, k = self._store, self.max_pairs
        retracted = store.remove_oid(side, oid)
        if k is None:
            left, entered = [pair for __, pair in retracted], []
        else:
            left = [pair for pos, pair in retracted if pos < k]
            # The reported pairs that stay are the best pairs of what
            # is left: they keep the front, through a refill too.
            kept = min(len(store) + len(retracted), k) - len(left)
            if len(store) < k and not store.complete:
                self.counters.add("live_refills")
                if self.obs.enabled:
                    self.obs.event("live.refill")
                self._rescan()
            # One runner-up is promoted per hole in the top K.
            entered = store[kept:k]
        self._updates += 1
        self.counters.add("live_repairs")
        if self.obs.enabled:
            self.obs.event("live.delete", value=float(oid))
        return self._emit(left, entered)

    # ------------------------------------------------------------------
    # repair machinery
    # ------------------------------------------------------------------

    def _tree(self, side: int) -> RTreeBase:
        if side == 1:
            return self.tree1
        if side == 2:
            return self.tree2
        raise LiveError(f"side must be 1 or 2, got {side!r}")

    def _check_sync(
        self, expected: Optional[List[int]] = None
    ) -> None:
        if expected is None:
            expected = self._expected
        actual = [self.tree1._mutations, self.tree2._mutations]
        if actual != expected:
            raise LiveError(
                "tree mutated outside the standing join (expected "
                f"mutation counters {expected}, found {actual});"
                " route updates through insert()/delete() or "
                "observe_insert()/observe_delete()"
            )

    def _observe_mutation(self, side: int) -> None:
        """Accept exactly one already-applied mutation on ``side``.

        The mutated side must have advanced by exactly one and the
        partner must not have moved at all -- anything else means an
        out-of-band mutation slipped past this join, and accepting the
        observation would let the maintained store go silently stale.
        ``_expected`` only advances once the check passes, so a failed
        observation leaves the desync detectable by every later call.
        """
        observed = list(self._expected)
        observed[side - 1] += 1
        self._check_sync(observed)
        self._expected = observed

    def _insert_bound(
        self,
    ) -> Tuple[float, Optional[Tuple[float, int, int]]]:
        """``(bound, tail)``: the distance an insert's probe must
        reach, and the stored key a new pair must beat (``None``
        while the store is complete and under capacity, when every
        qualifying pair is kept)."""
        store = self._store
        if self._capacity is None or (
            store.complete and len(store) < self._capacity
        ):
            return self.spec.max_distance, None
        tail = store.tail_key()
        return tail[0], tail

    def _probe(
        self, oid: int, obj: Any, rect: Rect, side: int, bound: float
    ) -> ProbeResult:
        """Scan the partner of ``side`` for the new object's pairs."""
        return probe_partner(
            self.tree2 if side == 1 else self.tree1,
            self.distance, Item(OBJ, rect, oid=oid, obj=obj), bound,
            self.counters, self._kern,
        )

    def _repair_insert(
        self,
        oid: int,
        obj: Any,
        rect: Rect,
        side: int,
        probe: Optional[ProbeResult],
    ) -> Tuple[List[JoinResult], List[JoinResult]]:
        """Merge the new object's pairs from ``probe``, a scan at this
        join's bound (its own when None); returns the pairs that
        ``(left, entered)`` the reported set."""
        store = self._store
        spec = self.spec
        bound, tail = self._insert_bound()
        full_bound = tail is None
        if probe is None:
            probe = self._probe(oid, obj, rect, side, bound)
        found, exhaustive, __ = probe
        added: List[JoinResult] = []
        excluded = False
        for d, leaf in found:
            if d < spec.min_distance or d > spec.max_distance:
                continue
            if side == 1:
                result = JoinResult(d, oid, obj, leaf.oid, leaf.obj)
            else:
                result = JoinResult(d, leaf.oid, leaf.obj, oid, obj)
            if full_bound or pair_key(result) < tail:
                added.append(result)
            else:
                excluded = True
        change = store.merge(added, self.max_pairs)
        if store.trim():
            store.complete = False
        if not full_bound and (excluded or not exhaustive):
            store.complete = False
        return change

    def _rescan(self) -> None:
        """Rebuild the store by one bounded re-enumeration.

        Consumes the ascending join until ``capacity`` pairs are in
        hand *and* the next distance strictly exceeds the capacity-th
        one -- distances arrive nondecreasing, so every pair tied with
        the boundary is captured before the cut and the store stays a
        deterministic function of the data, never of tie order.
        """
        spec = self.spec.evolve(max_pairs=None, estimate=False)
        join = IncrementalDistanceJoin(
            self.tree1, self.tree2, spec,
            counters=self.counters,
            observer=self.obs if self.obs.enabled else None,
        )
        cap = self._capacity
        results: List[JoinResult] = []
        exhausted = False
        while True:
            try:
                r = next(join)
            except StopIteration:
                exhausted = True
                break
            if (
                cap is not None
                and len(results) >= cap
                and r.distance > results[cap - 1].distance
            ):
                break
            results.append(r)
        close = getattr(join, "close", None)
        if callable(close):
            close()
        self._store.replace(results)
        self._store.complete = exhausted and (
            cap is None or len(results) <= cap
        )

    def _emit(
        self, left: List[JoinResult], entered: List[JoinResult]
    ) -> List[Delta]:
        """Publish one repair: the pairs that left the reported set,
        then the ones that entered it, each list in canonical order
        (every repair produces them that way)."""
        deltas: List[Delta] = []
        for op, pairs in ((REMOVE, left), (ADD, entered)):
            for pair in pairs:
                self._seq += 1
                deltas.append(Delta(op, self._seq, *pair))
        self._outbox.extend(deltas)
        return deltas

    def _load_objects(self) -> None:
        """Index both relations' payloads by (side, oid)."""
        for side, tree in ((1, self.tree1), (2, self.tree2)):
            objects = self._objects[side]
            objects.clear()
            for entry in tree.items():
                if entry.oid in objects:
                    raise LiveError(
                        f"duplicate oid {entry.oid} on side {side}; "
                        "standing joins address objects by oid"
                    )
                objects[entry.oid] = (entry.obj, entry.rect)

    # ------------------------------------------------------------------
    # suspendable cursor (save / load: cursor.SuspendableOperator)
    # ------------------------------------------------------------------

    def _cursor_body(self) -> Dict[str, Any]:
        """Pair keys, not payloads -- :meth:`load` reattaches the
        objects from the (fingerprint-checked) trees, so the cursor
        stays small and never duplicates the relations."""
        return {
            "frontier": self._frontier,
            "store": self._store.state(),
            "outbox": [tuple(d) for d in self._outbox],
            "seq": self._seq,
            "updates": self._updates,
        }

    def _restore(self, body: dict) -> None:
        """Put a :meth:`_cursor_body` back (constructor resume path)."""
        entries = [
            self._reattach(tuple(key)) for key in body["store"]["keys"]
        ]
        self._store = ResultStore.from_state(body["store"], entries)
        self._outbox = deque(Delta(*delta) for delta in body["outbox"])
        self._seq = body["seq"]
        self._updates = body["updates"]

    def _reattach(self, key: Tuple[float, int, int]) -> JoinResult:
        d, oid1, oid2 = key
        try:
            obj1, _ = self._objects[1][oid1]
            obj2, _ = self._objects[2][oid2]
        except KeyError:
            raise CursorError(
                f"stored pair ({oid1}, {oid2}) is missing from the "
                "supplied trees"
            ) from None
        return JoinResult(d, oid1, obj1, oid2, obj2)


def share_insert_probes(
    watchers: Sequence[Tuple[StandingJoin, int]],
    oid: int,
    obj: Any,
    rect: Optional[Rect] = None,
) -> List[Optional[ProbeResult]]:
    """One partner scan per group of joins that repair one insert.

    ``watchers`` are ``(join, side)``: each join sees the inserted
    object on ``side``.  Joins on the same side with the same partner
    tree, metric, counters and kernel path would each scan the same
    nodes at their own bound; instead the group is scanned once, at
    the widest of those bounds, and every member reads its own bound
    off that scan (``probe=`` of :meth:`StandingJoin.observe_insert`,
    through :meth:`~repro.live.probe.ProbeResult.within`).  The one
    scan is exactly the widest member's own, so it charges no more
    than the member scans it replaces.

    Returns one entry per watcher: the shared result, or None for a
    join alone in its group (it scans for itself).
    """
    if rect is None:
        rect = RTreeBase._rect_of(obj)
    groups: Dict[tuple, List[int]] = {}
    for index, (join, side) in enumerate(watchers):
        key = (
            side, id(join._tree(3 - side)), join.spec.metric,
            id(join.counters), join._kern is None,
        )
        groups.setdefault(key, []).append(index)
    probes: List[Optional[ProbeResult]] = [None] * len(watchers)
    for members in groups.values():
        if len(members) < 2:
            continue
        bound, widest = max(
            (watchers[i][0]._insert_bound()[0], i) for i in members
        )
        join, side = watchers[widest]
        probe = join._probe(oid, obj, rect, side, bound)
        for index in members:
            probes[index] = probe
    return probes
