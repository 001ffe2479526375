"""Priority-queue structures: two heaps behind one interface and an
addressable max-queue.

The paper's implementation keeps the in-memory part of its hybrid
priority queue in a *pairing heap* (its reference [13]); this module
provides one, and a binary heap on C ``heapq`` with the same surface
-- ``push``, ``pop``, ``pop_run``, ``peek``, ``push_many``, ``items``,
``clear``, ``len()`` -- so the pair queues
(:mod:`repro.core.pqueue`) run on either.  ``pop_run`` is the pair
queues' pop: a :class:`Run` entry stays queued at its next row.  It
also provides :class:`AddressableMaxQueue`, the
``Q_M`` structure of Section 2.2.4: a max-priority queue over d_max
values combined with a hash table so that arbitrary entries can be
deleted when their pair is dequeued from the main queue (implemented
with lazy deletion), and ``trim``, the estimator's one eviction loop.
What an entry is keyed by is the estimator's business
(:mod:`repro.core.estimate`): a queue sequence number in the join, the
outer item in the semi-join.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

K = TypeVar("K")
V = TypeVar("V")


class Run:
    """The rows of one keyed block (:class:`repro.core.pairs
    .CandidateBlock`) queued behind the row that heads them, as the
    value of one heap entry whose key is the head row's key: ``rows``
    holds the other rows' numbers in descending key order (the next
    one is ``rows.pop()``) and is never empty.  ``pop_run`` advances
    a run one row a pop, so it is indistinguishable from its rows
    pushed singly, because keys are totally ordered.

    ``rows`` stays a list, unlike the block's columns: a one-sided
    block's row numbers are below the fan-out, so its slots point at
    the interpreter's shared small ints, and a list slot costs what an
    ``array('q')`` value does (``join_topk``'s queue held 0.45 MB of
    run lists, 0.42 MB as arrays)."""

    __slots__ = ("block", "rows")

    def __init__(self, block: Any, rows: List[int]) -> None:
        self.block = block
        self.rows = rows


class _PairingNode:
    """A node of the pairing heap: key, value, first child, next sibling."""

    __slots__ = ("key", "value", "child", "sibling")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.child: Optional["_PairingNode"] = None
        self.sibling: Optional["_PairingNode"] = None


class PairingHeap(Generic[K, V]):
    """A min-ordered pairing heap.

    Supports O(1) amortized ``push``/``find-min``/``meld`` and
    O(log n) amortized ``pop``.  Keys may be any totally ordered
    values; the join uses tuples ``(distance, tie-break...)``.

    Examples
    --------
    >>> h = PairingHeap()
    >>> for k in (5, 1, 3):
    ...     h.push(k, str(k))
    >>> h.pop()
    (1, '1')
    >>> h.peek()
    (3, '3')
    """

    def __init__(self) -> None:
        self._root: Optional[_PairingNode] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._root is not None

    def push(self, key: K, value: V) -> None:
        """Insert a (key, value) item."""
        node = _PairingNode(key, value)
        self._root = self._meld(self._root, node)
        self._size += 1

    def push_many(self, items: Iterable[Tuple[K, V]]) -> None:
        """Insert items in iteration order.

        Produces exactly the heap structure (hence pop order, equal
        keys included) of calling :meth:`push` per item; the meld of a
        singleton against the root is just inlined, which saves the
        per-item call overhead on bulk enqueues.
        """
        root = self._root
        count = 0
        for key, value in items:
            node = _PairingNode(key, value)
            if root is None:
                root = node
            elif key < root.key:
                # _meld(root, node) with the swap taken: the old root
                # becomes the new node's first (only) child.
                root.sibling = None
                node.child = root
                root = node
            else:
                node.sibling = root.child
                root.child = node
            count += 1
        self._root = root
        self._size += count

    def peek(self) -> Tuple[K, V]:
        """The minimum item without removing it."""
        if self._root is None:
            raise IndexError("peek on empty heap")
        return self._root.key, self._root.value

    def pop(self) -> Tuple[K, V]:
        """Remove and return the minimum item."""
        root = self._root
        if root is None:
            raise IndexError("pop on empty heap")
        self._root = self._merge_pairs(root.child)
        self._size -= 1
        return root.key, root.value

    def pop_run(self) -> Tuple[K, V]:
        """:meth:`pop`, except for an item whose value is a
        :class:`Run`: that item is replaced by the run's next row (the
        root node re-keyed and melded back) and the popped item carries
        the run's block."""
        root = self._root
        if root is None:
            raise IndexError("pop on empty heap")
        key, run = root.key, root.value
        rest = self._merge_pairs(root.child)
        if type(run) is not Run:
            self._root = rest
            self._size -= 1
            return key, run
        block, rows = run.block, run.rows
        root.key = block.key(rows.pop())
        if not rows:
            root.value = block
        root.child = None
        self._root = self._meld(rest, root)
        return key, block

    def meld(self, other: "PairingHeap[K, V]") -> None:
        """Destructively absorb ``other`` (which is left empty)."""
        self._root = self._meld(self._root, other._root)
        self._size += other._size
        other._root = None
        other._size = 0

    def clear(self) -> None:
        """Discard all items."""
        self._root = None
        self._size = 0

    def items(self) -> List[Tuple[K, V]]:
        """All (key, value) items in internal (arbitrary) order.

        Non-destructive: the heap structure is untouched.  Used by the
        queue snapshot machinery -- re-pushing the returned items into
        a fresh heap reproduces the same *pop order* (keys are totally
        ordered), though not necessarily the same internal shape.
        """
        out: List[Tuple[K, V]] = []
        stack: List[_PairingNode] = []
        if self._root is not None:
            stack.append(self._root)
        while stack:
            node = stack.pop()
            out.append((node.key, node.value))
            if node.sibling is not None:
                stack.append(node.sibling)
            if node.child is not None:
                stack.append(node.child)
        return out

    @staticmethod
    def _meld(
        a: Optional[_PairingNode], b: Optional[_PairingNode]
    ) -> Optional[_PairingNode]:
        if a is None:
            return b
        if b is None:
            return a
        if b.key < a.key:
            a, b = b, a
        # b becomes the first child of a.
        b.sibling = a.child
        a.child = b
        return a

    @classmethod
    def _merge_pairs(
        cls, node: Optional[_PairingNode]
    ) -> Optional[_PairingNode]:
        # Two-pass pairing, iterative to avoid deep recursion on long
        # sibling chains.
        if node is None:
            return None
        # First pass: meld siblings in pairs left to right.
        melded: List[_PairingNode] = []
        current: Optional[_PairingNode] = node
        while current is not None:
            first = current
            second = first.sibling
            if second is None:
                first.sibling = None
                melded.append(first)
                break
            nxt = second.sibling
            first.sibling = None
            second.sibling = None
            merged = cls._meld(first, second)
            assert merged is not None
            melded.append(merged)
            current = nxt
        # Second pass: meld right to left.
        result = melded.pop()
        while melded:
            result = cls._meld(melded.pop(), result)
        return result


class BinaryHeap(Generic[K, V]):
    """A binary heap on C ``heapq`` with the same interface as
    :class:`PairingHeap`.

    Items are ``(key, value)`` tuples, so two items with equal keys
    compare by value; the pair queues' keys are unique.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[K, V]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, key: K, value: V) -> None:
        heapq.heappush(self._heap, (key, value))

    def push_many(self, items: Iterable[Tuple[K, V]]) -> None:
        """Insert items: one ``heapify`` when the heap is empty, a
        push each otherwise."""
        heap = self._heap
        if heap:
            for item in items:
                heapq.heappush(heap, item)
        else:
            heap.extend(items)
            heapq.heapify(heap)

    def peek(self) -> Tuple[K, V]:
        if not self._heap:
            raise IndexError("peek on empty heap")
        return self._heap[0]

    def pop(self) -> Tuple[K, V]:
        if not self._heap:
            raise IndexError("pop on empty heap")
        return heapq.heappop(self._heap)

    def pop_run(self) -> Tuple[K, V]:
        """:meth:`pop`, except for an item whose value is a
        :class:`Run`: that item is replaced by the run's next row in one
        sift and the popped item carries the run's block."""
        heap = self._heap
        if not heap:
            raise IndexError("pop on empty heap")
        head = heap[0]
        run = head[1]
        if type(run) is not Run:
            return heapq.heappop(heap)
        block, rows = run.block, run.rows
        heapq.heapreplace(
            heap, (block.key(rows.pop()), run if rows else block)
        )
        return head[0], block

    def clear(self) -> None:
        """Discard all items."""
        self._heap.clear()

    def items(self) -> List[Tuple[K, V]]:
        """All (key, value) items in internal (arbitrary) order."""
        return list(self._heap)


class AddressableMaxQueue(Generic[V]):
    """Max-priority queue over float priorities with delete-by-key.

    This is the paper's ``Q_M``: a priority queue organized on d_max
    values to find the largest, plus a hash table to locate and delete
    the entry of a particular pair when it leaves the main queue.
    Deletion is implemented lazily: the hash table is authoritative and
    stale heap entries are skipped on ``pop_max``/``peek_max``/``trim``.
    The heap orders ``(-priority, tie-break, key)``: :meth:`insert`
    breaks ties by insertion count, and
    :meth:`repro.core.estimate.JoinEstimator.offer`, whose fused loop
    writes the heap and the hash table itself, by its keys -- ascending
    sequence numbers, so the same order.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._live: Dict[Hashable, Tuple[float, V]] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    def get(self, key: Hashable) -> Optional[Tuple[float, V]]:
        """The (priority, value) stored under ``key``, or None."""
        return self._live.get(key)

    def insert(
        self, key: Hashable, priority: float, value: V
    ) -> Optional[Tuple[float, V]]:
        """Insert or replace the entry stored under ``key``; returns
        the (priority, value) it displaced, or None."""
        previous = self._live.get(key)
        self._live[key] = (priority, value)
        self._counter += 1
        heapq.heappush(self._heap, (-priority, self._counter, key))
        return previous

    def delete(self, key: Hashable) -> Optional[Tuple[float, V]]:
        """Delete the entry under ``key``; returns its (priority,
        value), or None if there was none."""
        return self._live.pop(key, None)

    def _skim(self) -> None:
        # Drop stale heap tops (deleted or replaced entries).
        while self._heap:
            neg_priority, __, key = self._heap[0]
            live = self._live.get(key)
            if live is not None and live[0] == -neg_priority:
                return
            heapq.heappop(self._heap)

    def peek_max(self) -> Tuple[Hashable, float, V]:
        """The (key, priority, value) with the largest priority."""
        self._skim()
        if not self._heap:
            raise IndexError("peek on empty queue")
        neg_priority, __, key = self._heap[0]
        priority, value = self._live[key]
        return key, priority, value

    def pop_max(self) -> Tuple[Hashable, float, V]:
        """Remove and return the entry with the largest priority."""
        key, priority, value = self.peek_max()
        heapq.heappop(self._heap)
        del self._live[key]
        return key, priority, value

    def trim(
        self,
        total: int,
        floor: int,
        weight: Optional[Callable[[V], int]] = None,
    ) -> Tuple[int, int, Optional[float]]:
        """Evict largest-priority entries while the rest still weigh
        ``floor`` (the trim of Section 2.2.4, in one call).

        ``total`` is the caller's sum of ``weight(value)`` over the
        live entries (``weight=None``: the values are the weights).
        Returns the remaining total, the number of entries evicted and
        the priority of the last one (None if there was none).
        """
        heap, live = self._heap, self._live
        evicted = 0
        last = None
        while heap:
            neg_priority, __, key = heap[0]
            entry = live.get(key)
            if entry is None or entry[0] != -neg_priority:
                heapq.heappop(heap)  # stale: deleted or replaced
                continue
            priority, value = entry
            count = value if weight is None else weight(value)
            if total - count < floor:
                break
            heapq.heappop(heap)
            del live[key]
            total -= count
            last = priority
            evicted += 1
        return total, evicted, last

    def items(self):
        """Iterate over live (key, (priority, value)) entries."""
        return self._live.items()

    # ------------------------------------------------------------------
    # suspendable-cursor support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """A picklable snapshot of the queue, including stale heap
        entries and the insertion counter -- the counter breaks
        priority ties, so reproducing pop order exactly requires
        carrying the lazy-deletion structure verbatim."""
        return {
            "heap": list(self._heap),
            "live": dict(self._live),
            "counter": self._counter,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this queue with a :meth:`state` snapshot."""
        self._heap = list(state["heap"])
        self._live = dict(state["live"])
        self._counter = state["counter"]
