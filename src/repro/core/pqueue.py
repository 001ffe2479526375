"""Pair priority queues: pure-memory and the paper's hybrid memory/disk
three-tier scheme (Section 3.2).

The hybrid queue keeps pairs with distance below ``D1`` in a heap,
pairs in ``[D1, D2)`` in an unorganized in-memory list, and everything
else on (simulated) disk in linked page lists, one list per distance
band ``[k*DT, (k+1)*DT)``.  When the heap runs dry the list is
heapified, ``D1``/``D2`` advance by ``DT``, and the next disk band is
pulled into the list.  All disk traffic is counted (``pq_disk_writes``,
``pq_disk_reads``, plus the page store's ``page_reads``/``page_writes``).

A queued value is a :class:`~repro.core.pairs.Pair` or, for a whole
node expansion pushed with ``push_many``, the expansion's
:class:`~repro.core.pairs.CandidateBlock`; whoever pops a block row
reads it in place (``block.row_of(key)``), and the join builds a
``Pair`` only for a row it expands.  In memory a block is queued as a
*run* (:class:`~repro.core.heap.Run`): its rows are sorted once and the
heap orders one handle for the whole block, so popping in key order is
a k-way merge of runs (one ``pop_run`` on the heap a pop) and a key
tuple exists only for a row that reaches the head of its run.  On the
hybrid queue's disk tier a block's spilled rows are appended to their
bands' pages in one call, a row number and the block per record.
Sizes and counters count rows, never handles.  Snapshots (``state()``)
materialise, so the cursor schema is ``(key, Pair)`` rows whatever the
queue holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import floor
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type,
)

from repro.core.heap import BinaryHeap, Run
from repro.core.pairs import CandidateBlock
from repro.storage.pager import PageStore
from repro.util.counters import CounterRegistry
from repro.util.obs import NULL_OBSERVER, Observer
from repro.util.validation import require_positive

#: Simulated size of one serialized pair record on a queue page.
PAIR_RECORD_BYTES = 64

#: Cap on the magnitude of band indices: ``distance / dt`` can
#: overflow to infinity when DT is subnormal, and any quotient this
#: large is already far past every band the cursor will visit
#: individually.
_MAX_BAND = 2 ** 62

#: Micro-unit scale used to record the calibrated ``D_T`` in the
#: integer counter registry without truncating sub-unit values.
DT_MICRO_SCALE = 1_000_000


def _records(page: list) -> List[Tuple[Tuple, Any]]:
    """The ``(key, value)`` records of one disk page (see
    :class:`HybridPairQueue`): a row number becomes its block's key."""
    flat = iter(page)
    return [
        (value.key(key) if type(key) is int else key, value)
        for key, value in zip(flat, flat)
    ]


def _materialised(items) -> List[Tuple[Tuple, Any]]:
    """``(key, value)`` rows with every block handle replaced by the
    pair it stands for (what a snapshot carries)."""
    return [
        (key, value.pair_of(key) if type(value) is CandidateBlock
         else value)
        for key, value in items
    ]


def _push_run(heap, block: CandidateBlock, rows: Sequence[int]) -> int:
    """Insert the given rows of a keyed block (row numbers, ascending)
    into ``heap`` as one :class:`~repro.core.heap.Run`; returns the
    number of rows.

    A block's rows share ``rank`` and ``level``, so key order is
    ``(keyd, seq)`` order: one stable sort over ``keyd``, starting from
    descending ``seq``, leaves the rows in descending key order.  The
    sort reads ``keyd`` through a transient list: one C-level boxing
    pass costs less than boxing a float per ``array`` read.
    """
    order = sorted(
        rows if block.step < 0 else reversed(rows),
        key=block.keyd.tolist().__getitem__, reverse=True,
    )
    count = len(order)
    head = order.pop()
    heap.push(block.key(head), Run(block, order) if order else block)
    return count


def _peek(heap) -> Tuple[Tuple, Any]:
    """The head row of a heap of rows and runs."""
    key, value = heap.peek()
    return key, value.block if type(value) is Run else value


def _unrolled(heap) -> Iterator[Tuple[Tuple, Any]]:
    """Every row of a heap of rows and runs, runs unrolled, in internal
    order."""
    for key, value in heap.items():
        if type(value) is Run:
            block = value.block
            yield key, block
            for row in value.rows:
                yield block.key(row), block
        else:
            yield key, value


class PairQueue(ABC):
    """Interface shared by the queue implementations.

    Keys are tuples whose first component is the (signed) distance;
    the remaining components implement tie-breaking.
    """

    @abstractmethod
    def push(self, key: Tuple, value: Any) -> None:
        """Insert an element."""

    def push_many(self, block: CandidateBlock) -> None:
        """Insert every row of a keyed block, in row order.

        Semantically identical to ``push(block.key(r), block)`` row by
        row -- subclasses may only batch *internal* work, never change
        the accounting (the hybrid queue's per-record disk counters are
        part of the join's bit-identity contract).
        """
        for key in block.keys():
            self.push(key, block)

    @abstractmethod
    def pop(self) -> Tuple[Tuple, Any]:
        """Remove and return the minimum element."""

    @abstractmethod
    def peek(self) -> Tuple[Tuple, Any]:
        """Return the minimum element without removing it."""

    @abstractmethod
    def __len__(self) -> int:
        """Total number of queued elements (all tiers)."""

    def __bool__(self) -> bool:
        return len(self) > 0

    def head_distance(self) -> Optional[float]:
        """The distance component of the smallest queued key, or a
        certified lower bound on it; ``None`` when empty.

        Unlike :meth:`peek` this is a pure *probe*: it never promotes
        tiers, reads disk pages, or charges counters, so progress
        reporters can call it every quantum without perturbing the
        join's bit-identity counter contract.  When the true head
        lives on the disk tier only its band is known, hence "lower
        bound".  Keys carry signed distances (negated in descending
        mode); callers undo the sign themselves.
        """
        raise NotImplementedError

    def occupancy(self) -> Dict[str, int]:
        """Element counts per tier (``total`` / ``memory`` / ``disk``,
        plus implementation-specific detail).  Pure probe: no tier
        mutation, no counters."""
        return {"total": len(self), "memory": len(self), "disk": 0}


class MemoryPairQueue(PairQueue):
    """A single in-memory heap; the paper's "Memory" configuration.

    Parameters
    ----------
    heap_class:
        :class:`BinaryHeap` (default: C ``heapq``) or
        :class:`PairingHeap` (the paper's structure).  Same rows, same
        order, same counters under either.
    """

    def __init__(self, heap_class: Type = BinaryHeap) -> None:
        self._heap = heap_class()
        self._rows = 0

    def push(self, key: Tuple, value: Any) -> None:
        self._heap.push(key, value)
        self._rows += 1

    def push_many(self, block: CandidateBlock) -> None:
        self._rows += _push_run(self._heap, block, range(len(block)))

    def pop(self) -> Tuple[Tuple, Any]:
        head = self._heap.pop_run()
        self._rows -= 1
        return head

    def peek(self) -> Tuple[Tuple, Any]:
        return _peek(self._heap)

    def __len__(self) -> int:
        return self._rows

    def __bool__(self) -> bool:
        return self._rows > 0

    def head_distance(self) -> Optional[float]:
        if not self._rows:
            return None
        return self._heap.peek()[0][0]

    # ------------------------------------------------------------------
    # suspendable-cursor support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """A picklable snapshot of the queue contents.

        Rows are captured in internal order; keys are totally
        ordered (the tie-break seq makes them so), so loading them into
        a fresh heap reproduces the identical pop order.
        """
        return {"kind": "memory",
                "items": _materialised(_unrolled(self._heap))}

    @classmethod
    def from_state(
        cls,
        state: dict,
        *,
        heap_class: Type = BinaryHeap,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        store: Optional[PageStore] = None,
    ) -> "MemoryPairQueue":
        """Rebuild a queue from a :meth:`state` snapshot.

        The extra keyword arguments mirror the other queues' signatures
        so :func:`queue_from_state` can dispatch uniformly; this queue
        only uses ``heap_class``.
        """
        queue = cls(heap_class=heap_class)
        queue._heap.push_many(state["items"])
        queue._rows = len(state["items"])
        return queue


class HybridPairQueue(PairQueue):
    """The three-tier memory/disk queue of Section 3.2.

    Parameters
    ----------
    dt:
        The fixed distance increment ``D_T``.  ``D1`` and ``D2`` start
        at ``DT`` and ``2*DT`` and advance by ``DT`` on each refill.
        The paper chooses ``D_T`` per data set; see
        :func:`repro.bench.workloads.suggest_dt` for the heuristic this
        library provides.
    store:
        Page store for the disk tier (a private one is created when
        omitted).
    counters:
        Registry charged with ``pq_disk_writes`` / ``pq_disk_reads``
        per record moved, and observing ``pq_heap_size``.
    heap_class:
        Heap used for tier 1.
    observer:
        Optional :class:`~repro.util.obs.Observer`; when enabled,
        queue refills are timed under the ``pq.refill`` span and band
        loads are logged as events.

    The disk tier is the paper's unsorted bucket lists: each band is a
    list of pages, and a page is one flat record list, ``[key0, value0,
    key1, value1, ...]``.  A row pushed inside a block is stored
    late-materialised -- its key slot holds its row number in the block
    that follows it -- so spilling it allocates nothing; any other
    record carries its full key.  A band's open page is its last page:
    the list is held in hand (``_open_page``) and appended to in place,
    and the store sees one ``write`` when the page fills (``page_writes``
    is per page, ``pq_disk_writes`` per record).  A block's spilled rows
    reach the pages in one :meth:`_push_disk` call.  A page stays a
    list: a record is a reference to its block beside a row number
    (below the fan-out on a one-sided block, so an interpreter-shared
    small int), 16 bytes that a pair of typed columns would not
    shrink.
    """

    def __init__(
        self,
        dt: float,
        store: Optional[PageStore] = None,
        counters: Optional[CounterRegistry] = None,
        heap_class: Type = BinaryHeap,
        observer: Optional[Observer] = None,
    ) -> None:
        require_positive(dt, "dt")
        self.dt = float(dt)
        self.counters = counters if counters is not None else CounterRegistry()
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.store = store if store is not None else PageStore()
        self._heap = heap_class()
        self._heap_rows = 0
        self._list: List[Tuple[Tuple, Any]] = []
        # The band cursor is the single source of truth for the tier
        # thresholds: the heap holds bands below the cursor, the
        # unorganized list holds exactly the cursor band, and disk
        # bands are strictly above it.  Routing purely by band index
        # (never by accumulated float thresholds) keeps the three tiers
        # exactly consistent -- floor(d / dt) is monotone in d, so
        # band-by-band promotion preserves global distance order.
        self._cursor = 1  # D1 = cursor * DT, D2 = (cursor + 1) * DT
        self._bands: Dict[int, List[int]] = {}
        #: band -> the record list of its open page, whose id is the
        #: last of the band's page ids.
        self._open_page: Dict[int, list] = {}
        self._disk_records = 0
        #: Record slots of a full page (two per record).
        self._page_slots = 2 * max(
            1, self.store.page_size // PAIR_RECORD_BYTES
        )

    @property
    def _d1(self) -> float:
        return self._cursor * self.dt

    @property
    def _d2(self) -> float:
        return (self._cursor + 1) * self.dt

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def push(self, key: Tuple, value: Any) -> None:
        band = self._band_of(key[0])
        if band < self._cursor:
            self._heap.push(key, value)
            self._heap_rows += 1
            self.counters.observe("pq_heap_size", self._heap_rows)
        elif band == self._cursor:
            self._list.append((key, value))
        else:
            self._push_disk((band,), (key,), value)
            self._disk_records += 1
            self.counters.add("pq_disk_writes")

    def push_many(self, block: CandidateBlock) -> None:
        cursor, dt = self._cursor, self.dt
        listed = self._list
        heap_rows: List[int] = []
        bands: List[int] = []
        spilled: List[int] = []
        for row, distance in enumerate(block.keyd):
            # _band_of, inline: one pass routes the whole block.
            quotient = distance / dt
            band = (
                _MAX_BAND if quotient >= _MAX_BAND
                else -_MAX_BAND if quotient <= -_MAX_BAND
                else floor(quotient)
            )
            if band > cursor:
                bands.append(band)
                spilled.append(row)
            elif band < cursor:
                heap_rows.append(row)
            else:
                listed.append((block.key(row), block))
        # The heap only grows here, so its peak is its final size; the
        # disk counter is a total.  Neither is created by a block that
        # did not touch its tier (snapshots list touched counters).
        if heap_rows:
            self._heap_rows += _push_run(self._heap, block, heap_rows)
            self.counters.observe("pq_heap_size", self._heap_rows)
        if spilled:
            self._push_disk(bands, spilled, block)
            self._disk_records += len(spilled)
            self.counters.add("pq_disk_writes", len(spilled))

    def _band_of(self, distance: float) -> int:
        quotient = distance / self.dt
        if quotient >= _MAX_BAND:
            # A tiny DT (the adaptive queue can calibrate a subnormal
            # one from near-duplicate inputs) overflows the division to
            # infinity even though both operands are finite.  Every
            # such pair lies beyond any band the cursor can reach, so
            # collapse the tail into one final disk band; the heap
            # restores order within a band at promotion time.
            return _MAX_BAND
        if quotient <= -_MAX_BAND:
            # The same overflow on a descending join's negated keys:
            # such a pair lies below every band, in the heap.
            return -_MAX_BAND
        return floor(quotient)

    def _push_disk(
        self, bands: Sequence[int], keys: Sequence[Any], value: Any
    ) -> None:
        """Append one record per band to that band's open page:
        ``keys[i]`` goes to ``bands[i]``, each with ``value``.  A key is
        the record's full key, or its row number when ``value`` is the
        block it belongs to."""
        open_page = self._open_page
        slots = self._page_slots
        for band, key in zip(bands, keys):
            page = open_page.get(band)
            if page is None:
                page = open_page[band] = []
                page_id = self.store.allocate(page, 0)
                page_ids = self._bands.get(band)
                if page_ids is None:
                    self._bands[band] = [page_id]
                else:
                    page_ids.append(page_id)
            page.append(key)
            page.append(value)
            if len(page) >= slots:
                # Page full: written out once; the next append opens a
                # fresh page in the band's linked list.
                self.store.write(
                    self._bands[band][-1], page,
                    slots // 2 * PAIR_RECORD_BYTES,
                )
                del open_page[band]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def pop(self) -> Tuple[Tuple, Any]:
        if not self._heap_rows and not self._ensure_head():
            raise IndexError("pop on empty queue")
        self._heap_rows -= 1
        return self._heap.pop_run()

    def peek(self) -> Tuple[Tuple, Any]:
        if not self._heap_rows and not self._ensure_head():
            raise IndexError("peek on empty queue")
        return _peek(self._heap)

    def _ensure_head(self) -> bool:
        """Refill the empty heap from the list and the disk bands;
        False when nothing is left to refill it with."""
        if not (self._list or self._disk_records):
            return False
        if self.obs.enabled:
            with self.obs.span("pq.refill"):
                self._refill()
        else:
            self._refill()
        return True

    def _refill(self) -> None:
        while not self._heap_rows and (self._list or self._disk_records):
            # Heapify the unorganized list (the heap is empty) ...
            self._heap.push_many(self._list)
            self._heap_rows = len(self._list)
            self._list.clear()
            self.counters.observe("pq_heap_size", self._heap_rows)
            # ... advance the thresholds ...
            self._cursor += 1
            # ... and pull the next disk band into the list.
            self._load_band(self._cursor)
            if not self._heap_rows and not self._list and self._disk_records:
                # The next non-empty band may be far away; jump to it.
                self._cursor = min(self._bands)
                self._load_band(self._cursor)

    def _load_band(self, band: int) -> None:
        page_ids = self._bands.pop(band, None)
        self._open_page.pop(band, None)
        if not page_ids:
            return
        if self.obs.enabled:
            self.obs.event(
                "pq.load_band", label=f"band={band}",
                value=float(len(page_ids)),
            )
        for page_id in page_ids:
            records = _records(self.store.read(page_id).payload)
            self._list.extend(records)
            self._disk_records -= len(records)
            self.counters.add("pq_disk_reads", len(records))
            self.store.free(page_id)

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._heap_rows + len(self._list) + self._disk_records

    def __bool__(self) -> bool:
        return bool(self._heap_rows or self._list or self._disk_records)

    def memory_size(self) -> int:
        """Number of elements held in memory (tiers 1 and 2)."""
        return self._heap_rows + len(self._list)

    def disk_size(self) -> int:
        """Number of elements currently on the disk tier."""
        return self._disk_records

    def head_distance(self) -> Optional[float]:
        if self._heap_rows:
            return self._heap.peek()[0][0]
        if self._list:
            # The unorganized list is exactly the cursor band; scanning
            # it is bounded by the band population and touches no disk.
            return min(key[0] for key, _value in self._list)
        if self._disk_records:
            # Only the head's band is known without reading pages:
            # every key in band b satisfies b*DT <= key[0] < (b+1)*DT,
            # so the band floor is a certified lower bound.
            return min(self._bands) * self.dt
        return None

    def occupancy(self) -> Dict[str, int]:
        return {
            "total": len(self),
            "memory": self.memory_size(),
            "disk": self._disk_records,
            "heap": self._heap_rows,
            "list": len(self._list),
            "bands": len(self._bands),
        }

    def __repr__(self) -> str:
        return (
            f"HybridPairQueue(heap={self._heap_rows}, list={len(self._list)},"
            f" disk={self._disk_records}, d1={self._d1:g}, d2={self._d2:g})"
        )

    # ------------------------------------------------------------------
    # suspendable-cursor support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """A picklable snapshot of all three tiers.

        Disk-band page payloads are captured with uncounted
        :meth:`~repro.storage.pager.PageStore.peek` reads, so taking a
        snapshot is invisible to the I/O counters.  The band cursor,
        the unorganized list, and the per-band open/closed page
        structure are all carried so a restore reproduces the exact
        refill and promotion sequence of an uninterrupted run.
        """
        bands = []
        for band in sorted(self._bands):
            pages = [
                _materialised(_records(self.store.peek(page_id).payload))
                for page_id in self._bands[band]
            ]
            bands.append((band, pages, band in self._open_page))
        return {
            "kind": "hybrid",
            "dt": self.dt,
            "cursor": self._cursor,
            "heap": _materialised(_unrolled(self._heap)),
            "list": _materialised(self._list),
            "bands": bands,
            "disk_records": self._disk_records,
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        *,
        heap_class: Type = BinaryHeap,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        store: Optional[PageStore] = None,
    ) -> "HybridPairQueue":
        """Rebuild a queue from a :meth:`state` snapshot.

        Pages are re-allocated directly in the store (never through
        :meth:`push`), so no ``pq_disk_writes`` or ``queue_inserts``
        are charged: with a shared counter registry the restored run's
        counters continue exactly where the suspended run left off.
        """
        queue = cls(
            dt=state["dt"],
            store=store,
            counters=counters,
            heap_class=heap_class,
            observer=observer,
        )
        queue._heap.push_many(state["heap"])
        queue._heap_rows = len(state["heap"])
        queue._list = list(state["list"])
        queue._cursor = state["cursor"]
        queue._disk_records = state["disk_records"]
        for band, pages, has_open in state["bands"]:
            page_ids = []
            for records in pages:
                page = [field for record in records for field in record]
                page_ids.append(queue.store.allocate(
                    page, len(records) * PAIR_RECORD_BYTES
                ))
            queue._bands[band] = page_ids
            if has_open and page_ids:
                # Invariant: a band's open page is always the last page
                # in its list (created together, dropped from the open
                # map when full).
                queue._open_page[band] = page
        return queue


class AdaptiveHybridPairQueue(PairQueue):
    """A hybrid queue that chooses ``D_T`` from its own early traffic.

    The paper picks ``D_T`` empirically per data set and names
    "developing a way of choosing D_T based on the input relations, or
    finding some other dynamic method" as future work (Section 3.2).
    This implementation realizes the dynamic method: the first
    ``calibration_size`` pushes are buffered in a plain heap while
    their distance distribution is observed; ``D_T`` is then set so
    that roughly ``target_heap_fraction`` of the observed distances
    fall inside the first band, the buffered elements are re-routed
    through a regular :class:`HybridPairQueue`, and everything after
    that proceeds three-tiered.

    The early pushes of a distance join are dominated by near pairs
    (the roots overlap), so the observed quantile tracks the hot
    prefix the heap should own -- the quantity the paper tuned by
    hand.
    """

    def __init__(
        self,
        calibration_size: int = 256,
        target_heap_fraction: float = 0.25,
        store: Optional[PageStore] = None,
        counters: Optional[CounterRegistry] = None,
        heap_class: Type = BinaryHeap,
        observer: Optional[Observer] = None,
    ) -> None:
        require_positive(calibration_size, "calibration_size")
        if not 0.0 < target_heap_fraction < 1.0:
            raise ValueError(
                "target_heap_fraction must be in (0, 1), got "
                f"{target_heap_fraction!r}"
            )
        self.calibration_size = calibration_size
        self.target_heap_fraction = target_heap_fraction
        self.counters = counters if counters is not None else CounterRegistry()
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._store = store
        self._heap_class = heap_class
        self._warmup = heap_class()
        self._observed: List[float] = []
        self._inner: Optional[HybridPairQueue] = None

    @property
    def dt(self) -> Optional[float]:
        """The calibrated ``D_T`` (None until calibration finishes)."""
        return self._inner.dt if self._inner is not None else None

    def _calibrate(self) -> None:
        distances = sorted(self._observed)
        index = max(
            0,
            min(
                len(distances) - 1,
                int(len(distances) * self.target_heap_fraction),
            ),
        )
        chosen = distances[index]
        positive = [d for d in distances if d > 0.0]
        if chosen <= 0.0:
            chosen = positive[0] if positive else 1.0
        self._inner = HybridPairQueue(
            dt=chosen,
            store=self._store,
            counters=self.counters,
            heap_class=self._heap_class,
            observer=self.obs if self.obs.enabled else None,
        )
        # Record the calibrated D_T losslessly.  The integer registry
        # gets it in micro-units (a plain observe(int(dt)) truncates
        # any sub-unit D_T -- the common case on unit-square data --
        # to 0); the observer gets the exact float as a gauge.
        self.counters.counter("pq_adaptive_dt_micro").observe(
            max(1, int(round(chosen * DT_MICRO_SCALE)))
        )
        if self.obs.enabled:
            self.obs.gauge("pq_adaptive_dt", chosen)
            self.obs.event(
                "pq.calibrated", label=f"dt={chosen:g}", value=chosen
            )
        while self._warmup:
            key, value = self._warmup.pop()
            self._inner.push(key, value)
        self._observed = []

    def push(self, key: Tuple, value: Any) -> None:
        if self._inner is not None:
            self._inner.push(key, value)
            return
        self._warmup.push(key, value)
        self._observed.append(abs(key[0]))
        if len(self._observed) >= self.calibration_size:
            self._calibrate()

    def push_many(self, block: CandidateBlock) -> None:
        if self._inner is not None:
            self._inner.push_many(block)
        else:
            # Row by row: calibration may complete inside the block.
            super().push_many(block)

    def pop(self) -> Tuple[Tuple, Any]:
        if self._inner is not None:
            return self._inner.pop()
        return self._warmup.pop()

    def peek(self) -> Tuple[Tuple, Any]:
        if self._inner is not None:
            return self._inner.peek()
        return self._warmup.peek()

    def __len__(self) -> int:
        if self._inner is not None:
            return len(self._inner)
        return len(self._warmup)

    def __bool__(self) -> bool:
        if self._inner is not None:
            return bool(self._inner)
        return bool(self._warmup)

    def memory_size(self) -> int:
        """In-memory element count (all of it during calibration)."""
        if self._inner is not None:
            return self._inner.memory_size()
        return len(self._warmup)

    def disk_size(self) -> int:
        """Elements on the disk tier (0 during calibration)."""
        if self._inner is not None:
            return self._inner.disk_size()
        return 0

    def head_distance(self) -> Optional[float]:
        if self._inner is not None:
            return self._inner.head_distance()
        if not self._warmup:
            return None
        return self._warmup.peek()[0][0]

    def occupancy(self) -> Dict[str, int]:
        if self._inner is not None:
            return self._inner.occupancy()
        size = len(self._warmup)
        return {
            "total": size, "memory": size, "disk": 0,
            "heap": size, "list": 0, "bands": 0,
        }

    def __repr__(self) -> str:
        if self._inner is None:
            return (
                f"AdaptiveHybridPairQueue(calibrating, "
                f"{len(self._warmup)}/{self.calibration_size})"
            )
        return f"AdaptiveHybridPairQueue(dt={self._inner.dt:g})"

    # ------------------------------------------------------------------
    # suspendable-cursor support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """A picklable snapshot covering both phases.

        During warmup the buffered items *and* the observed distance
        list are captured, so a resumed queue calibrates to the exact
        same ``D_T`` at the exact same push.  After calibration the
        inner hybrid queue's snapshot is nested.
        """
        if self._inner is None:
            return {
                "kind": "adaptive",
                "phase": "warmup",
                "calibration_size": self.calibration_size,
                "target_heap_fraction": self.target_heap_fraction,
                "warmup": _materialised(self._warmup.items()),
                "observed": list(self._observed),
            }
        return {
            "kind": "adaptive",
            "phase": "inner",
            "calibration_size": self.calibration_size,
            "target_heap_fraction": self.target_heap_fraction,
            "inner": self._inner.state(),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        *,
        heap_class: Type = BinaryHeap,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        store: Optional[PageStore] = None,
    ) -> "AdaptiveHybridPairQueue":
        """Rebuild a queue from a :meth:`state` snapshot.

        Never re-runs calibration: a post-calibration snapshot restores
        the inner queue directly, so ``pq_adaptive_dt_micro`` is not
        observed a second time.
        """
        queue = cls(
            calibration_size=state["calibration_size"],
            target_heap_fraction=state["target_heap_fraction"],
            store=store,
            counters=counters,
            heap_class=heap_class,
            observer=observer,
        )
        if state["phase"] == "warmup":
            queue._warmup.push_many(state["warmup"])
            queue._observed = list(state["observed"])
        else:
            queue._inner = HybridPairQueue.from_state(
                state["inner"],
                heap_class=heap_class,
                counters=queue.counters,
                observer=queue.obs if queue.obs.enabled else None,
                store=store,
            )
        return queue


#: Snapshot ``kind`` -> queue class, for :func:`queue_from_state`.
_QUEUE_KINDS: Dict[str, Type[PairQueue]] = {
    "memory": MemoryPairQueue,
    "hybrid": HybridPairQueue,
    "adaptive": AdaptiveHybridPairQueue,
}


def queue_from_state(
    state: dict,
    *,
    heap_class: Type = BinaryHeap,
    counters: Optional[CounterRegistry] = None,
    observer: Optional[Observer] = None,
    store: Optional[PageStore] = None,
) -> PairQueue:
    """Rebuild any pair queue from its :meth:`state` snapshot."""
    try:
        queue_class = _QUEUE_KINDS[state["kind"]]
    except KeyError:
        raise ValueError(
            f"unknown queue snapshot kind {state.get('kind')!r}"
        ) from None
    return queue_class.from_state(
        state,
        heap_class=heap_class,
        counters=counters,
        observer=observer,
        store=store,
    )
