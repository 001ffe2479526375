"""Unit tests for the suspendable-cursor building blocks: queue
snapshots (including the mid-band hybrid regression), key-maker
sequence restore, estimator state, and the join-level cursor."""

import pickle
import random
from array import array

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.pqueue import (
    AdaptiveHybridPairQueue,
    HybridPairQueue,
    MemoryPairQueue,
    _records,
    queue_from_state,
)
from repro.core.pairs import OBJ, CandidateBlock, Item, Pair
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.core.tiebreak import KeyMaker
from repro.errors import CursorError
from repro.geometry.rectangle import Rect
from repro.storage.pager import PageStore
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree


def key(distance, seq=0):
    return (distance, 0, 0, seq)


def drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


def roundtrip(queue, counters=None):
    """state -> pickle -> from_state, as an evicted cursor would."""
    state = pickle.loads(pickle.dumps(queue.state()))
    return queue_from_state(state, counters=counters)


class TestMemoryQueueSnapshot:
    def test_roundtrip_preserves_pop_order(self):
        rng = random.Random(5)
        q = MemoryPairQueue()
        items = [(key(rng.uniform(0, 100), i), f"v{i}")
                 for i in range(50)]
        for k, v in items:
            q.push(k, v)
        expected = drain(roundtrip(q))
        assert expected == sorted(items, key=lambda kv: kv[0])
        # The original queue is unharmed by taking a snapshot.
        assert drain(q) == expected

    def test_empty_queue(self):
        assert drain(roundtrip(MemoryPairQueue())) == []


class TestHybridQueueSnapshot:
    def _filled(self, counters, n=120, dt=5.0, seed=9):
        rng = random.Random(seed)
        q = HybridPairQueue(dt=dt, counters=counters)
        for i in range(n):
            q.push(key(rng.uniform(0, 200), i), i)
        return q

    def test_roundtrip_preserves_pop_order(self):
        q = self._filled(CounterRegistry())
        reference = drain(self._filled(CounterRegistry()))
        assert drain(roundtrip(q)) == reference

    def test_mid_band_suspend_regression(self):
        """Regression: suspending after the disk tier has been
        partially consumed must restore the band cursor and the
        buffered page payloads exactly -- including the still-open
        page of each band."""
        reference_q = self._filled(CounterRegistry())
        reference = drain(reference_q)

        q = self._filled(CounterRegistry())
        popped = [q.pop() for __ in range(40)]  # into the disk bands
        assert q.disk_size() > 0  # the suspend point is mid-band
        restored = roundtrip(q)
        assert q.disk_size() == restored.disk_size()
        assert len(q) == len(restored)
        assert popped + drain(restored) == reference

    def test_snapshot_is_counter_silent(self):
        counters = CounterRegistry()
        q = self._filled(counters)
        before = dict(counters.snapshot())
        q.state()
        assert dict(counters.snapshot()) == before

    def test_restore_is_counter_silent(self):
        counters = CounterRegistry()
        q = self._filled(counters)
        state = q.state()
        before = dict(counters.snapshot())
        queue_from_state(state, counters=counters)
        assert dict(counters.snapshot()) == before

    def test_open_page_still_accepts_pushes_after_restore(self):
        q = self._filled(CounterRegistry(), n=30)
        restored = roundtrip(q)
        for i in range(200, 230):
            restored.push(key(float(i), i), i)
        out = drain(restored)
        assert out == sorted(out, key=lambda kv: kv[0])
        assert len(out) == 60


def keyed_block(distances, seq0):
    """A keyed block of object/object rows at ``distances``."""
    rect = Rect((0.0, 0.0), (1.0, 1.0))
    partner = Item(OBJ, rect, oid=1000)
    children = [Item(OBJ, rect, oid=seq0 + i)
                for i in range(len(distances))]
    block = CandidateBlock(
        array("d", distances), range(len(distances)), children,
        partner, 1,
    )
    keys = KeyMaker("depth_first")
    keys.restore_seq(seq0)
    keys.key_block(block, *block.head(), block.dists)
    return block


def rows_of(drained):
    """(key, oid1, oid2, distance) of drained queue elements, whether
    they came back as block handles or as materialised pairs."""
    out = []
    for k, v in drained:
        pair = v.pair_of(k) if isinstance(v, CandidateBlock) else v
        out.append((k, pair.item1.oid, pair.item2.oid, pair.distance))
    return out


class TestBlockSnapshots:
    """Blocks are a queue-internal representation: ``state()`` carries
    ``(key, Pair)`` rows, in every tier of every queue."""

    def _blocks(self):
        rng = random.Random(17)
        return [
            keyed_block([rng.uniform(0, 60) for __ in range(9)], 9 * i)
            for i in range(12)
        ]

    def _queues(self, page_size=256):
        return [
            MemoryPairQueue(),
            # 4 records a page: full pages and open pages both occur.
            HybridPairQueue(dt=5.0, store=PageStore(page_size=page_size)),
            AdaptiveHybridPairQueue(calibration_size=30),
            AdaptiveHybridPairQueue(calibration_size=10_000),
        ]

    def test_state_carries_pairs_in_every_tier(self):
        for q in self._queues():
            for block in self._blocks():
                q.push_many(block)
            # from_state stores what the snapshot holds, as is.
            restored = drain(roundtrip(q))
            assert len(restored) == len(q) == 108
            assert all(type(v) is Pair for __, v in restored)

    def test_roundtrip_equals_uninterrupted(self):
        reference = MemoryPairQueue()
        for block in self._blocks():
            reference.push_many(block)
        expected = rows_of(drain(reference))
        assert [row[0] for row in expected] == sorted(
            row[0] for row in expected
        )
        for q in self._queues():
            for block in self._blocks():
                q.push_many(block)
            popped = [q.pop() for __ in range(20)]
            restored = roundtrip(q)
            assert len(restored) == len(q)
            assert rows_of(popped + drain(restored)) == expected
            assert rows_of(popped + drain(q)) == expected

    def test_restore_into_open_partly_filled_page(self):
        """Blocks pushed after a restore append to the restored open
        pages (materialised records and block rows then share a page)
        and fill, close and reopen them exactly as without the
        suspension."""
        first, later = self._blocks()[:6], self._blocks()[6:]

        def filled(counters):
            q = HybridPairQueue(
                dt=5.0, store=PageStore(page_size=256),
                counters=counters,
            )
            for block in first:
                q.push_many(block)
            return q

        reference_counters = CounterRegistry()
        reference = filled(reference_counters)
        for block in later:
            reference.push_many(block)

        counters = CounterRegistry()
        q = filled(counters)
        assert q._open_page  # partly filled pages at the suspend point
        open_sizes = {
            band: len(_records(page)) for band, page in q._open_page.items()
        }
        assert any(0 < n < 4 for n in open_sizes.values())
        restored = queue_from_state(
            pickle.loads(pickle.dumps(q.state())),
            counters=counters, store=PageStore(page_size=256),
        )
        assert {
            band: len(_records(page))
            for band, page in restored._open_page.items()
        } == open_sizes
        for block in later:
            restored.push_many(block)
        assert restored.store.page_count == reference.store.page_count
        assert rows_of(drain(restored)) == rows_of(drain(reference))
        assert dict(counters.snapshot()) == \
            dict(reference_counters.snapshot())


class TestAdaptiveQueueSnapshot:
    def test_warmup_phase_roundtrip(self):
        q = AdaptiveHybridPairQueue(calibration_size=64)
        for i in range(10):  # still below the calibration threshold
            q.push(key(float(i), i), i)
        restored = roundtrip(q)
        assert drain(restored) == [(key(float(i), i), i)
                                   for i in range(10)]

    def test_calibrated_phase_roundtrip(self):
        rng = random.Random(3)

        def filled():
            q = AdaptiveHybridPairQueue(calibration_size=16)
            for i in range(80):
                q.push(key(rng.uniform(0, 50), i), i)
            return q

        rng = random.Random(3)
        reference = drain(filled())
        rng = random.Random(3)
        q = filled()
        assert q._inner is not None  # calibration has happened
        restored = roundtrip(q)
        assert restored._inner is not None  # never re-calibrates
        assert drain(restored) == reference

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            queue_from_state({"kind": "teleport"})


class TestKeyMakerSequence:
    def _pair(self):
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        item = Item(OBJ, rect, oid=1, obj=None)
        return Pair(item, item, 1.0)

    def test_seq_survives_restore(self):
        pair = self._pair()
        a = KeyMaker("depth_first")
        keys = [a.key(pair, 1.0) for __ in range(5)]
        saved = a.seq

        b = KeyMaker("depth_first")
        b.restore_seq(saved)
        more_a = [a.key(pair, 1.0) for __ in range(5)]
        more_b = [b.key(pair, 1.0) for __ in range(5)]
        assert more_a == more_b
        assert len(set(keys + more_a)) == 10  # seq never repeats


class TestJoinCursor:
    def _trees(self):
        return (
            make_tree(make_points(70, seed=31), max_entries=4),
            make_tree(make_points(90, seed=32), max_entries=4),
        )

    def test_load_validates_format_and_trees(self):
        t1, t2 = self._trees()
        join = IncrementalDistanceJoin(
            t1, t2, JoinSpec(max_pairs=50), counters=CounterRegistry()
        )
        next(iter(join))
        state = join.save()

        with pytest.raises(CursorError):
            IncrementalDistanceJoin.load({"format": "nope"}, t1, t2)
        bad_version = dict(state, version=99)
        with pytest.raises(CursorError):
            IncrementalDistanceJoin.load(bad_version, t1, t2)
        with pytest.raises(CursorError):
            # Trees swapped: the fingerprints must not match.
            IncrementalDistanceJoin.load(state, t2, t1)
        with pytest.raises(CursorError):
            # Wrong operator class for the cursor.
            IncrementalDistanceSemiJoin.load(state, t1, t2)

    def test_fresh_registry_is_primed_with_saved_totals(self):
        t1, t2 = self._trees()
        shared = CounterRegistry()
        join = IncrementalDistanceJoin(
            t1, t2, JoinSpec(max_pairs=60), counters=shared
        )
        results = [next(iter(join)) for __ in range(20)]
        state = pickle.loads(pickle.dumps(join.save()))

        resumed = IncrementalDistanceJoin.load(state, t1, t2)
        results += list(resumed)

        # Fresh, identically built trees for the reference run so the
        # buffer-pool state (node_io) is comparable run to run.
        r1, r2 = self._trees()
        reference = CounterRegistry()
        uninterrupted = list(IncrementalDistanceJoin(
            r1, r2, JoinSpec(max_pairs=60), counters=reference
        ))
        assert results == uninterrupted
        assert dict(resumed.counters.snapshot()) == \
            dict(reference.snapshot())
        assert dict(resumed.counters.snapshot_peaks()) == \
            dict(reference.snapshot_peaks())
