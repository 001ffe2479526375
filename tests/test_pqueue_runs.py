"""The run queue against its contract: a block pushed with
``push_many`` is ordered as one sorted run, and nothing but speed may
tell that from ``push(block.key(r), block)`` row by row."""

import pickle
from array import array
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.heap import BinaryHeap, PairingHeap
from repro.core.pairs import OBJ, CandidateBlock, Item, Pair
from repro.core.pqueue import (
    AdaptiveHybridPairQueue,
    HybridPairQueue,
    MemoryPairQueue,
    PairQueue,
    queue_from_state,
)
from repro.core.spec import JoinSpec
from repro.core.tiebreak import KeyMaker
from repro.geometry.rectangle import Rect
from repro.storage.pager import PageStore
from repro.util.counters import CounterRegistry

from tests.conftest import make_points, make_tree

RECT = Rect((0.0, 0.0), (1.0, 1.0))

#: Few distinct values, so ``keyd`` repeats inside and across blocks;
#: with ``dt=5`` they land in the heap, the list and several disk bands.
distances = st.sampled_from([0.0, 0.0, 1.5, 4.0, 5.0, 7.25, 12.0, 31.0, 64.0])
blocks = st.one_of(
    st.lists(distances, min_size=1, max_size=60),
    st.integers(1, 60).map(lambda n: [0.0] * n),  # a whole-block tie
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("block"), blocks),
        st.tuples(st.just("push"), distances),
        st.tuples(st.just("pop"), st.integers(1, 40)),
    ),
    min_size=1, max_size=30,
)


#: A subnormal D_T: every non-zero distance overflows ``distance / dt``
#: to infinity, so routing rests on the band clamp (both signs).
SUBNORMAL_DT = 5e-324


def make_queue(kind, heap_class, counters, store_counters=None):
    """A queue of ``kind``; a hybrid or adaptive one pages through a
    4-record ``PageStore`` charging ``store_counters``, so full pages
    and open pages both occur."""
    if kind == "memory":
        return MemoryPairQueue(heap_class=heap_class)
    store = PageStore(page_size=256, counters=store_counters)
    if kind in ("hybrid", "hybrid_subnormal"):
        return HybridPairQueue(
            dt=5.0 if kind == "hybrid" else SUBNORMAL_DT, store=store,
            counters=counters, heap_class=heap_class,
        )
    # Calibration completes inside one of the first blocks.
    return AdaptiveHybridPairQueue(
        calibration_size=20, store=store, counters=counters,
        heap_class=heap_class,
    )


def pages_of(queue):
    """The disk tier of a queue's snapshot, record by record: per band,
    its pages' rows and whether its last page is open (None for a queue
    without one)."""
    state = queue.state()
    state = state.get("inner", state)
    if "bands" not in state:
        return None
    return [
        (band, [[row_of(*record) for record in page] for page in pages],
         is_open)
        for band, pages, is_open in state["bands"]
    ]


def row_of(key, value):
    """What a popped element stands for, block handle or pair alike."""
    pair = value.pair_of(key) if type(value) is CandidateBlock else value
    return key, pair.item1.oid, pair.item2.oid, pair.distance


@pytest.mark.parametrize("heap_class", [PairingHeap, BinaryHeap])
@pytest.mark.parametrize(
    "kind", ["memory", "hybrid", "hybrid_subnormal", "adaptive"]
)
@settings(max_examples=40, deadline=None)
@given(
    ops=operations,
    tie_break=st.sampled_from(["depth_first", "breadth_first"]),
    descending=st.booleans(),
    data=st.data(),
)
def test_run_queue_equals_per_row_reference(
    kind, heap_class, ops, tie_break, descending, data
):
    keys = KeyMaker(tie_break, descending=descending)
    partner = Item(OBJ, RECT, oid=-1)
    oids = count()

    counters, ref_counters = CounterRegistry(), CounterRegistry()
    store_counters, ref_store_counters = CounterRegistry(), CounterRegistry()
    queue = make_queue(kind, heap_class, counters, store_counters)
    # The contract: the same kind of queue, fed row by row (the base
    # class's push_many), on the paper's pairing heap.
    reference = make_queue(kind, PairingHeap, ref_counters,
                           ref_store_counters)
    resumed = None
    suspend_at = data.draw(st.integers(0, len(ops) - 1))
    outstanding = 0

    for index, (op, arg) in enumerate(ops):
        if op == "block":
            children = [Item(OBJ, RECT, oid=next(oids)) for __ in arg]
            block = CandidateBlock(
                array("d", arg), range(len(arg)), children, partner, 1
            )
            keys.key_block(block, *block.head(), block.dists)
            queue.push_many(block)
            PairQueue.push_many(reference, block)
            if resumed is not None:
                resumed.push_many(block)
            outstanding += len(arg)
        elif op == "push":
            pair = Pair(Item(OBJ, RECT, oid=next(oids)), partner, arg)
            key = keys.key(pair, arg)
            for q in (queue, reference, resumed):
                if q is not None:
                    q.push(key, pair)
            outstanding += 1
        else:
            for __ in range(min(arg, outstanding)):
                assert queue.peek()[0] == reference.peek()[0]
                want = row_of(*reference.pop())
                assert row_of(*queue.pop()) == want
                if resumed is not None:
                    assert row_of(*resumed.pop()) == want
                outstanding -= 1
                assert len(queue) == outstanding
        assert len(queue) == len(reference) == outstanding
        assert queue.head_distance() == reference.head_distance()
        assert queue.occupancy() == reference.occupancy()
        # The same records on the same pages, the same pages open.
        assert pages_of(queue) == pages_of(reference)
        if index == suspend_at:
            state = pickle.loads(pickle.dumps(queue.state()))
            # The snapshot carries pairs only, one per outstanding row.
            carried = queue_from_state(state, heap_class=heap_class)
            assert len(carried) == outstanding
            assert all(
                type(carried.pop()[1]) is Pair for __ in range(outstanding)
            )
            resumed = queue_from_state(
                state, heap_class=heap_class,
                store=PageStore(page_size=256),
            )

    while outstanding:
        want = row_of(*reference.pop())
        assert row_of(*queue.pop()) == want
        assert row_of(*resumed.pop()) == want
        outstanding -= 1
    assert not queue and not reference and not resumed
    # Tiers were used alike: pq_heap_size peak, disk traffic, the
    # adaptive queue's calibrated D_T.
    full, ref_full = counters.full_snapshot(), ref_counters.full_snapshot()
    assert dict(full.values) == dict(ref_full.values)
    assert dict(full.peaks) == dict(ref_full.peaks)
    # ... and the page store alike: pages allocated, written (on open
    # and on filling), read and freed.
    pages = store_counters.full_snapshot()
    ref_pages = ref_store_counters.full_snapshot()
    assert dict(pages.values) == dict(ref_pages.values)
    assert dict(pages.peaks) == dict(ref_pages.peaks)


def test_keys_are_built_for_run_heads_not_for_inserts(monkeypatch):
    """Runs themselves: a K-bounded join builds a key tuple when a row
    reaches the head of its run -- at most one per block pushed plus
    one per pop -- not one per insert."""
    built, pushed, pops = [], [], []
    block_key, block_keys = CandidateBlock.key, CandidateBlock.keys
    queue_push_many = MemoryPairQueue.push_many
    queue_pop = MemoryPairQueue.pop

    def counting_key(self, row):
        built.append(1)
        return block_key(self, row)

    def counting_keys(self):
        built.extend([1] * len(self))
        return block_keys(self)

    def counting_push_many(self, block):
        pushed.append(len(block))
        queue_push_many(self, block)

    def counting_pop(self):
        pops.append(1)
        return queue_pop(self)

    monkeypatch.setattr(CandidateBlock, "key", counting_key)
    monkeypatch.setattr(CandidateBlock, "keys", counting_keys)
    monkeypatch.setattr(MemoryPairQueue, "push_many", counting_push_many)
    monkeypatch.setattr(MemoryPairQueue, "pop", counting_pop)

    counters = CounterRegistry()
    tree_a = make_tree(make_points(60, seed=11), counters=counters)
    tree_b = make_tree(make_points(80, seed=22), counters=counters)
    join = IncrementalDistanceJoin(
        tree_a, tree_b, JoinSpec(max_pairs=150), counters=counters
    )
    assert len(list(join)) == 150
    # Every insert but the root pair arrived in a block.
    assert sum(pushed) + 1 == counters.value("queue_inserts")
    assert len(built) <= len(pops) + len(pushed)
    assert len(pops) + len(pushed) < counters.value("queue_inserts")
