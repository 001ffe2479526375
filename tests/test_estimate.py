"""Unit tests for the maximum-distance estimators (Section 2.2.4/2.3)."""

import pickle
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.estimate import JoinEstimator, SemiJoinEstimator
from repro.core.pairs import NODE, OBJ, CandidateBlock, Item, Pair
from repro.core.spec import NODE_POLICIES, QUEUE_KINDS, JoinSpec
from repro.core.tiebreak import POLICIES, KeyMaker
from repro.datasets.tiger_like import roads_segments, water_segments
from repro.geometry.rectangle import Rect
from repro.rtree.bulk import bulk_load_str
from repro.util.counters import CounterRegistry

from tests.conftest import make_points

INF = float("inf")
R = Rect((0, 0), (1, 1))


def node_pair(id1, id2, distance=0.0):
    return Pair(
        Item(NODE, R, node_id=id1, level=1),
        Item(NODE, R, node_id=id2, level=1),
        distance,
    )


def obj_pair(o1, o2, distance=0.0):
    return Pair(
        Item(OBJ, R, oid=o1),
        Item(OBJ, R, oid=o2),
        distance,
    )


def items_of(pair):
    """A pair's two items, as ``on_dequeue`` takes them."""
    return pair.item1, pair.item2


def keyed(cls, k, dmin=0.0, dmax=INF):
    """An estimator with the ``KeyMaker`` that names its rows, as the
    join holds one of each."""
    est = cls(k, dmin, dmax, CounterRegistry())
    est.keys = KeyMaker()
    return est


def offer_block(est, pairs, uppers, count):
    """Offer already materialised pairs as one keyed block; returns
    the rows' sequence numbers."""
    block = CandidateBlock.of_pairs(pairs)
    block.uppers = array("d", uppers)
    est.keys.key_block(block, *block.head(), block.dists)
    est.offer(block, count)
    return [abs(key[3]) for key in block.keys()]


def offer1(est, pair, mindist, est_dmax, count):
    """Offer a single pair: a one-row block.  Returns its sequence
    number."""
    return offer_block(
        est, [Pair(pair.item1, pair.item2, mindist)], [est_dmax], count
    )[0]


class TestJoinEstimator:
    def make(self, k, dmin=0.0, dmax=INF):
        return keyed(JoinEstimator, k, dmin, dmax)

    def test_no_trim_below_k(self):
        est = self.make(k=100)
        offer1(est, node_pair(1, 2), 0.0, 10.0, 50)
        assert est.current_dmax == INF
        assert not est.trimmed

    def test_trims_when_counts_exceed_k(self):
        est = self.make(k=10)
        offer1(est, node_pair(1, 2), 0.0, 5.0, 8)
        offer1(est, node_pair(3, 4), 0.0, 9.0, 8)
        # 16 >= 10 even without the 9.0 pair -> Dmax drops to 9.0... no:
        # removing the 9.0 pair leaves 8 < 10, so nothing is evicted yet.
        assert est.current_dmax == INF
        offer1(est, node_pair(5, 6), 0.0, 7.0, 8)
        # total 24; evicting the largest (9.0, count 8) leaves 16 >= 10.
        assert est.current_dmax == 9.0
        assert est.trimmed

    def test_trim_cascades(self):
        est = self.make(k=1)
        offer1(est, node_pair(1, 2), 0.0, 5.0, 10)
        offer1(est, node_pair(3, 4), 0.0, 3.0, 10)
        # Evicting 5.0 leaves 10 >= 1; evicting 3.0 would leave 0 < 1.
        assert est.current_dmax == 5.0
        assert est.tracked_pairs == 1

    def test_ineligible_when_dmax_exceeds_current(self):
        est = self.make(k=1, dmax=4.0)
        offer1(est, node_pair(1, 2), 0.0, 9.0, 100)
        assert est.tracked_pairs == 0

    def test_ineligible_when_below_dmin(self):
        est = self.make(k=1, dmin=2.0)
        offer1(est, node_pair(1, 2), 1.0, 3.0, 100)
        assert est.tracked_pairs == 0

    def test_dequeue_removes_pair(self):
        est = self.make(k=5)
        pair = node_pair(1, 2)
        seq = offer1(est, pair, 0.0, 5.0, 4)
        est.on_dequeue(seq, *items_of(pair))
        assert est.tracked_pairs == 0
        assert est.tracked_total == 0

    def test_dequeue_of_untracked_pair_is_noop(self):
        est = self.make(k=5)
        est.on_dequeue(7, *items_of(node_pair(8, 9)))
        assert est.tracked_total == 0

    def test_report_decrements_k_and_retrims(self):
        est = self.make(k=2)
        offer1(est, node_pair(1, 2), 0.0, 5.0, 2)
        offer1(est, node_pair(3, 4), 0.0, 8.0, 2)
        # total 4; evicting 8.0 leaves 2 >= 2 -> Dmax = 8.
        assert est.current_dmax == 8.0
        est.on_report()  # k = 1
        # Now evicting 5.0 would leave 0 < 1, so 5.0 stays.
        assert est.current_dmax == 8.0
        offer1(est, node_pair(5, 6), 0.0, 4.0, 2)
        # total 4; evicting 5.0 leaves 2 >= 1 -> Dmax = 5.
        assert est.current_dmax == 5.0

    def test_dmax_never_increases(self):
        est = self.make(k=1)
        offer1(est, node_pair(1, 2), 0.0, 5.0, 10)
        first = est.current_dmax
        offer1(est, node_pair(3, 4), 0.0, 50.0, 10)
        assert est.current_dmax <= first


class TestSemiJoinEstimator:
    def make(self, k, dmin=0.0, dmax=INF):
        return keyed(SemiJoinEstimator, k, dmin, dmax)

    def test_unique_first_item_keeps_tighter(self):
        est = self.make(k=100)
        offer1(est, node_pair(1, 2), 0.0, 9.0, 5)
        offer1(est, node_pair(1, 3), 0.0, 4.0, 5)  # same first item, tighter
        assert est.tracked_pairs == 1
        assert est.tracked_total == 5
        offer1(est, node_pair(1, 4), 0.0, 7.0, 5)  # looser: ignored
        assert est.tracked_pairs == 1

    def test_counts_only_first_subtree(self):
        est = self.make(k=4)
        offer1(est, node_pair(1, 2), 0.0, 5.0, 3)
        offer1(est, node_pair(2, 3), 0.0, 8.0, 3)
        # total 6; evicting 8.0 leaves 3 < 4 -> no trim.
        assert est.current_dmax == INF
        offer1(est, node_pair(3, 4), 0.0, 6.0, 3)
        # total 9; evicting 8.0 leaves 6 >= 4.
        assert est.current_dmax == 8.0

    def test_expanded_node_barred_from_m(self):
        est = self.make(k=100)
        pair = node_pair(1, 2)
        est.on_expand_first(pair)
        offer1(est, node_pair(1, 3), 0.0, 4.0, 5)
        assert est.tracked_pairs == 0

    def test_expand_removes_existing_entry(self):
        est = self.make(k=100)
        offer1(est, node_pair(1, 2), 0.0, 4.0, 5)
        est.on_expand_first(node_pair(1, 9))
        assert est.tracked_pairs == 0
        assert est.tracked_total == 0

    def test_dequeue_only_removes_matching_second(self):
        est = self.make(k=100)
        seq = offer1(est, node_pair(1, 2), 0.0, 4.0, 5)
        # A different second item, then the exact pair.
        est.on_dequeue(seq + 1, *items_of(node_pair(1, 3)))
        assert est.tracked_pairs == 1
        est.on_dequeue(seq, *items_of(node_pair(1, 2)))
        assert est.tracked_pairs == 0

    def test_report_purges_first_item(self):
        est = self.make(k=10)
        offer1(est, obj_pair(7, 1), 2.0, 2.0, 1)
        est.on_report_first(("o", 7))
        assert est.tracked_pairs == 0
        assert est.k == 9

    def test_objects_as_first_items(self):
        est = self.make(k=1)
        offer1(est, obj_pair(1, 1), 1.0, 1.0, 1)
        offer1(est, obj_pair(2, 1), 3.0, 3.0, 1)
        # total 2; evicting 3.0 leaves 1 >= 1.
        assert est.current_dmax == 3.0


# ----------------------------------------------------------------------
# block offer == the same pairs offered one at a time
# ----------------------------------------------------------------------

_distance = st.floats(0.0, 20.0)

#: One step of an estimator's life.  Small id ranges force replaced
#: entries (in the semi-join's ``M``; the join's is keyed by row), equal
#: distances force priority ties.  A dequeue names one of the rows
#: offered so far, by position.
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.booleans(),  # node pairs or object pairs
            st.lists(
                st.tuples(
                    st.integers(0, 5), st.integers(0, 5),
                    _distance, _distance,
                ),
                min_size=1, max_size=8,  # the join offers no empty block
            ),
            st.integers(1, 4),
        ),
        st.tuples(st.just("dequeue"), st.integers(0, 200)),
        st.tuples(st.just("expand"), st.integers(0, 5)),
        st.tuples(st.just("report"), st.booleans(), st.integers(0, 5)),
    ),
    max_size=25,
)


def _observe(est):
    return (
        est.current_dmax, est.tracked_total, est.tracked_pairs,
        est.trimmed, est.k, est.counters.value("estimator_trims"),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([JoinEstimator, SemiJoinEstimator]),
    st.integers(1, 12), st.floats(0.0, 5.0), _steps,
)
def test_property_block_offer_equals_one_at_a_time(cls, k, dmin, steps):
    """Sequential semantics: a block ``offer`` tests each element
    against the ``dmax`` its predecessors left behind and trims after
    each, so the whole trajectory -- through later dequeues, expansions
    and reports -- matches one-element offers, Q_M's heap included."""
    block = keyed(cls, k, dmin)
    single = keyed(cls, k, dmin)
    for est in (block, single):
        est.offered = []  # (sequence number, pair) of every row so far
    for step in steps:
        for est in (block, single):
            if step[0] == "offer":
                __, nodes, rows, count = step
                make = node_pair if nodes else obj_pair
                candidates = [
                    make(id1, id2, d) for id1, id2, d, __ in rows
                ]
                # d_max >= MINDIST, as for any real pair.
                uppers = [d + extra for __, ___, d, extra in rows]
                if est is block:
                    seqs = offer_block(est, candidates, uppers, count)
                else:
                    seqs = [
                        offer_block(est, [candidate], [upper], count)[0]
                        for candidate, upper in zip(candidates, uppers)
                    ]
                est.offered.extend(zip(seqs, candidates))
            elif step[0] == "dequeue":
                if est.offered:
                    seq, pair = est.offered[step[1] % len(est.offered)]
                    est.on_dequeue(seq, *items_of(pair))
            elif step[0] == "expand":
                if cls is SemiJoinEstimator:
                    est.on_expand_first(node_pair(step[1], 0))
            elif cls is SemiJoinEstimator and step[1]:
                est.on_report_first(("o", step[2]))
            else:
                est.on_report()
        assert _observe(block) == _observe(single)
    assert [seq for seq, __ in block.offered] == [
        seq for seq, __ in single.offered
    ]
    assert block.state() == single.state()


# ----------------------------------------------------------------------
# the sequence-keyed M against Section 2.2.4 by the book
# ----------------------------------------------------------------------


class ReferenceEstimator:
    """The join's estimator as the paper states it: ``M`` is a dict
    keyed by the pair's ``(item1, item2)`` identity, and a trim sorts
    it (largest d_max first, oldest first among equals)."""

    def __init__(self, k, dmin):
        self.k, self.dmin, self.dmax = k, dmin, INF
        self.m = {}  # identity -> (d_max, insertion order, count)
        self.inserted = self.trims = 0

    def total(self):
        return sum(count for __, __, count in self.m.values())

    def trim(self):
        for identity in sorted(
            self.m, key=lambda i: (-self.m[i][0], self.m[i][1])
        ):
            if self.total() - self.m[identity][2] < self.k:
                break
            self.dmax = self.m.pop(identity)[0]
            self.trims += 1

    def offer(self, pairs, uppers, count):
        for pair, upper in zip(pairs, uppers):
            if pair.distance >= self.dmin and upper <= self.dmax:
                self.inserted += 1
                self.m[identity_of(pair)] = (upper, self.inserted, count)
                self.trim()

    def dequeue(self, pair):
        self.m.pop(identity_of(pair), None)

    def report(self):
        self.k = max(0, self.k - 1)
        self.trim()

    def observe(self):
        return (self.dmax, self.total(), len(self.m), self.trims > 0,
                self.k, self.trims)


def identity_of(pair):
    return (pair.item1.identity(), pair.item2.identity())


#: Few distinct values, so d_max ties (and MINDIST == D_min) are common.
_coarse = st.integers(0, 8).map(lambda n: n / 2.0)

_model_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.lists(st.tuples(_coarse, _coarse), min_size=1, max_size=40),
            st.sampled_from([1, 20, 400]),
        ),
        st.tuples(st.just("dequeue"), st.integers(0, 10_000)),
        st.tuples(st.just("report")),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), _coarse, _model_steps, st.integers(0, 30))
def test_property_sequence_keyed_m_matches_identity_keyed_reference(
    k, dmin, steps, suspend_at
):
    """Every live row has its own identity (the premise pinned below),
    so naming rows by sequence number changes no observable: after
    every step -- and across a ``state()`` / ``restore_state()`` taken
    at a random one -- the estimator reads as the reference does."""
    est = keyed(JoinEstimator, k, dmin)
    ref = ReferenceEstimator(k, dmin)
    offered = []  # (sequence number, pair): every row has a fresh identity
    for at, step in enumerate(steps):
        if at == suspend_at:
            resumed = JoinEstimator(0, 0.0, 0.0, est.counters)
            resumed.restore_state(pickle.loads(pickle.dumps(est.state())))
            resumed.keys, est = est.keys, resumed
        if step[0] == "offer":
            __, rows, count = step
            pairs = [
                node_pair(len(offered) + i, 0, mindist)
                for i, (mindist, __) in enumerate(rows)
            ]
            uppers = [mindist + extra for mindist, extra in rows]
            offered.extend(zip(offer_block(est, pairs, uppers, count), pairs))
            ref.offer(pairs, uppers, count)
        elif step[0] == "dequeue":
            if offered:
                seq, pair = offered[step[1] % len(offered)]
                est.on_dequeue(seq, *items_of(pair))
                ref.dequeue(pair)
        else:
            est.on_report()
            ref.report()
        assert _observe(est) == ref.observe()


# ----------------------------------------------------------------------
# the premise: one row in the queue per (item1, item2) identity
# ----------------------------------------------------------------------


class PremiseEstimator(JoinEstimator):
    """Sees every row enqueued (``offer`` takes whole blocks) and
    every row popped (``on_dequeue`` precedes all pruning): fails if two
    rows queued at once share an identity, or if a popped row's
    sequence number is not the one it was offered under."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queued = {}  # identity -> sequence number
        self.offers = self.reentries = 0

    def offer(self, block, count):
        seq0 = abs(block.seq0)
        for row in range(len(block)):
            identity = (
                block.first(row).identity(), block.second(row).identity()
            )
            assert identity not in self.queued
            self.queued[identity] = seq0 + row
        self.offers += len(block)
        self.reentries += block.first(0).kind == OBJ
        super().offer(block, count)

    def on_dequeue(self, seq, item1, item2):
        assert self.queued.pop((item1.identity(), item2.identity())) == seq
        super().on_dequeue(seq, item1, item2)


class PremiseJoin(IncrementalDistanceJoin):
    _estimator_class = PremiseEstimator


@pytest.fixture(scope="module")
def premise_trees():
    """Points for the direct leaves; segments for the obr leaves, whose
    exact distances exceed their rectangles' MINDIST, so that resolved
    pairs re-enter the queue through ``_push``."""
    return {
        "direct": (
            bulk_load_str(make_points(150, seed=31), max_entries=6),
            bulk_load_str(make_points(190, seed=32), max_entries=6),
        ),
        "obr": (
            bulk_load_str(water_segments(90), max_entries=6),
            bulk_load_str(roads_segments(140), max_entries=6),
        ),
    }


@pytest.mark.parametrize("queue", QUEUE_KINDS)
@pytest.mark.parametrize("tie_break", POLICIES)
@pytest.mark.parametrize("leaf_mode", ["direct", "obr"])
@pytest.mark.parametrize("node_policy", NODE_POLICIES)
def test_no_two_queued_rows_share_identity(
    premise_trees, node_policy, leaf_mode, tie_break, queue
):
    """A node has one parent and the side expanded is a function of the
    pair's levels, so a pair has exactly one generating expansion: what
    lets ``M`` name a row by its sequence number, with no replacement
    branch."""
    join = PremiseJoin(
        *premise_trees[leaf_mode],
        JoinSpec(
            max_pairs=400, node_policy=node_policy, leaf_mode=leaf_mode,
            tie_break=tie_break, queue=queue,
            queue_dt=2.0 if queue == "hybrid" else None,
        ),
        counters=CounterRegistry(),
    )
    assert sum(1 for __ in join) == 400
    est = join._estimator
    assert est.offers == join.counters.value("queue_inserts")
    assert est.tracked_pairs <= len(est.queued) == len(join._queue)
    assert join.counters.value("estimator_trims") > 0
    if leaf_mode == "obr":
        assert est.reentries > 0
