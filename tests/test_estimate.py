"""Unit tests for the maximum-distance estimators (Section 2.2.4/2.3)."""

from hypothesis import given, settings, strategies as st

from repro.core.estimate import JoinEstimator, SemiJoinEstimator
from repro.core.pairs import NODE, OBJ, CandidateBlock, Item, Pair
from repro.geometry.rectangle import Rect
from repro.util.counters import CounterRegistry

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


def offer_block(est, pairs, uppers, count):
    """Offer already materialised pairs as one block."""
    block = CandidateBlock.of_pairs(pairs)
    block.uppers = uppers
    est.offer(block, count)


def offer1(est, pair, mindist, est_dmax, count):
    """Offer a single pair: a one-row block."""
    offer_block(
        est, [Pair(pair.item1, pair.item2, mindist)], [est_dmax], count
    )


class TestJoinEstimator:
    def make(self, k, dmin=0.0, dmax=INF):
        return JoinEstimator(k, dmin, dmax, CounterRegistry())

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
        offer1(est, pair, 0.0, 5.0, 4)
        est.on_dequeue(pair)
        assert est.tracked_pairs == 0
        assert est.tracked_total == 0

    def test_dequeue_of_untracked_pair_is_noop(self):
        est = self.make(k=5)
        est.on_dequeue(node_pair(8, 9))
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
        return SemiJoinEstimator(k, dmin, dmax, CounterRegistry())

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
        offer1(est, node_pair(1, 2), 0.0, 4.0, 5)
        est.on_dequeue(node_pair(1, 3))  # different second item
        assert est.tracked_pairs == 1
        est.on_dequeue(node_pair(1, 2))  # exact pair
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
#: entries, equal distances force priority ties.
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
                max_size=8,
            ),
            st.integers(1, 4),
        ),
        st.tuples(st.just("dequeue"), st.booleans(),
                  st.integers(0, 5), st.integers(0, 5)),
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
    block = cls(k, dmin, INF, CounterRegistry())
    single = cls(k, dmin, INF, CounterRegistry())
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
                    offer_block(est, candidates, uppers, count)
                else:
                    for candidate, upper in zip(candidates, uppers):
                        offer_block(est, [candidate], [upper], count)
            elif step[0] == "dequeue":
                make = node_pair if step[1] else obj_pair
                est.on_dequeue(make(step[2], step[3]))
            elif step[0] == "expand":
                if cls is SemiJoinEstimator:
                    est.on_expand_first(node_pair(step[1], 0))
            elif cls is SemiJoinEstimator and step[1]:
                est.on_report_first(("o", step[2]))
            else:
                est.on_report()
        assert _observe(block) == _observe(single)
    assert block.state() == single.state()
