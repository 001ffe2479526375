"""Unit + property tests for the pairing heap, binary heap, and the
addressable max-queue (Q_M)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.heap import AddressableMaxQueue, BinaryHeap, PairingHeap

HEAPS = [PairingHeap, BinaryHeap]


@pytest.mark.parametrize("heap_class", HEAPS)
class TestHeapBasics:
    def test_empty(self, heap_class):
        h = heap_class()
        assert len(h) == 0
        assert not h
        with pytest.raises(IndexError):
            h.pop()
        with pytest.raises(IndexError):
            h.peek()

    def test_push_pop_single(self, heap_class):
        h = heap_class()
        h.push(5, "five")
        assert h.peek() == (5, "five")
        assert h.pop() == (5, "five")
        assert not h

    def test_sorted_output(self, heap_class):
        h = heap_class()
        values = [5, 3, 8, 1, 9, 2, 7]
        for v in values:
            h.push(v, str(v))
        out = [h.pop()[0] for __ in range(len(values))]
        assert out == sorted(values)

    def test_tuple_keys(self, heap_class):
        h = heap_class()
        h.push((1.0, 2, 0), "a")
        h.push((1.0, 1, 5), "b")
        h.push((0.5, 9, 9), "c")
        assert h.pop()[1] == "c"
        assert h.pop()[1] == "b"

    def test_interleaved_push_pop(self, heap_class):
        h = heap_class()
        rng = random.Random(0)
        model = []
        for __ in range(500):
            if model and rng.random() < 0.45:
                expected = min(model)
                model.remove(expected)
                assert h.pop()[0] == expected
            else:
                v = rng.randint(0, 1000)
                model.append(v)
                h.push(v, None)
        assert len(h) == len(model)

    def test_clear(self, heap_class):
        h = heap_class()
        h.push(1, "a")
        h.clear()
        assert len(h) == 0


class TestPairingHeapMeld:
    def test_meld_combines(self):
        a, b = PairingHeap(), PairingHeap()
        for v in (5, 1):
            a.push(v, None)
        for v in (3, 0):
            b.push(v, None)
        a.meld(b)
        assert len(a) == 4
        assert len(b) == 0
        assert [a.pop()[0] for __ in range(4)] == [0, 1, 3, 5]

    def test_long_sibling_chain_no_recursion_error(self):
        # Pushing ascending keys creates a long child chain under the
        # root; popping must not blow the recursion limit.
        h = PairingHeap()
        for v in range(50_000, 0, -1):
            h.push(v, None)
        assert h.pop()[0] == 1
        assert h.pop()[0] == 2


@given(st.lists(st.integers(-10_000, 10_000)))
def test_property_heapsort(values):
    """Property: pushing then popping everything sorts."""
    for heap_class in HEAPS:
        h = heap_class()
        for v in values:
            h.push(v, None)
        out = [h.pop()[0] for __ in range(len(values))]
        assert out == sorted(values)


class TestAddressableMaxQueue:
    def test_pop_max_order(self):
        q = AddressableMaxQueue()
        q.insert("a", 3.0, "x")
        q.insert("b", 7.0, "y")
        q.insert("c", 5.0, "z")
        assert q.pop_max()[0] == "b"
        assert q.pop_max()[0] == "c"
        assert q.pop_max()[0] == "a"

    def test_delete_by_key(self):
        q = AddressableMaxQueue()
        q.insert("a", 3.0, None)
        q.insert("b", 7.0, None)
        assert q.delete("b") == (7.0, None)  # the entry it removed
        assert q.delete("b") is None
        assert q.pop_max()[0] == "a"
        assert not q

    def test_replace_updates_priority(self):
        q = AddressableMaxQueue()
        q.insert("a", 3.0, 1)
        q.insert("a", 9.0, 2)
        assert len(q) == 1
        key, priority, value = q.pop_max()
        assert (key, priority, value) == ("a", 9.0, 2)

    def test_replace_downward(self):
        q = AddressableMaxQueue()
        q.insert("a", 9.0, 1)
        q.insert("b", 5.0, 2)
        q.insert("a", 1.0, 3)
        assert q.pop_max()[0] == "b"
        assert q.pop_max() == ("a", 1.0, 3)

    def test_get_and_contains(self):
        q = AddressableMaxQueue()
        q.insert("k", 2.5, "v")
        assert "k" in q
        assert q.get("k") == (2.5, "v")
        assert q.get("missing") is None

    def test_empty_errors(self):
        q = AddressableMaxQueue()
        with pytest.raises(IndexError):
            q.peek_max()

    def test_items_view(self):
        q = AddressableMaxQueue()
        q.insert("a", 1.0, "x")
        assert dict(q.items()) == {"a": (1.0, "x")}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ins", "del", "pop"]),
                st.integers(0, 20),
                st.floats(0, 100),
            ),
            max_size=200,
        )
    )
    def test_property_matches_model(self, ops):
        """Property: lazy deletion behaves like a dict + max scan."""
        q = AddressableMaxQueue()
        model = {}
        for op, key, priority in ops:
            if op == "ins":
                q.insert(key, priority, None)
                model[key] = priority
            elif op == "del":
                removed = q.delete(key)
                assert removed == (
                    (model[key], None) if key in model else None
                )
                model.pop(key, None)
            else:
                if model:
                    got = q.pop_max()
                    expected_priority = max(model.values())
                    assert got[1] == expected_priority
                    assert model[got[0]] == expected_priority
                    del model[got[0]]
                else:
                    with pytest.raises(IndexError):
                        q.pop_max()
            assert len(q) == len(model)
