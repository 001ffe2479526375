"""Unit tests for the performance-counter registry."""

import pickle

from repro.util.counters import Counter, CounterRegistry, CounterSnapshot


class TestCounter:
    def test_add_accumulates(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_peak_tracks_high_water(self):
        c = Counter("x")
        c.add(10)
        assert c.peak == 10
        c.reset()
        c.add(3)
        assert c.peak == 3

    def test_observe_only_updates_peak(self):
        c = Counter("gauge")
        c.observe(7)
        assert c.value == 0
        assert c.peak == 7
        c.observe(3)
        assert c.peak == 7


class TestRegistry:
    def test_auto_creates_counters(self):
        r = CounterRegistry()
        r.add("node_io")
        assert r.value("node_io") == 1

    def test_value_of_unknown_is_zero(self):
        r = CounterRegistry()
        assert r.value("nothing") == 0
        assert r.peak("nothing") == 0

    def test_reset_keeps_counters(self):
        r = CounterRegistry()
        r.add("a", 5)
        r.observe("b", 9)
        r.reset()
        assert r.value("a") == 0
        assert r.peak("b") == 0

    def test_snapshot_is_sorted(self):
        r = CounterRegistry()
        r.add("zeta")
        r.add("alpha", 2)
        assert list(r.snapshot()) == ["alpha", "zeta"]
        assert r.snapshot()["alpha"] == 2

    def test_snapshot_peaks(self):
        r = CounterRegistry()
        r.observe("queue_size", 42)
        assert r.snapshot_peaks()["queue_size"] == 42

    def test_iteration_yields_counter_objects(self):
        r = CounterRegistry()
        r.add("x")
        names = [name for name, counter in r]
        assert names == ["x"]

    def test_same_counter_object_returned(self):
        r = CounterRegistry()
        assert r.counter("a") is r.counter("a")


class TestMergeAndSnapshots:
    def test_full_snapshot_is_a_value_copy(self):
        r = CounterRegistry()
        r.add("x", 2)
        snap = r.full_snapshot()
        r.add("x", 5)
        assert snap.value("x") == 2
        assert r.value("x") == 7

    def test_snapshot_delta(self):
        r = CounterRegistry()
        r.add("x", 3)
        r.observe("g", 4)
        earlier = r.full_snapshot()
        r.add("x", 7)
        r.add("y", 1)
        r.observe("g", 9)
        delta = r.full_snapshot().delta_from(earlier)
        assert delta.value("x") == 7
        assert delta.value("y") == 1
        # peaks are not differenced: the later high-water mark stands
        assert delta.peak("g") == 9

    def test_snapshot_pickles(self):
        r = CounterRegistry()
        r.add("dist_calcs", 42)
        r.observe("queue_size", 17)
        snap = r.full_snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, CounterSnapshot)
        assert clone.value("dist_calcs") == 42
        assert clone.peak("queue_size") == 17


class TestMergeInvariants:
    """Regression test: a mid-run reset must never produce a negative
    delta."""

    def test_delta_after_midrun_reset_is_not_negative(self):
        worker = CounterRegistry()
        worker.add("dist_calcs", 100)
        earlier = worker.full_snapshot()
        worker.reset()
        worker.add("dist_calcs", 30)
        delta = worker.full_snapshot().delta_from(earlier)
        # Work since the reset, never the raw (negative) difference.
        assert delta.value("dist_calcs") == 30
        assert all(v > 0 for v in delta.values.values())
