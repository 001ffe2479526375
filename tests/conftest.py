"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import random
import threading
import time

import pytest

from repro.geometry.metrics import EUCLIDEAN
from repro.geometry.point import Point
from repro.rtree.rstar import RStarTree
from repro.service import JoinService, ServiceClient
from repro.util.counters import CounterRegistry


def make_points(count: int, seed: int, extent: float = 100.0):
    """Deterministic uniform 2-d points."""
    rng = random.Random(seed)
    return [
        Point((rng.uniform(0, extent), rng.uniform(0, extent)))
        for __ in range(count)
    ]


def make_tree(points, max_entries: int = 8, counters=None) -> RStarTree:
    """An R*-tree over ``points`` built by repeated insertion."""
    tree = RStarTree(dim=2, max_entries=max_entries, counters=counters)
    for point in points:
        tree.insert(obj=point)
    return tree


def brute_force_pairs(points_a, points_b, metric=EUCLIDEAN):
    """All (distance, i, j) triples sorted by distance."""
    return sorted(
        (metric.distance(a, b), i, j)
        for i, a in enumerate(points_a)
        for j, b in enumerate(points_b)
    )


def brute_force_nn(points_a, points_b, metric=EUCLIDEAN):
    """oid -> (nn distance, nn index) for each point of A against B."""
    result = {}
    for i, a in enumerate(points_a):
        best = min(
            (metric.distance(a, b), j) for j, b in enumerate(points_b)
        )
        result[i] = best
    return result


@pytest.fixture
def counters() -> CounterRegistry:
    return CounterRegistry()


@pytest.fixture(scope="module")
def points_small_a():
    return make_points(60, seed=11)


@pytest.fixture(scope="module")
def points_small_b():
    return make_points(80, seed=22)


@pytest.fixture(scope="module")
def small_trees(points_small_a, points_small_b):
    """A pair of small trees plus their brute-force ground truth."""
    tree_a = make_tree(points_small_a)
    tree_b = make_tree(points_small_b)
    truth = brute_force_pairs(points_small_a, points_small_b)
    return tree_a, tree_b, truth


@pytest.fixture(scope="module")
def medium_trees():
    """A pair of medium trees with clustered + uniform mix."""
    rng = random.Random(99)
    points_a = make_points(150, seed=5)
    points_b = []
    for __ in range(200):
        if rng.random() < 0.5:
            cx, cy = rng.choice([(20, 20), (70, 60), (40, 90)])
            points_b.append(
                Point((rng.gauss(cx, 4.0), rng.gauss(cy, 4.0)))
            )
        else:
            points_b.append(
                Point((rng.uniform(0, 100), rng.uniform(0, 100)))
            )
    tree_a = make_tree(points_a)
    tree_b = make_tree(points_b)
    truth = brute_force_pairs(points_a, points_b)
    return tree_a, tree_b, points_a, points_b, truth


@pytest.fixture
def serve(tmp_path):
    """Factory for the HTTP tests: ``serve(db, **keywords)`` boots a
    :class:`JoinService` (the keywords are its own) on an ephemeral
    port with its loop in a thread and returns ``(service, client)``.
    The spool lives under ``tmp_path`` and the evictor stays quiet
    unless a keyword says otherwise; teardown stops what was started
    and ``serve.stop(service)`` stops one service (and its loop) now,
    returning the seconds ``JoinService.stop()`` took."""
    stops = {}

    def start(db, **keywords):
        keywords.setdefault("spool_dir", str(tmp_path / "spool"))
        keywords.setdefault("idle_evict_seconds", 1e9)
        service = JoinService(db, **keywords)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service.start(port=0))
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(10), "server failed to start"
        client = ServiceClient(port=service.port, timeout=30)

        def stop():
            began = time.perf_counter()
            asyncio.run_coroutine_threadsafe(service.stop(), loop).result(10)
            took = time.perf_counter() - began
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            assert not thread.is_alive()
            loop.close()
            client.close()
            return took

        stops[service] = stop
        return service, client

    start.stop = lambda service: stops.pop(service)()
    yield start
    for stop in stops.values():
        stop()
