"""Pool execution backends for the partitioned distance join.

The router drives each :class:`TileJoinTask` as an *incremental
stream*: it asks for one batch of ``batch_size`` result pairs at a
time, and the worker keeps the underlying join's priority queue alive
between batches so each request costs only the incremental work (the
paper's fast-first property survives parallelisation).

Three backends share one ``request`` / ``next_batch`` / ``close``
protocol:

``serial``
    Runs tasks inline in the caller, over the catalogs' own shard
    trees, charging the router's registry (no pool; suspendable):
    :class:`repro.shard.router.InlineShardExecutor`.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Threads share
    the parent's memory, so tasks need not pickle; best for I/O-bound
    buffered trees and for small joins where process start-up would
    dominate.
``process``
    One single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
    *lane* per worker slot, with tasks pinned to lanes round-robin.
    Pinning guarantees that the process holding a task's live join
    receives every follow-up batch request, so queue state is never
    rebuilt.  A lane process that dies takes its tasks' queues with
    it: the join fails with :class:`~repro.errors.JoinError`.

Pool workers build private shard trees from the task's object lists,
charge a private registry, retain per-task state in a module-level
cache keyed by a parent-unique run token, report cumulative counters
with every batch (:class:`~repro.util.counters.CounterSnapshot`), and
drop all state on ``close``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.distance_join import JoinResult
from repro.errors import JoinError
from repro.parallel.plan import TaskState, TileJoinTask, load_objects
from repro.util.counters import CounterRegistry, CounterSnapshot
from repro.util.obs import ObsSnapshot, Observer
from repro.util.validation import require

#: Executor backend names.
SERIAL = "serial"
THREAD = "thread"
PROCESS = "process"
BACKENDS = (SERIAL, THREAD, PROCESS)

#: Default result pairs per worker round-trip.
DEFAULT_BATCH_SIZE = 64

_RUN_SEQ = itertools.count()


def default_workers() -> int:
    """Worker count used when the caller does not choose one."""
    return max(1, min(8, os.cpu_count() or 1))


class TaskBatch(NamedTuple):
    """One task round-trip: a chunk of ordered results plus status.

    ``counters`` and ``spans`` are *cumulative* for the task; the
    parent merges per-batch deltas (``delta_from``) so nothing double
    counts across round-trips.
    """

    task_id: int
    results: Tuple[JoinResult, ...]
    produced: int  # cumulative results produced by this task so far
    done: bool
    counters: CounterSnapshot
    worker: str  # pid/thread label, for per-worker breakdowns
    spans: Optional[ObsSnapshot] = None  # cumulative stage timings


# ----------------------------------------------------------------------
# worker-side functions (module level so the process backend can pickle
# references to them; the thread backend calls them directly)
# ----------------------------------------------------------------------

#: Live task state held inside a worker between batch requests, with
#: the private registry and stage timer it charges.
_WORKER_TASKS: Dict[
    Tuple[str, int], Tuple[TaskState, CounterRegistry, Observer]
] = {}


def _worker_label() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return f"pid-{os.getpid()}/{thread.name}"


def _open_task(
    run_token: str, task: TileJoinTask, batch_size: int
) -> TaskBatch:
    """Build a task's shard trees and join, and pull the first batch."""
    counters = CounterRegistry()
    # Stage timings ship with every batch next to the counter
    # snapshot.  The cost is two perf_counter reads per batch, so the
    # worker always records; the parent decides what to keep.
    obs = Observer(max_events=0)
    with obs.span("worker.build"):
        state = TaskState(
            task,
            load_objects(task.objects1, task.max_entries, counters),
            load_objects(task.objects2, task.max_entries, counters),
            counters,
        )
    _WORKER_TASKS[(run_token, task.task_id)] = (state, counters, obs)
    return _advance_task(run_token, task.task_id, batch_size)


def _advance_task(
    run_token: str, task_id: int, batch_size: int
) -> TaskBatch:
    """Pull the next batch from a task opened earlier in this worker."""
    state, counters, obs = _WORKER_TASKS[(run_token, task_id)]
    with obs.span("worker.join"):
        results = state.advance(batch_size)
    # Batch fill level rides in the snapshot's gauges, so per-worker
    # trace tracks can show how full round-trips ran.
    obs.gauge("worker.batch_pairs", float(len(results)))
    return TaskBatch(
        task_id=task_id,
        results=tuple(results),
        produced=state.emitted,
        done=state.done,
        counters=counters.full_snapshot(),
        worker=_worker_label(),
        spans=obs.snapshot(),
    )


def _close_run(run_token: str) -> int:
    """Drop every task state of one run; returns how many were live."""
    keys = [key for key in _WORKER_TASKS if key[0] == run_token]
    for key in keys:
        del _WORKER_TASKS[key]
    return len(keys)


# ----------------------------------------------------------------------
# parent-side pools
# ----------------------------------------------------------------------


class ThreadPool:
    """A shared thread pool; task state lives in this process."""

    def __init__(self, run_token: str, workers: int) -> None:
        self._run_token = run_token
        self._pool = ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-join",
        )

    def submit_open(
        self, task: TileJoinTask, batch_size: int
    ) -> "Future[TaskBatch]":
        return self._pool.submit(
            _open_task, self._run_token, task, batch_size
        )

    def submit_advance(
        self, task_id: int, batch_size: int
    ) -> "Future[TaskBatch]":
        return self._pool.submit(
            _advance_task, self._run_token, task_id, batch_size
        )

    def shutdown(self, cancel: bool = True) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)
        _close_run(self._run_token)


class ProcessLanes:
    """One single-process lane per worker slot, tasks pinned by id.

    Pinning keeps each task's live priority queue in the process that
    built it.  Lane processes come from a fork server, not a fork of
    the caller: a lane forked while another lane's manager thread holds
    its executor's shutdown lock inherits that lock held, and hangs in
    the first garbage collection that runs the executor's weakref
    callback.
    """

    def __init__(self, run_token: str, workers: int) -> None:
        self._run_token = run_token
        context = multiprocessing.get_context("forkserver")
        self._lanes = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for __ in range(workers)
        ]
        self._lane_of: Dict[int, int] = {}
        self._next_lane = 0

    def _lane(self, task_id: int) -> ProcessPoolExecutor:
        lane = self._lane_of.get(task_id)
        if lane is None:
            lane = self._next_lane
            self._lane_of[task_id] = lane
            self._next_lane = (self._next_lane + 1) % len(self._lanes)
        return self._lanes[lane]

    def submit_open(
        self, task: TileJoinTask, batch_size: int
    ) -> "Future[TaskBatch]":
        return self._lane(task.task_id).submit(
            _open_task, self._run_token, task, batch_size
        )

    def submit_advance(
        self, task_id: int, batch_size: int
    ) -> "Future[TaskBatch]":
        return self._lane(task_id).submit(
            _advance_task, self._run_token, task_id, batch_size
        )

    def shutdown(self, cancel: bool = True) -> None:
        for lane in self._lanes:
            lane.shutdown(wait=False, cancel_futures=cancel)


def make_pool(backend: str, workers: int):
    """Build the ``thread`` or ``process`` pool."""
    require(backend in (THREAD, PROCESS),
            f"pool backend must be one of {(THREAD, PROCESS)}")
    require(workers >= 1, "workers must be at least 1")
    run_token = f"{os.getpid()}-{next(_RUN_SEQ)}"
    if backend == THREAD:
        return ThreadPool(run_token, workers)
    return ProcessLanes(run_token, workers)


class StreamExecutor:
    """Drives the tasks of one pool-backed join as buffered streams.

    The merge layer asks for a task's next batch with
    :meth:`request` (``task_for(task_id)`` describes a task the first
    time it is requested, so never-admitted tasks cost nothing);
    completed batches are collected with :meth:`next_batch`, which
    blocks up to ``timeout`` seconds.  At most one request per task is
    in flight -- worker task state is single-cursor, so overlapping
    requests for one task would race.  Any pool failure -- a task that
    raises, a dead lane, a timeout -- closes the executor and surfaces
    as :class:`~repro.errors.JoinError`.
    """

    def __init__(
        self,
        task_for: Callable[[int], TileJoinTask],
        backend: str,
        workers: int,
        timeout: Optional[float] = None,
    ) -> None:
        self._task_for = task_for
        self._pool = make_pool(backend, workers)
        self._timeout = timeout
        self._opened: set = set()
        self._pending: Dict["Future[TaskBatch]", int] = {}
        self._closed = False

    def pending_for(self, task_id: int) -> bool:
        return task_id in self._pending.values()

    def _failed(self, task_id: int, exc: Exception) -> JoinError:
        self.close()
        return JoinError(
            f"parallel join worker failed on task {task_id}: {exc!r}"
        )

    def request(self, task_id: int, batch_size: int) -> None:
        """Ask for the next batch of ``task_id`` (no-op if in flight)."""
        if self._closed:
            raise JoinError("parallel join executor is closed")
        if self.pending_for(task_id):
            return
        opened = task_id in self._opened
        task = None if opened else self._task_for(task_id)
        try:
            if opened:
                future = self._pool.submit_advance(task_id, batch_size)
            else:
                future = self._pool.submit_open(task, batch_size)
        except Exception as exc:  # a dead lane: BrokenProcessPool
            raise self._failed(task_id, exc) from exc
        self._opened.add(task_id)
        self._pending[future] = task_id

    def next_batch(self, batch_size: int) -> TaskBatch:
        """Wait for any in-flight request to complete and return it."""
        if not self._pending:
            raise JoinError(
                "next_batch called with no request in flight"
            )
        done, __ = wait(
            self._pending, timeout=self._timeout,
            return_when=FIRST_COMPLETED,
        )
        if not done:
            self.close()
            raise JoinError(
                f"parallel join timed out after "
                f"{self._timeout}s waiting for a worker batch"
            )
        future = done.pop()
        task_id = self._pending.pop(future)
        try:
            return future.result()
        except Exception as exc:  # the task raised, or its lane died
            raise self._failed(task_id, exc) from exc

    def close(self) -> None:
        """Cancel outstanding work and release the pool."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._pool.shutdown(cancel=True)
