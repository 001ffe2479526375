"""Process lanes: the pool backend of the shard router.

The router drives each :class:`TileJoinTask` as an *incremental
stream*: it asks for one batch of ``batch_size`` result pairs at a
time, and the worker keeps the underlying join's priority queue alive
between batches so each request costs only the incremental work (the
paper's fast-first property survives partitioning).

Two backends share one ``request`` / ``next_batch`` / ``close``
protocol:

``serial``
    Runs tasks inline in the caller, over the catalogs' own shard
    trees, charging the router's registry (no pool; suspendable):
    :class:`repro.shard.router.InlineShardExecutor`.
``process``
    One single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
    *lane* per worker slot, with tasks pinned to lanes round-robin
    (:class:`StreamExecutor`).  Pinning
    guarantees that the process holding a task's live join receives
    every follow-up batch request, so queue state is never rebuilt.
    A lane process that dies takes its tasks' queues with it: the
    join fails with :class:`~repro.errors.JoinError`.

There is no thread backend: under the GIL, with pages held as Python
objects, a thread pool can only do the serial work plus hand-offs.

Lane workers build private shard trees from the task's object lists,
charge a private registry, retain per-task state in a module-level
cache keyed by task id, report cumulative counters
with every batch (:class:`~repro.util.counters.CounterSnapshot`), and
drop all state when their lane shuts down.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.distance_join import JoinResult
from repro.errors import JoinError
from repro.shard.task import TaskState, TileJoinTask, load_objects
from repro.util.counters import CounterRegistry, CounterSnapshot
from repro.util.obs import ObsSnapshot, Observer
from repro.util.validation import require

#: Executor backend names.
SERIAL = "serial"
PROCESS = "process"
BACKENDS = (SERIAL, PROCESS)

#: Default result pairs per worker round-trip.
DEFAULT_BATCH_SIZE = 64

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
    done: bool
    counters: CounterSnapshot
    worker: str  # lane pid label, for per-worker breakdowns
    spans: Optional[ObsSnapshot] = None  # cumulative stage timings


# ----------------------------------------------------------------------
# worker-side functions (module level so the lanes can pickle
# references to them)
# ----------------------------------------------------------------------

#: Live task state held inside a lane between batch requests, with the
#: private registry and stage timer it charges.  A lane process serves
#: one join, so task ids are unique within it.
_WORKER_TASKS: Dict[int, Tuple[TaskState, CounterRegistry, Observer]] = {}


def _open_task(task: TileJoinTask, batch_size: int) -> TaskBatch:
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
    _WORKER_TASKS[task.task_id] = (state, counters, obs)
    return _advance_task(task.task_id, batch_size)


def _advance_task(task_id: int, batch_size: int) -> TaskBatch:
    """Pull the next batch from a task opened earlier in this lane."""
    state, counters, obs = _WORKER_TASKS[task_id]
    with obs.span("worker.join"):
        results = state.advance(batch_size)
    # Batch fill level rides in the snapshot's gauges, so per-worker
    # trace tracks can show how full round-trips ran.
    obs.gauge("worker.batch_pairs", float(len(results)))
    return TaskBatch(
        task_id=task_id,
        results=tuple(results),
        done=state.done,
        counters=counters.full_snapshot(),
        worker=f"pid-{os.getpid()}",
        spans=obs.snapshot(),
    )


# ----------------------------------------------------------------------
# parent-side lanes
# ----------------------------------------------------------------------


class StreamExecutor:
    """Drives the tasks of one join on process lanes as buffered
    streams.

    One single-process lane per worker slot, tasks pinned to lanes
    round-robin by id: pinning keeps each task's live priority queue in
    the process that built it.  Lane processes come from a fork server,
    not a fork of the caller: a lane forked while another lane's
    manager thread holds its executor's shutdown lock inherits that
    lock held, and hangs in the first garbage collection that runs the
    executor's weakref callback.

    The merge layer asks for a task's next batch with
    :meth:`request` (``task_for(task_id)`` describes a task the first
    time it is requested, so never-admitted tasks cost nothing);
    completed batches are collected with :meth:`next_batch`, which
    blocks up to ``timeout`` seconds.  At most one request per task is
    in flight -- lane task state is single-cursor, so overlapping
    requests for one task would race.  Any lane failure -- a task that
    raises, a dead lane, a timeout -- closes the executor and surfaces
    as :class:`~repro.errors.JoinError`.
    """

    def __init__(
        self,
        task_for: Callable[[int], TileJoinTask],
        workers: int,
        timeout: Optional[float] = None,
    ) -> None:
        require(workers >= 1, "workers must be at least 1")
        context = multiprocessing.get_context("forkserver")
        self._lanes = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for __ in range(workers)
        ]
        self._lane_of: Dict[int, ProcessPoolExecutor] = {}
        self._task_for = task_for
        self._timeout = timeout
        self._pending: Dict["Future[TaskBatch]", int] = {}
        self._closed = False

    def pending_for(self, task_id: int) -> bool:
        return task_id in self._pending.values()

    def _failed(self, task_id: int, exc: Exception) -> JoinError:
        self.close()
        return JoinError(
            f"shard lane failed on task {task_id}: {exc!r}"
        )

    def request(self, task_id: int, batch_size: int) -> None:
        """Ask for the next batch of ``task_id`` (no-op if in flight)."""
        if self._closed:
            raise JoinError("shard lane executor is closed")
        if self.pending_for(task_id):
            return
        lane = self._lane_of.get(task_id)
        if lane is None:
            work = (_open_task, self._task_for(task_id))
            lane = self._lanes[len(self._lane_of) % len(self._lanes)]
        else:
            work = (_advance_task, task_id)
        try:
            future = lane.submit(*work, batch_size)
        except Exception as exc:  # a dead lane: BrokenProcessPool
            raise self._failed(task_id, exc) from exc
        self._lane_of[task_id] = lane
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
                f"shard lanes timed out after "
                f"{self._timeout}s waiting for a worker batch"
            )
        future = done.pop()
        task_id = self._pending.pop(future)
        try:
            return future.result()
        except Exception as exc:  # the task raised, or its lane died
            raise self._failed(task_id, exc) from exc

    def close(self) -> None:
        """Cancel outstanding work and shut the lanes down."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        for lane in self._lanes:
            lane.shutdown(wait=False, cancel_futures=True)
