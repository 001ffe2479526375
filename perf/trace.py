"""Per-layer metrics: boundary wrappers, the entry-point ladder, ratios.

``--trace 1`` is its own run; end-to-end numbers never come from it.
Two outside-in mechanisms, both confined to this file:

* **Boundary wrappers.**  ``Tracer.install`` replaces class and module
  attributes of ``repro`` (including from-imported references) with
  wrappers that record, per span name, call count, busy time, the
  parent span and self time (busy minus the busy time of wrapped
  callees), in memory.  Nothing under ``src/`` is edited and the
  wrappers are removed again before the run ends.
* **Ladder.**  The same top-K query entered one layer higher each time
  -- join iterator, physical plan, scheduler, HTTP client -- so each
  rung's self time is its wall minus the rung below, and the parts add
  to the whole by construction.

Exact counts come from ``CounterRegistry.snapshot()``.  The run makes
two untraced replays and one traced replay: a counter that repeats
exactly between the untraced replays must have the same value under
the wrappers, and so must the row checksum.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.spec import JoinSpec
from repro.service import JoinScheduler, QuerySource, dumps, loads
from repro.shard.cache import clear_caches
from repro.util.obs import Observer

from perf import measure, workloads

#: In place of ``units``: the call returns an iterator, and the work to
#: time happens in its ``next()``.
ITERATOR = "iterator"

#: Span name -> what it wraps; ``owner`` is "module:Class" or "module".
#: ``units`` turns (args, result) into a work count (rows, items).
TARGETS: List[Tuple[str, str, str, Any]] = [
    ("kernels.batch", "repro.kernels.batch:BatchKernels", "mindist",
     lambda a, r: len(r)),
    ("kernels.batch", "repro.kernels.batch:BatchKernels", "maxdist",
     lambda a, r: len(r)),
    ("kernels.batch", "repro.kernels.batch:BatchKernels", "minmaxdist",
     lambda a, r: len(r)),
    ("kernels.batch", "repro.kernels.batch:BatchKernels", "point_distance",
     lambda a, r: len(r)),
    ("kernels.soa.lookup", "repro.rtree.node:Node", "entries_soa", None),
    ("kernels.soa.build", "repro.kernels", "build_entry_soa", None),
    ("rtree.read_node", "repro.rtree.base:RTreeBase", "read_node", None),
    ("rtree.insert", "repro.rtree.base:RTreeBase", "insert", None),
    ("rtree.delete", "repro.rtree.base:RTreeBase", "delete", None),
    ("core.join", "repro.core.distance_join:IncrementalDistanceJoin",
     "__init__", None),
    ("core.join", "repro.core.distance_join:IncrementalDistanceJoin",
     "__next__", None),
    ("core.join.expand", "repro.core.distance_join:IncrementalDistanceJoin",
     "_process_pair", None),
    ("core.estimate", "repro.core.estimate:JoinEstimator", "offer", None),
    ("core.estimate", "repro.core.estimate:JoinEstimator", "on_dequeue",
     None),
    ("core.estimate", "repro.core.estimate:SemiJoinEstimator", "offer",
     None),
    ("core.estimate", "repro.core.estimate:SemiJoinEstimator",
     "on_dequeue", None),
    ("core.estimate", "repro.core.estimate:_EstimatorBase", "on_report",
     None),
    ("core.pqueue.push", "repro.core.pqueue:MemoryPairQueue", "push",
     lambda a, r: 1),
    ("core.pqueue.push", "repro.core.pqueue:MemoryPairQueue", "push_many",
     lambda a, r: len(a[1])),
    ("core.pqueue.pop", "repro.core.pqueue:MemoryPairQueue", "pop", None),
    ("core.pqueue.push", "repro.core.pqueue:HybridPairQueue", "push",
     lambda a, r: 1),
    ("core.pqueue.pop", "repro.core.pqueue:HybridPairQueue", "pop", None),
    ("core.pqueue.spill", "repro.core.pqueue:HybridPairQueue",
     "_push_disk", None),
    ("core.pqueue.spill", "repro.core.pqueue:HybridPairQueue", "_refill",
     None),
    ("query.parse", "repro.query.parser", "parse", None),
    ("query.plan", "repro.query.physical", "build_physical_plan", None),
    ("query.operators", "repro.query.physical:PhysicalPlan", "rows",
     ITERATOR),
    ("query.prefilter", "repro.query.physical", "materialize_filtered",
     None),
    ("shard.catalog.build", "repro.shard.catalog:ShardCatalog", "build",
     None),
    ("shard.route.plan", "repro.shard.router", "plan_shard_pairs", None),
    ("shard.merge", "repro.shard.router:ShardRouterJoin", "__init__", None),
    ("shard.merge", "repro.shard.router:ShardRouterJoin", "__next__", None),
    ("service.scheduler", "repro.service.scheduler:JoinScheduler",
     "admit", None),
    ("service.scheduler", "repro.service.scheduler:JoinScheduler",
     "request", None),
    ("service.scheduler", "repro.service.scheduler:JoinScheduler",
     "take", None),
    ("service.scheduler.quantum", "repro.service.scheduler:JoinScheduler",
     "run_quantum", None),
    ("service.http.dispatch", "repro.service.server:JoinService",
     "_dispatch", None),
    ("service.http.rows_to_json", "repro.service.server", "row_to_json",
     None),
    ("service.client.next", "repro.service.client:ServiceClient",
     "next", None),
    ("service.client.request", "repro.service.client:ServiceClient",
     "_request", None),
    ("live.update", "repro.service.server:JoinService", "_post_update",
     None),
    ("live.fanout", "repro.service.live:LiveSource", "notify_insert", None),
    ("live.fanout", "repro.service.live:LiveSource", "notify_delete", None),
    ("live.repair", "repro.live.standing:StandingJoin", "_insert", None),
    ("live.repair", "repro.live.standing:StandingJoin", "_delete", None),
    ("live.probe", "repro.live.probe", "probe_partner", None),
    ("live.refill", "repro.live.standing:StandingJoin", "_rescan", None),
]

#: Counters that depend on the wall clock, so never repeat by right: a
#: scheduler quantum ends after 50 ms as well as after 64 pairs.
CLOCK_DRIVEN = {"service_quanta"}

#: ``json`` as the server and the client module see it: (module, span of
#: ``dumps``, span of ``loads``).
JSON_SHIMS = [
    ("repro.service.server", "service.http.encode", "service.http.parse"),
    ("repro.service.client", "service.client.encode",
     "service.client.decode"),
]


class Span:
    """Totals of one span name."""

    __slots__ = ("calls", "busy", "self_time", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.units = 0

    def per_call_ms(self) -> float:
        return self.busy * 1e3 / self.calls if self.calls else 0.0


class Tracer:
    """Installs and removes the wrappers and holds what they record."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        #: (parent span, child span) -> child busy time under that parent
        self.edges: Dict[Tuple[str, str], float] = {}
        #: thread name -> busy time of its outermost spans
        self.top_level: Dict[str, float] = {}
        self.frozen: Optional["Tracer"] = None
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def reset(self) -> None:
        for span in self.spans.values():
            span.calls = span.units = 0
            span.busy = span.self_time = 0.0
        self.edges.clear()
        self.top_level.clear()

    def freeze(self) -> None:
        """Keep the totals as they are now in ``frozen``; recording
        goes on, but reports read the frozen copy."""
        self.frozen = Tracer()
        for name, span in self.spans.items():
            copy = self.frozen.span(name)
            copy.calls, copy.units = span.calls, span.units
            copy.busy, copy.self_time = span.busy, span.self_time
        self.frozen.edges = dict(self.edges)
        self.frozen.top_level = dict(self.top_level)

    # -- recording ----------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [name, 0.0, time.perf_counter()]
        stack.append(frame)
        return stack

    def _exit(self, stack: list, span: Span, units: int) -> None:
        name, child_time, started = stack.pop()
        elapsed = time.perf_counter() - started
        span.calls += 1
        span.units += units
        span.busy += elapsed
        span.self_time += elapsed - child_time
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            edge = (parent[0], name)
            self.edges[edge] = self.edges.get(edge, 0.0) + elapsed
        else:
            thread = threading.current_thread().name
            self.top_level[thread] = (
                self.top_level.get(thread, 0.0) + elapsed
            )

    def wrap(
        self, original: Callable, name: str,
        units: Any = None,
    ) -> Callable:
        span = self.span(name)
        enter, leave = self._enter, self._exit

        if inspect.iscoroutinefunction(original):
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                stack = enter(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    leave(stack, span, 0)
            return traced_async

        if units is ITERATOR:
            def traced_iter(*args: Any, **kwargs: Any) -> Any:
                stack = enter(name)
                try:
                    inner = iter(original(*args, **kwargs))
                finally:
                    leave(stack, span, 0)

                def steps() -> Any:
                    while True:
                        stack = enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            leave(stack, span, 0)
                        yield item
                return steps()
            return traced_iter

        if units is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                stack = enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    leave(stack, span, 0)
            return traced

        def traced_units(*args: Any, **kwargs: Any) -> Any:
            stack = enter(name)
            count = 0
            try:
                result = original(*args, **kwargs)
                count = units(args, result)
                return result
            finally:
                leave(stack, span, count)
        return traced_units

    # -- installation --------------------------------------------------

    def _set(self, holder: Any, attr: str, value: Any) -> None:
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def install(self) -> None:
        for name, owner, attr, units in TARGETS:
            module_name, __, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                holder = getattr(module, class_name)
                original = vars(holder)[attr]
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(
                        self.wrap(original.__func__, name, units)
                    )
                else:
                    wrapped = self.wrap(original, name, units)
                self._set(holder, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, units)
            # A function is also reachable through every module that
            # from-imported it.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro"):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapped)
        for module_name, dumps_span, loads_span in JSON_SHIMS:
            module = importlib.import_module(module_name)
            self._set(module, "json", types.SimpleNamespace(
                dumps=self.wrap(json.dumps, dumps_span),
                loads=self.wrap(json.loads, loads_span),
            ))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


# ----------------------------------------------------------------------
# measurements that need no wrappers
# ----------------------------------------------------------------------


def yardstick_ms() -> float:
    """A fixed pure-Python and numpy loop: how fast is the host now?"""
    import numpy

    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    values = numpy.arange(200_000, dtype=numpy.float64)
    for __ in range(10):
        values = numpy.sqrt(values * values + 1.0)
    return (time.perf_counter() - started) * 1e3


def best_wall(action: Callable[[], Any], times: int = 3) -> float:
    walls = []
    for __ in range(times):
        gc.collect()
        started = time.perf_counter()
        action()
        walls.append(time.perf_counter() - started)
    return min(walls)


LADDER_PAGE = 25


def page_through_scheduler(db: Any, sql: str, telemetry: bool) -> None:
    scheduler = JoinScheduler(counters=db.counters, telemetry=telemetry)
    session = scheduler.admit(QuerySource(db, sql))
    done = False
    while not done:
        __, done = scheduler.fetch(session.id, LADDER_PAGE)


def ladder(served: Any, sql: str, rows: int) -> Dict[str, float]:
    """One query, entered one layer higher on each rung (seconds)."""
    db = served.db
    water, roads = db.relation("water"), db.relation("roads")

    def through_client() -> None:
        for __ in served.client.pages(sql, k=LADDER_PAGE):
            pass

    return {
        "core.join": best_wall(lambda: list(IncrementalDistanceJoin(
            water, roads, JoinSpec(max_pairs=rows), counters=db.counters,
        ))),
        "query.plan": best_wall(
            lambda: list(db.physical_plan(sql).rows())
        ),
        "service.scheduler": best_wall(
            lambda: page_through_scheduler(db, sql, telemetry=True)
        ),
        "service.client": best_wall(through_client),
    }


def cursor_costs(db: Any, sql: str) -> Tuple[float, float, int]:
    """Suspend and resume one part-read session through pickled
    bytes, as eviction does: (suspend s, resume s, cursor bytes)."""
    scheduler = JoinScheduler(counters=db.counters, telemetry=True)
    session = scheduler.admit(QuerySource(db, sql))
    scheduler.fetch(session.id, 4 * LADDER_PAGE)
    started = time.perf_counter()
    blob = dumps(session.suspend_to_state())
    suspended = time.perf_counter()
    session.resume_from_state(loads(blob))
    resumed = time.perf_counter()
    scheduler.fetch(session.id, LADDER_PAGE)
    return suspended - started, resumed - suspended, len(blob)


def cold_shard_query(db: Any, sql: str) -> float:
    """The ``SHARDS`` statement with no catalog and no cached route or
    result: wall seconds."""
    clear_caches()
    for name in db.relations():
        db.relation(name)._shard_catalogs = None
    started = time.perf_counter()
    for __ in db.physical_plan(sql).rows():
        pass
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

#: Every per-layer metric: name -> (unit, better).  BENCHMARK.json's
#: ``per_layer`` list is this table; perf/README.md says which
#: end-to-end metric each should move, and on which workload.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "kernels.batch.calls": ("count", "lower"),
    "kernels.batch.busy_ms": ("ms", "lower"),
    "kernels.batch.rows_per_call": ("rows", "higher"),
    "kernels.soa.builds": ("count", "lower"),
    "kernels.soa.build_ms": ("ms", "lower"),
    "kernels.soa.hit_rate": ("ratio", "higher"),
    "rtree.read_node.calls": ("count", "lower"),
    "rtree.read_node.busy_ms": ("ms", "lower"),
    "storage.buffer.hit_rate": ("ratio", "higher"),
    "storage.node_io_per_kpair": ("1/kpair", "lower"),
    "core.join.self_ms": ("ms", "lower"),
    "core.join.expansions": ("count", "lower"),
    "core.join.dist_calcs_per_pair": ("1/pair", "lower"),
    "core.join.bound_calcs_per_pair": ("1/pair", "lower"),
    "core.estimate.busy_ms": ("ms", "lower"),
    "core.pqueue.push_calls": ("count", "lower"),
    "core.pqueue.push_ms": ("ms", "lower"),
    "core.pqueue.pop_calls": ("count", "lower"),
    "core.pqueue.pop_ms": ("ms", "lower"),
    "core.pqueue.peak_size": ("count", "lower"),
    "core.pqueue.inserts_per_pair": ("1/pair", "lower"),
    "core.pqueue.disk_writes": ("count", "lower"),
    "core.pqueue.disk_reads": ("count", "lower"),
    "core.pqueue.spill_ms": ("ms", "lower"),
    "query.parse_plan_ms": ("ms", "lower"),
    "query.plan_overhead_ms_per_kpair": ("ms/kpair", "lower"),
    "query.operators.self_ms": ("ms", "lower"),
    "query.prefilter.build_ms": ("ms", "lower"),
    "shard.catalog.build_ms": ("ms", "lower"),
    "shard.route.plan_ms": ("ms", "lower"),
    "shard.pairs_routed": ("count", "lower"),
    "shard.pairs_pruned": ("count", "higher"),
    "shard.merge.self_ms": ("ms", "lower"),
    "shard.cache.hit_rate": ("ratio", "higher"),
    "shard.cold_query_ms": ("ms", "lower"),
    "parallel.join_ms": ("ms", "lower"),
    "service.scheduler.overhead_ms_per_kpair": ("ms/kpair", "lower"),
    "service.scheduler.quanta_per_page": ("1/page", "lower"),
    "service.cursor.suspend_ms": ("ms", "lower"),
    "service.cursor.resume_ms": ("ms", "lower"),
    "service.cursor.bytes": ("bytes", "lower"),
    "service.http.overhead_ms_per_page": ("ms/page", "lower"),
    "service.http.encode_ms_per_page": ("ms/page", "lower"),
    "service.http.roundtrip_floor_ms": ("ms", "lower"),
    "service.client.decode_ms_per_page": ("ms/page", "lower"),
    "live.update.repair_ms": ("ms", "lower"),
    "live.probe.pairs_per_insert": ("1/insert", "lower"),
    "live.refills": ("count", "lower"),
    "live.fanout.observe_ms": ("ms", "lower"),
    "live.deltas_per_update": ("1/update", "lower"),
    "live.updates_per_s": ("1/s", "higher"),
    "live.adhoc_query_ms": ("ms", "lower"),
    "rtree.insert_ms": ("ms", "lower"),
    "rtree.delete_ms": ("ms", "lower"),
    "util.obs.enabled_overhead_ratio": ("ratio", "lower"),
    "util.telemetry.overhead_ratio": ("ratio", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "noise.yardstick_ms": ("ms", "lower"),
    "noise.repeat_spread": ("ratio", "lower"),
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Observed:
    """One replay with the counter increments it caused."""

    def __init__(self, run: Any, tracer: Optional[Tracer] = None) -> None:
        counters = run.workload.counters
        before = dict(counters.snapshot())
        self.counters: Dict[str, int] = {}

        def timed_part_done() -> None:
            # Checking the rows runs queries of its own; keep them out
            # of the counters and the spans.
            self.counters = {
                name: total - before.get(name, 0)
                for name, total in counters.snapshot().items()
            }
            if tracer is not None:
                tracer.freeze()

        self.replay = run.replay(timed_part_done)
        self.wall = sum(self.replay.steps)


def layer_metrics(
    tracer: Tracer, traced: Observed, plain: Observed, counters: Any
) -> Dict[str, float]:
    """The metrics one traced replay yields on every workload."""
    span = tracer.span
    count = traced.counters.get
    replay = traced.replay
    rows = replay.rows
    pages = span("service.client.next").calls
    updates = span("live.update").calls
    plain_ops = [
        sum(plain.replay.steps[i] for i in op) for op in plain.replay.ops
    ]
    return {
        "kernels.batch.calls": span("kernels.batch").calls,
        "kernels.batch.busy_ms": span("kernels.batch").busy * 1e3,
        "kernels.batch.rows_per_call": ratio(
            span("kernels.batch").units, span("kernels.batch").calls),
        "kernels.soa.builds": span("kernels.soa.build").calls,
        "kernels.soa.build_ms": span("kernels.soa.build").busy * 1e3,
        "kernels.soa.hit_rate": 1.0 - ratio(
            span("kernels.soa.build").calls,
            span("kernels.soa.lookup").calls,
        ) if span("kernels.soa.lookup").calls else 0.0,
        "rtree.read_node.calls": span("rtree.read_node").calls,
        "rtree.read_node.busy_ms": span("rtree.read_node").busy * 1e3,
        "storage.buffer.hit_rate": ratio(
            count("buffer_hits", 0),
            count("buffer_hits", 0) + count("buffer_misses", 0),
        ),
        "storage.node_io_per_kpair": ratio(
            count("node_io", 0) * 1e3, rows),
        "core.join.self_ms": (
            span("core.join").self_time
            + span("core.join.expand").self_time
        ) * 1e3,
        "core.join.expansions": span("core.join.expand").calls,
        "core.join.dist_calcs_per_pair": ratio(
            count("dist_calcs", 0), rows),
        "core.join.bound_calcs_per_pair": ratio(
            count("bound_calcs", 0), rows),
        "core.estimate.busy_ms": span("core.estimate").busy * 1e3,
        "core.pqueue.push_calls": span("core.pqueue.push").units,
        "core.pqueue.push_ms": span("core.pqueue.push").busy * 1e3,
        "core.pqueue.pop_calls": span("core.pqueue.pop").calls,
        "core.pqueue.pop_ms": span("core.pqueue.pop").busy * 1e3,
        "core.pqueue.peak_size": counters.peak("queue_size"),
        "core.pqueue.inserts_per_pair": ratio(
            count("queue_inserts", 0), rows),
        "core.pqueue.disk_writes": count("pq_disk_writes", 0),
        "core.pqueue.disk_reads": count("pq_disk_reads", 0),
        "core.pqueue.spill_ms": span("core.pqueue.spill").busy * 1e3,
        "query.parse_plan_ms": ratio(
            (span("query.parse").busy + span("query.plan").busy) * 1e3,
            span("query.plan").calls,
        ),
        "query.operators.self_ms": span("query.operators").self_time * 1e3,
        "query.prefilter.build_ms": span("query.prefilter").busy * 1e3,
        "shard.cache.hit_rate": ratio(
            count("shard_cache_hits", 0),
            count("shard_cache_hits", 0) + count("shard_cache_misses", 0),
        ),
        "service.scheduler.quanta_per_page": ratio(
            span("service.scheduler.quantum").calls, pages),
        "service.http.encode_ms_per_page": ratio(
            span("service.http.encode").busy * 1e3, pages),
        "service.client.decode_ms_per_page": ratio(
            span("service.client.decode").busy * 1e3, pages),
        "live.update.repair_ms": ratio(
            span("live.repair").busy * 1e3, updates),
        "live.probe.pairs_per_insert": ratio(
            count("live_probe_pairs", 0), span("rtree.insert").calls
        ) if updates else 0.0,
        "live.refills": count("live_refills", 0),
        "live.fanout.observe_ms": ratio(
            span("live.fanout").busy * 1e3, updates),
        "live.deltas_per_update": ratio(
            replay.extra.get("delta_rows", 0), updates),
        "live.updates_per_s": ratio(updates, plain.wall),
        "live.adhoc_query_ms": statistics.median(
            sum(plain.replay.steps[i] for i in first)
            for first in plain.replay.firsts
        ) * 1e3 if updates else 0.0,
        "rtree.insert_ms": span("rtree.insert").per_call_ms(),
        "rtree.delete_ms": span("rtree.delete").per_call_ms(),
        "op_p99_ms": measure.percentile(plain_ops, 99) * 1e3,
    }


def shard_breakdown(tracer: Tracer, work: Any) -> Dict[str, float]:
    """The ``SHARDS`` statement run cold under the wrappers."""
    tracer.reset()
    before = dict(work.counters.snapshot())
    cold_shard_query(work.served.db, work.shards_sql)
    after = work.counters.snapshot()
    return {
        "shard.catalog.build_ms":
            tracer.span("shard.catalog.build").busy * 1e3,
        "shard.route.plan_ms": tracer.span("shard.route.plan").busy * 1e3,
        "shard.merge.self_ms": tracer.span("shard.merge").self_time * 1e3,
        "shard.pairs_routed": after.get("shard_pairs_routed", 0)
        - before.get("shard_pairs_routed", 0),
        "shard.pairs_pruned": after.get("shard_pairs_pruned", 0)
        - before.get("shard_pairs_pruned", 0),
    }


def service_layers(
    served: Any, sql: str, rows: int
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The ladder and the cursor round trip: (metrics, rungs)."""
    rungs = ladder(served, sql, rows)
    pages = -(-rows // LADDER_PAGE)
    suspend, resume, size = cursor_costs(served.db, sql)
    return {
        "query.plan_overhead_ms_per_kpair":
            (rungs["query.plan"] - rungs["core.join"]) * 1e6 / rows,
        "service.scheduler.overhead_ms_per_kpair":
            (rungs["service.scheduler"] - rungs["query.plan"]) * 1e6 / rows,
        "service.http.overhead_ms_per_page":
            (rungs["service.client"] - rungs["service.scheduler"])
            * 1e3 / pages,
        "service.http.roundtrip_floor_ms":
            best_wall(served.client.status, times=20) * 1e3,
        "service.cursor.suspend_ms": suspend * 1e3,
        "service.cursor.resume_ms": resume * 1e3,
        "service.cursor.bytes": size,
    }, rungs


def sql_mix_ratios(work: Any, sql: str, rows: int) -> Dict[str, float]:
    """Informational figures of ``service_sql_mix``, without wrappers:
    the cold ``SHARDS`` query, ``PARALLEL 2`` (thread-pool timing is
    scheduler noise on two vCPUs) and the cost of being watched."""
    db = work.served.db
    water, roads = db.relation("water"), db.relation("roads")

    def join(**kwargs: Any) -> None:
        for __ in IncrementalDistanceJoin(
            water, roads, JoinSpec(max_pairs=rows),
            counters=db.counters, **kwargs,
        ):
            pass

    return {
        "shard.cold_query_ms": cold_shard_query(db, work.shards_sql) * 1e3,
        "parallel.join_ms": best_wall(
            lambda: list(db.physical_plan(sql + " PARALLEL 2").rows()),
            times=1,
        ) * 1e3,
        "util.obs.enabled_overhead_ratio": ratio(
            best_wall(lambda: join(observer=Observer())),
            best_wall(join),
        ),
        "util.telemetry.overhead_ratio": ratio(
            best_wall(
                lambda: page_through_scheduler(db, sql, telemetry=True)),
            best_wall(
                lambda: page_through_scheduler(db, sql, telemetry=False)),
        ),
    }


def measure_layers(args: argparse.Namespace) -> Dict[str, Any]:
    run = measure.Run(args, timed_setup=False)
    work = run.workload
    served = getattr(work, "served", None)
    sql_mix = args.workload == "service_sql_mix"
    tracer = Tracer()
    values = dict.fromkeys(PER_LAYER, 0.0)
    rungs: Dict[str, float] = {}
    try:
        run.replay()  # warm-up
        yard = [yardstick_ms()]
        plain = [Observed(run), Observed(run)]
        yard.append(yardstick_ms())
        best = min(plain, key=lambda observed: observed.wall)

        tracer.install()
        try:
            traced = Observed(run, tracer)
            recorded = tracer.frozen
            if sql_mix:
                values.update(shard_breakdown(tracer, work))
        finally:
            tracer.uninstall()
        values.update(layer_metrics(recorded, traced, best, work.counters))
        values.update({
            "trace.coverage": ratio(
                recorded.top_level.get("MainThread", 0.0), traced.wall),
            "trace.overhead_ratio": ratio(traced.wall, best.wall),
            "noise.yardstick_ms": min(yard),
            "noise.repeat_spread": ratio(
                abs(plain[0].wall - plain[1].wall), best.wall),
        })
        if served is not None:
            rows = 200 if args.smoke else 2000
            sql = f"{workloads.SQL_HEAD}ORDER BY d STOP AFTER {rows}"
            service_values, rungs = service_layers(served, sql, rows)
            values.update(service_values)
            if sql_mix:
                values.update(sql_mix_ratios(work, sql, rows))
    finally:
        run.close()

    # Under the wrappers the rows (checked by run.replay) and every
    # counter that repeats exactly must be what they were without.
    repeatable = sorted(
        name for name, value in plain[0].counters.items()
        if plain[1].counters.get(name) == value
        and name not in CLOCK_DRIVEN
    )
    drifted = [
        name for name in repeatable
        if traced.counters.get(name) != plain[0].counters[name]
    ]
    report(args, run, recorded, values, rungs, repeatable, traced, best)
    if drifted:
        print("  FAILED: counters changed under the wrappers: "
              + ", ".join(drifted))
    failed = run.attempted if drifted else run.failed
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, (unit, __) in PER_LAYER.items()
        },
    }


def report(
    args: argparse.Namespace, run: Any, recorded: Tracer,
    values: Dict[str, float], rungs: Dict[str, float],
    repeatable: List[str], traced: Observed, best: Observed,
) -> None:
    print(f"workload {args.workload}  seed {args.seed}: traced replay "
          f"{traced.wall:.3f} s, untraced {best.wall:.3f} s; "
          f"checksum {run.digest}")
    print(f"  {'span':<28} {'calls':>9} {'busy ms':>11} {'self ms':>11}"
          "  called from")
    for name, span in sorted(recorded.spans.items()):
        if not span.calls:
            continue
        parents = sorted(
            parent for parent, child in recorded.edges if child == name
        )
        print(f"  {name:<28} {span.calls:9d} {span.busy * 1e3:11.2f} "
              f"{span.self_time * 1e3:11.2f}  {', '.join(parents) or '-'}")
    coverage = values["trace.coverage"]
    print(f"  trace.coverage {coverage:.3f}: "
          f"{(1.0 - coverage) * traced.wall * 1e3:.1f} ms of the traced "
          "replay ran outside every wrapped call (the benchmark's own "
          "paging loop and clock reads)")
    if coverage < 0.90:
        print("  GAP: coverage is under 0.90 -- the unwrapped time above "
              "is not attributed to any layer")
    if rungs:
        print("  ladder (s): " + "  ".join(
            f"{name} {wall:.4f}" for name, wall in rungs.items()
        ) + "  -- each rung's self time is its wall minus the rung "
            "before it")
    requests = recorded.span("service.client.request")
    if requests.calls:
        transport = (
            requests.self_time - recorded.span("service.http.dispatch").busy
        )
        print(f"  of service.client.request's self time, "
              f"{transport * 1e3:.1f} ms is transport (connect, HTTP "
              "framing, thread hand-over): the rest is the server's "
              "dispatch, which runs in its own thread")
    print(f"  {len(repeatable)} counters repeat exactly between untraced "
          f"replays: {', '.join(repeatable)}")
    for name, (unit, __) in PER_LAYER.items():
        print(f"  {name:<42} {float(values[name]):14.4f} {unit}")
