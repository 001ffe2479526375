"""Chrome trace-event export for :mod:`repro.util.obs` data.

Serializes an :class:`~repro.util.obs.Observer`'s measurements --
per-occurrence span events (``trace_spans=True``), gauge timelines,
and the event log -- as Chrome trace-event JSON, the format read by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  The
same exporter renders the aggregate :class:`~repro.util.obs.ObsSnapshot`
objects that parallel workers ship inside every
:class:`~repro.parallel.executor.TaskBatch`, one track (pid/tid pair)
per worker, so a parallel join's whole fleet is visible on one
timeline.

Event vocabulary used (all standard trace-event phases):

- ``X`` *complete* events for spans (``ts`` start, ``dur`` duration,
  both in microseconds);
- ``C`` *counter* events for gauge timelines;
- ``i`` *instant* events for everything else in the event log;
- ``M`` *metadata* events naming processes and threads.

Everything here is pure data transformation: nothing in this module
runs on a hot path, and a disabled observer simply yields an empty
trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.util.obs import ObsSnapshot, Observer, SPAN_EVENT

__all__ = [
    "chrome_trace",
    "gauge_counter_events",
    "instant_events",
    "observer_trace",
    "snapshot_summary_events",
    "sort_events",
    "span_record_events",
    "worker_track_events",
    "write_chrome_trace",
]

#: Seconds -> trace-event microseconds.
_MICROS = 1e6

#: Default pid of the parent/driver track.
DRIVER_PID = 1


def _us(seconds: float) -> float:
    return seconds * _MICROS


def process_name_event(pid: int, name: str) -> Dict[str, Any]:
    """An ``M`` metadata event labelling process ``pid``."""
    return {
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": name},
    }


def thread_name_event(pid: int, tid: int, name: str) -> Dict[str, Any]:
    """An ``M`` metadata event labelling thread ``tid`` of ``pid``."""
    return {
        "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def span_complete_events(
    obs: Observer, pid: int = DRIVER_PID, tid: int = 1,
    cat: str = "span",
) -> List[Dict[str, Any]]:
    """``X`` events for every :data:`~repro.util.obs.SPAN_EVENT` in the
    observer's event log (requires ``trace_spans=True`` recording).

    Span events are logged at span *end* with the duration as value,
    so the start is ``t - value``; a clamped-at-zero start guards
    against float jitter on sub-microsecond spans.
    """
    events: List[Dict[str, Any]] = []
    for event in obs.events:
        if event.kind != SPAN_EVENT:
            continue
        start = event.t - event.value
        if start < 0.0:
            start = 0.0
        events.append({
            "name": event.label, "cat": cat, "ph": "X",
            "ts": _us(start), "dur": _us(event.value),
            "pid": pid, "tid": tid,
        })
    return events


def span_record_events(
    records: Iterable[Any],
    pid: int = DRIVER_PID,
    tid: int = 1,
    cat: str = "telemetry",
    trace_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """``X`` events for request-scoped telemetry span records.

    ``records`` is anything shaped like
    :class:`repro.util.telemetry.SpanRecord` (``name`` / ``span_id`` /
    ``parent_id`` / ``t0`` / ``dur`` / ``attrs``) -- duck-typed so this
    module keeps its single dependency on :mod:`repro.util.obs`.  Span
    and parent ids ride in ``args`` (plus the owning ``trace_id`` when
    given), which is how Perfetto reconstructs the request tree.
    """
    events: List[Dict[str, Any]] = []
    for record in records:
        args: Dict[str, Any] = {
            "span_id": record.span_id,
            "parent_id": record.parent_id,
        }
        if trace_id:
            args["trace_id"] = trace_id
        if record.attrs:
            args.update(record.attrs)
        events.append({
            "name": record.name, "cat": cat, "ph": "X",
            "ts": _us(record.t0), "dur": _us(record.dur),
            "pid": pid, "tid": tid, "args": args,
        })
    return events


def gauge_counter_events(
    obs: Observer, pid: int = DRIVER_PID, tid: int = 1,
    cat: str = "gauge",
) -> List[Dict[str, Any]]:
    """``C`` counter events from every retained gauge sample."""
    events: List[Dict[str, Any]] = []
    for name in obs.gauge_names():
        for t, value in obs.gauge_timeline(name):
            events.append({
                "name": name, "cat": cat, "ph": "C",
                "ts": _us(t), "pid": pid, "tid": tid,
                "args": {name: value},
            })
    return events


def instant_events(
    obs: Observer, pid: int = DRIVER_PID, tid: int = 1,
    cat: str = "event",
) -> List[Dict[str, Any]]:
    """``i`` instant events for the non-span entries of the event log."""
    events: List[Dict[str, Any]] = []
    for event in obs.events:
        if event.kind == SPAN_EVENT:
            continue
        events.append({
            "name": event.label or event.kind, "cat": cat, "ph": "i",
            "ts": _us(event.t), "pid": pid, "tid": tid, "s": "t",
            "args": {"kind": event.kind, "value": event.value},
        })
    return events


def snapshot_summary_events(
    snapshot: ObsSnapshot,
    pid: int,
    tid: int,
    start_us: float = 0.0,
    cat: str = "summary",
) -> List[Dict[str, Any]]:
    """Aggregate span stats as a synthetic sequential ``X`` timeline.

    Snapshots carry totals, not per-occurrence timestamps (that is
    what keeps them cheap to pickle across the process boundary), so
    each phase is drawn once, ``total_s`` long, phases laid end to
    end in name order.  The result reads as a per-worker time budget
    rather than a literal schedule; counts and extrema ride in
    ``args``.
    """
    events: List[Dict[str, Any]] = []
    cursor = start_us
    for name in sorted(snapshot.spans):
        count, total, mn, mx = snapshot.spans[name]
        events.append({
            "name": name, "cat": cat, "ph": "X",
            "ts": cursor, "dur": _us(total),
            "pid": pid, "tid": tid,
            "args": {
                "count": count,
                "min_ms": mn * 1e3 if mn != float("inf") else 0.0,
                "max_ms": mx * 1e3,
            },
        })
        cursor += _us(total)
    return events


def _merge_snapshots(snapshots: Iterable[ObsSnapshot]) -> ObsSnapshot:
    merged = Observer(max_events=0)
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


def worker_track_events(
    task_obs: Mapping[int, ObsSnapshot],
    task_workers: Mapping[int, str],
    pid: int = DRIVER_PID + 1,
    cat: str = "worker",
) -> List[Dict[str, Any]]:
    """One trace track per parallel worker from per-task snapshots.

    ``task_obs`` and ``task_workers`` are exactly what
    :meth:`~repro.shard.router.ShardRouterJoin.task_span_snapshots`
    and its worker map provide: the cumulative stage timings each
    worker shipped in its :class:`TaskBatch`.  Tasks are grouped by
    executing worker; each worker gets one ``(pid, tid)`` pair (tids
    are assigned in sorted worker-label order, so output is
    deterministic) plus a ``thread_name`` metadata event carrying the
    worker label (``pid-1234`` or ``pid-1234/repro-join_0``).
    """
    by_worker: Dict[str, List[ObsSnapshot]] = {}
    for task_id, snapshot in task_obs.items():
        label = task_workers.get(task_id, "worker-?")
        by_worker.setdefault(label, []).append(snapshot)
    events: List[Dict[str, Any]] = [
        process_name_event(pid, "repro workers")
    ]
    for tid, label in enumerate(sorted(by_worker), start=1):
        events.append(thread_name_event(pid, tid, label))
        merged = _merge_snapshots(by_worker[label])
        events.extend(
            snapshot_summary_events(merged, pid=pid, tid=tid, cat=cat)
        )
    return events


def observer_trace(
    obs: Observer,
    pid: int = DRIVER_PID,
    tid: int = 1,
    process_name: str = "repro",
    thread_name: str = "driver",
    include_gauges: bool = True,
    include_instants: bool = True,
) -> List[Dict[str, Any]]:
    """The full single-track trace of one observer: metadata, spans
    (per-occurrence when ``trace_spans`` recorded them, aggregate
    summary otherwise), gauge counters, and instant events."""
    events: List[Dict[str, Any]] = [
        process_name_event(pid, process_name),
        thread_name_event(pid, tid, thread_name),
    ]
    spans = span_complete_events(obs, pid=pid, tid=tid)
    if spans:
        events.extend(spans)
    else:
        events.extend(
            snapshot_summary_events(obs.snapshot(), pid=pid, tid=tid)
        )
    if include_gauges:
        events.extend(gauge_counter_events(obs, pid=pid, tid=tid))
    if include_instants:
        events.extend(instant_events(obs, pid=pid, tid=tid))
    return sort_events(events)


def sort_events(
    events: Iterable[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Stable-sort events for readers that expect monotonic time:
    metadata first, then by ``(pid, tid, ts)``."""
    return sorted(
        (dict(event) for event in events),
        key=lambda e: (
            0 if e.get("ph") == "M" else 1,
            e.get("pid", 0), e.get("tid", 0), e.get("ts", 0.0),
        ),
    )


def chrome_trace(
    events: Iterable[Mapping[str, Any]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap events in the JSON-object trace container Perfetto
    expects (``traceEvents`` plus free-form top-level metadata)."""
    trace: Dict[str, Any] = {
        "traceEvents": sort_events(events),
        "displayTimeUnit": "ms",
    }
    if metadata:
        trace["metadata"] = dict(metadata)
    return trace


def write_chrome_trace(
    path: str,
    events: Union[Iterable[Mapping[str, Any]], Mapping[str, Any]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> str:
    """Write a trace (events or a prebuilt container) to ``path``;
    returns ``path`` for chaining into log lines."""
    if isinstance(events, Mapping) and "traceEvents" in events:
        trace: Mapping[str, Any] = events
    else:
        trace = chrome_trace(events, metadata)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
    return path
