"""Exporters for :mod:`repro.util.obs` data: Chrome trace events and
the nested span tree.

Serializes an :class:`~repro.util.obs.Observer`'s measurements --
per-occurrence :class:`~repro.util.obs.SpanRecord`\\ s (a traced
observer), gauge timelines, and the event log -- as Chrome trace-event
JSON, the format read by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``, or as one JSON tree rooted at the trace context
(:func:`span_tree`, what ``/debug/trace`` serves).  Aggregates that
carry no per-occurrence times -- an untraced observer's
:class:`~repro.util.obs.ObsSnapshot` -- are first drawn as records
(:func:`summary_records`), so every span on every surface goes
through the one :func:`span_record_events`.

Event vocabulary used (all standard trace-event phases):

- ``X`` *complete* events for spans (``ts`` start, ``dur`` duration,
  both in microseconds; span / parent / trace ids in ``args``);
- ``C`` *counter* events for gauge timelines;
- ``i`` *instant* events for the event log;
- ``M`` *metadata* events naming processes and threads.

Everything here is pure data transformation: nothing in this module
runs on a hot path or mutates what it exports, so dumping twice yields
the same ids.
"""

from __future__ import annotations

import itertools
import json
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.util.obs import ObsSnapshot, Observer, SpanRecord

__all__ = [
    "chrome_trace",
    "gauge_counter_events",
    "instant_events",
    "observer_trace",
    "sort_events",
    "span_record_events",
    "span_tree",
    "summary_records",
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


def span_record_events(
    records: Iterable[SpanRecord],
    pid: int = DRIVER_PID,
    tid: int = 1,
    cat: str = "span",
    trace_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """``X`` events for span records.  Span and parent ids ride in
    ``args`` (plus the owning ``trace_id`` when given, and the record's
    attributes), which is how Perfetto reconstructs the tree."""
    events: List[Dict[str, Any]] = []
    for record in records:
        args: Dict[str, Any] = {
            "span_id": record.span_id,
            "parent_id": record.parent_id,
        }
        if trace_id:
            args["trace_id"] = trace_id
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
    """``i`` instant events for the entries of the event log."""
    events: List[Dict[str, Any]] = []
    for event in obs.events:
        args = {"kind": event.kind, "value": event.value}
        if obs.trace is not None:
            args["trace_id"] = obs.trace.trace_id
        events.append({
            "name": event.label or event.kind, "cat": cat, "ph": "i",
            "ts": _us(event.t), "pid": pid, "tid": tid, "s": "t",
            "args": args,
        })
    return events


def _synthetic_ids() -> Iterator[str]:
    """Ids for records drawn from aggregates: the top half of the id
    space, which no observer's recording sequence reaches."""
    return ("%016x" % n for n in itertools.count(1 << 63))


def summary_records(
    snapshot: ObsSnapshot,
    parent_id: str = "",
    t0: float = 0.0,
) -> List[SpanRecord]:
    """Aggregate span stats as a synthetic sequential timeline.

    Snapshots carry totals, not per-occurrence timestamps, so each
    phase is drawn once, ``total_s`` long, phases laid end to end in
    name order from ``t0``.  The result reads as a time budget rather
    than a literal schedule; counts and extrema ride in the records'
    attributes.
    """
    ids = _synthetic_ids()
    records: List[SpanRecord] = []
    cursor = t0
    for name in sorted(snapshot.spans):
        count, total, mn, mx = snapshot.spans[name]
        records.append(SpanRecord(
            name, next(ids), parent_id, cursor, total, {
                "count": count,
                "min_ms": mn * 1e3 if mn != float("inf") else 0.0,
                "max_ms": mx * 1e3,
            },
        ))
        cursor += total
    return records


def observer_trace(
    obs: Observer,
    pid: int = DRIVER_PID,
    tid: int = 1,
    process_name: str = "repro",
    thread_name: str = "driver",
    include_gauges: bool = True,
    records: Optional[Sequence[SpanRecord]] = None,
) -> List[Dict[str, Any]]:
    """The full single-track trace of one observer: metadata, the root
    ``request`` span of a traced observer, its spans (``records``; by
    default the observer's own, or the aggregate summary when it kept
    none), gauge counters, and instant events."""
    events: List[Dict[str, Any]] = [
        process_name_event(pid, process_name),
        thread_name_event(pid, tid, thread_name),
    ]
    trace = obs.trace
    if records is None:
        records = obs.records or summary_records(obs.snapshot())
    if trace is not None:
        events.append({
            "name": "request", "cat": "span", "ph": "X",
            "ts": 0.0, "dur": _us(obs.now()), "pid": pid, "tid": tid,
            "args": trace.as_dict(),
        })
    events.extend(span_record_events(
        records, pid=pid, tid=tid,
        trace_id=trace.trace_id if trace is not None else None,
    ))
    if include_gauges:
        events.extend(gauge_counter_events(obs, pid=pid, tid=tid))
    events.extend(instant_events(obs, pid=pid, tid=tid))
    return sort_events(events)


def span_tree(
    obs: Observer,
    records: Optional[Sequence[SpanRecord]] = None,
) -> Dict[str, Any]:
    """A traced observer as one nested JSON span tree rooted at its
    trace context (``records`` defaults to the observer's own).
    Records whose parent is unknown (it was dropped by the bound) hang
    off the root, so the tree is always connected."""
    trace = obs.trace
    if records is None:
        records = obs.records
    ordered = sorted(records, key=lambda r: (r.t0, r.dur))
    known = {record.span_id for record in ordered}
    children: Dict[str, List[SpanRecord]] = {}
    for record in ordered:
        parent = record.parent_id
        if parent not in known or parent == record.span_id:
            parent = trace.span_id
        children.setdefault(parent, []).append(record)

    def node(record: SpanRecord) -> Dict[str, Any]:
        entry = record.as_dict()
        entry["children"] = [
            node(child) for child in children.get(record.span_id, [])
        ]
        return entry

    return {
        "name": "request",
        "trace_id": trace.trace_id,
        "span_id": trace.span_id,
        "parent_id": trace.parent_id,
        "t0": 0.0,
        "dur": obs.now(),
        "dropped_spans": obs.dropped_spans,
        "events": [
            {"t": event.t, "name": event.kind,
             "attrs": {"label": event.label, "value": event.value}}
            for event in obs.events
        ],
        "children": [
            node(record) for record in children.get(trace.span_id, [])
        ],
    }


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
