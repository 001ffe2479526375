"""The record model: counters aside, everything measured lands here.

The paper's experimental argument rests on *measuring* the join
strategies -- distance calculations, queue sizes, node I/O (Table 1,
Figures 6-10) -- and the partitioned engine and the service
additionally need to know *where* wall-clock time goes.  The flat
:mod:`repro.util.counters` registry answers "how much work"; this
module answers "how long, when, and under what":

- :class:`Observer` is the one recording surface: named **spans**
  (per-name aggregates always; built with ``trace=`` also one
  :class:`SpanRecord` per occurrence, parented by the stack of spans
  open on that observer), float **gauges** with a bounded timeline,
  and a bounded **event log** -- all on one clock that survives
  :meth:`Observer.state` / :meth:`Observer.restore`;
- :class:`ObsSnapshot` is the frozen, picklable view of the
  aggregates (what a suspended observer's state carries);
- :func:`metrics_records` / :func:`write_metrics` serialize counters
  and observations into one machine-readable schema: JSON-lines plus a
  Prometheus-style text dump, shared by the CLI's ``--metrics`` flag,
  ``EXPLAIN ANALYZE``, ``/metrics`` and the benchmark harness.

Overhead discipline: every hot-path hook is gated on
:attr:`Observer.enabled` (a plain attribute read) and the shared
:data:`NULL_OBSERVER` makes the disabled path allocation-free, so
instrumented drivers stay within noise of uninstrumented ones when
observability is off.  A recorded span costs two clock reads and one
appended record.
"""

from __future__ import annotations

import io
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.util.counters import CounterRegistry, CounterSnapshot
from repro.util.telemetry import TraceContext

__all__ = [
    "Event",
    "EventLog",
    "GaugeTimeline",
    "NULL_OBSERVER",
    "ObsSnapshot",
    "Observer",
    "SpanRecord",
    "SpanStats",
    "metrics_records",
    "prometheus_text",
    "write_metrics",
]

#: Default bound on retained events, and on retained span records (the
#: log and the span store never grow past it).
DEFAULT_MAX_EVENTS = 4096

#: Bound on retained gauge timeline samples per gauge.
MAX_GAUGE_SAMPLES = 256

#: Retention policies of the event log and the span store: keep the
#: *first* N (an execution prefix, what a trace reader wants) or the
#: *last* N (a flight-recorder ring buffer, what a crash reader wants).
KEEP_FIRST = "first"
KEEP_LAST = "ring"

#: Envelope identifiers of :meth:`Observer.state`.
OBSERVER_FORMAT = "repro-observer"
OBSERVER_VERSION = 1


class SpanStats:
    """Aggregate timing of one named phase: count / total / min / max."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (
            f"SpanStats({self.name}: n={self.count}, "
            f"total={self.total_s:.6f}s)"
        )


class SpanRecord(NamedTuple):
    """One finished span occurrence.  ``t0`` / ``dur`` are seconds on
    the recording observer's clock (0.0 = its creation, surviving
    suspend/resume); ``parent_id`` is the span that was open on that
    observer when this one began, or the trace's root span.  Ids are
    16 hex digits: the observer's recording sequence."""

    name: str
    span_id: str
    parent_id: str
    t0: float
    dur: float
    attrs: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._asdict(), attrs=dict(self.attrs))


class _Span:
    """A live span: a context manager timing one occurrence into its
    :class:`SpanStats` and, on a traced observer, appending the
    occurrence's :class:`SpanRecord`."""

    __slots__ = ("_obs", "_stats", "_attrs", "_seq", "_parent", "_start")

    def __init__(
        self, obs: "Observer", stats: SpanStats, attrs: Dict[str, Any]
    ) -> None:
        self._obs = obs
        self._stats = stats
        self._attrs = attrs
        self._seq = 0

    def __enter__(self) -> "_Span":
        obs = self._obs
        if obs.trace is not None:
            stack = obs._stack
            self._parent = stack[-1]
            obs._seq = self._seq = obs._seq + 1
            stack.append(self._seq)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        start = self._start
        duration = time.perf_counter() - start
        self._stats.record(duration)
        if self._seq:
            obs = self._obs
            obs._stack.pop()
            obs._keep((
                self._stats.name, self._seq, self._parent,
                start - obs._origin, duration, self._attrs,
            ))


class _NullSpan:
    """Allocation-free no-op span used when observation is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class GaugeTimeline:
    """A float-valued gauge with its last value, extrema, and a bounded
    timeline of ``(t, value)`` samples (``t`` is seconds since the
    observer was created, monotonic)."""

    __slots__ = ("name", "last", "min_value", "max_value", "count",
                 "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.last = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self.count = 0
        self.samples: Deque[Tuple[float, float]] = deque(
            maxlen=MAX_GAUGE_SAMPLES
        )

    def record(self, t: float, value: float) -> None:
        self.last = value
        self.count += 1
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.samples.append((t, value))

    def __repr__(self) -> str:
        return f"GaugeTimeline({self.name}={self.last:g}, n={self.count})"


class Event(NamedTuple):
    """One recorded occurrence: sequence number, time offset, kind,
    free-form label, and a numeric value (distance, size, ...)."""

    seq: int
    t: float
    kind: str
    label: str
    value: float


class EventLog:
    """A bounded event log.

    ``policy="first"`` keeps the first ``max_events`` events (an
    execution prefix -- what the join tracer wants); ``policy="ring"``
    keeps the last ``max_events`` (a flight recorder).  ``total``
    always counts every append, retained or not.
    """

    __slots__ = ("max_events", "policy", "total", "_events")

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        policy: str = KEEP_FIRST,
    ) -> None:
        if policy not in (KEEP_FIRST, KEEP_LAST):
            raise ValueError(
                f"policy must be {KEEP_FIRST!r} or {KEEP_LAST!r}, "
                f"got {policy!r}"
            )
        self.max_events = max_events
        self.policy = policy
        self.total = 0
        self._events: Deque[Event] = deque(
            maxlen=max_events if policy == KEEP_LAST else None
        )

    def append(
        self, t: float, kind: str, label: str = "", value: float = 0.0
    ) -> None:
        seq = self.total
        self.total += 1
        if self.policy == KEEP_FIRST and len(self._events) >= \
                self.max_events:
            return
        self._events.append(Event(seq, t, kind, label, value))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index):
        return list(self._events)[index]

    def as_list(self) -> List[Event]:
        return list(self._events)


@dataclass
class ObsSnapshot:
    """A frozen, picklable view of an observer's measurements.

    ``spans`` maps phase name to ``(count, total_s, min_s, max_s)``;
    ``gauges`` maps gauge name to ``(count, last, min, max)``.  Like
    :class:`~repro.util.counters.CounterSnapshot`, snapshots are plain
    dataclasses of dicts so they pickle cheaply; :meth:`Observer.merge`
    folds one into an observer.
    """

    spans: Dict[str, Tuple[int, float, float, float]] = field(
        default_factory=dict
    )
    gauges: Dict[str, Tuple[int, float, float, float]] = field(
        default_factory=dict
    )

    def span_seconds(self, name: str) -> float:
        """Total seconds spent in phase ``name`` (0.0 if never timed)."""
        entry = self.spans.get(name)
        return entry[1] if entry is not None else 0.0

    def span_count(self, name: str) -> int:
        entry = self.spans.get(name)
        return entry[0] if entry is not None else 0

    def gauge_last(self, name: str) -> Optional[float]:
        entry = self.gauges.get(name)
        return entry[1] if entry is not None else None

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={total:.4f}s/{count}"
            for name, (count, total, __, ___) in sorted(
                self.spans.items()
            )
        )
        return f"ObsSnapshot({body})"


class Observer:
    """The recording surface handed to instrumented components.

    Parameters
    ----------
    enabled:
        When False every hook is a near-free no-op; components are
        expected to additionally gate *their* hot paths on this
        attribute so a disabled observer costs one attribute read.
    max_events, event_policy:
        Bound and retention policy of the event log and of the span
        store (each holds up to ``max_events`` entries).
    trace:
        The trace this observer records for.  When given, every span
        occurrence is also kept (:attr:`records`), parented by the
        innermost span open on this observer when it began (the
        trace's root span at top level); without it spans are
        aggregate-only.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_events: int = DEFAULT_MAX_EVENTS,
        event_policy: str = KEEP_FIRST,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.enabled = enabled
        self.trace = trace
        self._spans: Dict[str, SpanStats] = {}
        self._gauges: Dict[str, GaugeTimeline] = {}
        self.events = EventLog(max_events=max_events, policy=event_policy)
        # A traced observer's span occurrences, oldest first, as
        # SpanRecord-shaped tuples whose two ids are still sequence
        # numbers (0: the root); `records` renders them.
        self._records: Deque[Tuple] = deque(
            maxlen=max_events if event_policy == KEEP_LAST else None
        )
        #: Occurrences the span store let go of (or never kept).
        self.dropped_spans = 0
        # Sequence numbers of the open spans, innermost last.
        self._stack: List[int] = [0]
        self._seq = 0
        self._origin = time.perf_counter()

    def now(self) -> float:
        """Seconds on this observer's clock: 0.0 at creation, monotone
        across :meth:`state` / :meth:`restore`.  Every record, gauge
        sample and event is stamped with it."""
        return time.perf_counter() - self._origin

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing one occurrence of phase ``name``;
        ``attrs`` ride on the occurrence's record."""
        if not self.enabled:
            return _NULL_SPAN
        stats = self._spans.get(name)
        if stats is None:
            stats = self._span_stats(name)
        return _Span(self, stats, attrs)

    def _span_stats(self, name: str) -> SpanStats:
        stats = self._spans.get(name)
        if stats is None:
            stats = SpanStats(name)
            self._spans[name] = stats
        return stats

    def _keep(self, record: Tuple) -> None:
        if len(self._records) >= self.events.max_events:
            self.dropped_spans += 1
            if self.events.policy == KEEP_FIRST:
                return
        self._records.append(record)

    @property
    def records(self) -> List[SpanRecord]:
        """The retained span occurrences of a traced observer, oldest
        first.  A span's id never changes once recorded."""
        root = self.trace.span_id if self.trace is not None else ""
        return [
            SpanRecord(
                name, "%016x" % seq,
                "%016x" % parent if parent else root, t0, dur, attrs,
            )
            for name, seq, parent, t0, dur, attrs in self._records
        ]

    def record_span(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into phase ``name``
        (as an occurrence that ended now)."""
        if not self.enabled:
            return
        self._span_stats(name).record(seconds)
        if self.trace is not None:
            self._seq += 1
            self._keep((
                name, self._seq, self._stack[-1],
                max(0.0, self.now() - seconds), seconds, {},
            ))

    def span_seconds(self, name: str) -> float:
        stats = self._spans.get(name)
        return stats.total_s if stats is not None else 0.0

    def span_count(self, name: str) -> int:
        stats = self._spans.get(name)
        return stats.count if stats is not None else 0

    # -- gauges --------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Record a float level for ``name``."""
        if not self.enabled:
            return
        timeline = self._gauges.get(name)
        if timeline is None:
            timeline = GaugeTimeline(name)
            self._gauges[name] = timeline
        timeline.record(self.now(), value)

    def gauge_value(self, name: str) -> Optional[float]:
        """The gauge's most recent value (None if never recorded)."""
        timeline = self._gauges.get(name)
        return timeline.last if timeline is not None else None

    def gauge_timeline(self, name: str) -> List[Tuple[float, float]]:
        timeline = self._gauges.get(name)
        return list(timeline.samples) if timeline is not None else []

    def gauge_names(self) -> List[str]:
        """Sorted names of every gauge recorded so far."""
        return sorted(self._gauges)

    # -- events --------------------------------------------------------

    def event(self, kind: str, label: str = "", value: float = 0.0) -> None:
        """Append one event to the bounded log."""
        if not self.enabled:
            return
        self.events.append(self.now(), kind, label, value)

    # -- snapshots / merging ------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        """Spans and gauges as a picklable value object."""
        return ObsSnapshot(
            spans={
                name: (s.count, s.total_s, s.min_s, s.max_s)
                for name, s in self._spans.items()
            },
            gauges={
                name: (g.count, g.last, g.min_value, g.max_value)
                for name, g in self._gauges.items()
            },
        )

    def merge(self, other: Union["Observer", ObsSnapshot]) -> None:
        """Fold another observer's (or snapshot's) aggregates in.

        Span counts and totals add; extrema combine by min/max.  Gauge
        merges keep the other side's last value and combine extrema.
        Records and events stay with the observer that recorded them.
        """
        snap = other.snapshot() if isinstance(other, Observer) else other
        for name, (count, total, mn, mx) in snap.spans.items():
            stats = self._span_stats(name)
            stats.count += count
            stats.total_s += total
            if mn < stats.min_s:
                stats.min_s = mn
            if mx > stats.max_s:
                stats.max_s = mx
        for name, (count, last, mn, mx) in snap.gauges.items():
            timeline = self._gauges.get(name)
            if timeline is None:
                timeline = GaugeTimeline(name)
                self._gauges[name] = timeline
            timeline.count += count
            timeline.last = last
            if mn < timeline.min_value:
                timeline.min_value = mn
            if mx > timeline.max_value:
                timeline.max_value = mx

    # -- suspend / resume ---------------------------------------------

    def state(self) -> Dict[str, Any]:
        """A picklable snapshot: the trace identity, the clock, the
        retained records and events, and the aggregates (gauge
        timelines are not carried)."""
        snap = self.snapshot()
        return {
            "format": OBSERVER_FORMAT,
            "version": OBSERVER_VERSION,
            "trace": (
                self.trace.as_dict() if self.trace is not None else None
            ),
            "elapsed": self.now(),
            "max_events": self.events.max_events,
            "event_policy": self.events.policy,
            "seq": self._seq,
            "dropped_spans": self.dropped_spans,
            "records": list(self._records),
            "events_total": self.events.total,
            "events": [tuple(event) for event in self.events],
            "spans": snap.spans,
            "gauges": snap.gauges,
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "Observer":
        """Rebuild from :meth:`state`, re-anchoring the clock so time
        keeps moving forward from the suspended offset (and span ids
        from the suspended sequence), even in another process."""
        if state.get("format") != OBSERVER_FORMAT:
            raise ValueError(
                f"not an observer state: format={state.get('format')!r}"
            )
        trace = state["trace"]
        obs = cls(
            max_events=int(state["max_events"]),
            event_policy=state["event_policy"],
            trace=TraceContext(**trace) if trace is not None else None,
        )
        obs._origin -= float(state["elapsed"])
        obs._seq = int(state["seq"])
        obs.dropped_spans = int(state["dropped_spans"])
        for name, seq, parent, t0, dur, attrs in state["records"]:
            obs._records.append((
                str(name), int(seq), int(parent), float(t0), float(dur),
                dict(attrs),
            ))
        obs.events.total = int(state["events_total"])
        for seq, t, kind, label, value in state["events"]:
            obs.events._events.append(
                Event(int(seq), float(t), str(kind), str(label), value)
            )
        obs.merge(ObsSnapshot(
            spans=dict(state["spans"]), gauges=dict(state["gauges"])
        ))
        return obs

    def __repr__(self) -> str:
        return (
            f"Observer(enabled={self.enabled}, "
            f"spans={len(self._spans)}, gauges={len(self._gauges)}, "
            f"records={len(self._records)}, events={self.events.total})"
        )


#: The shared disabled observer: instrumented components default to it
#: so uninstrumented call sites pay one attribute read.  Never enable
#: it in place -- create a private :class:`Observer` instead.
NULL_OBSERVER = Observer(enabled=False)


# ----------------------------------------------------------------------
# metrics export (JSON-lines + Prometheus-style text)
# ----------------------------------------------------------------------


def metrics_records(
    counters: Union[CounterRegistry, CounterSnapshot, None] = None,
    obs: Union[Observer, ObsSnapshot, None] = None,
    labels: Optional[Mapping[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Serialize counters and observations into flat metric records.

    The shared schema -- one dict per metric, stable keys::

        {"metric": "dist_calcs", "type": "counter", "value": 123,
         "labels": {...}}
        {"metric": "queue_size", "type": "peak", "value": 87, ...}
        {"metric": "shard.merge", "type": "span", "count": 12,
         "seconds": 0.041, "min_s": ..., "max_s": ..., ...}
        {"metric": "pq_adaptive_dt", "type": "gauge", "value": 0.37,
         "count": 1, "min": 0.37, "max": 0.37, ...}

    Everything that emits metrics (CLI ``--metrics``, ``EXPLAIN
    ANALYZE``, the benchmark harness) goes through this function so the
    schema cannot drift between surfaces.
    """
    label_dict = dict(labels) if labels else {}
    records: List[Dict[str, Any]] = []
    counter_snap = (
        counters.full_snapshot()
        if isinstance(counters, CounterRegistry) else counters
    )
    if counter_snap is not None:
        for name in sorted(counter_snap.values):
            # Gauge-style counters (observe-only, e.g. queue_size)
            # carry a zero total; their signal is the peak record.
            if counter_snap.values[name]:
                records.append({
                    "metric": name,
                    "type": "counter",
                    "value": counter_snap.values[name],
                    "labels": label_dict,
                })
        for name in sorted(counter_snap.peaks):
            if counter_snap.peaks[name]:
                records.append({
                    "metric": name,
                    "type": "peak",
                    "value": counter_snap.peaks[name],
                    "labels": label_dict,
                })
    obs_snap = obs.snapshot() if isinstance(obs, Observer) else obs
    if obs_snap is not None:
        for name in sorted(obs_snap.spans):
            count, total, mn, mx = obs_snap.spans[name]
            records.append({
                "metric": name,
                "type": "span",
                "count": count,
                "seconds": total,
                "min_s": mn if mn != float("inf") else 0.0,
                "max_s": mx,
                "labels": label_dict,
            })
        for name in sorted(obs_snap.gauges):
            count, last, mn, mx = obs_snap.gauges[name]
            records.append({
                "metric": name,
                "type": "gauge",
                "value": last,
                "count": count,
                "min": mn if mn != float("inf") else last,
                "max": mx if mx != float("-inf") else last,
                "labels": label_dict,
            })
    return records


def _prom_name(metric: str, type_: str) -> str:
    base = "repro_" + "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in metric
    )
    if type_ == "peak":
        return base + "_peak"
    return base


def _prom_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line feed must be written as ``\\\\``,
    ``\\"`` and ``\\n`` inside the quoted value."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_prom_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_text(records: Iterable[Mapping[str, Any]]) -> str:
    """Render metric records as a Prometheus-style text exposition.

    Counters become ``repro_<name>`` counters, peaks and gauges become
    gauges, spans become a ``_seconds`` counter plus a ``_count``
    counter (the classic summary-lite pair).
    """
    out = io.StringIO()
    seen_types: Dict[str, str] = {}

    def emit(name: str, prom_type: str, labels: Mapping[str, Any],
             value: Any) -> None:
        if seen_types.get(name) != prom_type:
            out.write(f"# TYPE {name} {prom_type}\n")
            seen_types[name] = prom_type
        out.write(f"{name}{_prom_labels(labels)} {value}\n")

    for record in records:
        metric = str(record.get("metric", ""))
        type_ = str(record.get("type", "counter"))
        labels = record.get("labels", {}) or {}
        if type_ == "span":
            base = _prom_name(metric, type_)
            emit(base + "_seconds", "counter", labels,
                 record.get("seconds", 0.0))
            emit(base + "_count", "counter", labels,
                 record.get("count", 0))
        elif type_ in ("gauge", "peak"):
            emit(_prom_name(metric, type_), "gauge", labels,
                 record.get("value", 0))
        else:
            emit(_prom_name(metric, type_), "counter", labels,
                 record.get("value", 0))
    return out.getvalue()


def write_metrics(
    path: str,
    counters: Union[CounterRegistry, CounterSnapshot, None] = None,
    obs: Union[Observer, ObsSnapshot, None] = None,
    labels: Optional[Mapping[str, Any]] = None,
    records: Optional[List[Dict[str, Any]]] = None,
    append: bool = False,
) -> List[Dict[str, Any]]:
    """Write metrics as JSON-lines to ``path`` and a Prometheus-style
    dump to ``path + ".prom"``; returns the records written.

    Pass prebuilt ``records`` to write several executions' worth in one
    schema (the benchmark harness does), or ``counters``/``obs`` to
    serialize one execution.  ``append`` adds JSON-lines to an existing
    file (the ``.prom`` dump is always rewritten whole -- Prometheus
    expositions are not appendable).
    """
    if records is None:
        records = metrics_records(counters, obs, labels)
    mode = "a" if append else "w"
    with open(path, mode) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    all_records = records
    if append:
        all_records = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    all_records.append(json.loads(line))
    with open(path + ".prom", "w") as handle:
        handle.write(prometheus_text(all_records))
    return records
