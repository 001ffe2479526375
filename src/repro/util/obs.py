"""Structured observability: spans, gauges, events, metrics export.

The paper's experimental argument rests on *measuring* the join
strategies -- distance calculations, queue sizes, node I/O (Table 1,
Figures 6-10) -- and the parallel engine additionally needs to know
*where* wall-clock time goes (partitioning vs. worker joins vs. the
order-preserving merge).  The flat :mod:`repro.util.counters` registry
answers "how much work"; this module answers "how long, when, and in
which phase":

- :class:`Observer` is the per-execution recording surface: named
  **spans** (monotonic-clock phase timers), float **gauges** with a
  bounded timeline of samples, and a bounded **event log**;
- :class:`ObsSnapshot` is the frozen, picklable view that parallel
  workers ship back with every result batch (next to their
  :class:`~repro.util.counters.CounterSnapshot`) and the parent merges;
- :func:`metrics_records` / :func:`write_metrics` serialize counters
  and observations into one machine-readable schema: JSON-lines plus a
  Prometheus-style text dump, shared by the CLI's ``--metrics`` flag,
  ``EXPLAIN ANALYZE``, and the benchmark harness.

Overhead discipline: every hot-path hook is gated on
:attr:`Observer.enabled` (a plain attribute read) and the shared
:data:`NULL_OBSERVER` makes the disabled path allocation-free, so
instrumented drivers stay within noise of uninstrumented ones when
observability is off.  ``sample_every`` additionally thins gauge
timelines in hot loops when it *is* on.
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

__all__ = [
    "Event",
    "EventLog",
    "GaugeTimeline",
    "NULL_OBSERVER",
    "ObsSnapshot",
    "Observer",
    "SPAN_EVENT",
    "SpanStats",
    "metrics_records",
    "prometheus_text",
    "write_metrics",
]

#: Default bound on retained events (the log never grows past this).
DEFAULT_MAX_EVENTS = 4096

#: Default bound on retained gauge timeline samples per gauge.
DEFAULT_MAX_SAMPLES = 256

#: Event-log retention policies: keep the *first* N events (an
#: execution prefix, what a trace reader wants) or the *last* N
#: (a flight-recorder ring buffer, what a crash reader wants).
KEEP_FIRST = "first"
KEEP_LAST = "ring"

#: Event kind used for per-occurrence span records (``trace_spans``):
#: the event's ``t`` is the span *end* offset and its ``value`` the
#: duration in seconds, so ``t - value`` recovers the start.
SPAN_EVENT = "span"


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


class _Span:
    """A live span: context manager recording into one SpanStats."""

    __slots__ = ("_stats", "_start")

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stats.record(time.perf_counter() - self._start)


class _TracedSpan:
    """A span that additionally logs each occurrence as an event.

    The event is appended at span *end* with the duration as its value
    (kind :data:`SPAN_EVENT`), so a trace exporter can reconstruct the
    start as ``t - value``.  Only used when the owning observer was
    created with ``trace_spans=True`` -- the aggregate-only path stays
    one allocation per span, as before.
    """

    __slots__ = ("_stats", "_events", "_t0", "_start")

    def __init__(
        self, stats: SpanStats, events: "EventLog", t0: float
    ) -> None:
        self._stats = stats
        self._events = events
        self._t0 = t0
        self._start = 0.0

    def __enter__(self) -> "_TracedSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        duration = end - self._start
        self._stats.record(duration)
        self._events.append(
            end - self._t0, SPAN_EVENT, self._stats.name, duration
        )


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

    def __init__(
        self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> None:
        self.name = name
        self.last = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self.count = 0
        self.samples: Deque[Tuple[float, float]] = deque(
            maxlen=max_samples
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
    dataclasses of dicts so they pickle cheaply across process
    boundaries; parallel workers ship cumulative snapshots and the
    parent merges per-batch deltas (:meth:`delta_from`).
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

    def delta_from(self, earlier: "ObsSnapshot") -> "ObsSnapshot":
        """The increment between ``earlier`` and this snapshot.

        Span counts and totals subtract (clamped at zero, mirroring
        the reset guard of
        :meth:`~repro.util.counters.CounterSnapshot.delta_from`);
        min/max keep this snapshot's values -- extrema are levels, not
        flows.  Gauges keep this snapshot's state with the sample-count
        increment.
        """
        spans: Dict[str, Tuple[int, float, float, float]] = {}
        for name, (count, total, mn, mx) in self.spans.items():
            prev = earlier.spans.get(name)
            if prev is None:
                spans[name] = (count, total, mn, mx)
                continue
            d_count = count - prev[0]
            d_total = total - prev[1]
            if d_count < 0 or d_total < 0:
                # The contributor was reset mid-run: everything it now
                # reports happened since the reset.
                d_count, d_total = count, total
            if d_count or d_total:
                spans[name] = (d_count, d_total, mn, mx)
        gauges: Dict[str, Tuple[int, float, float, float]] = {}
        for name, (count, last, mn, mx) in self.gauges.items():
            prev = earlier.gauges.get(name)
            d_count = count - prev[0] if prev is not None else count
            if d_count < 0:
                d_count = count
            if prev is None or d_count:
                gauges[name] = (d_count, last, mn, mx)
        return ObsSnapshot(spans=spans, gauges=gauges)

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
    sample_every:
        Record only every ``n``-th gauge sample (spans and events are
        always recorded when enabled; gauges are the hot-loop signal).
    max_events, event_policy:
        Bound and retention policy of the event log.
    max_samples:
        Bound on each gauge's retained timeline.
    trace_spans:
        Also log every span occurrence as a :data:`SPAN_EVENT` event
        (end offset + duration), the raw material of
        :mod:`repro.util.tracing`'s Chrome trace export.  Off by
        default -- aggregate-only spans stay cheaper and the event
        log bound is then free for the caller's own events.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_every: int = 1,
        max_events: int = DEFAULT_MAX_EVENTS,
        event_policy: str = KEEP_FIRST,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        trace_spans: bool = False,
    ) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every!r}"
            )
        self.enabled = enabled
        self.sample_every = sample_every
        self.trace_spans = trace_spans
        #: Optional trace identity (a ``repro.util.telemetry
        #: .TraceContext``) stamped by request-scoped owners (the
        #: service scheduler) so exporters can tag this observer's
        #: spans with the owning trace.  Untyped on purpose: obs must
        #: not import telemetry.
        self.trace_ctx: Optional[Any] = None
        self._max_samples = max_samples
        self._spans: Dict[str, SpanStats] = {}
        self._gauges: Dict[str, GaugeTimeline] = {}
        self._gauge_ticks: Dict[str, int] = {}
        self.events = EventLog(max_events=max_events, policy=event_policy)
        self._t0 = time.perf_counter()

    @property
    def t0(self) -> float:
        """The ``time.perf_counter`` reading at which this observer's
        clock started (event/gauge ``t`` offsets are relative to it).
        Exposed so trace stitchers can align observer timelines with a
        request-scoped clock."""
        return self._t0

    # -- spans ---------------------------------------------------------

    def span(self, name: str):
        """A context manager timing one occurrence of phase ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        if self.trace_spans:
            return _TracedSpan(
                self._span_stats(name), self.events, self._t0
            )
        return _Span(self._span_stats(name))

    def _span_stats(self, name: str) -> SpanStats:
        stats = self._spans.get(name)
        if stats is None:
            stats = SpanStats(name)
            self._spans[name] = stats
        return stats

    def record_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold an externally measured duration into phase ``name``."""
        if not self.enabled:
            return
        stats = self._span_stats(name)
        if self.trace_spans:
            # Treat "now" as the external measurement's end.
            self.events.append(
                time.perf_counter() - self._t0, SPAN_EVENT, name,
                seconds,
            )
        if count == 1:
            stats.record(seconds)
            return
        stats.count += count
        stats.total_s += seconds
        if seconds > stats.max_s:
            stats.max_s = seconds

    def span_seconds(self, name: str) -> float:
        stats = self._spans.get(name)
        return stats.total_s if stats is not None else 0.0

    def span_count(self, name: str) -> int:
        stats = self._spans.get(name)
        return stats.count if stats is not None else 0

    # -- gauges --------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Record a float level for ``name`` (subject to sampling)."""
        if not self.enabled:
            return
        if self.sample_every > 1:
            tick = self._gauge_ticks.get(name, 0)
            self._gauge_ticks[name] = tick + 1
            if tick % self.sample_every:
                return
        timeline = self._gauges.get(name)
        if timeline is None:
            timeline = GaugeTimeline(name, self._max_samples)
            self._gauges[name] = timeline
        timeline.record(time.perf_counter() - self._t0, value)

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
        self.events.append(
            time.perf_counter() - self._t0, kind, label, value
        )

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
        """Fold another observer's (or snapshot's) measurements in.

        Span counts and totals add; extrema combine by min/max.  Gauge
        merges keep the other side's last value (it is newer by
        construction in the worker-batch flow) and combine extrema.
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
                timeline = GaugeTimeline(name, self._max_samples)
                self._gauges[name] = timeline
            timeline.count += count
            timeline.last = last
            if mn < timeline.min_value:
                timeline.min_value = mn
            if mx > timeline.max_value:
                timeline.max_value = mx

    def reset(self) -> None:
        """Drop every recorded span, gauge, and event."""
        self._spans.clear()
        self._gauges.clear()
        self._gauge_ticks.clear()
        self.events = EventLog(
            max_events=self.events.max_events,
            policy=self.events.policy,
        )
        self._t0 = time.perf_counter()

    def __repr__(self) -> str:
        return (
            f"Observer(enabled={self.enabled}, "
            f"spans={len(self._spans)}, gauges={len(self._gauges)}, "
            f"events={self.events.total})"
        )


#: The shared disabled observer: instrumented components default to it
#: so uninstrumented call sites pay one attribute read.  Never enable
#: it in place -- create a private :class:`Observer` instead.
NULL_OBSERVER = Observer(enabled=False)


# ----------------------------------------------------------------------
# metrics export (JSON-lines + Prometheus-style text)
# ----------------------------------------------------------------------


def _counter_snapshot(
    counters: Union[CounterRegistry, CounterSnapshot, None]
) -> Optional[CounterSnapshot]:
    if counters is None:
        return None
    if isinstance(counters, CounterRegistry):
        return counters.full_snapshot()
    return counters


def _obs_snapshot(
    obs: Union[Observer, ObsSnapshot, None]
) -> Optional[ObsSnapshot]:
    if obs is None:
        return None
    if isinstance(obs, Observer):
        return obs.snapshot()
    return obs


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
    counter_snap = _counter_snapshot(counters)
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
    obs_snap = _obs_snapshot(obs)
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
