"""Request-scoped tracing and certified progress estimation.

The paper's incremental joins have a property most query engines have
to approximate: the operator's *entire* state is its priority queue,
and the queue-head distance is monotonically non-decreasing (ascending
mode).  That gives the serving layer two things for free:

- a **certified progress signal** -- pairs emitted toward ``STOP AFTER
  k`` is a provable lower bound on the completed fraction, and the
  head distance's position inside the spec's ``[dmin, dmax]`` range is
  a natural (distribution-dependent) estimate;
- a **resumable timeline** -- because sessions suspend to a cursor and
  resume later, a request's trace must survive pickling and re-anchor
  its clock without time running backwards.

This module supplies both halves:

- :class:`TraceContext` -- W3C ``traceparent`` parsing/minting, the
  identity that ties HTTP request, scheduler quanta, operator spans,
  and parallel-worker snapshots into *one* trace;
- :class:`RequestTelemetry` -- a bounded, picklable span recorder with
  automatic parentage (a context-manager stack), a monotone clock that
  survives suspend/resume (``state()`` / ``restore()``), and export
  helpers (:func:`span_tree`, :func:`stitched_records`,
  :func:`chrome_trace_events`) that graft per-operator
  :class:`~repro.util.obs.Observer` span events and per-worker
  :class:`~repro.util.obs.ObsSnapshot` aggregates into the request's
  span tree;
- :class:`ProgressEstimator` -- folds an operator's raw
  ``progress_signals()`` dict into a
  ``(lower_bound, estimate, phase)`` :class:`ProgressReport` whose
  lower bound is *certified*: it ratchets (never decreases, including
  across pickled suspend/resume) and never exceeds the true completed
  fraction.

Overhead discipline mirrors :mod:`repro.util.obs`: every hook gates on
``enabled`` (one attribute read), :data:`NULL_TELEMETRY` and its shared
null span make the disabled path allocation-free, and nothing in this
module runs on the operator hot path -- the scheduler samples once per
quantum, not once per pair.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.util.obs import ObsSnapshot, Observer, SPAN_EVENT

__all__ = [
    "NULL_TELEMETRY",
    "ProgressEstimator",
    "ProgressReport",
    "RequestTelemetry",
    "SpanRecord",
    "TraceContext",
    "chrome_trace_events",
    "new_span_id",
    "new_trace_id",
    "span_tree",
    "stitched_records",
]

#: The only ``traceparent`` version we emit (and the current W3C one).
TRACEPARENT_VERSION = "00"

#: Envelope identifiers for pickled telemetry / progress state.
TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1
PROGRESS_FORMAT = "repro-progress"
PROGRESS_VERSION = 1

#: Default bound on retained span records per request.
DEFAULT_MAX_SPANS = 512

#: Default bound on retained point events per request.
DEFAULT_MAX_TEL_EVENTS = 256

#: Slack (seconds) when deciding span containment during grafting --
#: observer span ends and telemetry span ends are separate clock reads.
_CONTAIN_EPS = 5e-4

_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id() -> str:
    """A random 32-hex-digit (128-bit) trace id."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A random 16-hex-digit (64-bit) span id."""
    return os.urandom(8).hex()


def _valid_id(value: str, width: int) -> bool:
    """Hex id of exactly ``width`` digits, not all zeros (the W3C
    formats reserve the all-zero id as "invalid")."""
    return (
        len(value) == width
        and all(ch in _HEX_DIGITS for ch in value)
        and value.count("0") != width
    )


@dataclass(frozen=True)
class TraceContext:
    """The identity of one distributed trace.

    ``trace_id`` names the whole trace; ``span_id`` is *this* request's
    root span; ``parent_id`` is the caller's span (empty when the trace
    was minted here rather than propagated in).
    """

    trace_id: str
    span_id: str
    parent_id: str = ""

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh root context (no upstream caller)."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a W3C ``traceparent`` header into a child context.

        The incoming span id becomes our ``parent_id`` and a fresh
        ``span_id`` is minted for the local root span, per the spec's
        propagation model.  Returns ``None`` on anything malformed --
        the caller then mints a new trace instead of failing the
        request.
        """
        if not header:
            return None
        parts = header.strip().lower().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, parent_span, flags = parts[0], parts[1], parts[2], parts[3]
        if len(version) != 2 or not all(ch in _HEX_DIGITS for ch in version):
            return None
        if version == "ff":
            return None
        if not _valid_id(trace_id, 32) or not _valid_id(parent_span, 16):
            return None
        if len(flags) != 2 or not all(ch in _HEX_DIGITS for ch in flags):
            return None
        return cls(
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_span,
        )

    def to_traceparent(self) -> str:
        """Render as an outgoing ``traceparent`` header (sampled)."""
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01"

    def as_dict(self) -> Dict[str, str]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


@dataclass
class SpanRecord:
    """One finished span: times are seconds on the request's monotone
    clock (0.0 = request admission, surviving suspend/resume)."""

    name: str
    span_id: str
    parent_id: str
    t0: float
    dur: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0": self.t0,
            "dur": self.dur,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            span_id=str(data["span_id"]),
            parent_id=str(data.get("parent_id", "")),
            t0=float(data["t0"]),
            dur=float(data["dur"]),
            attrs=dict(data.get("attrs", {})),
        )


class _TelSpan:
    """A live telemetry span: context manager appending a SpanRecord."""

    __slots__ = ("_tel", "_name", "_attrs", "span_id", "_parent_id",
                 "_start")

    def __init__(
        self, tel: "RequestTelemetry", name: str, attrs: Dict[str, Any]
    ) -> None:
        self._tel = tel
        self._name = name
        self._attrs = attrs
        self.span_id = ""
        self._parent_id = ""
        self._start = 0.0

    def __enter__(self) -> "_TelSpan":
        tel = self._tel
        stack = tel._stack
        self._parent_id = stack[-1] if stack else tel.ctx.span_id
        self.span_id = new_span_id()
        stack.append(self.span_id)
        self._start = tel.now()
        return self

    def set(self, **attrs: Any) -> "_TelSpan":
        """Attach attributes to the span while it is open."""
        self._attrs.update(attrs)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        tel = self._tel
        end = tel.now()
        if tel._stack and tel._stack[-1] == self.span_id:
            tel._stack.pop()
        tel._record(SpanRecord(
            name=self._name,
            span_id=self.span_id,
            parent_id=self._parent_id,
            t0=self._start,
            dur=end - self._start,
            attrs=self._attrs,
        ))


class _NullTelSpan:
    """Allocation-free no-op span for disabled telemetry."""

    __slots__ = ()
    span_id = ""

    def __enter__(self) -> "_NullTelSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def set(self, **attrs: Any) -> "_NullTelSpan":
        return self


_NULL_TEL_SPAN = _NullTelSpan()


class RequestTelemetry:
    """Bounded request-scoped span recorder with a resumable clock.

    Times are seconds since admission on a monotone clock that
    survives pickling: ``state()`` captures the elapsed offset and
    ``restore()`` re-anchors ``time.perf_counter`` so spans recorded
    after a resume always come later than spans recorded before the
    suspend, even across processes.

    Parentage is automatic: nested ``with tel.span(...)`` blocks form
    a stack, the innermost open span parents the next one, and
    top-level spans parent to the request root (``ctx.span_id``).
    """

    def __init__(
        self,
        ctx: Optional[TraceContext] = None,
        enabled: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS,
        max_events: int = DEFAULT_MAX_TEL_EVENTS,
    ) -> None:
        self.ctx = ctx if ctx is not None else TraceContext.mint()
        self.enabled = enabled
        self.max_spans = max_spans
        self.max_events = max_events
        self.spans: List[SpanRecord] = []
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []
        self.dropped = 0
        self._stack: List[str] = []
        self._base = 0.0
        self._t0 = time.perf_counter()

    def now(self) -> float:
        """Seconds since request admission (monotone across resume)."""
        return self._base + (time.perf_counter() - self._t0)

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager recording one span named ``name``."""
        if not self.enabled:
            return _NULL_TEL_SPAN
        return _TelSpan(self, name, attrs)

    def _record(self, record: SpanRecord) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(record)

    def record_span(
        self,
        name: str,
        t0: float,
        dur: float,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Append an externally measured span; returns its span id."""
        if not self.enabled:
            return ""
        sid = span_id if span_id else new_span_id()
        self._record(SpanRecord(
            name=name,
            span_id=sid,
            parent_id=parent_id if parent_id else self.ctx.span_id,
            t0=t0,
            dur=dur,
            attrs=dict(attrs) if attrs else {},
        ))
        return sid

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event on the request timeline."""
        if not self.enabled:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append((self.now(), name, attrs))

    # -- suspend / resume ---------------------------------------------

    def state(self) -> Dict[str, Any]:
        """A picklable snapshot (plain dicts/lists only)."""
        return {
            "format": TELEMETRY_FORMAT,
            "version": TELEMETRY_VERSION,
            "trace_id": self.ctx.trace_id,
            "span_id": self.ctx.span_id,
            "parent_id": self.ctx.parent_id,
            "elapsed": self.now(),
            "dropped": self.dropped,
            "max_spans": self.max_spans,
            "max_events": self.max_events,
            "spans": [record.as_dict() for record in self.spans],
            "events": [
                [t, name, dict(attrs)] for t, name, attrs in self.events
            ],
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "RequestTelemetry":
        """Rebuild from :meth:`state`, re-anchoring the clock so time
        keeps moving forward from the suspended elapsed offset."""
        if state.get("format") != TELEMETRY_FORMAT:
            raise ValueError(
                f"not a telemetry state: format={state.get('format')!r}"
            )
        tel = cls(
            ctx=TraceContext(
                trace_id=str(state["trace_id"]),
                span_id=str(state["span_id"]),
                parent_id=str(state.get("parent_id", "")),
            ),
            enabled=True,
            max_spans=int(state.get("max_spans", DEFAULT_MAX_SPANS)),
            max_events=int(
                state.get("max_events", DEFAULT_MAX_TEL_EVENTS)
            ),
        )
        tel.spans = [
            SpanRecord.from_dict(item) for item in state.get("spans", [])
        ]
        tel.events = [
            (float(item[0]), str(item[1]), dict(item[2]))
            for item in state.get("events", [])
        ]
        tel.dropped = int(state.get("dropped", 0))
        tel._base = float(state.get("elapsed", 0.0))
        tel._t0 = time.perf_counter()
        return tel

    def __repr__(self) -> str:
        return (
            f"RequestTelemetry(trace={self.ctx.trace_id[:8]}..., "
            f"spans={len(self.spans)}, dropped={self.dropped})"
        )


#: Shared disabled telemetry: the scheduler defaults to it so the
#: telemetry-off path costs one attribute read and zero allocations.
NULL_TELEMETRY = RequestTelemetry(
    ctx=TraceContext(trace_id="0" * 32, span_id="0" * 16),
    enabled=False,
    max_spans=0,
    max_events=0,
)


# ----------------------------------------------------------------------
# stitching: observer spans and worker snapshots into the request tree
# ----------------------------------------------------------------------


def _containing_parent(
    records: Sequence[SpanRecord], start: float, end: float
) -> Optional[SpanRecord]:
    """The tightest recorded span containing ``[start, end]`` (with
    clock-skew slack), or None."""
    best: Optional[SpanRecord] = None
    for record in records:
        if (record.t0 <= start + _CONTAIN_EPS
                and record.t0 + record.dur >= end - _CONTAIN_EPS):
            if best is None or record.dur < best.dur:
                best = record
    return best


def stitched_records(
    tel: RequestTelemetry,
    observers: Iterable[Tuple[Observer, float, str]] = (),
    worker_tracks: Iterable[
        Tuple[Mapping[int, ObsSnapshot], Mapping[int, str], float,
              Optional[str]]
    ] = (),
    exclude_prefixes: Tuple[str, ...] = (),
) -> List[SpanRecord]:
    """The request's span records plus grafted operator/worker spans.

    Pure function of its inputs (never mutates ``tel``), so debug
    endpoints and slow-query dumps can stitch repeatedly without
    duplicating spans.

    ``observers`` entries are ``(obs, anchor, prefix)``: an operator
    :class:`Observer` recorded with ``trace_spans=True``, the telemetry
    time at which its clock started (its t=0), and a name prefix.  Each
    of its :data:`~repro.util.obs.SPAN_EVENT` entries becomes a child
    of the tightest telemetry span containing it (quantum spans, in the
    service flow), falling back to the request root.

    ``worker_tracks`` entries are ``(task_obs, task_workers, anchor,
    parent_id)`` -- the per-task snapshot/worker maps a
    :class:`~repro.shard.router.ShardRouterJoin` exposes.
    Snapshots carry totals, not per-occurrence times, so each worker
    renders as one synthetic span with its stage totals laid end to
    end beneath it (a time budget, not a literal schedule).

    ``exclude_prefixes`` drops observer span labels the telemetry
    layer already records itself (the scheduler's ``service.*`` spans
    land in both surfaces); excluding them here keeps the tree free of
    duplicates.
    """
    base = list(tel.spans)
    out = list(base)
    for obs, anchor, prefix in observers:
        for event in obs.events:
            if event.kind != SPAN_EVENT:
                continue
            if exclude_prefixes and event.label.startswith(
                    exclude_prefixes):
                continue
            end = anchor + event.t
            start = end - event.value
            if start < anchor:
                start = anchor
            parent = _containing_parent(base, start, end)
            out.append(SpanRecord(
                name=prefix + event.label,
                span_id=new_span_id(),
                parent_id=(
                    parent.span_id if parent is not None
                    else tel.ctx.span_id
                ),
                t0=start,
                dur=event.value,
            ))
    for task_obs, task_workers, anchor, parent_id in worker_tracks:
        by_worker: Dict[str, List[ObsSnapshot]] = {}
        for task_id, snapshot in task_obs.items():
            label = task_workers.get(task_id, "worker-?")
            by_worker.setdefault(label, []).append(snapshot)
        for label in sorted(by_worker):
            merged = Observer(max_events=0)
            for snapshot in by_worker[label]:
                merged.merge(snapshot)
            snap = merged.snapshot()
            total = sum(entry[1] for entry in snap.spans.values())
            worker_sid = new_span_id()
            out.append(SpanRecord(
                name=f"worker:{label}",
                span_id=worker_sid,
                parent_id=(
                    parent_id if parent_id else tel.ctx.span_id
                ),
                t0=anchor,
                dur=total,
                attrs={"tasks": len(by_worker[label])},
            ))
            cursor = anchor
            for name in sorted(snap.spans):
                count, stage_total, _mn, _mx = snap.spans[name]
                out.append(SpanRecord(
                    name=name,
                    span_id=new_span_id(),
                    parent_id=worker_sid,
                    t0=cursor,
                    dur=stage_total,
                    attrs={"count": count},
                ))
                cursor += stage_total
    return out


def span_tree(
    tel: RequestTelemetry,
    records: Optional[Sequence[SpanRecord]] = None,
) -> Dict[str, Any]:
    """The request as one nested JSON span tree rooted at the trace
    context.  Records whose parent is unknown (e.g. their parent span
    was dropped by the bound) reattach to the root, so the tree is
    always connected."""
    if records is None:
        records = tel.spans
    ordered = sorted(records, key=lambda r: (r.t0, r.dur))
    known = {record.span_id for record in ordered}
    known.add(tel.ctx.span_id)
    children: Dict[str, List[SpanRecord]] = {}
    for record in ordered:
        parent = record.parent_id
        if parent not in known or parent == record.span_id:
            parent = tel.ctx.span_id
        children.setdefault(parent, []).append(record)

    def node(record: SpanRecord) -> Dict[str, Any]:
        entry = record.as_dict()
        entry["children"] = [
            node(child) for child in children.get(record.span_id, [])
        ]
        return entry

    return {
        "name": "request",
        "trace_id": tel.ctx.trace_id,
        "span_id": tel.ctx.span_id,
        "parent_id": tel.ctx.parent_id,
        "t0": 0.0,
        "dur": tel.now(),
        "dropped_spans": tel.dropped,
        "events": [
            {"t": t, "name": name, "attrs": dict(attrs)}
            for t, name, attrs in tel.events
        ],
        "children": [
            node(record)
            for record in children.get(tel.ctx.span_id, [])
        ],
    }


def chrome_trace_events(
    tel: RequestTelemetry,
    records: Optional[Sequence[SpanRecord]] = None,
    pid: int = 1,
    tid: int = 1,
    process_name: str = "repro service",
) -> List[Dict[str, Any]]:
    """Chrome trace-event JSON for one request: the root span plus
    every record, each carrying trace/span/parent ids in ``args`` so
    Perfetto's flow queries can follow the tree."""
    from repro.util.tracing import (
        process_name_event,
        span_record_events,
        thread_name_event,
    )

    if records is None:
        records = tel.spans
    events: List[Dict[str, Any]] = [
        process_name_event(pid, process_name),
        thread_name_event(
            pid, tid, f"trace {tel.ctx.trace_id[:16]}"
        ),
        {
            "name": "request", "cat": "telemetry", "ph": "X",
            "ts": 0.0, "dur": tel.now() * 1e6,
            "pid": pid, "tid": tid,
            "args": tel.ctx.as_dict(),
        },
    ]
    events.extend(span_record_events(
        records, pid=pid, tid=tid, trace_id=tel.ctx.trace_id,
    ))
    for t, name, attrs in tel.events:
        events.append({
            "name": name, "cat": "telemetry", "ph": "i",
            "ts": t * 1e6, "pid": pid, "tid": tid, "s": "t",
            "args": dict(attrs, trace_id=tel.ctx.trace_id),
        })
    return events


# ----------------------------------------------------------------------
# certified progress estimation
# ----------------------------------------------------------------------


class ProgressReport(NamedTuple):
    """One progress reading.

    ``lower_bound`` is *certified*: provably ≤ the true completed
    fraction, and monotone non-decreasing across readings of the same
    estimator (including across pickled suspend/resume).  ``estimate``
    is the best guess (≥ the lower bound, ≤ 1.0) folding in the
    distance-range position and cost-model cardinality -- useful, but
    distribution-dependent.  ``phase`` is ``init`` / ``running`` /
    ``done``.
    """

    lower_bound: float
    estimate: float
    phase: str
    detail: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "lower_bound": self.lower_bound,
            "estimate": self.estimate,
            "phase": self.phase,
            "detail": dict(self.detail),
        }


def _distance_fraction(signals: Mapping[str, Any]) -> Optional[float]:
    """Position of the queue-head distance inside the spec's distance
    range, or None when the range is unbounded or the head unknown."""
    head = signals.get("head_distance")
    dmax = signals.get("max_distance")
    if head is None or dmax is None:
        return None
    try:
        head = float(head)
        dmax = float(dmax)
    except (TypeError, ValueError):
        return None
    if not math.isfinite(dmax):
        return None
    dmin = float(signals.get("min_distance") or 0.0)
    if dmax <= dmin:
        return None
    if signals.get("descending"):
        fraction = (dmax - head) / (dmax - dmin)
    else:
        fraction = (head - dmin) / (dmax - dmin)
    if fraction < 0.0:
        return 0.0
    if fraction > 1.0:
        return 1.0
    return fraction


class ProgressEstimator:
    """Certified progress for one incremental operator.

    The lower bound uses only facts the algorithm proves:

    - ``produced / max_pairs`` when the query carries ``STOP AFTER k``
      (the true total is ``min(k, available)`` ≤ ``k``, so the ratio
      never overstates);
    - 1.0 exactly when the operator reports ``done``.

    Everything distribution-dependent -- the head distance's position
    in ``[dmin, dmax]`` and the cost model's cardinality estimate
    (``total_hint``) -- only raises the *estimate*.  A ratcheting
    floor, persisted by :meth:`state` / :meth:`restore`, keeps the
    lower bound monotone across quantum boundaries and suspend/resume
    cycles.
    """

    def __init__(self, total_hint: Optional[float] = None) -> None:
        self.total_hint = (
            float(total_hint)
            if total_hint and total_hint > 0 else None
        )
        self._floor = 0.0

    @property
    def lower_bound(self) -> float:
        """The current certified floor (last reported lower bound)."""
        return self._floor

    def report(self, signals: Mapping[str, Any]) -> ProgressReport:
        produced = int(signals.get("produced") or 0)
        max_pairs = signals.get("max_pairs")
        done = bool(signals.get("done"))
        lower = self._floor
        if max_pairs:
            certified = produced / float(max_pairs)
            if certified > lower:
                lower = certified
        if done:
            lower = 1.0
        if lower > 1.0:
            lower = 1.0
        self._floor = lower

        detail: Dict[str, Any] = dict(signals)
        estimate = lower
        fraction = _distance_fraction(signals)
        if fraction is not None:
            detail["distance_fraction"] = fraction
            if fraction > estimate:
                estimate = fraction
        hint = self.total_hint
        if not hint:
            raw_hint = signals.get("total_hint")
            if raw_hint and raw_hint > 0:
                hint = float(raw_hint)
        if hint:
            detail["total_hint"] = hint
            hinted = produced / hint
            if hinted > estimate:
                estimate = hinted
        if estimate > 1.0:
            estimate = 1.0
        if done:
            estimate = 1.0

        if done:
            phase = "done"
        elif produced == 0:
            phase = "init"
        else:
            phase = "running"
        return ProgressReport(
            lower_bound=lower,
            estimate=estimate,
            phase=phase,
            detail=detail,
        )

    def state(self) -> Dict[str, Any]:
        return {
            "format": PROGRESS_FORMAT,
            "version": PROGRESS_VERSION,
            "floor": self._floor,
            "total_hint": self.total_hint,
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "ProgressEstimator":
        if state.get("format") != PROGRESS_FORMAT:
            raise ValueError(
                f"not a progress state: format={state.get('format')!r}"
            )
        estimator = cls(total_hint=state.get("total_hint"))
        estimator._floor = float(state.get("floor", 0.0))
        return estimator

    def __repr__(self) -> str:
        return (
            f"ProgressEstimator(floor={self._floor:.3f}, "
            f"total_hint={self.total_hint})"
        )
