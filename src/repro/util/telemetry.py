"""Trace identity and certified progress estimation.

The paper's incremental joins have a property most query engines have
to approximate: the operator's *entire* state is its priority queue,
and the queue-head distance is monotonically non-decreasing (ascending
mode).  That gives the serving layer a **certified progress signal**
for free -- pairs emitted toward ``STOP AFTER k`` is a provable lower
bound on the completed fraction, and the head distance's position
inside the spec's ``[dmin, dmax]`` range is a natural
(distribution-dependent) estimate.

This module records nothing; it holds the two value types the
recorder (:class:`repro.util.obs.Observer`) and the service share:

- :class:`TraceContext` -- W3C ``traceparent`` parsing/minting, the
  identity that ties HTTP request, scheduler quanta and operator
  spans into *one* trace;
- :class:`ProgressEstimator` -- folds an operator's raw
  ``progress_signals()`` dict into a
  ``(lower_bound, estimate, phase)`` :class:`ProgressReport` whose
  lower bound is *certified*: it ratchets (never decreases, including
  across pickled suspend/resume) and never exceeds the true completed
  fraction.

Nothing here runs on the operator hot path -- the scheduler samples
progress once per quantum, not once per pair.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, NamedTuple, Optional

__all__ = [
    "ProgressEstimator",
    "ProgressReport",
    "TraceContext",
    "new_span_id",
    "new_trace_id",
]

#: The only ``traceparent`` version we emit (and the current W3C one).
TRACEPARENT_VERSION = "00"

#: Envelope identifiers for pickled progress state.
PROGRESS_FORMAT = "repro-progress"
PROGRESS_VERSION = 1

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
