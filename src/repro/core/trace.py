"""Execution tracing for the incremental joins.

For teaching, debugging, and the paper's correctness argument it is
invaluable to *watch* the algorithm: which pair was popped, what it
expanded into, what was pruned and why.  :func:`traced_join` wraps any
join driver with a recording layer and returns a :class:`JoinTrace`
that can be inspected programmatically or pretty-printed.

Example
-------
>>> from repro.rtree.rstar import RStarTree
>>> from repro.core.distance_join import IncrementalDistanceJoin
>>> from repro.core.trace import traced_join
>>> a, b = RStarTree(dim=2), RStarTree(dim=2)
>>> for x in range(4):
...     _ = a.insert_point((float(x), 0.0))
...     _ = b.insert_point((float(x), 1.0))
>>> join, trace = traced_join(IncrementalDistanceJoin, a, b)
>>> first = next(join)
>>> trace.events[0].kind
'pop'
>>> trace.reported
1
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Type

from repro.core.pairs import NODE, Item, Pair
from repro.util.obs import KEEP_FIRST, EventLog

_KIND_LABEL = {0: "node", 1: "obr", 2: "obj"}


def _item_label(item: Item) -> str:
    if item.kind == NODE:
        return f"node#{item.node_id}@L{item.level}"
    return f"{_KIND_LABEL[item.kind]}#{item.oid}"


def _pair_label(pair: Pair) -> str:
    return (
        f"({_item_label(pair.item1)}, {_item_label(pair.item2)}) "
        f"d={pair.distance:.4g}"
    )


@dataclass
class TraceEvent:
    """One recorded step of the algorithm."""

    sequence: int
    kind: str  # "pop" | "push" | "report" | "expand"
    label: str
    distance: float

    def __str__(self) -> str:
        return f"[{self.sequence:>6}] {self.kind:<7} {self.label}"


class JoinTrace:
    """The recorded execution: an event list plus running tallies.

    Backed by the bounded :class:`repro.util.obs.EventLog` with the
    keep-*first* policy: a trace is an execution prefix, so the first
    ``max_events`` steps are retained and later ones only counted.
    :attr:`events` keeps the original public shape (a list of
    :class:`TraceEvent`).
    """

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.pops = 0
        self.pushes = 0
        self.expansions = 0
        self.reported = 0
        self._log = EventLog(max_events=max_events, policy=KEEP_FIRST)
        self._t0 = time.perf_counter()

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events in recording order."""
        return [
            TraceEvent(event.seq, event.kind, event.label, event.value)
            for event in self._log
        ]

    @property
    def total_events(self) -> int:
        """Every recorded step, including those past ``max_events``."""
        return self._log.total

    def _record(self, kind: str, label: str, distance: float) -> None:
        self._log.append(
            time.perf_counter() - self._t0, kind, label, distance
        )

    def render(self, limit: int = 50) -> str:
        """The first ``limit`` events as a readable transcript."""
        retained = self.events
        lines = [str(event) for event in retained[:limit]]
        if len(retained) > limit:
            lines.append(f"... {len(retained) - limit} more events")
        lines.append(
            f"totals: {self.pops} pops, {self.expansions} expansions, "
            f"{self.pushes} pushes, {self.reported} reported"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"JoinTrace(events={self._log.total}, pops={self.pops}, "
            f"pushes={self.pushes}, reported={self.reported})"
        )


class _TracingQueue:
    """A pass-through queue proxy that records pops."""

    def __init__(self, inner, trace: JoinTrace) -> None:
        self._inner = inner
        self._trace = trace

    def push(self, key, value) -> None:
        self._inner.push(key, value)

    def pop(self):
        key, pair = self._inner.pop()
        self._trace.pops += 1
        self._trace._record("pop", _pair_label(pair), pair.distance)
        return key, pair

    def peek(self):
        return self._inner.peek()

    def __len__(self) -> int:
        return len(self._inner)

    def __bool__(self) -> bool:
        return len(self._inner) > 0


class _TracingMixin:
    """Overrides the join's queue/report plumbing to record events."""

    _trace: JoinTrace

    def _make_queue(self):  # type: ignore[override]
        return _TracingQueue(
            super()._make_queue(),  # type: ignore[misc]
            self._trace,
        )

    def _push(self, pair: Pair) -> None:  # type: ignore[override]
        self._trace.pushes += 1
        self._trace._record("push", _pair_label(pair), pair.distance)
        super()._push(pair)  # type: ignore[misc]

    def _process_pair(self, pair: Pair) -> None:  # type: ignore[override]
        self._trace.expansions += 1
        self._trace._record("expand", _pair_label(pair), pair.distance)
        super()._process_pair(pair)  # type: ignore[misc]

    def _report(  # type: ignore[override]
        self, distance: float, item1: Item, item2: Item
    ):
        self._trace.reported += 1
        self._trace._record(
            "report", _pair_label(Pair(item1, item2, distance)), distance
        )
        return super()._report(distance, item1, item2)  # type: ignore[misc]


def traced_join(
    join_class: Type,
    *args: Any,
    trace: Optional[JoinTrace] = None,
    **kwargs: Any,
) -> Tuple[Any, JoinTrace]:
    """Build ``join_class(*args, **kwargs)`` with tracing attached.

    Returns ``(join, trace)``.  Works with any of the join drivers
    (:class:`IncrementalDistanceJoin`, the semi-join, the reverse and
    k-NN variants) because it subclasses on the fly and only touches
    the shared plumbing hooks.
    """
    if trace is None:
        trace = JoinTrace()

    traced_class = type(
        f"Traced{join_class.__name__}", (_TracingMixin, join_class), {}
    )
    # _push fires during __init__ (the root pair), so the trace must
    # exist before construction completes: stash it on the class for
    # the duration of construction only.  The finally matters -- a
    # raising __init__ must not leave the trace pinned to the class.
    traced_class._trace = trace
    try:
        join = traced_class(*args, **kwargs)
    finally:
        del traced_class._trace
    join._trace = trace
    return join, trace
