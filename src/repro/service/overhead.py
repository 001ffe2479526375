"""Suspend/resume overhead harness for the ``service`` bench family.

:func:`resumed_join` produces exactly the same result stream as an
uninterrupted join, but suspends itself every ``every`` results: it
saves the cursor, optionally round-trips it through pickled bytes
(the realistic eviction path), rebuilds the join with
:meth:`~repro.core.distance_join.IncrementalDistanceJoin.load`, and
continues.  Benchmarking it against the plain iterator prices the
quantum scheduler's per-suspend cost in isolation.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Type

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.spec import JoinSpec
from repro.service import cursor as service_cursor
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer
from repro.util.validation import require_positive


def resumed_join(
    tree1: Any,
    tree2: Any,
    spec: Optional[JoinSpec] = None,
    *,
    operator_cls: Type[IncrementalDistanceJoin] = IncrementalDistanceJoin,
    counters: Optional[CounterRegistry] = None,
    observer: Optional[Observer] = None,
    every: int = 64,
    through_bytes: bool = True,
) -> Iterator[Any]:
    """Iterate a join, suspending and resuming every ``every`` results.

    Parameters
    ----------
    operator_cls:
        The incremental operator to run (join, semi-join, ...); must
        support ``save()``/``load()``.
    every:
        Results produced between consecutive suspend/resume cycles.
    through_bytes:
        When True each cursor also round-trips through the pickled
        service-cursor envelope, as an evicted session's would.

    Yields exactly what the uninterrupted operator would, with the
    shared ``counters`` registry accumulating continuous totals.
    """
    require_positive(every, "every")
    join = operator_cls(
        tree1, tree2, spec, counters=counters, observer=observer
    )
    while True:
        produced = 0
        exhausted = False
        for result in join:
            yield result
            produced += 1
            if produced >= every:
                break
        else:
            exhausted = True
        if exhausted:
            return
        state = join.save()
        if through_bytes:
            state = service_cursor.loads(service_cursor.dumps(state))
        join = operator_cls.load(
            state, tree1, tree2, counters=counters, observer=observer,
        )


__all__ = ["resumed_join"]
