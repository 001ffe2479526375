"""The ``live`` benchmark family: standing-join update repair.

Measures what the standing join exists for: the cost of keeping a
top-K result current across a scripted insert/delete schedule,
counted per *repair* rather than per full recomputation.  The stream
yields one item per emitted delta, so the suite's ``pairs_produced``
is the delta volume and the counter totals (``dist_calcs``,
``bound_calcs``, ``live_probe_pairs``, ``live_repairs``,
``live_refills``) are the per-update repair work -- all deterministic
and therefore hard-gated by :mod:`repro.bench.compare`.

The stream builds *private* trees from the workload's point lists
(never mutating the shared workload trees the other cases measure);
tree construction and mutation I/O are charged to a private registry
so the measured counters cover only the repair machinery.

With ``limits``, one standing join per K watches the same private
trees and every update is fanned out to all of them the way the
service does it: one shared partner probe per insert
(:func:`~repro.live.share_insert_probes`), so the totals gate the
shared probe's work.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.core.spec import JoinSpec
from repro.live import Delta, StandingJoin, share_insert_probes
from repro.rtree.base import RTreeBase
from repro.rtree.bulk import bulk_load_str
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer
from repro.util.validation import require_positive

__all__ = ["update_repair_stream"]

#: Synthetic oid base for scripted inserts (clear of bulk-loaded oids).
_UPDATE_OID_BASE = 10_000_000


def update_repair_stream(
    load,
    spec: JoinSpec,
    counters: Optional[CounterRegistry] = None,
    observer: Optional[Observer] = None,
    updates: int = 32,
    limits: Sequence[int] = (),
) -> Iterator[Delta]:
    """Yield every repair delta of a scripted update schedule.

    The scripted inserts copy the first ``updates`` points of the
    *second* relation into the first relation's tree: each one creates
    a zero-distance pair that is guaranteed to crack the top-K, so
    every insert emits deltas.  Every third step deletes the oldest
    still-present scripted insert, retracting a published pair and
    exercising the refill path.  The schedule is a pure function of
    the workload, so repeated runs produce identical counters.

    ``limits`` registers one join per K (``spec`` with that
    ``max_pairs``) in place of the one join of ``spec``; each update
    yields every join's deltas, in ``limits`` order.
    """
    require_positive(updates, "updates")
    updates = min(updates, max(1, len(load.points2) // 4))
    held = load.points2[:updates]
    base = list(load.points1)

    # Private trees and a private registry for build/mutation I/O:
    # the measured registry sees only the standing join's repair work.
    tree_counters = CounterRegistry()
    tree1 = bulk_load_str(
        base, max_entries=load.tree1.max_entries,
        counters=tree_counters, dim=2,
    )
    tree2 = bulk_load_str(
        list(load.points2), max_entries=load.tree2.max_entries,
        counters=tree_counters, dim=2,
    )

    joins = [
        StandingJoin(
            tree1, tree2, join_spec, counters=counters, observer=observer
        )
        for join_spec in (
            [spec.evolve(max_pairs=k) for k in limits] or [spec]
        )
    ]
    # The bootstrap scan's ADD deltas are part of the stream: they are
    # the subscription's initial page.
    for standing in joins:
        yield from standing.poll()

    inserted: list = []
    for step, point in enumerate(held):
        oid = _UPDATE_OID_BASE + step
        tree1.insert(obj=point, oid=oid)
        probes = share_insert_probes(
            [(standing, 1) for standing in joins], oid, point
        )
        for standing, probe in zip(joins, probes):
            yield from standing.observe_insert(oid, point, probe=probe)
        inserted.append((oid, point))
        if step % 3 == 2:
            victim, victim_point = inserted.pop(0)
            tree1.delete(victim, RTreeBase._rect_of(victim_point))
            for standing in joins:
                yield from standing.observe_delete(victim)
