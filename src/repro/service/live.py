"""Standing-query subscription sources for the join service.

A :class:`LiveSource` is the subscription-shaped sibling of
:class:`~repro.service.session.QuerySource`: instead of a rebuildable
row stream it wraps a registered :class:`~repro.live.StandingJoin`
whose delta outbox the scheduler pages into the session buffer
(``GET /next`` returns delta events, not rows).  A subscription never
exhausts -- an empty page just means no repairs are pending.

Suspension works through the same cursor protocol as query sessions
(the ``live-source`` kind around a ``live`` cursor; see "Cursor
format" in ``docs/SERVICE.md``): the standing cursor's tree
fingerprints include the mutation counters, so a spooled subscription
can only resume against the exact tree versions it was maintaining --
the service resumes evicted subscriptions *before* applying updates
for exactly this reason.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core import cursor
from repro.live.delta import Delta
from repro.live.probe import ProbeResult
from repro.live.standing import StandingJoin
from repro.query.parser import parse
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer

__all__ = ["LiveSource"]


class LiveSource:
    """A standing ``WATCH`` subscription bound to a database.

    Mirrors the :class:`~repro.service.session.QuerySource` surface
    the scheduler and sessions expect (``sql`` / ``strategy`` /
    ``observer`` / ``plan`` / ``open`` / ``release`` / ``save`` /
    ``load``), plus the live-only :meth:`poll`, :meth:`notify_insert`
    and :meth:`notify_delete`.  ``counters`` and ``observer`` are
    :meth:`~repro.query.executor.Database.watch`'s.
    """

    def __init__(
        self,
        db: Any,
        sql: str,
        *,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.db = db
        self.sql = sql
        self.strategy = "live"
        self.counters = counters if counters is not None else db.counters
        self.observer = observer
        self._standing: Optional[StandingJoin] = None
        self._query: Any = None

    @property
    def plan(self) -> None:
        """Subscriptions have no pull plan; always None."""
        return None

    @property
    def query(self):
        """The parsed WATCH query (relations drive update routing).

        Parsed once and cached: the update fan-out consults every
        live session's relations on every ``POST /update``, which
        must not reparse per subscription per update.
        """
        if self._query is None:
            self._query = parse(self.sql)
        return self._query

    def open(self) -> StandingJoin:
        """Register the standing join (once) and return it."""
        if self._standing is None:
            self._standing = self.db.watch(
                self.sql, counters=self.counters, observer=self.observer
            )
        return self._standing

    @property
    def standing(self) -> StandingJoin:
        """The registered standing join (registering on first use)."""
        return self.open()

    def poll(self, limit: Optional[int] = None) -> List[Delta]:
        """Drain up to ``limit`` pending deltas from the outbox."""
        return self.open().poll(limit)

    def pending(self) -> int:
        return self.open().pending()

    def notify_insert(
        self,
        oid: int,
        obj: Any,
        side: int,
        probe: Optional[ProbeResult] = None,
    ) -> List[Delta]:
        """Repair after an insert already applied to the tree, from
        ``probe`` when the fan-out shared one
        (:func:`~repro.live.share_insert_probes`)."""
        return self.open().observe_insert(
            oid, obj, side=side, probe=probe
        )

    def notify_delete(self, oid: int, side: int) -> List[Delta]:
        """Repair after a delete already applied to the tree."""
        return self.open().observe_delete(oid, side=side)

    def release(self) -> None:
        """Drop the in-memory standing join (after :meth:`save`)."""
        self._standing = None

    def save(self) -> Dict[str, Any]:
        """Snapshot the subscription as a picklable cursor state."""
        return cursor.pack("live-source", self, {
            "sql": self.sql,
            "standing": self.open().save(),
        })

    def load(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`save` snapshot in place.

        The standing cursor's tree fingerprints (including the
        mutation counters) are checked by
        :meth:`~repro.live.StandingJoin.load`: a subscription spooled
        before an unobserved tree mutation refuses to resume.
        """
        body = cursor.unpack(state, "live-source", type(self))
        with cursor.restoring("live-source"):
            sql = body["sql"]
            query = parse(sql)
            standing = StandingJoin.load(
                body["standing"],
                self.db.relation(query.relation1),
                self.db.relation(query.relation2),
                counters=self.counters,
                observer=self.observer,
            )
        self.sql = sql
        self._query = query
        self._standing = standing
