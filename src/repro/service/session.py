"""Query sources and sessions: the units the scheduler time-slices.

A :class:`QuerySource` is a *rebuildable* row stream: the SQL text
and the arguments needed to lower it into a physical plan against a
:class:`~repro.query.executor.Database`.  Saving one
captures the plan's operator cursor; loading rebuilds the plan from
the same text and restores the cursor into it, so a resumed stream
continues bit-identically (the ``query-source`` cursor kind; see
"Cursor format" in ``docs/SERVICE.md``).

A :class:`Session` wraps a source with the per-client state the
scheduler needs: a result buffer, outstanding demand, quantum
statistics, and a private :class:`~repro.util.obs.Observer` whose
spans/gauges flow into the service metrics under a ``session`` label.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, Optional

from repro.core import cursor
from repro.core.spec import JoinSpec
from repro.errors import CursorError
from repro.query.physical import PhysicalPlan, Row
from repro.util.obs import Observer
from repro.util.telemetry import ProgressEstimator


class QuerySource:
    """A rebuildable query row stream bound to a database.

    Parameters
    ----------
    db:
        The :class:`~repro.query.executor.Database` to plan against.
    sql:
        Query text (the cursor pins it: a cursor saved for one query
        cannot resume another).
    strategy:
        Plan strategy (``auto`` / ``pipeline`` / ``prefilter``).
    spec, node_policy, observer:
        As in :meth:`~repro.query.executor.Database.physical_plan`.
        The scheduler sets :attr:`observer` when it traces a session.
    """

    def __init__(
        self,
        db: Any,
        sql: str,
        strategy: str = "auto",
        *,
        spec: Optional[JoinSpec] = None,
        node_policy: Optional[str] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.db = db
        self.sql = sql
        self.strategy = strategy
        self.spec = spec
        self.node_policy = node_policy
        self.observer = observer
        self._plan: Optional[PhysicalPlan] = None
        self._rows: Optional[Iterator[Row]] = None

    @property
    def plan(self) -> Optional[PhysicalPlan]:
        """The physical plan, once opened (None before)."""
        return self._plan

    def open(self) -> Iterator[Row]:
        """Build the plan (once) and return the row iterator."""
        if self._rows is None:
            self._plan = self._physical_plan(self.sql, self.strategy)
            self._rows = self._plan.rows()
        return self._rows

    def _physical_plan(self, sql: str, strategy: str) -> PhysicalPlan:
        return self.db.physical_plan(
            sql, strategy=strategy, spec=self.spec,
            node_policy=self.node_policy, observer=self.observer,
        )

    def release(self) -> None:
        """Drop the plan and iterator (after :meth:`save`, to evict)."""
        self._plan = None
        self._rows = None

    def save(self) -> Dict[str, Any]:
        """Snapshot the source as a picklable cursor state.

        Raises :class:`~repro.errors.CursorError` when the underlying
        operator cannot serialize (a pool-backed partitioned join).
        """
        return cursor.pack("query-source", self, {
            "sql": self.sql,
            "strategy": self.strategy,
            "plan": self._plan.save() if self._plan is not None else None,
        })

    def load(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`save` snapshot in place.

        Rebuilds the physical plan from the stored SQL and strategy
        against :attr:`db` and restores the operator cursor into it;
        the next ``next()`` continues where the suspended run stopped.
        A cursor that cannot be restored raises
        :class:`~repro.errors.CursorError` and leaves the source as it
        was.
        """
        body = cursor.unpack(state, "query-source", type(self))
        with cursor.restoring("query-source"):
            sql, strategy = body["sql"], body["strategy"]
            plan = self._physical_plan(sql, strategy)
            if body["plan"] is not None:
                plan.restore(body["plan"])
        self.sql = sql
        self.strategy = strategy
        self._plan = plan
        self._rows = plan.rows()


class Session:
    """One client's suspended/running query inside the scheduler.

    Attributes
    ----------
    id:
        The session id handed to the client.
    source:
        The :class:`QuerySource` being consumed.
    obs:
        The session's one recorder; ``service.quantum`` /
        ``service.suspend`` / ``service.resume`` spans and the
        ``service.quantum_pairs`` gauge land here, and when it carries
        a trace (``obs.trace``) so does every span of the operator it
        is handed to, as one tree.
    buffer:
        Rows produced but not yet taken by the client.
    demand:
        Rows the client is currently waiting for.
    """

    def __init__(
        self,
        session_id: str,
        source: QuerySource,
        observer: Optional[Observer] = None,
    ) -> None:
        self.id = session_id
        self.source = source
        self.obs = observer if observer is not None else Observer(
            max_events=64
        )
        #: Certified progress ratchet; survives suspend/resume via the
        #: cursor envelope.
        self.progress_est = ProgressEstimator()
        self.last_progress: Optional[Dict[str, Any]] = None
        #: Size of the spooled cursor while evicted (0 when live).
        self.spooled_bytes = 0
        self.buffer: Deque[Row] = deque()
        self.demand = 0
        self.emitted_total = 0
        self.quanta = 0
        self.done = False
        self.evicted = False
        #: Why the scheduler dropped this session (its spooled cursor
        #: could not be restored); the client waiting on it is told.
        self.error: Optional[CursorError] = None
        self.last_touch = time.monotonic()
        self._rows: Optional[Iterator[Row]] = None

    def touch(self) -> None:
        """Record client activity (defers idle eviction)."""
        self.last_touch = time.monotonic()

    def idle_seconds(self) -> float:
        """Seconds since the client last touched this session."""
        return time.monotonic() - self.last_touch

    @property
    def pending(self) -> bool:
        """True while the client waits for rows this session owes.

        Evicted sessions count: the scheduler resumes them from the
        spool at the start of their next quantum.
        """
        return not self.done and len(self.buffer) < self.demand

    def rows(self) -> Iterator[Row]:
        """The live row iterator (opens the source on first use)."""
        if self._rows is None:
            self._rows = self.source.open()
        return self._rows

    def suspend_to_state(self) -> Dict[str, Any]:
        """Serialize for eviction and drop the in-memory plan.

        A traced recorder's state (``telemetry``) and the progress
        ratchet ride in the cursor envelope (extra keys;
        :meth:`QuerySource.load` ignores them), so a session resumed in
        a *different* process keeps its trace identity, its span
        history, and its certified floor.

        Raises :class:`~repro.errors.CursorError` for operators that
        only support in-memory suspension.
        """
        # Pin the latest certified reading before the plan goes away.
        self.progress_report()
        state = self.source.save()
        if self.obs.trace is not None:
            state["telemetry"] = self.obs.state()
        state["progress"] = self.progress_est.state()
        self.source.release()
        self._rows = None
        self.evicted = True
        return state

    def resume_from_state(self, state: Dict[str, Any]) -> None:
        """Rebuild the plan from an eviction cursor.

        An in-process resume keeps the live recorder and estimator
        (they never went away and their clocks are newer than the
        snapshot); a session without a trace -- a fresh process --
        restores both from the envelope, ratcheting the progress floor
        so it can only move forward, and hands the restored recorder to
        the rebuilt operator so it keeps recording into the same trace.
        Raises :class:`~repro.errors.CursorError` when any part of
        ``state`` cannot be restored, and then changes nothing.
        """
        obs, progress = self.obs, self.progress_est
        with cursor.restoring("session"):
            if obs.trace is None and "telemetry" in state:
                obs = Observer.restore(state["telemetry"])
            saved_progress = state.get("progress")
            if saved_progress is not None:
                restored = ProgressEstimator.restore(saved_progress)
                if restored.lower_bound > progress.lower_bound:
                    progress = restored
        observer = self.source.observer
        if obs is not self.obs:
            self.source.observer = obs
        try:
            self.source.load(state)
        except CursorError:
            self.source.observer = observer
            raise
        self.obs, self.progress_est = obs, progress
        self._rows = self.source.open()
        self.evicted = False
        self.spooled_bytes = 0

    def progress_report(self) -> Dict[str, Any]:
        """The session's certified progress (a dict view of
        :class:`~repro.util.telemetry.ProgressReport`).

        Probes the live plan when one is open; an evicted session
        reports its last reading (the floor cannot move while the
        plan is spooled).  Session completion forces ``done`` -- the
        stream is exhausted even if the operator would still report a
        non-empty queue (e.g. ``STOP AFTER`` met at the plan root).
        """
        plan = self.source.plan
        signals = plan.progress_signals() if plan is not None else None
        if signals is None:
            if self.last_progress is not None and not self.done:
                return self.last_progress
            signals = {
                "produced": self.emitted_total,
                "max_pairs": None,
            }
        signals["emitted_total"] = self.emitted_total
        if self.done:
            signals["done"] = True
        report = self.progress_est.report(signals).as_dict()
        self.last_progress = report
        return report

    def stats(self) -> Dict[str, Any]:
        """A JSON-friendly status snapshot."""
        return {
            "session": self.id,
            "sql": self.source.sql,
            "strategy": self.source.strategy,
            "emitted": self.emitted_total,
            "buffered": len(self.buffer),
            "demand": self.demand,
            "quanta": self.quanta,
            "done": self.done,
            "evicted": self.evicted,
            "idle_seconds": round(self.idle_seconds(), 3),
            "trace_id": (
                self.obs.trace.trace_id
                if self.obs.trace is not None else None
            ),
        }
