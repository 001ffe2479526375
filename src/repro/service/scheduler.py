"""The quantum scheduler: fair time-slicing of concurrent join sessions.

Because an incremental join's execution state is its priority queue,
suspending it costs nothing beyond *not calling* ``next()`` -- so a
single thread can interleave hundreds of concurrent ``STOP AFTER k``
sessions by running each for a bounded **quantum** (a pair budget and
a wall-clock budget, whichever ends first) and moving on.

Fairness is round-based: :meth:`JoinScheduler.run_round` gives every
session with unmet demand exactly one quantum, in admission order, so
no session starves while any round completes.  A ``STOP AFTER k``
session that exhausts its stream is marked done and its slot freed on
:meth:`remove` (the HTTP layer deletes it; the sync :meth:`fetch` path
leaves that to the caller).

Sessions idle past a threshold are *evicted to disk*: the plan cursor
is spooled through a :class:`~repro.service.cursor.CursorStore` and
the in-memory plan dropped; the next quantum resumes from the spooled
cursor.  A spooled cursor that cannot be restored fails its own
session only (:meth:`JoinScheduler.resume`).  Every SQL session
serializes (``SHARDS`` / ``PARALLEL`` run the shard router, which is
suspendable); an operator that cannot is simply skipped by eviction.

Each session's one observer records ``service.quantum`` /
``service.suspend`` / ``service.resume`` spans and the
``service.quantum_pairs`` gauge, and is the observer its operator
records into, so with :attr:`JoinScheduler.telemetry` on a request's
trace is one tree (``service.quantum`` > ``op.*`` > ``join.*``);
:meth:`metrics` flattens the aggregates into the shared metrics schema
with a ``session`` label.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CursorError, ServiceError, ServiceFull
from repro.query.physical import Row
from repro.service.cursor import CursorStore
from repro.service.session import QuerySource, Session
from repro.util.counters import CounterRegistry
from repro.util.obs import KEEP_LAST, Observer, metrics_records
from repro.util.telemetry import TraceContext
from repro.util.tracing import (
    chrome_trace,
    observer_trace,
    span_tree,
)
from repro.util.validation import require_positive


class JoinScheduler:
    """Admits sessions and runs them in fair, preemptable quanta.

    Parameters
    ----------
    quantum_pairs:
        Maximum result rows one quantum may produce for a session.
    quantum_seconds:
        Wall-clock budget of one quantum (checked between rows; a
        quantum always completes at least one ``next()``).
    max_sessions:
        Admission cap; :meth:`admit` raises
        :class:`~repro.errors.ServiceError` beyond it.
    counters:
        Registry receiving ``service_quanta`` / ``service_rows`` /
        ``service_evictions`` / ``service_resumes`` and the
        ``service_sessions`` gauge.
    cursor_store:
        Spool for idle-session eviction (eviction is disabled when
        omitted).
    telemetry:
        Record request-scoped traces, per-quantum flight-recorder
        samples, and certified progress per session.  Off by default:
        embedded/synchronous users (and the benchmarks) keep the
        allocation-free path; the HTTP service turns it on.
    latency_budget_seconds:
        Quanta exceeding this wall-time budget count as *slow*
        (``service_slow_quanta``) and auto-dump their session's span
        tree plus flight-recorder ring to ``dump_dir``.  None disables
        the budget entirely (no counter exists, no timing comparison).
    dump_dir:
        Directory receiving slow-quantum dumps (created on first use;
        dumps are skipped when omitted).
    """

    def __init__(
        self,
        quantum_pairs: int = 64,
        quantum_seconds: float = 0.05,
        max_sessions: int = 256,
        counters: Optional[CounterRegistry] = None,
        cursor_store: Optional[CursorStore] = None,
        telemetry: bool = False,
        latency_budget_seconds: Optional[float] = None,
        dump_dir: Optional[str] = None,
    ) -> None:
        require_positive(quantum_pairs, "quantum_pairs")
        require_positive(quantum_seconds, "quantum_seconds")
        require_positive(max_sessions, "max_sessions")
        if latency_budget_seconds is not None:
            require_positive(
                latency_budget_seconds, "latency_budget_seconds"
            )
        self.quantum_pairs = quantum_pairs
        self.quantum_seconds = quantum_seconds
        self.max_sessions = max_sessions
        self.counters = counters if counters is not None else CounterRegistry()
        self.store = cursor_store
        self.telemetry = telemetry
        self.latency_budget_seconds = latency_budget_seconds
        self.dump_dir = dump_dir
        self._sessions: Dict[str, Session] = {}
        self._session_seq = 0

    # ------------------------------------------------------------------
    # admission / lookup
    # ------------------------------------------------------------------

    def admit(
        self,
        source: QuerySource,
        session_id: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> Session:
        """Register a new session for ``source``; returns it.

        With :attr:`telemetry` on, ``trace`` (parsed from the client's
        ``traceparent`` header, or minted here) becomes the session's
        trace identity, and the per-session observer is a flight
        recorder: per-occurrence span records and events on ring
        buffers, handed to the source as its ``observer`` so the
        operator's own ``join.*``/``pq.*`` spans nest under the quantum
        that ran them.  Observers never touch counters, so the join's
        counter bit-identity (and the bench gates) are unaffected.
        """
        if len(self._sessions) >= self.max_sessions:
            raise ServiceFull(
                f"service full: {self.max_sessions} concurrent "
                "sessions"
            )
        if session_id is None:
            self._session_seq += 1
            session_id = f"s{self._session_seq:06d}"
        if session_id in self._sessions:
            raise ServiceError(f"session {session_id!r} already exists")
        if self.telemetry:
            observer = Observer(
                max_events=256, event_policy=KEEP_LAST,
                trace=trace if trace is not None
                else TraceContext.mint(),
            )
            if source.observer is None:
                source.observer = observer
        else:
            observer = Observer(max_events=64)
        session = Session(session_id, source, observer=observer)
        self._sessions[session_id] = session
        self.counters.observe("service_sessions", len(self._sessions))
        return session

    def session(self, session_id: str) -> Session:
        """The session for ``session_id`` (ServiceError if unknown)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ServiceError(
                f"unknown session {session_id!r}"
            ) from None

    def sessions(self) -> List[Session]:
        """All live sessions in admission (round-robin) order."""
        return list(self._sessions.values())

    def remove(self, session_id: str) -> None:
        """Terminate a session and free its slot.

        Closes the underlying operator when it has a lifecycle (the
        shard router's task state) and drops any spooled cursor.
        """
        live = self._live_join(self.session(session_id))
        if live is not None and hasattr(live, "close"):
            live.close()
        if self.store is not None:
            self.store.delete(session_id)
        del self._sessions[session_id]
        self.counters.observe("service_sessions", len(self._sessions))

    # ------------------------------------------------------------------
    # quantum execution
    # ------------------------------------------------------------------

    def request(self, session_id: str, k: int) -> Session:
        """The client asks for ``k`` more rows of a session."""
        require_positive(k, "k")
        session = self.session(session_id)
        session.demand += k
        session.touch()
        return session

    def run_quantum(self, session: Session) -> int:
        """Run one quantum for ``session``; returns rows buffered.

        The quantum ends at the first of: the pair budget, the time
        budget, the session's demand being met, a shard task batch
        being pulled (the shard router's preemption point), or the
        stream ending.  An evicted session whose cursor cannot be
        restored ends here too (0 rows; see :meth:`resume`).
        """
        if session.done:
            return 0
        if session.evicted:
            try:
                self.resume(session)
            except CursorError:
                # resume() dropped the session and left the error on
                # it for its own client; the round goes on.
                return 0
        if hasattr(session.source, "poll"):
            # A standing WATCH subscription: its "rows" are repair
            # deltas paged from the StandingJoin outbox, and it never
            # exhausts.
            return self._run_live_quantum(session)
        produced = 0
        deadline = time.monotonic() + self.quantum_seconds
        obs = session.obs
        quantum_start = obs.now()
        with obs.span(
            "service.quantum", session=session.id,
            quantum=session.quanta,
        ):
            # The first quantum opens the plan: that work is its own.
            rows = session.rows()
            live = self._live_join(session)
            batch_mark = getattr(live, "batches_received", None)
            while (
                produced < self.quantum_pairs
                and len(session.buffer) < session.demand
            ):
                try:
                    row = next(rows)
                except StopIteration:
                    session.done = True
                    break
                session.buffer.append(row)
                produced += 1
                if time.monotonic() >= deadline:
                    break
                if batch_mark is not None:
                    # Sharded sources preempt between task batches:
                    # a batch arrival is the natural yield point.
                    current = getattr(live, "batches_received", 0)
                    if current > batch_mark:
                        break
        session.quanta += 1
        obs.gauge("service.quantum_pairs", float(produced))
        self.counters.add("service_quanta")
        if produced:
            self.counters.add("service_rows", produced)
        if obs.trace is not None:
            self._record_flight(session, produced)
            if self.latency_budget_seconds is not None:
                elapsed = obs.now() - quantum_start
                if elapsed > self.latency_budget_seconds:
                    self._on_slow_quantum(session, elapsed)
        return produced

    def _run_live_quantum(self, session: Session) -> int:
        """One quantum of a standing subscription.

        Pages pending deltas from the subscription's outbox into the
        session buffer, up to the pair budget.  An empty quantum means
        no repairs are pending -- the session is never marked done
        (subscriptions end only by ``DELETE /session``).
        """
        budget = min(
            self.quantum_pairs,
            max(0, session.demand - len(session.buffer)),
        )
        with session.obs.span(
            "service.quantum", session=session.id,
            quantum=session.quanta,
        ):
            deltas = session.source.poll(budget) if budget else []
            session.buffer.extend(deltas)
        produced = len(deltas)
        session.quanta += 1
        session.obs.gauge("service.quantum_pairs", float(produced))
        self.counters.add("service_quanta")
        if produced:
            self.counters.add("service_rows", produced)
        return produced

    def run_round(self) -> int:
        """One fairness round: a quantum per session with unmet demand.

        Returns the total rows produced; 0 means no session can make
        progress (all demands met, done, or no sessions).
        """
        produced = 0
        for session in list(self._sessions.values()):
            if session.pending:
                produced += self.run_quantum(session)
        return produced

    def take(
        self, session_id: str, k: Optional[int] = None
    ) -> Tuple[List[Row], bool]:
        """Pop up to ``k`` buffered rows (all buffered when None).

        Returns ``(rows, exhausted)`` where ``exhausted`` is True once
        the stream ended and the buffer is drained.
        """
        session = self.session(session_id)
        count = len(session.buffer) if k is None else min(
            k, len(session.buffer)
        )
        rows = [session.buffer.popleft() for __ in range(count)]
        session.demand = max(0, session.demand - count)
        session.emitted_total += count
        session.touch()
        return rows, session.done and not session.buffer

    def fetch(self, session_id: str, k: int) -> Tuple[List[Row], bool]:
        """Synchronous convenience: demand ``k`` rows and run rounds
        until they are buffered (or the stream ends), then take them.

        Other pending sessions advance too -- every round is fair.
        """
        session = self.request(session_id, k)
        while session.pending:
            if self.run_round() == 0 and session.pending:
                break
        if session.error is not None:
            raise session.error
        return self.take(session_id, k)

    # ------------------------------------------------------------------
    # eviction / resume
    # ------------------------------------------------------------------

    def evict_idle(self, idle_seconds: float) -> List[str]:
        """Spool sessions idle past ``idle_seconds`` to disk.

        Returns the evicted session ids.  Sessions with unmet demand,
        already-evicted sessions, and operators that cannot serialize
        are skipped.
        """
        if self.store is None:
            return []
        evicted: List[str] = []
        for session in list(self._sessions.values()):
            if (
                session.evicted
                or session.pending
                or session.done
                or session.idle_seconds() < idle_seconds
            ):
                continue
            try:
                with session.obs.span("service.suspend"):
                    state = session.suspend_to_state()
                    path = self.store.save(session.id, state)
            except CursorError:
                continue
            try:
                session.spooled_bytes = os.path.getsize(path)
            except OSError:
                session.spooled_bytes = 0
            evicted.append(session.id)
            self.counters.add("service_evictions")
        return evicted

    def resume(self, session: Session) -> None:
        """Reload an evicted session's cursor from the spool.

        Quantum execution resumes lazily, but callers that are about
        to invalidate a spooled cursor (the update path mutating a
        watched tree) must resume the session first.

        A cursor that cannot be restored costs exactly this session:
        it is removed (slot freed, spool file deleted), marked done
        with the :class:`~repro.errors.CursorError` on
        :attr:`Session.error` for the client waiting on it, and the
        error is raised.
        """
        if self.store is None:
            raise ServiceError(
                f"session {session.id!r} was evicted but the "
                "scheduler has no cursor store"
            )
        try:
            with session.obs.span("service.resume"):
                state = self.store.load(session.id)
                session.resume_from_state(state)
        except CursorError as exc:
            session.error = exc
            session.done = True
            self.remove(session.id)
            raise
        self.store.delete(session.id)
        self.counters.add("service_resumes")

    def _live_join(self, session: Session) -> Any:
        plan = session.source.plan
        if plan is None:
            return None
        return getattr(plan.join_op, "_join", None)

    # ------------------------------------------------------------------
    # flight recorder / slow-quantum dumps
    # ------------------------------------------------------------------

    def _record_flight(self, session: Session, produced: int) -> None:
        """One flight-recorder sample at the end of a quantum.

        Queue depth, head distance, and band occupancy land both as
        bounded gauge timelines and as one ring event, and the
        certified progress ratchet advances.  Everything here is a
        pure probe: no disk reads, no counters.
        """
        obs = session.obs
        report = session.progress_report()
        detail = report.get("detail", {})
        queue_len = detail.get("queue_len")
        if queue_len is not None:
            obs.gauge("service.queue_len", float(queue_len))
        head = detail.get("head_distance")
        if head is not None:
            obs.gauge("service.head_distance", float(head))
        occupancy = detail.get("occupancy") or {}
        disk = occupancy.get("disk")
        if disk is not None:
            obs.gauge("service.pq_disk", float(disk))
            obs.gauge(
                "service.pq_bands", float(occupancy.get("bands", 0))
            )
        obs.event(
            "flight",
            label=(
                f"pairs={produced} queue={queue_len} head={head} "
                f"disk={occupancy.get('disk', 0)} "
                f"progress>={report['lower_bound']:.3f}"
            ),
            value=float(produced),
        )

    def _on_slow_quantum(
        self, session: Session, elapsed: float
    ) -> None:
        """A quantum blew the latency budget: count it and dump the
        session's span tree plus flight-recorder ring."""
        self.counters.add("service_slow_quanta")
        session.obs.event(
            "slow_quantum", label=f"elapsed={elapsed:.4f}s",
            value=elapsed,
        )
        if self.dump_dir is None:
            return
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(
            self.dump_dir,
            f"slow-{session.id}-q{session.quanta:05d}.json",
        )
        dump = {
            "session": session.id,
            "trace_id": session.obs.trace.trace_id,
            "quantum": session.quanta,
            "elapsed_s": elapsed,
            "budget_s": self.latency_budget_seconds,
            "trace": self.trace_dump(session.id),
            "ring": [
                {
                    "seq": event.seq, "t": event.t,
                    "kind": event.kind, "label": event.label,
                    "value": event.value,
                }
                for event in session.obs.events
            ],
        }
        with open(path, "w") as handle:
            json.dump(dump, handle)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def progress(self) -> Dict[str, Any]:
        """Certified progress per session (session id keyed)."""
        return {
            session.id: session.progress_report()
            for session in self._sessions.values()
        }

    def debug_sessions(self) -> List[Dict[str, Any]]:
        """One diagnostic record per session: status, cursor size,
        quantum count, and the certified progress report."""
        records = []
        for session in self._sessions.values():
            record = session.stats()
            record["spooled_bytes"] = session.spooled_bytes
            record["progress"] = session.progress_report()
            record["trace_spans"] = len(session.obs.records)
            records.append(record)
        return records

    def trace_dump(
        self, session_id: str, fmt: str = "json"
    ) -> Dict[str, Any]:
        """The session's single connected trace -- its observer's span
        records -- as a nested JSON span tree (``fmt="json"``) or a
        Chrome trace-event container (``fmt="chrome"``)."""
        session = self.session(session_id)
        obs = session.obs
        if obs.trace is None:
            raise ServiceError(
                f"session {session_id!r} has no telemetry (the "
                "scheduler was built with telemetry=False)"
            )
        records = obs.records
        if fmt == "chrome":
            return chrome_trace(observer_trace(
                obs, process_name="repro service",
                thread_name=f"trace {obs.trace.trace_id[:16]}",
                include_gauges=False, records=records,
            ))
        if fmt != "json":
            raise ServiceError(
                f"unknown trace format {fmt!r} (json or chrome)"
            )
        return span_tree(obs, records)

    def status(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of the whole scheduler."""
        return {
            "sessions": [s.stats() for s in self._sessions.values()],
            "session_count": len(self._sessions),
            "max_sessions": self.max_sessions,
            "quantum_pairs": self.quantum_pairs,
            "quantum_seconds": self.quantum_seconds,
            "counters": dict(self.counters.snapshot()),
        }

    def metrics(
        self, labels: Optional[Dict[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Scheduler counters plus per-session spans/gauges, in the
        shared metrics schema (one ``session`` label per session)."""
        records = metrics_records(self.counters, labels=labels)
        for session in self._sessions.values():
            session_labels = dict(labels or {})
            session_labels["session"] = session.id
            records.extend(metrics_records(
                obs=session.obs, labels=session_labels
            ))
        return records
