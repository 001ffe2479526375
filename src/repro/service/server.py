"""A stdlib-only asyncio HTTP front end for the join scheduler.

The server speaks a deliberately small JSON API (documented with curl
examples in ``docs/SERVICE.md``):

- ``POST /query`` with ``{"sql": ..., "strategy": ...}`` admits a
  session and returns its id; a ``WATCH ...`` statement admits a
  *standing* subscription instead, whose ``/next`` pages are
  ``+pair``/``-pair`` repair deltas (see ``docs/LIVE.md``);
- ``POST /update`` with ``{"relation", "op", "oid", "point"}``
  applies one insert/delete to a relation and queues repair deltas on
  every subscription watching it;
- ``GET /next?session=ID&k=N`` runs fair scheduler rounds until the
  session has ``N`` rows (or its stream ends) and returns them as JSON
  -- interleaving with every other pending session's quanta;
- ``GET /status`` and ``GET /metrics`` expose the scheduler snapshot
  and a Prometheus-style rendering of the service metrics;
- ``GET /progress`` reports each session's certified progress (or one
  session's with ``?session=ID``);
- ``GET /debug/sessions`` and ``GET /debug/trace?session=ID`` expose
  live per-session diagnostics and the request's stitched span tree
  (``&format=chrome`` for a Perfetto-loadable trace);
- ``DELETE /session?session=ID`` cancels a session.

Requests may carry a W3C ``traceparent`` header; ``POST /query``
adopts it as the session's trace identity (minting one otherwise) and
returns the trace id, so one client trace follows the query through
every quantum, suspend, and resume.  With ``log_json=True`` every
request is also logged as one structured JSON line carrying the trace
id.

A background task periodically evicts idle sessions to the cursor
spool; the next ``/next`` transparently resumes them (a spooled cursor
that cannot be restored costs that one session: its client gets a 500
with the reason, then 404 like any unknown session).  Everything is
``asyncio`` + ``json`` + manual HTTP/1.1 parsing -- no dependencies
beyond the standard library.

A connection outlives its request: each is one sequential loop of
*read a request, dispatch it, write the reply*, kept for an HTTP/1.1
client (or an HTTP/1.0 one sending ``Connection: keep-alive``) until it
says ``Connection: close``, idles for :data:`IDLE_TIMEOUT`, has had
:data:`MAX_REQUESTS` replies, or is refused by the framing rules (400,
408, 413, 431, 501 -- the stream position after one cannot be trusted).
Reading runs under :data:`READ_TIMEOUT`; dispatching never does.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from http import HTTPStatus
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    CursorError,
    LiveError,
    QueryError,
    ReproError,
    ServiceError,
    ServiceFull,
    TreeError,
)
from repro.geometry.point import Point
from repro.live import share_insert_probes
from repro.query.parser import parse
from repro.query.physical import STRATEGIES
from repro.rtree.base import RTreeBase
from repro.service.cursor import CursorStore
from repro.service.live import LiveSource
from repro.service.scheduler import JoinScheduler
from repro.service.session import QuerySource
from repro.util.counters import CounterRegistry
from repro.util.obs import prometheus_text
from repro.util.telemetry import TraceContext

#: Strategies a client may request; anything else is a 400.
ALLOWED_STRATEGIES = STRATEGIES

#: Hard cap on one ``/next`` page (the client loops for more).
MAX_PAGE = 4096

#: Largest request body accepted (a body is one SQL statement or one
#: update); a request declaring more is answered 413, unread.
MAX_BODY_BYTES = 1 << 20

#: Most header lines one request may carry.  One more -- or a request
#: or header line longer than the stream reader's limit (asyncio's
#: 64 KiB) -- is answered 431 before anything is dispatched.
MAX_HEADER_LINES = 100

#: Seconds a connection may sit between requests (or before its first
#: request line is complete); then it is closed without a byte.
IDLE_TIMEOUT = 10.0

#: Seconds the headers and body may take once the request line is in;
#: a stalled sender is answered 408.  Never covers ``_dispatch``.  Not
#: below IDLE_TIMEOUT, or every request re-arms a timer (_ReadClock).
READ_TIMEOUT = 20.0

#: Replies one connection is served; the last says ``Connection: close``.
MAX_REQUESTS = 1000

#: What a closing connection still reads and discards, so that the
#: close is not a reset that costs a peer still sending its last reply.
LINGER_BYTES = 4 << 20
LINGER_TIMEOUT = 2.0


class _Refusal(Exception):
    """``(status, message)`` of a request refused before dispatch."""


class _ReadClock:
    """The deadline one connection's reads run under: ``set(seconds)``
    before awaiting the peer, ``deadline = None`` after; past it the
    handler task is cancelled with :attr:`expired` set.  That is
    ``asyncio.timeout`` (absent from 3.10) on one standing timer, moved
    only when it fires early or a deadline is set ahead of it: while
    deadlines move later, a read costs a clock reading, not a timer
    (let alone ``asyncio.wait_for``'s task)."""

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._timer: Optional[asyncio.TimerHandle] = None
        self.deadline: Optional[float] = None
        self.expired = False

    def set(self, seconds: float) -> None:
        self.expired = False
        self.deadline = when = self._loop.time() + seconds
        if self._timer is None or when < self._timer.when():
            self.close()
            self._timer = self._loop.call_at(when, self._fire)

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self) -> None:
        # Runs between the task's steps: with a deadline set, the task
        # is suspended in a read, where the cancellation surfaces.
        self._timer = None
        if self.deadline is None:
            return
        if self._loop.time() < self.deadline:
            self._timer = self._loop.call_at(self.deadline, self._fire)
        else:
            self.expired = True
            self._task.cancel()


async def _read_request(
    reader: asyncio.StreamReader, clock: _ReadClock
) -> Optional[Tuple[str, str, bool, Dict[str, str], bytes]]:
    """The next request off the stream: ``(method, path, keep_alive,
    headers, body)``, or ``None`` when the peer went away or stayed
    idle.  Raises :class:`_Refusal` for what must not be dispatched."""
    request_line = b""
    try:
        clock.set(IDLE_TIMEOUT)
        request_line = await reader.readline()
        if not request_line:
            return None
        clock.set(READ_TIMEOUT)
        pieces = request_line.decode("latin-1").split()
        if len(pieces) < 2:
            raise _Refusal(400, "malformed request line")
        headers: Dict[str, str] = {}
        for __ in range(MAX_HEADER_LINES + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, __, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _Refusal(400, "conflicting Content-Length headers")
            headers[name] = value
        else:
            raise ValueError("too many header lines")
        # Chunks left unread would be parsed as the next request.
        if "transfer-encoding" in headers:
            raise _Refusal(501, "Transfer-Encoding is not supported")
        # Content-Length comes from outside: judge it before waiting
        # for a single body byte.
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise _Refusal(
                400, "Content-Length must be a non-negative integer"
            )
        if length > MAX_BODY_BYTES:
            raise _Refusal(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
    except asyncio.CancelledError:
        if not clock.expired:
            raise
        if not request_line:
            return None
        raise _Refusal(
            408, f"request not received within {READ_TIMEOUT:g} s"
        ) from None
    except ValueError:
        # Ours, or readline's own for a line beyond its limit.
        raise _Refusal(
            431, "request head too large: a line over 64 KiB or more "
                 f"than {MAX_HEADER_LINES} header lines"
        ) from None
    finally:
        clock.deadline = None
    connection = headers.get("connection", "").lower()
    if len(pieces) > 2 and pieces[2] == "HTTP/1.1":
        keep_alive = "close" not in connection
    else:
        keep_alive = "keep-alive" in connection
    return pieces[0].upper(), pieces[1], keep_alive, headers, body


async def _linger(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    clock: _ReadClock,
) -> None:
    """Half-close and discard what the peer is still sending, within
    :data:`LINGER_BYTES` / :data:`LINGER_TIMEOUT`: closing on unread
    bytes resets the connection and can cost the peer its reply."""
    writer.write_eof()
    clock.set(LINGER_TIMEOUT)
    try:
        for __ in range(LINGER_BYTES >> 16):
            if not await reader.read(1 << 16):
                break
    except asyncio.CancelledError:
        if not clock.expired:
            raise
    finally:
        clock.deadline = None


def row_to_json(row: Any) -> Dict[str, Any]:
    """A :class:`~repro.query.physical.Row` -- or a standing join's
    :class:`~repro.live.Delta` event -- as JSON-friendly data."""
    def geom(value: Any) -> Any:
        coords = getattr(value, "coords", None)
        return list(coords) if coords is not None else None

    op = getattr(row, "op", None)
    if op is not None:
        # A WATCH session's delta event: +pair / -pair with the
        # subscription-wide sequence number.
        return {
            "op": op,
            "seq": row.seq,
            "d": row.distance,
            "oid1": row.oid1,
            "geom1": geom(row.obj1),
            "oid2": row.oid2,
            "geom2": geom(row.obj2),
        }
    return {
        "d": row.d,
        "oid1": row.oid1,
        "geom1": geom(row.geom1),
        "oid2": row.oid2,
        "geom2": geom(row.geom2),
    }


class JoinService:
    """The HTTP-facing service: a database plus a quantum scheduler.

    Parameters
    ----------
    db:
        The :class:`~repro.query.executor.Database` queries run over.
    scheduler:
        Pre-configured scheduler (one is built when omitted).
    spool_dir:
        Where idle sessions are evicted to (``None`` disables
        eviction); ignored when ``scheduler`` is supplied.
    idle_evict_seconds / evict_interval:
        Idle threshold and sweep period of the background evictor.
    telemetry:
        Request-scoped tracing and progress estimation (on by default
        for the HTTP service; the embedded scheduler default is off).
        Ignored when a prebuilt ``scheduler`` is supplied.
    latency_budget_seconds / dump_dir:
        Slow-quantum budget and dump directory, forwarded to the
        scheduler (see :class:`~repro.service.scheduler
        .JoinScheduler`); ignored when ``scheduler`` is supplied.
    log_json:
        Log every request as one structured JSON line (method, path,
        status, duration, session, trace id) on stdout.
    """

    def __init__(
        self,
        db: Any,
        scheduler: Optional[JoinScheduler] = None,
        spool_dir: Optional[str] = None,
        counters: Optional[CounterRegistry] = None,
        idle_evict_seconds: float = 30.0,
        evict_interval: float = 5.0,
        quantum_pairs: int = 64,
        quantum_seconds: float = 0.05,
        max_sessions: int = 256,
        telemetry: bool = True,
        latency_budget_seconds: Optional[float] = None,
        dump_dir: Optional[str] = None,
        log_json: bool = False,
        log_stream: Any = None,
    ) -> None:
        self.db = db
        if scheduler is None:
            store = CursorStore(spool_dir, counters=counters) \
                if spool_dir is not None else None
            scheduler = JoinScheduler(
                quantum_pairs=quantum_pairs,
                quantum_seconds=quantum_seconds,
                max_sessions=max_sessions,
                counters=counters,
                cursor_store=store,
                telemetry=telemetry,
                latency_budget_seconds=latency_budget_seconds,
                dump_dir=dump_dir,
            )
        self.scheduler = scheduler
        self.idle_evict_seconds = idle_evict_seconds
        self.evict_interval = evict_interval
        self.log_json = log_json
        self._log_stream = log_stream if log_stream is not None \
            else sys.stdout
        self._server: Optional[asyncio.AbstractServer] = None
        self._evictor: Optional[asyncio.Task] = None
        # Handler task -> its writer; those stop() lets write a reply.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._dispatching: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # request handlers (route → JSON)
    # ------------------------------------------------------------------

    def _post_query(
        self,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        sql = body.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return 400, {"error": "body must carry a 'sql' string"}
        strategy = body.get("strategy", "auto")
        if strategy not in ALLOWED_STRATEGIES:
            return 400, {
                "error": f"unknown strategy {strategy!r}",
                "allowed": list(ALLOWED_STRATEGIES),
            }
        # Planning is lazy (the first quantum builds it), but a syntax
        # error should be a 400 at admission, not a late surprise.
        query = parse(sql)
        # A malformed traceparent is ignored (a fresh trace is minted
        # at admission), per the W3C propagation contract.
        trace = TraceContext.from_traceparent(
            (headers or {}).get("traceparent")
        )
        if query.watch:
            # A WATCH registration: the session is a standing
            # subscription whose /next pages are repair deltas.  The
            # scheduler's registry takes the live_* counters so they
            # surface on /metrics next to the service_* family.
            source: Any = LiveSource(
                self.db, sql, counters=self.scheduler.counters
            )
        else:
            source = QuerySource(self.db, sql, strategy=strategy)
        session = self.scheduler.admit(source, trace=trace)
        if query.watch:
            # Register eagerly (after admit, so the telemetry observer
            # injected by the scheduler reaches the standing join): a
            # bad registration surfaces now, and the bootstrap ADD
            # deltas are already queued for the first /next.
            try:
                source.open()
            except ReproError:
                self.scheduler.remove(session.id)
                raise
        payload = {"session": session.id, "status": session.stats()}
        if query.watch:
            payload["watch"] = True
        if session.obs.trace is not None:
            payload["trace_id"] = session.obs.trace.trace_id
            payload["traceparent"] = session.obs.trace.to_traceparent()
        return 200, payload

    async def _get_next(self, params: Dict[str, Any]) -> Tuple[int, Any]:
        session_id = params.get("session")
        if not session_id:
            return 400, {"error": "missing 'session' parameter"}
        try:
            k = int(params.get("k", "16"))
        except ValueError:
            return 400, {"error": "'k' must be an integer"}
        if k < 1 or k > MAX_PAGE:
            return 400, {"error": f"'k' must be in [1, {MAX_PAGE}]"}
        session = self.scheduler.request(session_id, k)
        while session.pending:
            produced = self.scheduler.run_round()
            # Yield between rounds so concurrent /next handlers (and
            # the evictor) interleave; the round itself is atomic.
            await asyncio.sleep(0)
            if produced == 0 and session.pending:
                break
        if session.error is not None:
            # The scheduler dropped the session: its spooled cursor
            # could not be restored.  Only this client is told.
            raise session.error
        rows, exhausted = self.scheduler.take(session_id, k)
        if hasattr(session.source, "poll"):
            # A subscription page is best-effort: leftover demand must
            # not accumulate (it would pin the session as pending
            # forever and block idle eviction).
            session.demand = 0
        payload = {
            "session": session_id,
            "rows": [row_to_json(r) for r in rows],
            "done": exhausted,
            "emitted_total": session.emitted_total,
            "quanta": session.quanta,
        }
        if exhausted:
            # A finished STOP AFTER k stream frees its slot at once.
            self.scheduler.remove(session_id)
        return 200, payload

    def _post_update(self, body: Dict[str, Any]) -> Tuple[int, Any]:
        """Apply one insert/delete to a relation and repair watchers.

        Body: ``{"relation": name, "op": "insert"|"delete",
        "oid": int, "point": [coords]}`` -- ``point`` locates the
        object (its stored rect) and is required for both ops.  The
        tree mutation is applied exactly once; every standing WATCH
        session over the relation then observes it and queues its
        repair deltas for the next ``GET /next``.  Evicted
        subscriptions are resumed first so their cursors' tree
        fingerprints stay in sync with the mutation counter.

        An update is validated *before* the tree mutates, so a
        rejected update leaves the tree and every subscription
        untouched: inserting an oid already present in the relation is
        a 409 (``RTreeBase.insert`` would happily store a duplicate,
        which no oid-addressed watcher could maintain), and deleting
        an oid/point pair the tree does not hold is a 404.  Should a
        watcher still fail to observe an applied mutation -- or an
        evicted one fail to resume from its spooled cursor -- its
        subscription is permanently desynced and is removed rather
        than left silently stale (reported under ``"invalidated"``).
        """
        relation = body.get("relation")
        if not isinstance(relation, str) or not relation:
            return 400, {"error": "body must carry a 'relation' string"}
        op = body.get("op")
        if op not in ("insert", "delete"):
            return 400, {"error": "'op' must be 'insert' or 'delete'"}
        oid = body.get("oid")
        if not isinstance(oid, int) or isinstance(oid, bool):
            return 400, {"error": "'oid' must be an integer"}
        coords = body.get("point")
        # json accepts the bare tokens NaN/Infinity, bool is an int and
        # ints outgrow floats: none may reach an ancestor rectangle.
        if (
            not isinstance(coords, (list, tuple))
            or not coords
            or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                and abs(c) <= sys.float_info.max  # false for NaN too
                for c in coords
            )
        ):
            return 400, {
                "error": "'point' must be a list of finite numbers"
            }
        tree = self.db.relation(relation)
        if len(coords) != tree.dim:
            return 400, {
                "error": f"'point' must have {tree.dim} coordinates"
            }
        obj = Point(coords)
        rect = RTreeBase._rect_of(obj)

        # Watching subscriptions, with the side(s) on which they see
        # this relation (a self-join-like WATCH may see both).
        # Evicted ones are resumed before the tree is touched: a
        # spooled live cursor pins the tree's mutation counter and
        # would refuse to load after an unobserved update.  One whose
        # cursor cannot be restored is gone (the scheduler removed
        # it); the update still applies for everyone else.
        watchers = []
        invalidated = []
        for session in self.scheduler.sessions():
            source = session.source
            if not hasattr(source, "poll"):
                continue
            query = source.query
            sides = [
                side for side, rel in
                ((1, query.relation1), (2, query.relation2))
                if rel == relation
            ]
            if not sides:
                continue
            if session.evicted:
                try:
                    self.scheduler.resume(session)
                except CursorError as exc:
                    invalidated.append(
                        {"session": session.id, "error": str(exc)}
                    )
                    continue
            watchers.append((session, sides))

        if op == "insert":
            # A duplicate would desync every oid-addressed watcher
            # mid-fan-out; the tree refuses it before mutating (the
            # point was validated above, so that is its only refusal).
            try:
                tree.insert(obj=obj, rect=rect, oid=oid)
            except TreeError:
                return 409, {
                    "error": f"oid {oid} already exists in relation "
                             f"{relation!r}"
                }
        else:
            if not tree.delete(oid, rect):
                return 404, {
                    "error": f"relation {relation!r} holds no object "
                             f"{oid} at the given point"
                }
        # Watchers that would scan the same partner tree share one
        # scan at the widest of their bounds.  A scan that fails here
        # leaves each watcher to scan alone and meet the fault itself.
        probes = {}
        if op == "insert":
            targets = [
                (session, side) for session, sides in watchers
                for side in sides
            ]
            try:
                shared = share_insert_probes(
                    [(session.source.standing, side)
                     for session, side in targets],
                    oid, obj, rect,
                )
            except ReproError:
                shared = []
            probes = {
                (session.id, side): probe
                for (session, side), probe in zip(targets, shared)
            }
        deltas = 0
        for session, sides in watchers:
            try:
                for side in sides:
                    if op == "insert":
                        emitted = session.source.notify_insert(
                            oid, obj, side, probes.get((session.id, side))
                        )
                    else:
                        emitted = session.source.notify_delete(
                            oid, side
                        )
                    deltas += len(emitted)
            except ReproError as exc:
                # The mutation is applied but this watcher could not
                # observe it: its standing store can never be repaired
                # back into sync, so drop the subscription instead of
                # serving silently stale results.
                self.scheduler.remove(session.id)
                invalidated.append(
                    {"session": session.id, "error": str(exc)}
                )
                continue
            session.touch()
        payload = {
            "relation": relation,
            "op": op,
            "oid": oid,
            "watchers": len(watchers),
            "deltas": deltas,
        }
        if invalidated:
            payload["invalidated"] = invalidated
        return 200, payload

    def _get_status(self) -> Tuple[int, Any]:
        return 200, self.scheduler.status()

    def _delete_session(self, params: Dict[str, Any]) -> Tuple[int, Any]:
        session_id = params.get("session")
        if not session_id:
            return 400, {"error": "missing 'session' parameter"}
        self.scheduler.remove(session_id)
        return 200, {"deleted": session_id}

    def _get_metrics(self) -> Tuple[int, str]:
        return 200, prometheus_text(self.scheduler.metrics())

    def _get_progress(self, params: Dict[str, Any]) -> Tuple[int, Any]:
        session_id = params.get("session")
        if session_id:
            session = self.scheduler.session(session_id)
            return 200, {
                "session": session_id,
                "progress": session.progress_report(),
            }
        return 200, {"sessions": self.scheduler.progress()}

    def _get_debug_sessions(self) -> Tuple[int, Any]:
        return 200, {"sessions": self.scheduler.debug_sessions()}

    def _get_debug_trace(
        self, params: Dict[str, Any]
    ) -> Tuple[int, Any]:
        session_id = params.get("session")
        if not session_id:
            return 400, {"error": "missing 'session' parameter"}
        fmt = params.get("format", "json")
        if fmt not in ("json", "chrome"):
            return 400, {
                "error": f"unknown trace format {fmt!r} (json or chrome)"
            }
        return 200, self.scheduler.trace_dump(session_id, fmt=fmt)

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, str]:
        parts = urlsplit(path)
        params = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        route = (method, parts.path)
        try:
            if method == "POST" and parts.path in ("/query", "/update"):
                try:
                    parsed = json.loads(body.decode("utf-8") or "{}")
                except ValueError:
                    return 400, {"error": "body is not valid JSON"}, \
                        "application/json"
                if not isinstance(parsed, dict):
                    return 400, {"error": "body must be a JSON object"}, \
                        "application/json"
                if parts.path == "/query":
                    status, payload = self._post_query(parsed, headers)
                else:
                    status, payload = self._post_update(parsed)
            elif route == ("GET", "/next"):
                status, payload = await self._get_next(params)
            elif route == ("GET", "/status"):
                status, payload = self._get_status()
            elif route == ("GET", "/metrics"):
                status, text = self._get_metrics()
                return status, text, "text/plain; version=0.0.4"
            elif route == ("GET", "/progress"):
                status, payload = self._get_progress(params)
            elif route == ("GET", "/debug/sessions"):
                status, payload = self._get_debug_sessions()
            elif route == ("GET", "/debug/trace"):
                status, payload = self._get_debug_trace(params)
            elif route == ("DELETE", "/session"):
                status, payload = self._delete_session(params)
            else:
                status, payload = 404, {
                    "error": f"no route {method} {parts.path}"
                }
        except ServiceError as exc:
            status = 409 if isinstance(exc, ServiceFull) else 404
            payload = {"error": str(exc)}
        except (LiveError, QueryError) as exc:
            status, payload = 400, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 500, {"error": str(exc)}
        return status, payload, "application/json"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    def _log_request(
        self,
        method: str,
        path: str,
        status: int,
        payload: Any,
        headers: Dict[str, str],
        duration: float,
    ) -> None:
        """One structured JSON log line per request.

        The trace id comes from the response payload when the route
        produced one (``POST /query``) and falls back to the session's
        recorded trace otherwise, so every line about a traced query
        carries the same id the client saw.
        """
        parts = urlsplit(path)
        params = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        session_id = None
        trace_id = None
        if isinstance(payload, dict):
            session_id = payload.get("session")
            trace_id = payload.get("trace_id")
        if session_id is None:
            session_id = params.get("session")
        if trace_id is None and session_id is not None:
            try:
                session = self.scheduler.session(session_id)
            except ReproError:
                session = None
            if session is not None and session.obs.trace is not None:
                trace_id = session.obs.trace.trace_id
        if trace_id is None:
            header = TraceContext.from_traceparent(
                headers.get("traceparent")
            )
            trace_id = header.trace_id if header is not None else None
        line = json.dumps({
            "ts": round(time.time(), 6),
            "method": method,
            "path": parts.path,
            "status": status,
            "dur_ms": round(duration * 1000.0, 3),
            "session": session_id,
            "trace_id": trace_id,
        })
        try:
            self._log_stream.write(line + "\n")
            self._log_stream.flush()
        except (OSError, ValueError):
            pass

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        clock = _ReadClock()
        try:
            for remaining in range(MAX_REQUESTS - 1, -1, -1):
                method = path = ""
                headers: Dict[str, str] = {}
                started = time.perf_counter()
                try:
                    request = await _read_request(reader, clock)
                    if request is None:
                        break
                    method, path, keep_alive, headers, body = request
                    self._dispatching.add(task)
                    started = time.perf_counter()
                    status, payload, ctype = await self._dispatch(
                        method, path, body, headers
                    )
                    keep_alive = keep_alive and remaining > 0 \
                        and self._server.is_serving()
                except _Refusal as refusal:
                    status, message = refusal.args
                    payload, ctype = {"error": message}, "application/json"
                    keep_alive = False
                if self.log_json:
                    self._log_request(
                        method, path, status, payload, headers,
                        time.perf_counter() - started,
                    )
                if isinstance(payload, str):
                    data = payload.encode("utf-8")
                else:
                    data = json.dumps(payload).encode("utf-8")
                head = (
                    f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                ) + (
                    "Connection: keep-alive\r\n"
                    f"Keep-Alive: timeout={IDLE_TIMEOUT:g}, "
                    f"max={remaining}\r\n\r\n"
                    if keep_alive else "Connection: close\r\n\r\n"
                )
                writer.write(head.encode("latin-1") + data)
                await writer.drain()
                self._dispatching.discard(task)
                if not keep_alive:
                    await _linger(reader, writer, clock)
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._dispatching.discard(task)
            del self._connections[task]
            clock.close()
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _evict_loop(self) -> None:
        while True:
            await asyncio.sleep(self.evict_interval)
            self.scheduler.evict_idle(self.idle_evict_seconds)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8080):
        """Bind and start serving; returns the asyncio server."""
        self._server = await asyncio.start_server(
            self._handle, host, port
        )
        if self.scheduler.store is not None:
            self._evictor = asyncio.get_running_loop().create_task(
                self._evict_loop()
            )
        return self._server

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise ServiceError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop the evictor, the listener and every connection: at
        once, but for one in dispatch, which writes its reply first."""
        if self._evictor is not None:
            self._evictor.cancel()
            try:
                await self._evictor
            except asyncio.CancelledError:
                pass
            self._evictor = None
        if self._server is not None:
            self._server.close()
            while self._connections:
                for task, writer in self._connections.items():
                    if task not in self._dispatching:
                        writer.close()
                await asyncio.wait(list(self._connections))
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(
        self, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        """Start and block until cancelled (the ``repro serve`` path)."""
        await self.start(host, port)
        try:
            # Not Server.serve_forever(): cancelled, it waits (3.12.1+)
            # for every kept connection to idle out before stop() runs.
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()


def run(
    db: Any,
    host: str = "127.0.0.1",
    port: int = 8080,
    **service_kwargs: Any,
) -> None:
    """Blocking entry point: serve ``db`` until interrupted."""
    service = JoinService(db, **service_kwargs)
    try:
        asyncio.run(service.serve_forever(host, port))
    except KeyboardInterrupt:
        pass


__all__ = ["ALLOWED_STRATEGIES", "JoinService", "row_to_json", "run"]
