"""A small synchronous client for the join service HTTP API.

Used by the tests, the CI smoke job, and ``examples/service_smoke.py``
so they all exercise the server the same way a real client would --
over a socket, one page at a time.  Stdlib only (``http.client``).

A client keeps one connection for all its requests (``docs/SERVICE.md``,
"Connections"), under a lock, so threads may share one.  It reconnects
when the connection is gone but **never re-sends a request**: ``/next``
consumes rows and ``/update`` mutates, so a connection that dies with
a request in flight is a :class:`~repro.errors.ServiceError` saying the
outcome is unknown, and the *next* call reconnects.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ServiceError

#: Seconds before the server's advertised idle timeout at which an
#: unused connection is dropped rather than raced against.
EXPIRY_MARGIN = 1.0

_KEEP_ALIVE = re.compile(r"timeout=([\d.]+).*?max=(\d+)")


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.JoinService`.

    Thread-safe, and a context manager: :meth:`close` releases the
    socket, as does dropping the client.

    Parameters
    ----------
    host / port:
        Where the server listens.
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None
        self._expires = 0.0  # monotonic time the server drops _conn

    def close(self) -> None:
        """Drop the connection (the next request opens a new one)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        self._drop()

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        payload = json.dumps(body).encode("utf-8") \
            if body is not None else None
        send_headers = dict(headers or {})
        if payload is not None:
            send_headers.setdefault("Content-Type", "application/json")
        with self._lock:
            conn = self._conn
            # Not worth a request whose outcome would be unknown: the
            # server is about to hang up, or has (readable means EOF).
            if conn is not None and (
                time.monotonic() >= self._expires
                or select.select([conn.sock], [], [], 0)[0]
            ):
                self._drop()
                conn = None
            if conn is None:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                conn.connect()  # refused: raises as is, nothing was sent
                self._conn = conn
            try:
                conn.request(
                    method, path, body=payload, headers=send_headers
                )
                response = conn.getresponse()
                raw = response.read()
            except BaseException as exc:
                self._drop()
                if not isinstance(exc, (http.client.HTTPException, OSError)):
                    raise
                # Not re-sent: the server may have acted on it.
                raise ServiceError(
                    f"{method} {path}: connection failed "
                    f"({type(exc).__name__}: {exc}); whether the server "
                    "acted on the request is unknown"
                ) from exc
            advertised = _KEEP_ALIVE.search(
                response.getheader("Keep-Alive", "")
            )
            if response.will_close or advertised is None \
                    or advertised.group(2) == "0":
                self._drop()
            else:
                self._expires = time.monotonic() \
                    + float(advertised.group(1)) - EXPIRY_MARGIN
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded: Any = json.loads(raw.decode("utf-8"))
        else:
            decoded = raw.decode("utf-8")
        if response.status >= 400:
            detail = decoded.get("error", decoded) \
                if isinstance(decoded, dict) else decoded
            raise ServiceError(
                f"{method} {path} -> {response.status}: {detail}"
            )
        return decoded

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def query(
        self,
        sql: str,
        strategy: str = "auto",
        traceparent: Optional[str] = None,
    ) -> str:
        """Admit a query; returns the new session id.

        ``traceparent`` (a W3C trace header value) makes the server
        join an existing client trace instead of minting one.
        """
        return self.admit(sql, strategy, traceparent)["session"]

    def admit(
        self,
        sql: str,
        strategy: str = "auto",
        traceparent: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Like :meth:`query` but returns the full admission payload
        (session id, status snapshot, and trace identity)."""
        headers = {"traceparent": traceparent} \
            if traceparent is not None else None
        return self._request(
            "POST", "/query", {"sql": sql, "strategy": strategy},
            headers=headers,
        )

    def next(self, session_id: str, k: int = 16) -> Dict[str, Any]:
        """Fetch the next page: ``{"rows", "done", ...}``."""
        return self._request(
            "GET", f"/next?session={session_id}&k={k}"
        )

    def pages(
        self, sql: str, k: int = 16, strategy: str = "auto"
    ) -> Iterator[List[Dict[str, Any]]]:
        """Run ``sql`` and yield pages of rows until the stream ends."""
        session_id = self.query(sql, strategy=strategy)
        while True:
            reply = self.next(session_id, k=k)
            if reply["rows"]:
                yield reply["rows"]
            if reply["done"]:
                return

    def rows(
        self, sql: str, k: int = 16, strategy: str = "auto"
    ) -> List[Dict[str, Any]]:
        """All rows of ``sql``, fetched page by page."""
        out: List[Dict[str, Any]] = []
        for page in self.pages(sql, k=k, strategy=strategy):
            out.extend(page)
        return out

    def watch(self, sql: str) -> str:
        """Register a standing ``WATCH`` subscription; returns its
        session id.  Page its delta stream with :meth:`deltas`."""
        return self.query(sql)

    def deltas(self, session_id: str, k: int = 16) -> List[Dict[str, Any]]:
        """The next page of a subscription's pending repair deltas
        (possibly empty; a subscription never reports ``done``)."""
        return self.next(session_id, k=k)["rows"]

    def update(
        self,
        relation: str,
        op: str,
        oid: int,
        point: List[float],
    ) -> Dict[str, Any]:
        """Apply one insert/delete to a relation on the server.

        Returns the update receipt (watchers notified, deltas
        queued).  ``point`` locates the object for both ops.
        """
        return self._request("POST", "/update", {
            "relation": relation, "op": op, "oid": oid,
            "point": list(point),
        })

    def insert(
        self, relation: str, oid: int, point: List[float]
    ) -> Dict[str, Any]:
        """Insert ``oid`` at ``point`` into ``relation``."""
        return self.update(relation, "insert", oid, point)

    def remove(
        self, relation: str, oid: int, point: List[float]
    ) -> Dict[str, Any]:
        """Delete ``oid`` (stored at ``point``) from ``relation``."""
        return self.update(relation, "delete", oid, point)

    def status(self) -> Dict[str, Any]:
        """The scheduler's ``/status`` snapshot."""
        return self._request("GET", "/status")

    def metrics_text(self) -> str:
        """The Prometheus-style ``/metrics`` exposition."""
        return self._request("GET", "/metrics")

    def progress(
        self, session_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Certified progress for one session (or all of them)."""
        path = f"/progress?session={session_id}" \
            if session_id is not None else "/progress"
        return self._request("GET", path)

    def debug_sessions(self) -> List[Dict[str, Any]]:
        """The live ``/debug/sessions`` diagnostics."""
        return self._request("GET", "/debug/sessions")["sessions"]

    def debug_trace(
        self, session_id: str, fmt: str = "json"
    ) -> Dict[str, Any]:
        """A session's stitched span tree (or Chrome trace dict)."""
        return self._request(
            "GET", f"/debug/trace?session={session_id}&format={fmt}"
        )

    def delete(self, session_id: str) -> None:
        """Cancel a session."""
        self._request("DELETE", f"/session?session={session_id}")


__all__ = ["ServiceClient"]
