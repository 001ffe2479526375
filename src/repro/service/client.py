"""A small synchronous client for the join service HTTP API.

Used by the tests, the CI smoke job, and ``examples/service_smoke.py``
so they all exercise the server the same way a real client would --
over a socket, one page at a time.  Stdlib only: it speaks just the
HTTP/1.1 that :class:`~repro.service.server.JoinService` speaks, on a
plain ``socket`` -- each request leaves in one ``sendall``, and a reply
is read as a status line, headers up to the blank line, and exactly
``Content-Length`` body bytes (the server never chunks).

A client keeps one connection for all its requests (``docs/SERVICE.md``,
"Connections"), under a lock, so threads may share one.  It reconnects
when the connection is gone but **never re-sends a request**: ``/next``
consumes rows and ``/update`` mutates, so a connection that dies with
a request in flight -- or answers with a reply that cannot be read --
is a :class:`~repro.errors.ServiceError` saying the outcome is unknown,
and the *next* call reconnects.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ServiceError

#: Seconds before the server's advertised idle timeout at which an
#: unused connection is dropped rather than raced against.
EXPIRY_MARGIN = 1.0

_STATUS_LINE = re.compile(rb"HTTP/1\.\d (\d{3})[ \r\n]")
_KEEP_ALIVE = re.compile(rb"timeout=([\d.]+).*?max=(\d+)")

#: Longest reply head line and most header lines read before a reply
#: is judged malformed (``http.client``'s own limits).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: What may not appear in a request target or a header value: it
#: would end the request line or the header early.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")
_UNSAFE_VALUE = re.compile(r"[\r\n\x00]")


class _Connection:
    """One kept socket and the buffered reader that lives as long as
    it does."""

    __slots__ = ("sock", "reader")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(
        self, request: bytes
    ) -> Tuple[int, Dict[bytes, bytes], bytes]:
        """Send ``request`` whole and read its reply: ``(status,
        headers, body)``, header names lower-cased.  A reply the server
        would never send -- a bad status line, a head or body cut short
        by EOF, no ``Content-Length`` -- is a ``ValueError``."""
        self.sock.sendall(request)
        readline = self.reader.readline
        line = readline(_MAX_LINE + 1)
        status = _STATUS_LINE.match(line)
        if status is None or not line.endswith(b"\n"):
            raise ValueError(f"malformed status line {line[:80]!r}")
        headers: Dict[bytes, bytes] = {}
        for __ in range(_MAX_HEADERS + 1):
            line = readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                raise ValueError(f"malformed reply head line {line[:80]!r}")
            name, __, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError(f"more than {_MAX_HEADERS} reply header lines")
        length = headers.get(b"content-length", b"")
        if not length.isdigit() or b"transfer-encoding" in headers:
            raise ValueError("reply body not framed by Content-Length")
        size = int(length)
        body = self.reader.read(size)
        if len(body) != size:
            raise ValueError(
                f"reply body cut short: {len(body)} of {size} bytes"
            )
        return int(status.group(1)), headers, body


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
        self._conn: Optional[_Connection] = None
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
        # Everything that can be refused is refused before a byte
        # leaves: the request then goes out in one piece.
        if _UNSAFE_TARGET.search(path):
            raise ValueError(f"unsafe request target {path!r}")
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        send_headers = dict(headers or {})
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            send_headers.setdefault("Content-Type", "application/json")
            send_headers["Content-Length"] = str(len(payload))
        for name, value in send_headers.items():
            if _UNSAFE_VALUE.search(f"{name}{value}") or ":" in name:
                raise ValueError(f"unsafe header {name!r}: {value!r}")
            head += f"{name}: {value}\r\n"
        request = (head + "\r\n").encode("latin-1") + payload
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
                # Refused: raises as is, nothing was sent.
                conn = self._conn = _Connection(
                    self.host, self.port, self.timeout
                )
            try:
                status, reply, raw = conn.exchange(request)
            except BaseException as exc:
                self._drop()
                if not isinstance(exc, (OSError, ValueError)):
                    raise
                # Not re-sent: the server may have acted on it.
                raise ServiceError(
                    f"{method} {path}: connection failed "
                    f"({type(exc).__name__}: {exc}); whether the server "
                    "acted on the request is unknown"
                ) from exc
            advertised = _KEEP_ALIVE.search(reply.get(b"keep-alive", b""))
            if advertised is None or advertised.group(2) == b"0" \
                    or b"close" in reply.get(b"connection", b"").lower():
                self._drop()
            else:
                self._expires = time.monotonic() \
                    + float(advertised.group(1)) - EXPIRY_MARGIN
        if reply.get(b"content-type", b"").startswith(b"application/json"):
            decoded: Any = json.loads(raw.decode("utf-8"))
        else:
            decoded = raw.decode("utf-8")
        if status >= 400:
            detail = decoded.get("error", decoded) \
                if isinstance(decoded, dict) else decoded
            raise ServiceError(f"{method} {path} -> {status}: {detail}")
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
