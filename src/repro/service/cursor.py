"""The cursor spool: idle-session eviction to files.

:class:`CursorStore` spools cursor blobs to files, accounting the
traffic in the same simulated-page currency as the rest of the storage
layer (``cursor_spool_writes`` / ``cursor_spool_reads`` pages of the
configured page size).  The blob functions :func:`dumps` / :func:`loads`
live in :mod:`repro.core.cursor` and are re-exported here; see "Cursor
format" in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.core.cursor import dumps, loads
from repro.errors import CursorError
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.util.counters import CounterRegistry

__all__ = ["CursorStore", "dumps", "loads"]


class CursorStore:
    """File-backed spool for evicted session cursors.

    Parameters
    ----------
    spool_dir:
        Directory the blobs are written to (created on first use).
    counters:
        Registry charged with ``cursor_spool_writes`` /
        ``cursor_spool_reads`` in simulated pages of ``page_size``
        bytes, plus ``cursor_spool_bytes`` (gauge peak = largest blob).
    page_size:
        Page size used for the simulated-I/O accounting only; blobs
        are stored as ordinary files.
    """

    def __init__(
        self,
        spool_dir: str,
        counters: Optional[CounterRegistry] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.spool_dir = spool_dir
        self.counters = counters if counters is not None else CounterRegistry()
        self.page_size = page_size

    def _path(self, session_id: str) -> str:
        safe = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in session_id
        )
        return os.path.join(self.spool_dir, f"session-{safe}.cursor")

    def _pages(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.page_size))

    def save(self, session_id: str, state: Any) -> str:
        """Spool ``state`` for ``session_id``; returns the file path."""
        blob = dumps(state)
        os.makedirs(self.spool_dir, exist_ok=True)
        path = self._path(session_id)
        with open(path, "wb") as handle:
            handle.write(blob)
        self.counters.add("cursor_spool_writes", self._pages(len(blob)))
        self.counters.counter("cursor_spool_bytes").observe(len(blob))
        return path

    def load(self, session_id: str) -> Any:
        """Read back the spooled cursor for ``session_id``."""
        path = self._path(session_id)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            raise CursorError(
                f"no spooled cursor for session {session_id!r}"
            ) from None
        self.counters.add("cursor_spool_reads", self._pages(len(blob)))
        return loads(blob)

    def delete(self, session_id: str) -> bool:
        """Drop the spooled cursor; True if one existed."""
        try:
            os.remove(self._path(session_id))
            return True
        except FileNotFoundError:
            return False

    def exists(self, session_id: str) -> bool:
        """True when a cursor is spooled for ``session_id``."""
        return os.path.exists(self._path(session_id))
