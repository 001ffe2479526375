"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """Invalid geometric construction or operation.

    Raised, for example, when a rectangle is built with ``lo > hi`` in
    some dimension, or when two geometries of different dimensionality
    are combined.
    """


class DimensionMismatchError(GeometryError):
    """Two geometric arguments do not share the same dimensionality."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(
            f"dimension mismatch: expected {expected}, got {got}"
        )
        self.expected = expected
        self.got = got


class StorageError(ReproError):
    """Problems in the simulated storage layer (pager / buffer pool)."""


class PageNotFoundError(StorageError):
    """A page id was requested that was never allocated or was freed."""

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist")
        self.page_id = page_id


class TreeError(ReproError):
    """R-tree structural errors (invalid fan-out, corrupt node, ...)."""


class TreeInvariantError(TreeError):
    """An R-tree structural invariant was found to be violated.

    Raised by :func:`repro.rtree.validate.validate_tree` when, e.g., a
    child rectangle is not contained in its parent entry's rectangle.
    """


class QueryError(ReproError):
    """Errors raised by the SQL-ish query layer (lexing/parsing/binding)."""


class QuerySyntaxError(QueryError):
    """The query text could not be parsed.

    Attributes
    ----------
    position:
        Character offset into the query string where the error was
        detected, or ``-1`` if unknown.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class JoinError(ReproError):
    """Errors in the distance join / semi-join drivers."""


class KernelError(JoinError):
    """The requested batch-kernel configuration is unavailable.

    Raised when ``JoinSpec.kernel="vector"`` is requested but numpy is
    not importable (or disabled) or the metric has no bit-reproducible
    batch kernels; ``kernel="auto"`` falls back to scalar instead.
    """


class RestartRequired(JoinError):
    """Internal signal: aggressive max-distance estimation pruned too much.

    The paper (Section 2.2.4) notes that over-estimating the number of
    object pairs generated from a queue pair may make the estimated
    maximum distance too small, in which case the query must be
    restarted.  The join driver catches this exception and restarts
    transparently with a safe estimator.
    """


class CursorError(ReproError):
    """A suspended-execution cursor could not be saved or restored.

    Raised when a cursor blob has an unknown format or version, when
    it was taken against different input trees than the ones supplied
    at load time, when a component of the execution state is not
    serializable (e.g. a closure pair filter that was not re-supplied),
    or when an operator does not support suspension at all (a
    pool-backed partitioned join).
    """


class ServiceError(ReproError):
    """Errors raised by the preemptable join service layer.

    Covers session admission (service full), unknown or expired
    session ids, and attempts to evict a session whose operator only
    supports in-memory suspension.
    """


class ServiceFull(ServiceError):
    """Admission refused: the scheduler is at ``max_sessions`` (HTTP
    409, where every other :class:`ServiceError` is a 404)."""


class LiveError(ReproError):
    """Errors raised by the standing-query (``repro.live``) layer.

    Covers specs a :class:`~repro.live.StandingJoin` cannot maintain
    incrementally (descending order, external pair filters, self
    joins, ...), updates against unknown or duplicate object ids, and
    out-of-band tree mutations that invalidate the maintained result
    (detected through ``RTreeBase._mutations``).
    """


class ConsistencyError(JoinError):
    """The supplied distance functions violate the consistency contract.

    The incremental algorithms are only correct when no pair can have a
    smaller distance than a pair that generated it.  Debug builds of the
    join (``check_consistency=True``) verify this at run time and raise
    this error on violation.
    """
