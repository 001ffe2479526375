"""The cursor protocol: one envelope, one blob framing, one failure
mapping for every suspendable component.

The incremental join's whole execution state is its priority queue
(paper Section 2.2), so suspending any operator is "queue snapshot
plus a few scalars".  This module owns everything about that which is
*not* operator-specific -- the ``{"format", "version", "kind",
"class", "body"}`` envelope, the operator header (spec, tree
fingerprints, counters), the digest-framed pickle blob -- and
operators and service sources contribute only their **body**.  Every
way a cursor can fail to load leaves ``load`` as
:class:`~repro.errors.CursorError` and nothing else.  The format is
specified once, in ``docs/SERVICE.md`` ("Cursor format").
"""

from __future__ import annotations

import hashlib
import pickle
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple, Type

from repro.errors import CursorError, ReproError
from repro.util.counters import CounterRegistry

#: The one cursor format and its version.  Cursors are session-scoped
#: (spools, ``--cursor`` files): anything else is rejected, there is no
#: compatibility reader.  Version 2: the join estimator's ``M`` is
#: keyed by queue sequence number (version 1: by pair identity, which
#: this build would resume into silently wrong trims).
FORMAT = "repro-cursor"
VERSION = 2

_MAGIC = FORMAT.encode("ascii") + bytes([VERSION])
_DIGEST_SIZE = hashlib.sha256().digest_size


# ----------------------------------------------------------------------
# envelope
# ----------------------------------------------------------------------

def pack(
    kind: str, owner: Any, body: Dict[str, Any], **header: Any
) -> Dict[str, Any]:
    """Wrap ``body`` in the envelope as saved by ``owner``."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "class": type(owner).__name__,
        **header,
        "body": body,
    }


def unpack(state: Any, kind: str, cls: Type) -> Dict[str, Any]:
    """Check the envelope of a ``kind`` cursor being loaded by
    ``cls``; returns the body."""
    if not isinstance(state, dict):
        raise CursorError(f"not a {kind} cursor: {type(state).__name__}")
    for field, want in (
        ("format", FORMAT), ("version", VERSION),
        ("kind", kind), ("class", cls.__name__),
    ):
        if state.get(field) != want:
            raise CursorError(
                f"not a {kind} cursor that this build's {cls.__name__} "
                f"loads: its {field} is {state.get(field)!r}, not "
                f"{want!r}"
            )
    body = state.get("body")
    if not isinstance(body, dict):
        raise CursorError(f"damaged {kind} cursor: it has no body")
    return body


@contextmanager
def restoring(what: str) -> Iterator[None]:
    """Map whatever a damaged state makes a restore raise to
    :class:`CursorError`: a missing key or a value of the wrong type
    (``KeyError`` / ``TypeError`` / ...), or a state that no longer
    fits its surroundings (a spec the operator rejects, SQL naming a
    dropped relation: some other library error).  To the caller all
    of them mean the same thing -- this cursor cannot be resumed."""
    try:
        yield
    except CursorError:
        raise
    except (
        KeyError, IndexError, TypeError, AttributeError, ValueError,
        ReproError,
    ) as exc:
        raise CursorError(
            f"cannot restore {what} cursor: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# operator cursors: spec, trees, counters
# ----------------------------------------------------------------------

def tree_fingerprint(tree: Any, versioned: bool = False) -> Tuple:
    """Identity of an input tree, checked at load time.

    Node ids are assigned deterministically by the builders, so the
    (class, dim, size, root id) quadruple pins the cursor to the exact
    tree shape its queued node ids refer to; ``versioned`` adds the
    mutation counter.
    """
    fingerprint = (type(tree).__name__, tree.dim, len(tree), tree.root_id)
    if versioned:
        fingerprint += (tree._mutations,)
    return fingerprint


class SuspendableOperator:
    """``save()`` / ``load()`` for an operator over two trees.

    The preemptable-iterator idiom: a subclass names its
    ``_cursor_kind``, writes its body in ``_cursor_body()``, and puts
    one back when its constructor is handed the private
    ``_resume=body`` argument (the one resume path: restore instead of
    starting fresh, charging no counter; constructor arguments the
    body pins are read from it there).  Everything else about the
    cursor -- envelope, spec and pair filter, tree fingerprints,
    counters, failure mapping -- happens here.
    """

    _cursor_kind: str

    #: Whether the tree fingerprints also pin the mutation counter.
    _cursor_versioned = False

    def _cursor_body(self) -> Dict[str, Any]:
        raise NotImplementedError

    def save(self) -> dict:
        """Snapshot the complete execution state as a picklable cursor
        (the operator's ``_cursor_body`` says what its body holds).
        Only valid between ``next()`` calls / updates.

        A ``pair_filter`` that does not pickle (e.g. a closure composed
        by the query planner) is stripped from the saved spec and
        flagged; :meth:`load` then requires it re-supplied.
        """
        spec = self.spec
        has_filter = spec.pair_filter is not None
        if has_filter and not picklable(spec.pair_filter):
            spec = spec.evolve(pair_filter=None)
        return pack(
            self._cursor_kind, self, self._cursor_body(),
            spec=spec,
            has_pair_filter=has_filter,
            trees=tuple(
                tree_fingerprint(tree, self._cursor_versioned)
                for tree in (self.tree1, self.tree2)
            ),
            counters=self.counters.full_snapshot(),
        )

    @classmethod
    def load(
        cls,
        state: dict,
        tree1: Any,
        tree2: Any,
        *,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Any] = None,
        pair_filter: Optional[Any] = None,
    ) -> Any:
        """Rebuild a suspended operator from a :meth:`save` cursor.

        ``tree1``/``tree2`` must be the trees the cursor was taken
        against (same class, dimensionality, size, and root id -- for
        standing joins also the same mutation count): queued node ids
        are meaningless otherwise.

        With ``counters`` supplied (e.g. the registry the suspended
        run charged), the resumed run continues those totals exactly:
        restoring is counter-silent.  Without it a fresh registry is
        created and primed with the cursor's counter snapshot, so the
        final totals and peaks still match an uninterrupted run.

        ``pair_filter`` re-supplies a filter that could not be
        serialized.  :class:`~repro.errors.CursorError` is raised when
        the cursor needs one and none is given -- as it is for every
        other way the cursor can fail to load.
        """
        kind = cls._cursor_kind
        body = unpack(state, kind, cls)
        with restoring(kind):
            expected = tuple(
                tree_fingerprint(tree, cls._cursor_versioned)
                for tree in (tree1, tree2)
            )
            if tuple(map(tuple, state["trees"])) != expected:
                raise CursorError(
                    "cursor does not match the supplied trees: saved "
                    f"{state['trees']!r}, got {expected!r}"
                )
            spec = state["spec"]
            if pair_filter is not None:
                spec = spec.evolve(pair_filter=pair_filter)
            elif state["has_pair_filter"] and spec.pair_filter is None:
                raise CursorError(
                    "the cursor's pair filter was not serializable; "
                    "re-supply it via pair_filter="
                )
            registry = counters if counters is not None else CounterRegistry()
            op = cls(
                tree1, tree2, spec,
                counters=registry, observer=observer, _resume=body,
            )
            if counters is None:
                # Set, not merge: whatever rebuilding charged (a
                # catalog build) is part of the snapshot already.
                snap = state["counters"]
                for name, value in snap.values.items():
                    registry.counter(name).value = value
                for name, peak in snap.peaks.items():
                    counter = registry.counter(name)
                    if peak > counter.peak:
                        counter.peak = peak
        return op


# ----------------------------------------------------------------------
# blobs
# ----------------------------------------------------------------------

def picklable(value: Any) -> bool:
    """Whether ``value`` (e.g. a user ``pair_filter``) can travel in a
    cursor."""
    try:
        pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


def dumps(state: Any) -> bytes:
    """Pickle ``state`` behind the magic prefix and payload digest."""
    try:
        payload = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CursorError(
            f"cursor state is not serializable: {exc}"
        ) from exc
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def loads(blob: bytes) -> Any:
    """Verify and unpickle a :func:`dumps` blob.

    The digest is checked first, so truncation and bit flips never
    reach ``pickle``.  It has no key: it detects accidental damage,
    not a malicious file -- cursor files are trusted input written by
    this program.
    """
    header = len(_MAGIC) + _DIGEST_SIZE
    if (
        not isinstance(blob, (bytes, bytearray))
        or len(blob) < header
        or blob[:len(_MAGIC)] != _MAGIC
    ):
        raise CursorError("not a cursor blob (or one of another version)")
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != blob[len(_MAGIC):header]:
        raise CursorError(
            "corrupt cursor blob: the payload does not match its "
            "digest (truncated or altered)"
        )
    try:
        return pickle.loads(payload)
    except CursorError:
        raise
    except Exception as exc:
        raise CursorError(f"corrupt cursor blob: {exc}") from exc
