"""Standing distance-join queries (``repro.live``).

The static operators answer one query against one snapshot of the
data; this package keeps a query's *answer* correct while the data
moves.  A :class:`StandingJoin` maintains a top-K or distance-range
join result under tree insertions and deletions, publishing each
repair as an ordered ``+pair`` / ``-pair`` delta stream instead of
re-running the join.  See docs/LIVE.md for the delta semantics, the
repair algorithm, the ``WATCH ... NOTIFY`` SQL surface, and the
service subscription protocol.
"""

from repro.live.delta import ADD, REMOVE, Delta, pair_key
from repro.live.frontier import ResultStore
from repro.live.probe import ProbeResult, probe_partner
from repro.live.standing import (
    StandingJoin,
    share_insert_probes,
    validate_live_spec,
)

__all__ = [
    "ADD",
    "REMOVE",
    "Delta",
    "ProbeResult",
    "ResultStore",
    "StandingJoin",
    "pair_key",
    "probe_partner",
    "share_insert_probes",
    "validate_live_spec",
]
