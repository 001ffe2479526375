"""``repro.service``: the preemptable join service.

The paper's defining property -- an incremental distance join's entire
execution state *is* its priority queue -- makes every join a natural
preemptable iterator: run it for a slice, snapshot the queue, resume
later with zero recomputation.  This package turns that property into
a serving layer (the ``next()``/``save()``/``load()`` preemptable-
iterator design popularized by sage-engine's Web-preemptable query
engine):

- :mod:`repro.service.cursor` -- the on-disk cursor spool used for
  idle-session eviction (blobs: :mod:`repro.core.cursor`);
- :mod:`repro.service.session` -- rebuildable query sources and the
  per-client session state;
- :mod:`repro.service.live` -- standing ``WATCH`` subscription
  sources whose pages are incremental repair deltas
  (:mod:`repro.live`, ``docs/LIVE.md``);
- :mod:`repro.service.scheduler` -- the quantum scheduler
  round-robining hundreds of concurrent ``STOP AFTER k`` sessions;
- :mod:`repro.service.server` -- a stdlib-only asyncio HTTP server
  (``repro serve``);
- :mod:`repro.service.client` -- a small synchronous client helper
  used by the tests, the CI smoke job, and the example;
- :mod:`repro.service.overhead` -- the suspend/resume-vs-uninterrupted
  harness behind the ``service`` benchmark family.

See ``docs/SERVICE.md`` for the cursor format, scheduler semantics and
the HTTP API.
"""

from repro.service.client import ServiceClient
from repro.service.cursor import CursorStore, dumps, loads
from repro.service.live import LiveSource
from repro.service.overhead import resumed_join
from repro.service.scheduler import JoinScheduler
from repro.service.server import JoinService
from repro.service.session import QuerySource, Session

__all__ = [
    "CursorStore",
    "JoinScheduler",
    "JoinService",
    "LiveSource",
    "QuerySource",
    "ServiceClient",
    "Session",
    "dumps",
    "loads",
    "resumed_join",
]
