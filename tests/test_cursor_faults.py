"""The cursor fault matrix: every way a cursor can be damaged, for
every cursor kind, ends in :class:`CursorError` -- never another
exception, never a changed tree -- and over HTTP a damaged spooled
cursor costs exactly one session."""

import itertools
import logging
import random

import pytest

from repro.core import cursor
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.errors import CursorError, ServiceError
from repro.geometry.point import Point
from repro.live import StandingJoin
from repro.query.executor import Database
from repro.service import LiveSource, QuerySource, dumps, loads
from repro.service.scheduler import JoinScheduler
from repro.service.session import Session
from repro.shard import ShardRouterJoin, ShardRouterSemiJoin
from repro.util.counters import CounterRegistry

from tests.conftest import make_points

PULL_SQL = (
    "SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 40"
)
WATCH_SQL = (
    "WATCH SELECT * FROM a, b, DISTANCE(a.geom, b.geom) AS d "
    "ORDER BY d STOP AFTER 6 NOTIFY"
)


def build_db():
    db = Database(counters=CounterRegistry())
    db.create_relation("a", make_points(60, seed=11))
    db.create_relation("b", make_points(70, seed=12))
    return db


def swapped(db):
    """The same two trees bound to each other's relation names."""
    other = Database(counters=CounterRegistry())
    other.create_relation("a", db.relation("b"))
    other.create_relation("b", db.relation("a"))
    return other


def keep_all(pair):
    return True


class Case:
    """One cursor kind: a state taken from a mid-stream operator and
    the ways to load it.

    ``load(state)`` loads into a fresh target; ``operator(state)`` is
    the (possibly nested) operator cursor carrying spec / trees;
    ``other`` is a class of the same kind that must refuse it.
    """

    def __init__(self, kind):
        self.kind = kind
        self.db = build_db()
        self.tree1 = self.db.relation("a")
        self.tree2 = self.db.relation("b")
        self.target = None
        build = getattr(self, "_" + kind.replace("-", "_"))
        self.state = loads(dumps(build()))

    # -- the five kinds ------------------------------------------------

    def _join(self):
        self.cls, self.other = (
            IncrementalDistanceJoin, IncrementalDistanceSemiJoin
        )
        join = self.cls(
            self.tree1, self.tree2,
            JoinSpec(max_pairs=40, pair_filter=lambda pair: True),
            counters=CounterRegistry(),
        )
        for __ in range(7):
            next(join)
        return join.save()

    def _shard(self):
        self.cls, self.other = ShardRouterJoin, ShardRouterSemiJoin
        router = self.cls(
            self.tree1, self.tree2,
            JoinSpec(max_pairs=40, pair_filter=lambda pair: True),
            shards=3, counters=CounterRegistry(),
        )
        for __ in range(7):
            next(router)
        return router.save()

    def _live(self):
        self.cls, self.other = StandingJoin, IncrementalDistanceJoin
        standing = self.cls(
            self.tree1, self.tree2, JoinSpec(max_pairs=6),
            counters=CounterRegistry(),
        )
        standing.poll(3)
        return standing.save()

    def _query_source(self):
        self.cls, self.other = QuerySource, LiveSource
        source = QuerySource(self.db, PULL_SQL)
        rows = source.open()
        for __ in range(7):
            next(rows)
        return source.save()

    def _live_source(self):
        self.cls, self.other = LiveSource, QuerySource
        source = LiveSource(self.db, WATCH_SQL)
        source.poll(3)
        return source.save()

    # -- loading -------------------------------------------------------

    @property
    def is_source(self):
        return self.kind.endswith("-source")

    def load(self, state, cls=None, db=None, flip=False, **kwargs):
        cls = cls or self.cls
        if self.is_source:
            sql = WATCH_SQL if cls is LiveSource else PULL_SQL
            self.target = cls(db or self.db, sql)
            self.target.load(state)
            return self.target
        trees = (self.tree1, self.tree2)
        if self.kind != "live":
            kwargs.setdefault("pair_filter", keep_all)
        return cls.load(
            state, *(reversed(trees) if flip else trees),
            counters=CounterRegistry(), **kwargs
        )

    def load_swapped(self, state):
        if self.is_source:
            return self.load(state, db=swapped(self.db))
        return self.load(state, flip=True)

    def operator(self, state):
        """The operator cursor inside ``state`` (itself, for operator
        kinds)."""
        if self.kind == "query-source":
            plan = state["body"]["plan"]
            while plan.operator != "DistanceJoinOp":
                plan = plan.children[0]
            return plan.payload["join"]
        if self.kind == "live-source":
            return state["body"]["standing"]
        return state

    def fresh(self):
        return loads(dumps(self.state))

    def tree_facts(self):
        return [
            (len(t), t.root_id, t._mutations)
            for t in (self.tree1, self.tree2)
        ]

    def rejected(self, load, *args, **kwargs):
        """``load`` must raise CursorError and touch nothing."""
        before = self.tree_facts()
        self.target = None
        with pytest.raises(CursorError):
            load(*args, **kwargs)
        self.settled(before)

    def settled(self, before):
        assert self.tree_facts() == before
        if self.target is not None:
            # A source that failed to load holds no half-built plan or
            # standing join.
            assert self.target.plan is None
            assert getattr(self.target, "_standing", None) is None


KINDS = ["join", "shard", "live", "query-source", "live-source"]


@pytest.fixture(params=KINDS)
def case(request):
    return Case(request.param)


class TestEnvelope:
    def test_round_trip_loads(self, case):
        assert case.load(case.fresh()) is not None
        assert case.state["format"] == cursor.FORMAT
        assert case.state["kind"] == case.kind

    @pytest.mark.parametrize("state", [
        None, 7, "cursor", b"cursor", ["format"], ("format", 1),
    ])
    def test_non_dict_state(self, case, state):
        case.rejected(case.load, state)

    @pytest.mark.parametrize("key,value", [
        ("format", "repro-join-cursor"),  # a pre-protocol cursor
        ("format", None),
        ("version", cursor.VERSION + 1),
        ("version", 1),  # M keyed by pair identity: never resumed
        ("version", "1"),
        ("kind", "teleport"),
        ("class", "Nobody"),
    ])
    def test_wrong_envelope_field(self, case, key, value):
        state = case.fresh()
        state[key] = value
        case.rejected(case.load, state)

    def test_every_other_kind_is_refused(self, case):
        for kind in KINDS:
            if kind != case.kind:
                state = case.fresh()
                state["kind"] = kind
                case.rejected(case.load, state)

    def test_wrong_class(self, case):
        case.rejected(case.load, case.fresh(), cls=case.other)


class TestTreesAndFilter:
    def test_swapped_trees(self, case):
        case.rejected(case.load_swapped, case.fresh())

    def test_tree_mutated_after_save(self, case):
        point = Point((5.0, 5.0))
        case.tree1.insert(obj=point, oid=9100)
        if "live" in case.kind:
            # Same size again: only the mutation counter tells.
            assert case.tree1.delete(9100, case.tree1._rect_of(point))
        case.rejected(case.load, case.fresh())

    def test_needed_pair_filter_missing(self, case):
        state = case.fresh()
        operator = case.operator(state)
        # Standing joins and filter-free plans never strip a filter;
        # a cursor claiming one was stripped cannot be resumed either.
        operator["has_pair_filter"] = True
        assert operator["spec"].pair_filter is None
        case.rejected(case.load, state, pair_filter=None)


class TestBlob:
    def test_truncated(self, case):
        blob = dumps(case.state)
        for size in (0, 1, 12, 13, 44, 45, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CursorError):
                loads(blob[:size])

    def test_single_bit_flips(self, case):
        blob = dumps(case.state)
        rng = random.Random(1998)
        positions = {0, 12, 13, 44, 45, len(blob) - 1}
        positions.update(rng.randrange(len(blob)) for __ in range(96))
        assert len(positions) >= 64
        for position in sorted(positions):
            damaged = bytearray(blob)
            damaged[position] ^= 1 << rng.randrange(8)
            with pytest.raises(CursorError):
                loads(bytes(damaged))

    def test_not_bytes(self, case):
        for blob in (None, 7, "text", case.state):
            with pytest.raises(CursorError):
                loads(blob)


def levels(state):
    """The dicts of ``state`` whose keys the matrix damages: the
    envelope and the body."""
    return [state, state["body"]]


class TestStructuralDamage:
    """Damage that keeps the blob digest valid: a load either
    succeeds or raises CursorError, and nothing else."""

    def attempt(self, case, state):
        before = case.tree_facts()
        case.target = None
        try:
            case.load(state)
        except CursorError:
            case.settled(before)
        else:
            assert case.tree_facts() == before

    def test_each_key_deleted(self, case):
        for level in range(2):
            for key in list(levels(case.state)[level]):
                state = case.fresh()
                del levels(state)[level][key]
                self.attempt(case, state)

    def test_each_value_retyped(self, case):
        replacements = (None, 7, "x", [], {}, 2.5, True)
        for level in range(2):
            for key, value in levels(case.state)[level].items():
                for other in replacements:
                    if type(other) is type(value):
                        continue
                    state = case.fresh()
                    levels(state)[level][key] = other
                    self.attempt(case, state)

    def test_a_missing_header_key_is_a_cursor_error(self, case):
        """The regressions named in the issue (``KeyError: 'trees'``,
        ``TypeError: 'int' object is not iterable``, ``AttributeError:
        'str' object has no attribute ...``) are raised, as
        CursorError."""
        damages = [
            lambda s: s.pop("trees"),
            lambda s: s.__setitem__("trees", 7),
            lambda s: s.__setitem__("spec", "x"),
        ] if not case.is_source else [
            lambda s: s["body"].pop("sql"),
            lambda s: s["body"].__setitem__("sql", 7),
            lambda s: s["body"].__setitem__(
                "plan" if case.kind == "query-source" else "standing",
                "x",
            ),
        ]
        for damage in damages:
            state = case.fresh()
            damage(state)
            case.rejected(case.load, state)


def drawn(case, target):
    """The rows (or, for a standing join, the deltas) a loaded cursor
    yields next."""
    if case.kind == "query-source":
        rows = target.open()
    elif "live" in case.kind:
        rows = target.poll()
    else:
        rows = target
    return list(itertools.islice(rows, 10))


class TestRemovedKnob:
    """A cursor saved by a build whose ``JoinSpec`` still had
    ``process_leaves_together``: at its off value it resumes with the
    rows of a cursor without the field; switched on, it names a
    traversal this build cannot replay and is a CursorError."""

    def saved_by_older_build(self, case, value):
        state = case.fresh()
        # What pickling the older dataclass carried: one more field.
        spec = case.operator(state)["spec"]
        object.__setattr__(spec, "process_leaves_together", value)
        return dumps(state)

    def test_off_resumes_with_identical_rows(self, case):
        want = drawn(case, case.load(case.fresh()))
        older = loads(self.saved_by_older_build(case, False))
        spec = case.operator(older)["spec"]
        assert not hasattr(spec, "process_leaves_together")
        assert drawn(case, case.load(older)) == want != []

    def test_on_is_refused(self, case):
        blob = self.saved_by_older_build(case, True)
        with pytest.raises(CursorError, match="process_leaves_together"):
            loads(blob)


class TestSessionExtras:
    """The two keys a session adds to its source's envelope --
    ``telemetry`` (the recorder's state) and ``progress`` (the
    certified floor) -- under the same damage: a resume either
    succeeds or raises CursorError *before* anything changed."""

    REPLACEMENTS = (None, 7, "x", [], {}, 2.5, True, {"format": "nope"})

    @pytest.fixture(params=["query-source", "live-source"])
    def suspended(self, request):
        self.db = build_db()
        self.live = request.param == "live-source"
        scheduler = JoinScheduler(quantum_pairs=5, telemetry=True)
        session = scheduler.admit(self.source())
        scheduler.fetch(session.id, 4)
        state = loads(dumps(session.suspend_to_state()))
        assert state["kind"] == request.param
        assert {"telemetry", "progress"} <= set(state)
        return state

    def source(self):
        if self.live:
            return LiveSource(self.db, WATCH_SQL)
        return QuerySource(self.db, PULL_SQL)

    def attempt(self, state):
        fresh = Session("fresh", self.source())
        obs, estimator = fresh.obs, fresh.progress_est
        try:
            fresh.resume_from_state(state)
        except CursorError:
            assert fresh.source.plan is None
            assert getattr(fresh.source, "_standing", None) is None
            assert fresh.source.observer is None
            assert fresh.obs is obs and obs.trace is None
            assert fresh.progress_est is estimator
            assert estimator.lower_bound == 0.0
            return False
        assert not fresh.evicted
        assert fresh.source.observer in (None, fresh.obs)
        # What was restored can be exported.
        assert len(fresh.obs.records) <= fresh.obs.events.max_events
        return True

    def test_round_trip_resumes(self, suspended):
        assert self.attempt(suspended)

    @pytest.mark.parametrize("key", ["telemetry", "progress"])
    def test_extra_deleted_or_retyped(self, suspended, key):
        state = loads(dumps(suspended))
        del state[key]
        assert self.attempt(state)  # both extras are optional
        outcomes = []
        for other in self.REPLACEMENTS:
            state = loads(dumps(suspended))
            state[key] = other
            outcomes.append(self.attempt(state))
        # progress=None reads as "no floor saved"; nothing else fits.
        assert outcomes == [
            key == "progress" and other is None
            for other in self.REPLACEMENTS
        ]

    def test_damage_inside_the_recorder_state(self, suspended):
        for key in list(suspended["telemetry"]):
            state = loads(dumps(suspended))
            del state["telemetry"][key]
            if key != "version":
                assert not self.attempt(state), key
            for other in (None, "x", 7):
                state = loads(dumps(suspended))
                state["telemetry"][key] = other
                self.attempt(state)


# ----------------------------------------------------------------------
# over HTTP: a damaged spooled cursor costs exactly one session
# ----------------------------------------------------------------------

@pytest.fixture
def served(serve):
    """(service, client, db) with the evictor quiet."""
    db = build_db()
    return (*serve(db, quantum_pairs=5), db)


def drop_key(state):
    del state["kind"]
    return dumps(state)


def body_to_string(state):
    body = state["body"]
    body["plan" if "plan" in body else "standing"] = "not a cursor"
    return dumps(state)


def truncate(state):
    blob = dumps(state)
    return blob[:len(blob) // 2]


def envelope_v1(state):
    """What the build before this one spooled: ``M`` keyed by pair
    identity, which would resume here into silently wrong trims."""
    state["version"] = 1
    return dumps(state)


def blob_v1(state):
    """The same, down to the version byte of the blob's magic."""
    magic = cursor.FORMAT.encode("ascii")
    return magic + b"\x01" + envelope_v1(state)[len(magic) + 1:]


DAMAGES = [drop_key, body_to_string, truncate, envelope_v1, blob_v1]


def damage_spool(service, sid, damage):
    store = service.scheduler.store
    path = store._path(sid)
    with open(path, "rb") as handle:
        state = loads(handle.read())
    with open(path, "wb") as handle:
        handle.write(damage(state))


def page_all(client, sid, k=7):
    rows = []
    while True:
        page = client.next(sid, k=k)
        rows.extend(page["rows"])
        if page["done"]:
            return rows


@pytest.mark.parametrize("damage", DAMAGES)
class TestDamagedSpool:
    def test_victim_fails_alone(self, served, damage, caplog):
        service, client, db = served
        expected = page_all(client, client.query(PULL_SQL))

        victim = client.query(PULL_SQL)
        healthy = client.query(PULL_SQL)
        head = {
            sid: client.next(sid, k=7)["rows"]
            for sid in (victim, healthy)
        }
        assert set(service.scheduler.evict_idle(0.0)) == \
            {victim, healthy}
        damage_spool(service, victim, damage)

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            # An HTTP error body for the victim, not a dropped
            # connection ...
            with pytest.raises(ServiceError, match="500.*cursor"):
                client.next(victim, k=7)
            # ... then gone like any unknown session, slot and spool
            # file included.
            with pytest.raises(ServiceError, match="404"):
                client.next(victim, k=7)
            assert not service.scheduler.store.exists(victim)
            status = client.status()
            assert [s["session"] for s in status["sessions"]] == \
                [healthy]
            # The healthy session resumes from its own spooled cursor
            # and pages to completion.
            rest = page_all(client, healthy)
        assert head[healthy] + rest == expected
        assert "Unhandled exception" not in caplog.text

    def test_victim_does_not_poison_other_rounds(self, served, damage):
        """The healthy session asks first: the round that trips over
        the victim's cursor still serves it."""
        service, client, db = served
        victim = client.query(PULL_SQL)
        healthy = client.query(PULL_SQL)
        for sid in (victim, healthy):
            client.next(sid, k=7)
        scheduler = service.scheduler
        scheduler.evict_idle(0.0)
        damage_spool(service, victim, damage)
        # Leave the victim pending, as a concurrent /next would.
        scheduler.request(victim, 7)
        page = client.next(healthy, k=7)
        assert len(page["rows"]) == 7
        with pytest.raises(ServiceError, match="404"):
            client.next(victim, k=7)

    def test_damaged_watcher_is_invalidated_by_update(
        self, served, damage, caplog
    ):
        service, client, db = served
        victim = client.watch(WATCH_SQL)
        healthy = client.watch(WATCH_SQL)
        for sid in (victim, healthy):
            client.deltas(sid, k=16)
        assert set(service.scheduler.evict_idle(0.0)) == \
            {victim, healthy}
        damage_spool(service, victim, damage)

        size = len(db.relation("b"))
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            receipt = client.insert("b", 9300, [30.0, 40.0])
        assert [r["session"] for r in receipt["invalidated"]] == [victim]
        assert "cursor" in receipt["invalidated"][0]["error"]
        assert len(db.relation("b")) == size + 1  # still applied
        with pytest.raises(ServiceError, match="404"):
            client.deltas(victim)
        # Later updates of the relation are served normally.
        receipt = client.remove("b", 9300, [30.0, 40.0])
        assert "invalidated" not in receipt
        assert receipt["watchers"] == 1
        client.deltas(healthy)
        client.delete(healthy)
        assert "Unhandled exception" not in caplog.text
