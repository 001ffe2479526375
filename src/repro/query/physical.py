"""Physical plans: executable Volcano-style operator trees.

:func:`build_physical_plan` lowers a logical plan
(:mod:`repro.query.logical`) into a tree of physical operators:

``Limit(RowProject(RemapOids(DistanceJoinOp(side, side))))``

where each ``side`` is an :class:`IndexScan` optionally wrapped in one
of the two predicate implementations the paper's Section 5 discusses:

- :class:`PairFilterPushdown` -- the **pipeline** plan: the predicate
  rides into the join as a ``pair_filter``, so non-qualifying objects
  never enter the queue and the join still streams incrementally;
- :class:`PrefilterMaterialize` -- the **prefilter** plan: the
  qualifying subset is materialized into a temporary index first (the
  paper: best for highly selective predicates, at the price of an
  index build before the first result).

The choice between them is a *planner rule* here: under
``strategy="auto"`` both plans are priced with the Section 5 cost
model (:mod:`repro.query.costmodel`) and the cheaper shape is built;
the costs stay annotated on the join node so ``EXPLAIN`` can show
both.  ``execute``, ``EXPLAIN`` and ``EXPLAIN ANALYZE`` all walk this
same tree -- EXPLAIN renders it without opening it (no temporary
index is built), execution opens it and streams rows.

A second rule picks the join's node policy (:func:`choose_traversal`,
Section 2.2.2): Simultaneous when the plan-time distance bound is
small against a leaf, Even otherwise.  The choice cannot show in a
row, because equal-distance groups leave the join operator in
canonical ``(oid1, oid2)`` order whatever traversal produced them
(:class:`repro.core.ties.CanonicalTies`).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core import cursor
from repro.core.distance_join import IncrementalDistanceJoin, JoinResult
from repro.core.pairs import NODE, Pair
from repro.core.reverse import ReverseDistanceJoin, ReverseDistanceSemiJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import EVEN, SIMULTANEOUS, JoinSpec
from repro.core.ties import CanonicalTies
from repro.errors import QueryError
from repro.errors import CursorError
from repro.query.ast_nodes import Query
from repro.query.costmodel import (
    JoinCostModel,
    estimate_build_cost,
    traversal_bound,
)
from repro.query.logical import LogicalPlan, build_logical_plan
from repro.rtree.base import DEFAULT_MAX_ENTRIES, RTreeBase
from repro.rtree.bulk import bulk_load_str

# NOTE: repro.shard depends on this package (its catalogs carry
# cost-model stats), so the shard router is imported lazily inside the
# functions that need it.
from repro.util.counters import CounterRegistry
from repro.util.obs import Observer
from repro.util.validation import require

_INF = float("inf")

STRATEGIES = ("auto", "pipeline", "prefilter")

#: ``c`` of the traversal rule: Simultaneous while the plan-time
#: distance bound D is at most this fraction of a leaf's side.  Fitted
#: on a K / distance sweep of the Water x Roads maps at scales 0.05,
#: 0.1 and 1.0 (the table is in CHANGES.md): Simultaneous returned the
#: first 25 rows sooner up to D ~ 0.12 leaf, lost them by up to 19 %
#: between 0.12 and 0.2 and by up to 5.9x beyond, and returned all
#: rows sooner up to ~0.45 leaf; Even never lost more than 1.8x.  So c
#: sits at the end of the first-page crossover, errors falling on Even.
SIMULTANEOUS_LEAF_FRACTION = 0.2

__all__ = [
    "SIMULTANEOUS_LEAF_FRACTION",
    "STRATEGIES",
    "Row",
    "PlanExplanation",
    "OperatorState",
    "PhysicalNode",
    "IndexScan",
    "PrefilterMaterialize",
    "PairFilterPushdown",
    "DistanceJoinOp",
    "RemapOids",
    "RowProject",
    "Limit",
    "PhysicalPlan",
    "Traversal",
    "build_physical_plan",
    "choose_traversal",
    "statement_spec",
    "materialize_filtered",
]


class Row(NamedTuple):
    """One output tuple of a distance (semi-)join query."""

    d: float
    oid1: int
    geom1: Any
    oid2: int
    geom2: Any


class Traversal(NamedTuple):
    """The node policy a plan runs and why (:func:`choose_traversal`);
    ``EXPLAIN`` prints it as ``policy (reason)``."""

    policy: str
    reason: str

    def __str__(self) -> str:
        return f"{self.policy} ({self.reason})"


class PlanExplanation(NamedTuple):
    """Output of :meth:`repro.query.executor.Database.explain`."""

    operator: str
    strategy: str
    relation1: str
    relation2: str
    outer_size: int
    inner_size: int
    min_distance: float
    max_distance: float
    stop_after: Optional[int]
    selectivity1: float
    selectivity2: float
    estimated_result_pairs: float
    estimated_node_io: float
    estimated_dist_calcs: float
    estimated_cost: float
    pipeline_cost: float
    prefilter_cost: float
    tree: Optional[str] = None
    shards: Optional[int] = None
    shard_route: Optional[Dict[str, Any]] = None
    traversal: Optional["Traversal"] = None

    def pretty(self) -> str:
        """A human-readable plan description."""
        bound = (
            f"STOP AFTER {self.stop_after}"
            if self.stop_after is not None else "unbounded"
        )
        lines = [
            f"{self.operator}({self.relation1}[{self.outer_size:,}], "
            f"{self.relation2}[{self.inner_size:,}])",
            f"  strategy: {self.strategy}",
            f"  distance range: [{self.min_distance:g}, "
            f"{self.max_distance:g}], {bound}",
        ]
        if self.traversal is not None:
            lines.append(f"  traversal: {self.traversal}")
        if self.shards is not None:
            lines.append(f"  shards: {self.shards} per relation")
        if self.shard_route is not None:
            route = self.shard_route
            lines.append(
                f"  shard route ({route['method']}): "
                f"{route['pairs_planned']}/{route['pairs_total']} "
                f"pairs planned, {route['range_pruned']} range-pruned"
            )
        if self.selectivity1 < 1.0 or self.selectivity2 < 1.0:
            lines.append(
                f"  predicate selectivity: "
                f"{self.relation1}={self.selectivity1:.3f}, "
                f"{self.relation2}={self.selectivity2:.3f}"
            )
            lines.append(
                f"  plan costs: pipeline={self.pipeline_cost:,.0f}, "
                f"prefilter={self.prefilter_cost:,.0f}"
            )
        lines += [
            f"  est. result pairs: {self.estimated_result_pairs:,.0f}",
            f"  est. node I/O:     {self.estimated_node_io:,.0f}",
            f"  est. dist. calcs:  {self.estimated_dist_calcs:,.0f}",
            f"  est. cost:         {self.estimated_cost:,.0f}",
        ]
        if self.tree:
            lines.append("  plan:")
            lines += [
                "    " + line for line in self.tree.splitlines()
            ]
        return "\n".join(lines)


def materialize_filtered(
    tree: Any, matches: Callable[[int], bool]
) -> Tuple[Any, List[int]]:
    """Materialize the qualifying subset into a temporary index;
    returns the tree and the new-oid -> original-oid mapping.

    The temporary index inherits the source tree's storage
    configuration -- fanout, page size and buffer-pool capacity -- so
    its ``node_io`` counters stay comparable with a join over the
    original index instead of silently reverting to defaults.
    """
    kept = sorted(
        (entry.oid, entry.obj if entry.obj is not None else entry.rect)
        for entry in tree.items()
        if matches(entry.oid)
    )
    mapping = [oid for oid, __ in kept]
    objects = [obj for __, obj in kept]
    build_kwargs: Dict[str, Any] = dict(
        max_entries=getattr(tree, "max_entries", DEFAULT_MAX_ENTRIES),
        dim=tree.dim,
        counters=tree.counters,
    )
    store = getattr(tree, "store", None)
    if store is not None:
        build_kwargs["page_size"] = store.page_size
    pool = getattr(tree, "pool", None)
    if pool is not None:
        build_kwargs["buffer_pages"] = pool.capacity
    sub_tree = bulk_load_str(objects, **build_kwargs)
    return sub_tree, mapping


def _maybe_span(obs: Optional[Any], name: str):
    return obs.span(name) if obs is not None \
        else contextlib.nullcontext()


def _compose_pair_filter(
    caller: Optional[Callable[[Pair], bool]],
    match1: Optional[Callable[[int], bool]],
    match2: Optional[Callable[[int], bool]],
) -> Optional[Callable[[Pair], bool]]:
    """Fold the two sides' oid predicates and the caller's own pair
    filter into one join pair filter that a pair must pass in full
    (under the prefilter plan the caller's sees temporary oids)."""
    if match1 is None and match2 is None:
        return caller

    def keep(pair: Pair) -> bool:
        if (
            match1 is not None
            and pair.item1.kind != NODE
            and not match1(pair.item1.oid)
        ):
            return False
        if (
            match2 is not None
            and pair.item2.kind != NODE
            and not match2(pair.item2.oid)
        ):
            return False
        return caller is None or caller(pair)

    return keep


class ResolvedInput(NamedTuple):
    """One join input, ready to hand to the operator constructor."""

    tree: Any
    mapping: Optional[List[int]]  # new-oid -> original oid, or None
    matcher: Optional[Callable[[int], bool]]  # pushed-down predicate


class OperatorState(NamedTuple):
    """One node of a saved physical-plan cursor.

    A plan cursor is a tree of these mirroring the operator tree:
    ``operator`` names the class that wrote it, ``version`` its payload
    layout, ``payload`` the class-specific picklable state, and
    ``children`` the saved subtrees.  Restore by rebuilding an
    identical plan (same SQL, same strategy) and calling
    :meth:`PhysicalNode.load` on its root.
    """

    operator: str
    version: int
    payload: Any
    children: Tuple["OperatorState", ...]


class PhysicalNode:
    """Base class: tree shape plus the EXPLAIN rendering."""

    #: Bump in a subclass when its :meth:`_state_payload` layout changes.
    STATE_VERSION = 1

    def children(self) -> Tuple["PhysicalNode", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["PhysicalNode"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # suspendable cursor
    # ------------------------------------------------------------------

    def save(self) -> OperatorState:
        """Snapshot this operator subtree as a picklable cursor."""
        return OperatorState(
            operator=type(self).__name__,
            version=self.STATE_VERSION,
            payload=self._state_payload(),
            children=tuple(child.save() for child in self.children()),
        )

    @cursor.restoring("plan")
    def load(self, state: OperatorState) -> None:
        """Restore a :meth:`save` cursor into this operator subtree.

        Call on a freshly built plan of the same shape (same query,
        same strategy); children restore bottom-up so a parent's
        payload can rely on its restored inputs.  Like every cursor
        load (:mod:`repro.core.cursor`), it fails with
        :class:`~repro.errors.CursorError` only.
        """
        if state.operator != type(self).__name__:
            raise CursorError(
                f"cursor node was saved by {state.operator!r}, "
                f"found {type(self).__name__!r} -- the plan shape "
                "changed since the cursor was taken"
            )
        if state.version != self.STATE_VERSION:
            raise CursorError(
                f"unsupported {state.operator} cursor version "
                f"{state.version!r} (this build reads "
                f"{self.STATE_VERSION})"
            )
        children = self.children()
        if len(children) != len(state.children):
            raise CursorError(
                f"cursor for {state.operator} has "
                f"{len(state.children)} children, plan has "
                f"{len(children)}"
            )
        for child, child_state in zip(children, state.children):
            child.load(child_state)
        self._load_payload(state.payload)

    def _state_payload(self) -> Any:
        """Subclass hook: this operator's own picklable state."""
        return None

    def _load_payload(self, payload: Any) -> None:
        """Subclass hook: restore what :meth:`_state_payload` wrote."""


class IndexScan(PhysicalNode):
    """Expose one relation's index to the join."""

    def __init__(self, relation: str, tree: Any) -> None:
        self.relation = relation
        self.tree = tree

    def label(self) -> str:
        kind = type(self.tree).__name__
        return (
            f"IndexScan({self.relation}, {kind}, "
            f"{len(self.tree):,} objects)"
        )

    def resolve(self, obs: Optional[Any] = None) -> ResolvedInput:
        return ResolvedInput(self.tree, None, None)

    def _state_payload(self) -> Any:
        return {
            "relation": self.relation,
            "size": len(self.tree),
            "dim": self.tree.dim,
        }

    def _load_payload(self, payload: Any) -> None:
        if (
            payload["relation"] != self.relation
            or payload["size"] != len(self.tree)
            or payload["dim"] != self.tree.dim
        ):
            raise CursorError(
                f"cursor was taken against relation "
                f"{payload['relation']!r} ({payload['size']} objects, "
                f"dim {payload['dim']}); the plan scans "
                f"{self.relation!r} ({len(self.tree)} objects, "
                f"dim {self.tree.dim})"
            )


class PrefilterMaterialize(PhysicalNode):
    """The prefilter plan's side: build a temporary index over the
    qualifying subset (resolved lazily, so EXPLAIN never builds it;
    the build is idempotent once opened)."""

    def __init__(
        self,
        child: IndexScan,
        matcher: Callable[[int], bool],
        selectivity: float,
    ) -> None:
        self.child = child
        self.matcher = matcher
        self.selectivity = selectivity
        self._resolved: Optional[ResolvedInput] = None

    def children(self) -> Tuple[PhysicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"PrefilterMaterialize(sel={self.selectivity:.3f})"

    def resolve(self, obs: Optional[Any] = None) -> ResolvedInput:
        if self._resolved is None:
            source = self.child.resolve(obs).tree
            with _maybe_span(obs, "op.PrefilterMaterialize"):
                tree, mapping = materialize_filtered(
                    source, self.matcher
                )
            self._resolved = ResolvedInput(tree, mapping, None)
        return self._resolved

    def _state_payload(self) -> Any:
        # The materialized index itself is not saved:
        # materialize_filtered is deterministic (sorted oids, bulk
        # load), so a resume rebuilds the identical temporary index on
        # demand and the join cursor's node ids stay valid.
        return {"selectivity": self.selectivity}


class PairFilterPushdown(PhysicalNode):
    """The pipeline plan's side: the predicate travels into the join
    as a pair filter (composed in :class:`DistanceJoinOp`)."""

    def __init__(
        self,
        child: IndexScan,
        matcher: Callable[[int], bool],
        selectivity: float,
    ) -> None:
        self.child = child
        self.matcher = matcher
        self.selectivity = selectivity

    def children(self) -> Tuple[PhysicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"PairFilterPushdown(sel={self.selectivity:.3f})"

    def resolve(self, obs: Optional[Any] = None) -> ResolvedInput:
        base = self.child.resolve(obs)
        return ResolvedInput(base.tree, base.mapping, self.matcher)

    def _state_payload(self) -> Any:
        # The matcher is a closure over database columns; the rebuilt
        # plan recreates it from the same query text.
        return {"selectivity": self.selectivity}


class DistanceJoinOp(PhysicalNode):
    """The distance (semi-)join operator.

    ``open()`` resolves both inputs (building prefilter indexes if the
    plan has any), composes the pushed-down predicates with the
    statement spec's own ``pair_filter`` and constructs the join
    iterator exactly once, handing it the ``SHARDS`` count (which
    ``PARALLEL`` spells too) as ``shards``.  The planner's cost
    annotations (both strategies' estimates) and its traversal choice
    live here for EXPLAIN.

    :meth:`results` emits every equal-distance group in ``(oid1,
    oid2)`` order and completes the group at the ``STOP AFTER`` cap
    (:class:`repro.core.ties.CanonicalTies` around a sequential
    join; the partitioned engine's merge already does both).  Prefilter
    indexes number their objects in original-oid order, so the order
    survives :class:`RemapOids`.  A group being emitted is part of the
    cursor.
    """

    #: 2: the payload carries the tie groups held back from the join.
    STATE_VERSION = 2

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        operator_cls: type,
        spec: JoinSpec,
        strategy: str,
        traversal: Optional[Traversal] = None,
        *,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        shards: Optional[int] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.operator_cls = operator_cls
        self.spec = spec
        self.strategy = strategy
        self.traversal = traversal
        self.counters = counters
        self.observer = observer
        self.shards = shards
        # Cost annotations arrive lazily (see PhysicalPlan.explanation):
        # plain execution never prices plans it was not asked to choose
        # between, so it skips the cost model's tree walk entirely.
        self.pipeline_cost: Optional[float] = None
        self.prefilter_cost: Optional[float] = None
        self.mapping1: Optional[List[int]] = None
        self.mapping2: Optional[List[int]] = None
        self._join: Optional[IncrementalDistanceJoin] = None
        self._rows: Optional[Iterator[JoinResult]] = None

    def children(self) -> Tuple[PhysicalNode, ...]:
        return (self.left, self.right)

    def annotate_costs(
        self, pipeline_cost: float, prefilter_cost: float
    ) -> None:
        self.pipeline_cost = pipeline_cost
        self.prefilter_cost = prefilter_cost

    def label(self) -> str:
        cost = self.estimated_cost
        if cost is None:
            return f"{self.operator_cls.__name__}[{self.strategy}]"
        return (
            f"{self.operator_cls.__name__}"
            f"[{self.strategy}, est. cost {cost:,.0f}]"
        )

    @property
    def estimated_cost(self) -> Optional[float]:
        return (
            self.prefilter_cost if self.strategy == "prefilter"
            else self.pipeline_cost
        )

    def _inputs(self) -> Tuple[Any, Any, Optional[Callable[[Pair], bool]]]:
        """Resolve both inputs: the two trees and the join's pair
        filter (pushed-down predicates and the spec's own)."""
        left = self.left.resolve(self.observer)
        right = self.right.resolve(self.observer)
        self.mapping1 = left.mapping
        self.mapping2 = right.mapping
        return left.tree, right.tree, _compose_pair_filter(
            self.spec.pair_filter, left.matcher, right.matcher
        )

    def open(self) -> IncrementalDistanceJoin:
        if self._join is None:
            with _maybe_span(self.observer, "op.DistanceJoin"):
                tree1, tree2, pair_filter = self._inputs()
                spec = self.spec
                if pair_filter is not spec.pair_filter:
                    spec = spec.evolve(pair_filter=pair_filter)
                hint = {} if self.shards is None else {
                    "shards": self.shards
                }
                self._join = self.operator_cls(
                    tree1, tree2, spec,
                    counters=self.counters, observer=self.observer,
                    **hint,
                )
                self._order()
        return self._join

    def _order(self, ties: Optional[Dict[str, Any]] = None) -> None:
        """Put the canonical tie order over a sequential join (``ties``:
        a saved :meth:`CanonicalTies.state`, when resuming)."""
        if isinstance(self._join, IncrementalDistanceJoin):
            self._rows = CanonicalTies(self._join, ties)
        else:
            self._rows = self._join

    def results(self) -> Iterator[JoinResult]:
        self.open()
        assert self._rows is not None
        return self._rows

    def progress_signals(self) -> Optional[Dict[str, Any]]:
        """The live join's raw progress facts (None before open)."""
        join = self._join
        if join is None:
            return None
        probe = getattr(join, "progress_signals", None)
        return probe() if probe is not None else None

    def _state_payload(self) -> Any:
        ordered = self._rows is not self._join
        return {
            "strategy": self.strategy,
            "join": self._join.save() if self._join is not None
            else None,
            # None for the partitioned engine, whose merge orders ties.
            "ties": self._rows.state() if ordered else None,
        }

    def _load_payload(self, payload: Any) -> None:
        if payload["strategy"] != self.strategy:
            raise CursorError(
                f"cursor was taken under strategy "
                f"{payload['strategy']!r}; rebuild the plan with that "
                f"strategy (got {self.strategy!r})"
            )
        join_cursor = payload["join"]
        if join_cursor is None:
            # Suspended before the join was ever opened: a fresh open
            # is exactly equivalent.
            return
        loader = getattr(self.operator_cls, "load", None)
        if loader is None:
            raise CursorError(
                f"{self.operator_cls.__name__} does not support "
                "cursor restore"
            )
        with _maybe_span(self.observer, "op.DistanceJoin"):
            # Recompose the pair filter that save() had to strip.
            tree1, tree2, pair_filter = self._inputs()
            self._join = loader(
                join_cursor, tree1, tree2,
                counters=self.counters,
                observer=self.observer,
                pair_filter=pair_filter,
            )
            ties = payload["ties"]
            if isinstance(self._join, IncrementalDistanceJoin) and (
                ties is None
            ):
                raise CursorError(
                    "cursor holds a sequential join without its tie "
                    "groups"
                )
            self._order(ties)


class RemapOids(PhysicalNode):
    """Translate prefilter-index oids back to original object ids
    (identity when neither side was materialized)."""

    def __init__(self, child: DistanceJoinOp) -> None:
        self.child = child

    def children(self) -> Tuple[PhysicalNode, ...]:
        return (self.child,)

    def results(self) -> Iterator[JoinResult]:
        results = self.child.results()
        mapping1 = self.child.mapping1
        mapping2 = self.child.mapping2
        if mapping1 is None and mapping2 is None:
            yield from results
            return
        for result in results:
            oid1 = mapping1[result.oid1] if mapping1 is not None \
                else result.oid1
            oid2 = mapping2[result.oid2] if mapping2 is not None \
                else result.oid2
            yield JoinResult(
                result.distance, oid1, result.obj1, oid2, result.obj2
            )


class RowProject(PhysicalNode):
    """Shape join results into the SELECT list's row tuples."""

    def __init__(self, child: RemapOids) -> None:
        self.child = child

    def children(self) -> Tuple[PhysicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "RowProject(d, oid1, geom1, oid2, geom2)"

    def rows(self) -> Iterator[Row]:
        for result in self.child.results():
            yield Row(
                result.distance,
                result.oid1, result.obj1,
                result.oid2, result.obj2,
            )


class Limit(PhysicalNode):
    """``STOP AFTER n`` safety net.

    The real bounding is the join's own ``max_pairs`` (so the
    incremental algorithm stops expanding); this operator only
    guarantees the row stream never exceeds the bound, pulling no
    extra rows beyond it.
    """

    def __init__(self, child: RowProject, count: int) -> None:
        self.child = child
        self.count = count
        #: Rows already delivered; a resumed plan only emits the rest.
        self.emitted = 0

    def children(self) -> Tuple[PhysicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit({self.count})"

    def rows(self) -> Iterator[Row]:
        remaining = max(0, self.count - self.emitted)
        for row in itertools.islice(self.child.rows(), remaining):
            self.emitted += 1
            yield row

    def _state_payload(self) -> Any:
        return {"count": self.count, "emitted": self.emitted}

    def _load_payload(self, payload: Any) -> None:
        if payload["count"] != self.count:
            raise CursorError(
                f"cursor was taken with STOP AFTER {payload['count']}; "
                f"the plan stops after {self.count}"
            )
        self.emitted = payload["emitted"]


class PhysicalPlan:
    """An executable plan: the operator tree plus its explanation.

    The same instance serves all three consumers: ``explain`` renders
    :attr:`explanation` (without opening anything), ``execute``
    streams :meth:`rows`, and ``EXPLAIN ANALYZE`` does both.
    """

    def __init__(
        self,
        root: PhysicalNode,
        join_op: DistanceJoinOp,
        logical: LogicalPlan,
        explanation_factory: Callable[[], PlanExplanation],
    ) -> None:
        self.root = root
        self.join_op = join_op
        self.logical = logical
        self.query = logical.query
        self._explanation_factory = explanation_factory
        self._explanation: Optional[PlanExplanation] = None

    @property
    def explanation(self) -> PlanExplanation:
        """The EXPLAIN view of this plan (cost estimates are computed
        on first access; plain execution never needs them)."""
        if self._explanation is None:
            self._explanation = self._explanation_factory()
        return self._explanation

    def open_join(self) -> IncrementalDistanceJoin:
        """Build (once) and return the underlying join iterator."""
        return self.join_op.open()

    def rows(self) -> Iterator[Row]:
        """Open the plan eagerly and stream result rows.

        Opening is eager so the cost of temporary index builds and
        join construction is paid at call time (matching the join
        constructors' own semantics), not at first ``next()``.
        """
        self.join_op.open()
        root = self.root
        assert isinstance(root, (Limit, RowProject))
        return root.rows()

    def progress_signals(self) -> Optional[Dict[str, Any]]:
        """Raw progress facts for the whole plan (None before open).

        Delegates to the join operator, then overlays the plan-level
        emission bound: a ``Limit`` root knows how many rows actually
        left the plan (``produced`` at the join can run ahead of
        emission by one pulled-but-unreturned row, and replays after a
        semi-join restart).  When the plan was already priced (its
        explanation computed -- never forced here, pricing walks both
        relations), the cost model's cardinality rides along as
        ``total_hint``.
        """
        signals = self.join_op.progress_signals()
        if signals is None:
            return None
        root = self.root
        if isinstance(root, Limit):
            signals["emitted"] = root.emitted
            if root.count and root.emitted >= root.count:
                signals["done"] = True
        if self._explanation is not None:
            signals["total_hint"] = (
                self._explanation.estimated_result_pairs
            )
        return signals

    def save(self) -> OperatorState:
        """Snapshot the whole operator tree as a picklable cursor."""
        return self.root.save()

    def restore(self, state: OperatorState) -> None:
        """Load a :meth:`save` cursor into this freshly built plan."""
        self.root.load(state)

    def pretty(self) -> str:
        return self.root.pretty()


def _matcher(
    db: Any, query: Query, relation: str
) -> Tuple[Optional[Callable[[int], bool]], float]:
    """An oid predicate and its selectivity for one relation."""
    predicates = [
        p for p in query.attribute_predicates
        if p.relation == relation
    ]
    if not predicates:
        return None, 1.0
    columns = [
        (db.attribute(relation, p.attribute), p)
        for p in predicates
    ]

    def matches(oid: int) -> bool:
        return all(p.matches(col[oid]) for col, p in columns)

    size = len(db.relation(relation))
    selectivity = (
        sum(1 for oid in range(size) if matches(oid)) / size
        if size else 1.0
    )
    return matches, selectivity


def _operator_for(query: Query) -> type:
    """Map the logical join kind onto an operator class."""
    if query.shards is not None:
        from repro.shard.router import (
            ShardRouterJoin,
            ShardRouterSemiJoin,
        )

        if query.descending:
            raise QueryError(
                "SHARDS does not support ORDER BY ... DESC "
                "(the shard router's merge is nearest-first)"
            )
        return (
            ShardRouterSemiJoin if query.is_semi_join
            else ShardRouterJoin
        )
    if query.is_semi_join:
        return (
            ReverseDistanceSemiJoin if query.descending
            else IncrementalDistanceSemiJoin
        )
    return (
        ReverseDistanceJoin if query.descending
        else IncrementalDistanceJoin
    )


def choose_traversal(
    query: Query,
    tree1: Any,
    tree2: Any,
    node_policy: Optional[str] = None,
    pushdown: bool = False,
    pair_selectivity: float = 1.0,
) -> Traversal:
    """The planner's node-policy rule (Section 2.2.2, Figure 6).

    Even is the paper's best policy without a bound; Simultaneous --
    search-space restriction and plane sweep over both nodes -- pays
    off once a small maximum distance is known, and loses up to 6x
    once it is loose.  So the rule compares the plan-time bound D with
    a leaf's side (:func:`repro.query.costmodel.traversal_bound`: sizes,
    fan-outs and the two root MBRs, no stats walk, nothing charged) and
    picks Simultaneous when ``D <= SIMULTANEOUS_LEAF_FRACTION x leaf``.
    A caller's ``node_policy`` pin wins.
    Kept on Even, each for a reason: the semi-join (measured slower),
    ``DESC``, ``SHARDS`` (neutral in time, more memory),
    an index without an R-tree's fan-out (a quadtree), and a predicate
    pushed into the join (``pushdown``: Even drops a failing object
    with its object/node pair, Simultaneous only after computing its
    distance to a whole leaf -- measured 1.4x to 6.6x slower at 5 % and
    0.1 % selectivity).  A ``WATCH`` query's bootstrap and repair are
    not planned here.
    """
    if node_policy is not None:
        return Traversal(node_policy, "caller")
    if query.is_semi_join:
        return Traversal(EVEN, "semi-join")
    if query.descending:
        return Traversal(EVEN, "DESC")
    if query.shards is not None:
        return Traversal(EVEN, "SHARDS")
    if pushdown:
        return Traversal(EVEN, "pushed-down predicate")
    if not (isinstance(tree1, RTreeBase) and isinstance(tree2, RTreeBase)):
        return Traversal(EVEN, "no R-tree fan-out")
    bound = traversal_bound(
        tree1, tree2, *query.distance_bounds(), query.stop_after,
        pair_selectivity,
    )
    if bound is None:
        return Traversal(EVEN, "empty relation")
    if bound.distance == _INF:
        return Traversal(EVEN, "unbounded")
    fits = bound.distance <= SIMULTANEOUS_LEAF_FRACTION * bound.leaf_side
    return Traversal(
        SIMULTANEOUS if fits else EVEN,
        f"D ~ {bound.distance:.1f} {'<=' if fits else '>'} "
        f"{SIMULTANEOUS_LEAF_FRACTION:g} x leaf {bound.leaf_side:.0f}",
    )


def _price_strategies(
    query: Query,
    tree1: Any,
    tree2: Any,
    selectivity1: float,
    selectivity2: float,
) -> Tuple[str, float, float]:
    """The planner rule: price the two Section 5 plans; returns
    (choice, cost_pipeline, cost_prefilter)."""
    __, dmax = query.distance_bounds()
    model = JoinCostModel(tree1, tree2)
    pair_selectivity = selectivity1 * selectivity2
    # Pipeline: the join must surface enough raw pairs that the
    # qualifying subset reaches the requested count.
    raw_pairs = None
    if query.stop_after is not None and pair_selectivity > 0:
        raw_pairs = int(
            math.ceil(query.stop_after / pair_selectivity)
        )
    pipeline = model.estimate(
        max_distance=dmax,
        max_pairs=raw_pairs,
        semi_join=query.is_semi_join,
    ).total_cost()
    # Prefilter: pay the index builds, then join the small inputs.
    scaled = model.scaled(selectivity1, selectivity2)
    build = 0.0
    if selectivity1 < 1.0:
        build += estimate_build_cost(
            int(len(tree1) * selectivity1),
            getattr(tree1, "max_entries", DEFAULT_MAX_ENTRIES),
        )
    if selectivity2 < 1.0:
        build += estimate_build_cost(
            int(len(tree2) * selectivity2),
            getattr(tree2, "max_entries", DEFAULT_MAX_ENTRIES),
        )
    prefilter = build + scaled.estimate(
        max_distance=dmax,
        max_pairs=query.stop_after,
        semi_join=query.is_semi_join,
    ).total_cost()
    choice = "prefilter" if prefilter < pipeline else "pipeline"
    return choice, pipeline, prefilter


#: The :class:`JoinSpec` fields a statement states itself: the
#: database's metric, the WHERE distance range, ``STOP AFTER`` and
#: ``ORDER BY``'s direction -- and last, only for a planned pull
#: query, the traversal (a caller pins it with ``node_policy=``).
_SQL_FIELDS = (
    "metric", "min_distance", "max_distance", "max_pairs", "descending",
    "node_policy",
)


def statement_spec(
    db: Any, query: Query, spec: Optional[JoinSpec] = None,
    node_policy: Optional[str] = None,
) -> JoinSpec:
    """The caller's ``spec`` with the fields the SQL states filled in
    from the query, and the planner's ``node_policy`` when given (a
    ``WATCH`` query is not planned and keeps the spec's).  The SQL owns
    what it says: a caller spec that sets one of those fields to
    anything but its default is a :class:`~repro.errors.QueryError`."""
    default = JoinSpec()
    spec = default if spec is None else spec
    for name in _SQL_FIELDS[:None if node_policy else -1]:
        if getattr(spec, name) != getattr(default, name):
            raise QueryError(
                f"the statement states {name}; a caller JoinSpec "
                "cannot set it" + (
                    " (pin one with node_policy=)"
                    if name == "node_policy" else ""
                )
            )
    dmin, dmax = query.distance_bounds()
    return spec.evolve(
        metric=db.metric, min_distance=dmin, max_distance=dmax,
        max_pairs=query.stop_after,
        node_policy=node_policy or spec.node_policy,
    )


def build_physical_plan(
    db: Any,
    query: Query,
    strategy: str = "auto",
    *,
    spec: Optional[JoinSpec] = None,
    node_policy: Optional[str] = None,
    observer: Optional[Observer] = None,
) -> PhysicalPlan:
    """Lower ``query`` into an executable physical plan.

    ``strategy`` forces the predicate plan (``pipeline`` /
    ``prefilter``); ``auto`` applies the cost rule.  ``node_policy``
    pins the traversal over :func:`choose_traversal`'s.  ``spec``
    carries the knobs the SQL does not state (:func:`statement_spec`),
    and ``observer`` receives the operators' spans.
    """
    require(strategy in STRATEGIES,
            f"strategy must be one of {STRATEGIES}")
    if query.watch:
        raise QueryError(
            "WATCH queries are standing registrations, not pull "
            "plans; use Database.watch()"
        )
    logical = build_logical_plan(query)
    tree1 = db.relation(query.relation1)
    tree2 = db.relation(query.relation2)
    match1, selectivity1 = _matcher(db, query, query.relation1)
    match2, selectivity2 = _matcher(db, query, query.relation2)
    dmin, dmax = query.distance_bounds()
    operator_cls = _operator_for(query)
    has_predicates = match1 is not None or match2 is not None

    def price() -> Tuple[str, float, float]:
        if has_predicates:
            return _price_strategies(
                query, tree1, tree2, selectivity1, selectivity2
            )
        # Without predicates the two shapes coincide; one pipeline
        # estimate covers both.
        cost = JoinCostModel(tree1, tree2).estimate(
            max_distance=dmax,
            max_pairs=query.stop_after,
            semi_join=query.is_semi_join,
        ).total_cost()
        return "pipeline", cost, cost

    # Planner rule: the cost model only runs when it has a choice to
    # make (auto + predicates) -- or lazily, for EXPLAIN (below).
    costs: Optional[Tuple[float, float]] = None
    if strategy != "auto":
        strategy_used = strategy
    elif has_predicates:
        strategy_used, pipeline_cost, prefilter_cost = price()
        costs = (pipeline_cost, prefilter_cost)
    else:
        strategy_used = "pipeline"

    traversal = choose_traversal(
        query, tree1, tree2, node_policy,
        pushdown=has_predicates and strategy_used == "pipeline",
        pair_selectivity=selectivity1 * selectivity2,
    )
    spec = statement_spec(db, query, spec, traversal.policy)

    def side(
        relation: str,
        tree: Any,
        matcher: Optional[Callable[[int], bool]],
        selectivity: float,
    ) -> PhysicalNode:
        scan = IndexScan(relation, tree)
        if matcher is None:
            return scan
        if strategy_used == "prefilter":
            return PrefilterMaterialize(scan, matcher, selectivity)
        return PairFilterPushdown(scan, matcher, selectivity)

    join_op = DistanceJoinOp(
        left=side(query.relation1, tree1, match1, selectivity1),
        right=side(query.relation2, tree2, match2, selectivity2),
        operator_cls=operator_cls,
        spec=spec,
        strategy=strategy_used,
        traversal=traversal,
        counters=db.counters,
        observer=observer,
        shards=query.shards,
    )
    if costs is not None:
        join_op.annotate_costs(*costs)
    project = RowProject(RemapOids(join_op))
    root: PhysicalNode = (
        Limit(project, query.stop_after)
        if query.stop_after is not None else project
    )

    def shard_route_info() -> Optional[Dict[str, Any]]:
        """Describe the partitioned engine's route without
        constructing the operator (no counters charged beyond
        catalog/stat builds)."""
        if query.shards is None:
            return None
        from repro.shard.catalog import catalog_for
        from repro.shard.router import plan_shard_pairs, route_summary

        cat1, cat2 = (
            catalog_for(tree, query.shards, counters=db.counters)
            for tree in (tree1, tree2)
        )
        pairs, range_pruned, __ = plan_shard_pairs(
            cat1, cat2, db.metric, dmin, dmax
        )
        return route_summary(cat1, cat2, pairs, range_pruned)

    def explanation_factory() -> PlanExplanation:
        if join_op.pipeline_cost is None:
            __, pipeline_cost, prefilter_cost = price()
            join_op.annotate_costs(pipeline_cost, prefilter_cost)
        detail_model = JoinCostModel(tree1, tree2)
        if strategy_used == "prefilter":
            detail_model = detail_model.scaled(
                selectivity1, selectivity2
            )
        estimate = detail_model.estimate(
            max_distance=dmax,
            max_pairs=query.stop_after,
            semi_join=query.is_semi_join,
        )
        assert join_op.pipeline_cost is not None
        assert join_op.prefilter_cost is not None
        assert join_op.estimated_cost is not None
        return PlanExplanation(
            operator=operator_cls.__name__,
            strategy=strategy_used,
            relation1=query.relation1,
            relation2=query.relation2,
            outer_size=len(tree1),
            inner_size=len(tree2),
            min_distance=dmin,
            max_distance=dmax,
            stop_after=query.stop_after,
            selectivity1=selectivity1,
            selectivity2=selectivity2,
            estimated_result_pairs=estimate.result_pairs,
            estimated_node_io=estimate.node_io,
            estimated_dist_calcs=estimate.dist_calcs,
            estimated_cost=join_op.estimated_cost,
            pipeline_cost=join_op.pipeline_cost,
            prefilter_cost=join_op.prefilter_cost,
            tree=root.pretty(),
            shards=query.shards,
            shard_route=shard_route_info(),
            traversal=join_op.traversal,
        )

    return PhysicalPlan(
        root=root,
        join_op=join_op,
        logical=logical,
        explanation_factory=explanation_factory,
    )
