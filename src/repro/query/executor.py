"""The database facade: catalog plus query entry points.

The executor is intentionally a *pipeline*: :meth:`Database.execute`
returns a row iterator backed directly by an incremental join, so a
consumer that stops early (or a ``STOP AFTER n`` clause) costs only the
incremental work -- the property the paper's algorithms exist to
provide.

Planning lives in two sibling modules: :mod:`repro.query.logical`
normalizes the parsed query into a logical operator tree, and
:mod:`repro.query.physical` lowers it into an executable physical
plan (including the Section 5 pipeline-vs-prefilter cost rule for
attribute predicates).  ``execute``, ``EXPLAIN`` and ``EXPLAIN
ANALYZE`` all walk that same physical plan tree: EXPLAIN renders it
without opening it, execution opens it and streams rows, and EXPLAIN
ANALYZE does both and annotates the plan with measurements.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from repro.core.spec import JoinSpec
from repro.errors import QueryError
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.live import StandingJoin
from repro.quadtree.prquadtree import PRQuadtree
from repro.query.ast_nodes import Query
from repro.query.parser import parse
from repro.query.physical import (  # noqa: F401  (re-exported)
    STRATEGIES,
    PhysicalPlan,
    PlanExplanation,
    Row,
    build_physical_plan,
    materialize_filtered,
    statement_spec,
)
from repro.rtree.base import RTreeBase
from repro.rtree.bulk import bulk_load_str
from repro.rtree.rstar import RStarTree
from repro.util.counters import CounterRegistry, CounterSnapshot
from repro.util.obs import ObsSnapshot, Observer, metrics_records
from repro.util.telemetry import ProgressEstimator
from repro.util.validation import require

_INF = float("inf")

INDEX_KINDS = ("rtree", "quadtree")


class AnalyzedPlan(NamedTuple):
    """Output of :meth:`Database.explain_analyze`: the estimated plan
    plus what actually happened when the query ran to completion."""

    plan: PlanExplanation
    rows: int
    elapsed_s: float
    counters: CounterSnapshot
    obs: ObsSnapshot
    #: Final certified progress report (a dict view of
    #: :class:`repro.util.telemetry.ProgressReport`); None when the
    #: operator exposes no progress signals.
    progress: Optional[Dict[str, Any]] = None

    def metrics(self, labels: Optional[Dict[str, Any]] = None) -> list:
        """The execution's metrics in the shared export schema
        (:func:`repro.util.obs.metrics_records`)."""
        return metrics_records(self.counters, self.obs, labels)

    def pretty(self) -> str:
        """The estimated plan annotated with actual measurements."""
        lines = [self.plan.pretty()]
        lines.append(
            f"  actual: rows={self.rows:,}, "
            f"time={self.elapsed_s:.4f}s"
        )
        if self.progress is not None:
            lines.append(
                f"  progress: phase={self.progress['phase']}, "
                f"certified>={self.progress['lower_bound']:.2f}, "
                f"estimate={self.progress['estimate']:.2f}"
            )
        if self.obs.spans:
            lines.append("  actual spans:")
            for name, (count, total, __, ___) in sorted(
                self.obs.spans.items()
            ):
                lines.append(
                    f"    {name:<18} {total:9.4f}s / {count:,}x"
                )
        if self.counters.values:
            lines.append("  actual counters:")
            for name in sorted(self.counters.values):
                lines.append(
                    f"    {name:<22} {self.counters.values[name]:,}"
                )
        peaks = {
            name: peak for name, peak in sorted(self.counters.peaks.items())
            if peak and peak != self.counters.values.get(name)
        }
        if peaks:
            lines.append("  actual peaks:")
            for name, peak in peaks.items():
                lines.append(f"    {name:<22} {peak:,}")
        return "\n".join(lines)


class Database:
    """A tiny spatial database: named relations over spatial indexes.

    Parameters
    ----------
    metric:
        Point metric used for all distance terms.
    counters:
        Shared performance-counter registry (one is created if
        omitted) -- handy for inspecting what a query cost.
    """

    def __init__(
        self,
        metric: Metric = EUCLIDEAN,
        counters: Optional[CounterRegistry] = None,
    ) -> None:
        self.metric = metric
        self.counters = counters if counters is not None else CounterRegistry()
        self._relations: Dict[str, Any] = {}
        self._attributes: Dict[str, Dict[str, List[float]]] = {}

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        data: Union[RTreeBase, PRQuadtree, Sequence[Any]],
        bulk: bool = True,
        attributes: Optional[Dict[str, Sequence[float]]] = None,
        index: str = "rtree",
        **tree_kwargs: Any,
    ) -> Any:
        """Register a relation.

        ``data`` is either an existing spatial index (anything
        speaking the join substrate protocol, e.g. an R-tree or a
        :class:`~repro.quadtree.prquadtree.PRQuadtree`) or a sequence
        of spatial objects, which is indexed here.  ``index`` selects
        the index built over a plain sequence: ``"rtree"`` (the
        default; bulk-loaded unless ``bulk=False``) or ``"quadtree"``
        (a PR quadtree -- point data only; pass ``bounds=`` to fix the
        universe, otherwise the data's padded bounding box is used).
        ``attributes`` maps attribute names to value sequences aligned
        with the objects' ids (insertion order).
        """
        require(index in INDEX_KINDS,
                f"index must be one of {INDEX_KINDS}")
        if name in self._relations:
            raise QueryError(f"relation {name!r} already exists")
        if isinstance(data, RTreeBase) or hasattr(data, "read_node"):
            tree = data
        elif index == "quadtree":
            tree = self._build_quadtree(list(data), **tree_kwargs)
        elif bulk:
            tree_kwargs.setdefault("counters", self.counters)
            tree = bulk_load_str(list(data), **tree_kwargs)
        else:
            tree_kwargs.setdefault("counters", self.counters)
            sample = data[0] if data else Point((0.0, 0.0))
            dim = sample.dim if isinstance(sample, Point) else (
                sample.mbr().dim if hasattr(sample, "mbr") else 2
            )
            tree_kwargs.setdefault("dim", dim)
            tree = RStarTree(**tree_kwargs)
            for obj in data:
                tree.insert(obj=obj)
        if attributes:
            for attr_name, values in attributes.items():
                if len(values) != len(tree):
                    raise QueryError(
                        f"attribute {attr_name!r} has {len(values)} "
                        f"values for {len(tree)} objects"
                    )
            self._attributes[name] = {
                attr_name: list(values)
                for attr_name, values in attributes.items()
            }
        self._relations[name] = tree
        return tree

    def _build_quadtree(
        self, objects: List[Any], **tree_kwargs: Any
    ) -> PRQuadtree:
        """Index a point sequence with a PR quadtree."""
        points = []
        for obj in objects:
            if not isinstance(obj, Point):
                raise QueryError(
                    "index='quadtree' requires Point data "
                    f"(got {type(obj).__name__})"
                )
            points.append(obj)
        bounds = tree_kwargs.pop("bounds", None)
        if bounds is None:
            if points:
                tight = Rect.from_points(points)
                # Pad the universe so boundary points (and the
                # half-open quadrant splits) stay strictly inside.
                pad = [
                    max(1e-9, 0.01 * (hi - lo)) if hi > lo else 1.0
                    for lo, hi in zip(tight.lo, tight.hi)
                ]
                bounds = Rect(
                    [lo - p for lo, p in zip(tight.lo, pad)],
                    [hi + p for hi, p in zip(tight.hi, pad)],
                )
            else:
                bounds = Rect((0.0, 0.0), (1.0, 1.0))
        tree_kwargs.setdefault("counters", self.counters)
        tree = PRQuadtree(bounds, **tree_kwargs)
        for point in points:
            tree.insert(point)
        return tree

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog."""
        if name not in self._relations:
            raise QueryError(f"relation {name!r} does not exist")
        del self._relations[name]
        self._attributes.pop(name, None)

    def relation(self, name: str) -> Any:
        """Look up a relation's index."""
        tree = self._relations.get(name)
        if tree is None:
            raise QueryError(f"relation {name!r} does not exist")
        return tree

    def relations(self) -> List[str]:
        """Names of all registered relations."""
        return sorted(self._relations)

    def attribute(self, relation: str, name: str) -> List[float]:
        """The stored values of one attribute (indexed by oid)."""
        values = self._attributes.get(relation, {}).get(name)
        if values is None:
            raise QueryError(
                f"relation {relation!r} has no attribute {name!r}"
            )
        return values

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def physical_plan(
        self,
        query: Union[str, Query],
        strategy: str = "auto",
        *,
        spec: Optional[JoinSpec] = None,
        node_policy: Optional[str] = None,
        observer: Optional[Observer] = None,
    ) -> PhysicalPlan:
        """Lower a query into its physical plan without opening it;
        the arguments are :func:`build_physical_plan`'s, as for every
        entry point below."""
        parsed = parse(query) if isinstance(query, str) else query
        return build_physical_plan(
            self, parsed, strategy, spec=spec, node_policy=node_policy,
            observer=observer,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: Union[str, Query],
        strategy: str = "auto",
        *,
        spec: Optional[JoinSpec] = None,
        node_policy: Optional[str] = None,
        observer: Optional[Observer] = None,
    ) -> Iterator[Row]:
        """Execute a query (SQL text or parsed); returns a lazy row
        iterator, e.g. ``execute(sql, node_policy="simultaneous",
        spec=JoinSpec(queue="hybrid", queue_dt=10.0))``."""
        parsed = parse(sql) if isinstance(sql, str) else sql
        if parsed.explain:
            raise QueryError(
                "EXPLAIN queries describe execution instead of "
                "producing rows; use Database.explain() or "
                "Database.explain_analyze()"
            )
        return self.physical_plan(
            parsed, strategy, spec=spec, node_policy=node_policy,
            observer=observer,
        ).rows()

    # ------------------------------------------------------------------
    # standing queries (WATCH ... NOTIFY; repro.live)
    # ------------------------------------------------------------------

    def watch(
        self,
        sql: Union[str, Query],
        *,
        spec: Optional[JoinSpec] = None,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
    ) -> StandingJoin:
        """Register a ``WATCH`` query as a standing join.

        Returns a bootstrapped
        :class:`~repro.live.StandingJoin` whose initial result is
        already queued as ADD deltas; route updates through its
        ``insert`` / ``delete`` (or ``observe_*``) methods and drain
        repairs with ``poll()``.  ``spec`` is as for :meth:`execute`,
        but keeps its ``node_policy`` (nothing plans a standing join).
        See docs/LIVE.md.
        """
        query = parse(sql) if isinstance(sql, str) else sql
        if not query.watch:
            raise QueryError(
                "Database.watch() needs a WATCH query; use execute() "
                "for pull queries"
            )
        return StandingJoin(
            self.relation(query.relation1),
            self.relation(query.relation2),
            statement_spec(self, query, spec),
            counters=counters if counters is not None else self.counters,
            observer=observer,
        )

    # ------------------------------------------------------------------
    # EXPLAIN (cost model; the paper's Section 5 future work)
    # ------------------------------------------------------------------

    def explain(
        self,
        sql: Union[str, Query],
        strategy: str = "auto",
        *,
        node_policy: Optional[str] = None,
    ) -> PlanExplanation:
        """Describe how a query would execute and what it should cost.

        Nothing is executed (in particular, no temporary prefilter
        index is built); the estimates come from
        :class:`repro.query.costmodel.JoinCostModel` (uniformity
        assumptions, see that module) and annotate the same physical
        plan tree that :meth:`execute` runs under the same
        ``node_policy``.  An ``EXPLAIN`` prefix in the SQL is accepted
        and ignored (this method *is* EXPLAIN).
        """
        return self.physical_plan(
            sql, strategy, node_policy=node_policy
        ).explanation

    def explain_analyze(
        self,
        sql: Union[str, Query],
        strategy: str = "auto",
        *,
        spec: Optional[JoinSpec] = None,
        node_policy: Optional[str] = None,
        observer: Optional[Observer] = None,
    ) -> AnalyzedPlan:
        """EXPLAIN ANALYZE: run the query to completion and report the
        plan annotated with actual row counts, counters and span
        timings (a ``SHARDS`` query's route and merge included).

        Like its namesake elsewhere, this *executes* the query (rows
        are consumed and discarded), so an unbounded join pays the
        full join cost.  Pass ``observer=`` to reuse a caller-owned
        :class:`~repro.util.obs.Observer`.
        """
        query = parse(sql) if isinstance(sql, str) else sql
        obs = observer if observer is not None else Observer()
        plan = build_physical_plan(
            self, query, strategy, spec=spec, node_policy=node_policy,
            observer=obs,
        )
        # Estimate first: the cost model's stat walk reads tree nodes,
        # which must not leak into the measured counter delta.
        explanation = plan.explanation
        before = self.counters.full_snapshot()
        start = time.perf_counter()
        rows = sum(1 for __ in plan.rows())
        elapsed = time.perf_counter() - start
        counters = self.counters.full_snapshot().delta_from(before)
        # Peaks are levels, so the delta keeps them all -- but a shared
        # registry then reports high-water marks from *earlier* queries
        # too.  Keep only peaks this execution touched or raised.
        counters = CounterSnapshot(
            values=counters.values,
            peaks={
                name: peak for name, peak in counters.peaks.items()
                if name in counters.values
                or peak != before.peaks.get(name, 0)
            },
        )
        signals = plan.progress_signals()
        progress = None
        if signals is not None:
            estimator = ProgressEstimator(
                total_hint=explanation.estimated_result_pairs
            )
            progress = estimator.report(signals).as_dict()
        return AnalyzedPlan(
            plan=explanation,
            rows=rows,
            elapsed_s=elapsed,
            counters=counters,
            obs=obs.snapshot(),
            progress=progress,
        )
