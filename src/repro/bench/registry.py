"""The one place an experiment is defined.

Every configuration the paper measures -- Table 1's Even/DepthFirst
sweep, Figures 6-10, the Section 4 alternatives -- plus this
repository's ablations, extensions and engine sweeps is registered
here as a :class:`BenchCase`: a named, seeded configuration with a
result budget (or a checkpoint sweep) per tier.  A case is *data*, not
code: its join knobs are a :class:`repro.core.spec.JoinSpec` (or a
factory producing one from the workload, for knobs like ``D_T`` or an
oracle ``MaxDist`` that depend on the data), its workload a factory
from :mod:`repro.bench.workloads`, its operator family a string, and
only engine-level options (shard counts, suspend cadence, a SQL plan
strategy) ride outside the spec.  Beside the cases sit the paper's
*orderings* (:data:`SHAPES`: ``(case@K, metric) <= factor x (case@K,
metric)``) and the experiment index (:data:`EXPERIMENTS`).

Everything else reads this module: :mod:`repro.bench.suite` executes a
tier's cases min-of-N and appends the measurements to
``BENCH_<tier>.json``; :mod:`repro.bench.compare` gates the newest
entry against that committed history; :mod:`repro.bench.report`
evaluates the shapes on one entry and renders EXPERIMENTS.md from it;
``repro bench GLOB`` runs cases by name.

Tiers
-----
``smoke``
    Scale 0.004, a hundred pairs a case (CI gate; seconds in all).
    Its counters are hard gates; its wall times are too short to gate.
``full``
    The paper's cardinalities (37,495 x 200,482) and its pair sweep
    1 ... 100,000; minutes, run locally, one entry committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.bench.workloads import (
    JoinWorkload,
    analyzed_workload,
    build_tiger_workload,
    oracle_distance,
    packed_workload,
    roads_water,
    segment_workload,
    suggest_dt,
    uniform_workload,
)
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.heap import PairingHeap
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.util.obs import Observer

__all__ = [
    "BenchCase",
    "EXPERIMENTS",
    "Experiment",
    "REGISTRY",
    "SHAPES",
    "SMOKE",
    "FULL",
    "Shape",
    "TIERS",
    "TierConfig",
    "cases_for",
    "register",
]

SMOKE = "smoke"
FULL = "full"

#: Operator families a case can exercise.
OPERATORS = (
    "join", "semi", "service", "shard", "live",
    "nested_loop", "nn_semijoin", "sql",
)

#: A case's join configuration: a spec, or a factory deriving one
#: from the workload and the tier's result budget.
SpecSource = Union[
    JoinSpec, Callable[[JoinWorkload, Optional[int]], JoinSpec]
]

#: A tier's result budget: a pair count, None (exhaust), or an
#: ascending checkpoint sweep whose last mark is the budget.
Budget = Union[None, int, Tuple[Optional[int], ...]]


@dataclass(frozen=True)
class TierConfig:
    """Workload scale and default repetition count of one tier."""

    name: str
    scale: float
    repeat: int


TIERS: Dict[str, TierConfig] = {
    SMOKE: TierConfig(name=SMOKE, scale=0.004, repeat=3),
    FULL: TierConfig(name=FULL, scale=1.0, repeat=2),
}


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark configuration.

    ``spec`` holds the join knobs (static, or derived per workload);
    ``operator`` selects the family (the join operators, the engines,
    the ``repro.baselines`` alternatives, a SQL plan); ``engine``
    carries options that are deliberately *not* part of the spec
    (shards, suspend cadence, plan strategy); ``workload``
    is the factory building the two trees at a scale, and
    ``max_scale`` caps that scale where the paper's cardinalities are
    infeasible (a nested loop's Cartesian product, an R* build by
    insertion).  The runner calls :meth:`build` per repetition against
    cold caches and reset counters and consumes the tier's budget; a
    sweep budget is one run read at every checkpoint.
    ``deterministic`` marks whether the case's counters are exactly
    reproducible run-to-run -- those counters are *hard* regression
    gates; a case marked otherwise (``kernels.vector_speedup``, whose
    path depends on whether numpy imports) only gets the noise-banded
    soft gate.  ``paper`` holds the paper's own values,
    ``{checkpoint: {metric: value}}``, printed beside the measured
    ones.
    """

    name: str
    description: str
    spec: SpecSource = field(default_factory=JoinSpec)
    pairs: Mapping[str, Budget] = field(default_factory=dict)
    operator: str = "join"
    engine: Mapping[str, object] = field(default_factory=dict)
    tiers: Tuple[str, ...] = (SMOKE, FULL)
    deterministic: bool = True
    workload: Callable[[float], JoinWorkload] = build_tiger_workload
    max_scale: Optional[float] = None
    paper: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def pairs_for(self, tier: str) -> Optional[int]:
        budget = self.pairs.get(tier)
        return budget[-1] if isinstance(budget, tuple) else budget

    def checkpoints_for(self, tier: str) -> Tuple[Optional[int], ...]:
        budget = self.pairs.get(tier)
        return budget if isinstance(budget, tuple) else ()

    def spec_for(
        self, load: JoinWorkload, pairs: Optional[int]
    ) -> JoinSpec:
        """Resolve the case's spec against a concrete workload."""
        if isinstance(self.spec, JoinSpec):
            return self.spec
        return self.spec(load, pairs)

    def build(
        self,
        load: JoinWorkload,
        obs: Observer,
        pairs: Optional[int],
    ) -> Iterator:
        """A fresh result iterator for one repetition."""
        spec = self.spec_for(load, pairs)
        common = dict(counters=load.counters, observer=obs)
        if self.operator == "semi":
            return IncrementalDistanceSemiJoin(
                load.tree1, load.tree2, spec, **common
            )
        if self.operator == "shard":
            from repro.shard import ShardRouterJoin, clear_caches

            # Fresh catalogs and plans per repetition: measured
            # counters include the routing work and stay identical
            # run to run.
            clear_caches()
            return ShardRouterJoin(
                load.tree1, load.tree2, spec, **common,
                catalog_cache=False,
                **dict(self.engine),
            )
        if self.operator == "live":
            from repro.bench.live import update_repair_stream

            return update_repair_stream(
                load, spec, **common, **dict(self.engine),
            )
        if self.operator == "service":
            from repro.service.overhead import resumed_join

            return resumed_join(
                load.tree1, load.tree2, spec,
                **common, **dict(self.engine),
            )
        if self.operator == "nested_loop":
            from repro.baselines.nested_loop import nested_loop_join

            return iter(nested_loop_join(
                load.points1, load.points2, max_pairs=spec.max_pairs,
                counters=load.counters,
            ))
        if self.operator == "nn_semijoin":
            from repro.baselines.nn_semijoin import nn_semi_join

            return iter(nn_semi_join(
                list(enumerate(load.points1)), load.tree2
            ))
        if self.operator == "sql":
            return _scored_query(load, spec, **dict(self.engine))
        if self.operator != "join":
            raise ValueError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {OPERATORS}"
            )
        return IncrementalDistanceJoin(
            load.tree1, load.tree2, spec, **common
        )


def _scored_query(
    load: JoinWorkload,
    spec: JoinSpec,
    strategy: str = "auto",
    selectivity: Optional[float] = None,
    node_policy: Optional[str] = None,
) -> Iterator:
    """OPT1's query: the ``spec.max_pairs`` closest pairs whose outer
    object passes an attribute predicate of the given selectivity
    (object ``i`` of ``n`` scores ``(i + 0.5) / n``: uniform, and
    independent of position), under one Section 5 plan; no predicate
    without a selectivity.  Without a ``node_policy`` pin the planner
    picks the traversal."""
    from repro.query.executor import Database

    db = Database(counters=load.counters)
    count = len(load.points1)
    db.create_relation("outer_rel", load.tree1, attributes={
        "score": [(i + 0.5) / count for i in range(count)],
    })
    db.create_relation("inner_rel", load.tree2)
    where = (
        f"WHERE outer_rel.score <= {selectivity} "
        if selectivity is not None else ""
    )
    return db.execute(
        "SELECT * FROM outer_rel, inner_rel, "
        "DISTANCE(outer_rel.geom, inner_rel.geom) AS d "
        f"{where}ORDER BY d STOP AFTER {spec.max_pairs}",
        strategy=strategy, node_policy=node_policy,
    )


REGISTRY: List[BenchCase] = []


def register(case: BenchCase) -> BenchCase:
    """Add a case; rejects duplicate names (the trajectory file keys
    measurements by case name, so collisions would corrupt history)."""
    if any(existing.name == case.name for existing in REGISTRY):
        raise ValueError(f"duplicate benchmark case {case.name!r}")
    REGISTRY.append(case)
    return case


def cases_for(tier: str) -> List[BenchCase]:
    """Every registered case participating in ``tier``."""
    if tier not in TIERS:
        raise ValueError(
            f"unknown tier {tier!r}; expected one of {sorted(TIERS)}"
        )
    return [case for case in REGISTRY if tier in case.tiers]


def _case(
    name: str, description: str, spec: SpecSource = JoinSpec(),
    smoke: Budget = 100, full: Budget = None, **options,
) -> BenchCase:
    return register(BenchCase(
        name=name, description=description, spec=spec,
        pairs={SMOKE: smoke, FULL: full}, **options,
    ))


# ----------------------------------------------------------------------
# the cases.  The first sixteen smoke budgets and specs are the
# committed BENCH_smoke.json history's; do not change them.
# ----------------------------------------------------------------------

#: The paper's pair sweep (Table 1, Figures 6-8) and the semi-join's
#: (Figures 9-10; None = all of Water).
SWEEP = (1, 10, 100, 1_000, 10_000, 100_000)
SEMI_SWEEP = (1, 10, 100, 1_000, 10_000, None)


def _max_pairs(load: JoinWorkload, pairs: Optional[int]) -> JoinSpec:
    """MaxPair = the budget, estimator on (Section 2.2.4); K changes
    the run, so these cases are one run per K, not one sweep."""
    return JoinSpec(max_pairs=pairs, estimate=True)


def _oracle_maxdist(load: JoinWorkload, pairs: Optional[int]) -> JoinSpec:
    """MaxDist = the distance of pair number ``budget``."""
    return JoinSpec(max_distance=oracle_distance(load, pairs))


_case(
    "table1.even_depthfirst",
    "Table 1: Even/DepthFirst incremental distance join",
    JoinSpec(node_policy="even", tie_break="depth_first"),
    full=SWEEP,
    paper={
        "1": {"seconds": 6.9, "counters.dist_calcs": 308_000,
              "peaks.queue_size": 1_000_000, "counters.node_io": 3_019},
        "100000": {"seconds": 23.8, "counters.dist_calcs": 479_000,
                   "peaks.queue_size": 2_230_000,
                   "counters.node_io": 28_356},
    },
)
_case(
    "fig6.even_breadthfirst",
    "Figure 6: Even/BreadthFirst traversal variant",
    JoinSpec(node_policy="even", tie_break="breadth_first"),
    full=SWEEP,
)
_case(
    "fig6.basic_depthfirst",
    "Figure 6: Basic/DepthFirst traversal variant",
    JoinSpec(node_policy="basic", tie_break="depth_first"),
    full=SWEEP,
)
_case(
    "fig6.simultaneous_depthfirst",
    "Figure 6: Simultaneous/DepthFirst traversal variant",
    JoinSpec(node_policy="simultaneous", tie_break="depth_first"),
    smoke=50, full=SWEEP,
)
for _policy in ("even", "basic"):
    _case(
        f"x1.roads_water_{_policy}",
        f"X1 (Section 4.1.1): {_policy.title()}/DepthFirst with the "
        f"larger relation first",
        JoinSpec(node_policy=_policy),
        full=(1, 1_000), workload=roads_water,
    )
_case(
    "fig7.maxdist",
    "Figure 7: join bounded by an oracle-ish MaxDist",
    lambda load, pairs: JoinSpec(max_distance=suggest_dt(load)),
    tiers=(SMOKE,),
)
_case(
    "fig7.maxpairs",
    "Figure 7: join with MaxPair estimation pruning",
    _max_pairs, full=SWEEP[:4],
)
for _rank in (1_000, 10_000, 100_000):
    _case(
        f"fig7.maxdist_{_rank}",
        f"Figure 7: MaxDist = the distance of pair {_rank:,}",
        _oracle_maxdist,
        smoke=(1, 10, 100), full=SWEEP[:SWEEP.index(_rank) + 1],
    )
for _bound, _smoke in ((100, (1, 10)), (10_000, (1, 10, 100, 1_000))):
    _case(
        f"fig7.maxpairs_{_bound}",
        f"Figure 7: MaxPair = {_bound:,}, estimator on",
        _max_pairs, smoke=_smoke, full=SWEEP[:SWEEP.index(_bound) + 1],
    )
_case(
    "fig8.hybrid_queue",
    "Figure 8: hybrid memory/disk priority queue",
    lambda load, pairs: JoinSpec(
        queue="hybrid", queue_dt=suggest_dt(load),
    ),
    full=SWEEP,
)
_case(
    "fig8.hybrid_small_dt",
    "Figure 8: hybrid queue at a quarter of that D_T",
    lambda load, pairs: JoinSpec(
        queue="hybrid", queue_dt=suggest_dt(load) / 4,
    ),
    smoke=(1, 10, 100), full=SWEEP,
)
_case(
    "fig8.adaptive_queue",
    "Figure 8: adaptive-D_T hybrid queue",
    JoinSpec(queue="adaptive"),
    full=SWEEP,
)
for _label, _filter, _dmax, _smoke, _paper_s in (
    ("outside", "outside", "none", (1, 10, None), None),
    ("inside1", "inside1", "none", (1, 10, None), 530.0),
    ("inside2", "inside2", "none", (1, 10, None), 362.0),
    ("local", "inside2", "local", None, None),
    ("globalnodes", "inside2", "global_nodes", (1, 10, None), None),
    ("globalall", "inside2", "global_all", None, 25.0),
):
    _case(
        f"fig9.semijoin_{_label}",
        f"Figure 9: semi-join, {_filter} filtering, d_max {_dmax}",
        JoinSpec(filter_strategy=_filter, dmax_strategy=_dmax),
        # Outside queues every pair of every Water object: beyond
        # 10,000 rows at the paper's scale it does not finish (the
        # paper aborted it too).
        smoke=_smoke,
        full=SEMI_SWEEP[:-1] if _label == "outside" else SEMI_SWEEP,
        operator="semi",
        paper={"all": {"seconds": _paper_s}} if _paper_s else {},
    )
for _filter in ("outside", "inside1"):
    _case(
        f"fig9.{_filter}_whole",
        f"Figure 9: the whole semi-join under {_filter} filtering, at "
        f"a scale where Outside finishes",
        JoinSpec(filter_strategy=_filter, dmax_strategy="none"),
        operator="semi", tiers=(FULL,), max_scale=0.02,
    )
_case(
    "fig10.semijoin_maxdist",
    "Figure 10: semi-join bounded by MaxDist",
    lambda load, pairs: JoinSpec(max_distance=suggest_dt(load)),
    smoke=None, operator="semi", tiers=(SMOKE,),
)


def _semi_oracle_maxdist(load, pairs):
    return JoinSpec(max_distance=oracle_distance(load, pairs, semi=True))


def _semi_max_pairs(load, pairs):
    return JoinSpec(max_pairs=pairs or len(load.tree1))


for _label, _spec, _smoke, _full in (
    ("maxdist_1000", _semi_oracle_maxdist, (1, 10), SEMI_SWEEP[:4]),
    ("maxdist_all", _semi_oracle_maxdist, (1, 10, None), SEMI_SWEEP),
    ("maxpairs_1000", _semi_max_pairs, 10, 1_000),
    ("maxpairs_10000", _semi_max_pairs, 100, 10_000),
    ("maxpairs_all", _semi_max_pairs, None, None),
):
    _case(
        f"fig10.{_label}",
        f"Figure 10: Local semi-join under {_label.replace('_', ' = ')}",
        _spec, smoke=_smoke, full=_full, operator="semi",
    )
_case(
    "a1.nested_loop",
    "Section 4.1.4: nested loop, 100 closest pairs",
    JoinSpec(max_pairs=100), full=100,
    operator="nested_loop", max_scale=0.02,
)
_case(
    "a1.incremental",
    "Section 4.1.4: the incremental join on the nested loop's input",
    smoke=(1, 100), full=(1, 100, 10_000), max_scale=0.02,
)
_case(
    "a2.nn_semijoin",
    "Section 4.2.3: semi-join by one NN query per object plus a sort",
    smoke=None, operator="nn_semijoin",
    paper={"all": {"seconds": 27.0}},
)
_case(
    "a2.nn_semijoin_swapped",
    "Section 4.2.3: the NN semi-join, Roads semi-join Water",
    smoke=None, operator="nn_semijoin", workload=roads_water,
    paper={"all": {"seconds": 141.0}},
)
_case(
    "a2.globalall_swapped",
    "Section 4.2.3: GlobalAll semi-join, Roads semi-join Water",
    JoinSpec(filter_strategy="inside2", dmax_strategy="global_all"),
    smoke=None, operator="semi", workload=roads_water,
    paper={"all": {"seconds": 102.0}},
)
_case(
    "ab1.maxpairs_noestimate",
    "AB1: MaxPair with the estimator off (fig7.maxpairs with it on)",
    lambda load, pairs: JoinSpec(max_pairs=pairs, estimate=False),
    full=1_000,
)
_case(
    "ab2.pairing_heap",
    "AB2: the paper's pairing heap under the pair queue "
    "(table1.even_depthfirst runs the default binary heap)",
    JoinSpec(heap_class=PairingHeap),
    full=(1_000, 10_000),
)
for _pages in (2, 8, 32, 128, 1024):
    _case(
        f"ab3.buffer_{_pages}",
        f"AB3: {_pages}-page buffer pool (the paper's, and "
        f"table1.even_depthfirst's, is 256)",
        full=10_000,
        workload=partial(build_tiger_workload, buffer_pages=_pages),
    )
for _packing in ("str", "hilbert", "morton", "rstar"):
    _case(
        f"ab4.packing_{_packing}",
        f"AB4: trees built by {_packing} "
        f"({'insertion' if _packing == 'rstar' else 'packing'})",
        full=10_000, max_scale=0.05,
        workload=partial(packed_workload, packing=_packing),
    )
_case(
    "ext1.segments_direct",
    "EXT1: line-segment join, geometry in the leaves",
    full=2_000, workload=segment_workload,
)
_case(
    "ext1.segments_obr",
    "EXT1: line-segment join, leaves hold bounding rectangles",
    JoinSpec(leaf_mode="obr"),
    full=2_000, workload=segment_workload,
)
_case(
    "ext1.segments_semijoin",
    "EXT1: line-segment semi-join",
    smoke=None, operator="semi", workload=segment_workload,
)
for _dim in (2, 3, 4, 6):
    _case(
        f"ext2.dims_{_dim}",
        f"EXT2: closest pairs of uniform points in {_dim} dimensions",
        full=5_000, workload=partial(uniform_workload, dim=_dim),
    )
for _selectivity in (0.001, 0.05, 1.0):
    for _strategy in ("pipeline", "prefilter", "auto"):
        _case(
            f"opt1.{_strategy}_sel{_selectivity:g}",
            f"OPT1: 10 closest pairs under a predicate keeping "
            f"{_selectivity:.1%} of the outer relation, {_strategy} plan",
            JoinSpec(max_pairs=10), smoke=None,
            operator="sql", workload=analyzed_workload,
            # The predicate plans are compared under one traversal,
            # the paper's Even (the planner's own choice is the case
            # below).
            engine={"strategy": _strategy, "selectivity": _selectivity,
                    "node_policy": "even"},
        )
_case(
    "opt1.traversal_top10",
    "OPT1: the 10 closest pairs, no predicate, the traversal the "
    "planner picks (Simultaneous: D is a sliver of a leaf)",
    JoinSpec(max_pairs=10), smoke=None, operator="sql", tiers=(SMOKE,),
)
for _every in (16, 32, 256):
    _case(
        "service.suspend_resume" if _every == 32
        else f"service.suspend_every{_every}",
        f"Service: join suspended/resumed through pickled "
        f"cursors every {_every} results",
        lambda load, pairs: JoinSpec(max_pairs=pairs),
        # A cursor is a pickle of the whole queue: at the paper's
        # scale a suspend costs a good fraction of a second.
        full=1_000, operator="service",
        engine={"every": _every, "through_bytes": True},
    )


def _vector_or_scalar(load: JoinWorkload, pairs: Optional[int]) -> JoinSpec:
    """Fig 6 workload on the vector kernels when numpy is importable
    (falling back to scalar so the case still runs everywhere).  The
    wall time depends on which path ran, so the case is reported, not
    gated; its counters are identical either way by construction."""
    from repro.kernels import kernels_available

    kernel = "vector" if kernels_available() else "scalar"
    return JoinSpec(node_policy="even", tie_break="depth_first",
                    kernel=kernel)


_case(
    "kernels.vector_speedup",
    "Vectorized node expansion (numpy batch bounds) on "
    "the Fig 6 Even/DepthFirst workload",
    _vector_or_scalar, full=10_000, deterministic=False,
)
_case(
    "kernels.scalar",
    "The same join on the scalar (pure Python) expansion path",
    JoinSpec(kernel="scalar"), full=10_000,
)


def _shard_spec(load: JoinWorkload, pairs: Optional[int]) -> JoinSpec:
    """A Fig 6-style STOP AFTER workload: ask for a sliver of the
    result set, so lazy admission routes only the near shard pairs
    and provably prunes the rest.  The cap lives in the spec (not the
    consume budget) so the router stops -- and finalizes its pruning
    counters -- by itself."""
    return JoinSpec(max_pairs=max(32, len(load.tree1) // 4))


for _shards in (2, 4, 8):
    _case(
        "shard.router_pruning" if _shards == 4
        else f"shard.router_x{_shards}",
        f"Shard router: MINDIST-ordered shard pairs, lazy "
        f"admission, STOP AFTER pruning ({_shards}x{_shards} shard "
        f"catalog)",
        _shard_spec, smoke=None, operator="shard",
        engine={"shards": _shards},
    )
_case(
    "live.update_repair",
    "Standing join: top-16 repair deltas across a "
    "scripted insert/delete schedule (private trees)",
    JoinSpec(max_pairs=16), smoke=None,
    operator="live", engine={"updates": 32},
)
_case(
    "live.shared_probe",
    "Standing joins: top-4, top-16 and top-64 over one private tree "
    "pair, each insert repaired from one shared partner probe",
    JoinSpec(), smoke=None,
    operator="live", engine={"updates": 32, "limits": (4, 16, 64)},
)


# ----------------------------------------------------------------------
# the experiment index (DESIGN.md section 3) and the paper's orderings
# ----------------------------------------------------------------------

SECONDS = "seconds"
DIST = "counters.dist_calcs"
QUEUE = "peaks.queue_size"
NODE_IO = "counters.node_io"
INSERTS = "counters.queue_inserts"
HEAP = "peaks.pq_heap_size"


@dataclass(frozen=True)
class Experiment:
    """One table, figure or claim: which cases measure it (globs over
    case names), what the paper reports about it (or that it is ours),
    which metrics to print."""

    id: str
    title: str
    about: str
    cases: Tuple[str, ...]
    metrics: Tuple[str, ...] = (SECONDS, DIST, QUEUE, NODE_IO)


#: (case name, checkpoint or None for the whole run, metric path).
Reading = Tuple[str, Optional[int], str]


@dataclass(frozen=True)
class Shape:
    """``lhs <= factor x rhs``, both read from *one* trajectory entry
    -- never across entries, never in absolute seconds.  A shape with
    ``gate=False`` is printed with its numbers and verdict but cannot
    fail ``report --check``: it is where the synthetic data or the
    simulated substrate is known to differ, and ``note`` says why."""

    experiment: str
    claim: str
    lhs: Reading
    rhs: Reading
    factor: float = 1.0
    gate: bool = True
    note: str = ""


_T1 = "table1.even_depthfirst"

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "T1", "Table 1: join performance measures (Even/DepthFirst)",
        "Paper: 1 to 100,000 pairs of 7.5 G possible.  The first pair already "
        "pays a large fixed descent; growth is slow to 10,000 pairs and "
        "sharp at 100,000.",
        (_T1,), (SECONDS, "seconds_all.0", DIST, QUEUE, NODE_IO),
    ),
    Experiment(
        "F6", "Figure 6: traversal variants",
        "Paper: Similar curve shapes; Basic and Simultaneous calculate "
        "far more distances and grow a far larger queue; DepthFirst "
        "reaches the very first pair sooner (a distance-0 pair exists).",
        (_T1, "fig6.*"), (SECONDS, DIST, QUEUE),
    ),
    Experiment(
        "X1", "Section 4.1.1: Roads x Water, the larger relation first",
        "Paper: Basic generates so many pairs that the queue no longer fits.",
        ("x1.*",), (SECONDS, DIST, QUEUE),
    ),
    Experiment(
        "F7", "Figure 7: maximum distance and maximum pairs (join)",
        "Paper: Any reasonable MaxDist helps considerably, the three oracle "
        "values alike; MaxPair 100 tracks the oracle, 10,000 helps "
        "less.  Regular is table1.even_depthfirst.",
        (_T1, "fig7.*"), (SECONDS, QUEUE),
    ),
    Experiment(
        "F8", "Figure 8: memory-only against hybrid priority queue",
        "Paper: Memory-only (table1.even_depthfirst) is a little slower to "
        "10,000 pairs and about 10x slower at 100,000, where virtual "
        "memory thrashes.",
        (_T1, "fig8.*"), (SECONDS, QUEUE, HEAP),
    ),
    Experiment(
        "F9", "Figure 9: semi-join filter placements and d_max strategies",
        "Paper: Within noise to 10,000 pairs; Outside's queue grew too large "
        "to finish; on the whole result Inside2 beats Inside1, "
        "GlobalAll is best and GlobalNodes about Local.",
        ("fig9.*",), (SECONDS, QUEUE),
    ),
    Experiment(
        "F10", "Figure 10: semi-join with maximum distance / pairs",
        "Paper: For the whole result MaxDist All is about 14 % faster than "
        "Regular (fig9.semijoin_local) and MaxPair All 13 % slower.",
        ("fig9.semijoin_local", "fig10.*"), (SECONDS, INSERTS),
    ),
    Experiment(
        "A1", "Section 4.1.4: nested loop against the incremental join",
        "Paper: Over 3.5 hours on the full data: the whole Cartesian product "
        "comes before the first result (hence the capped scale here).",
        ("a1.*",), (SECONDS, DIST),
    ),
    Experiment(
        "A2", "Section 4.2.3: semi-join against one NN query per object",
        "Paper: GlobalAll (fig9.semijoin_globalall) is competitive both ways.",
        ("fig9.semijoin_globalall", "a2.*"), (SECONDS, NODE_IO),
    ),
    Experiment(
        "AB1", "Ablation: the maximum-distance estimator on and off",
        "Ours: Figure 7's mechanism, in queue insertions.",
        ("fig7.maxpairs", "ab1.*"), (SECONDS, INSERTS, QUEUE),
    ),
    Experiment(
        "AB2", "Ablation: pairing heap (the paper's) against binary heap",
        "Ours: rows, tie order and counters are identical under both.",
        (_T1, "ab2.*"), (SECONDS, DIST),
    ),
    Experiment(
        "AB3", "Ablation: buffer-pool size against node I/O",
        "Ours: the paper fixes 256 one-KB frames.",
        (_T1, "ab3.*"), (NODE_IO,),
    ),
    Experiment(
        "AB4", "Ablation: index packing",
        "Ours: the paper inserts into R*-trees, every other case here "
        "bulk-loads with STR (capped scale: insertion is slow).",
        ("ab4.*",), (SECONDS, DIST, NODE_IO),
    ),
    Experiment(
        "EXT1", "Section 5 future work: line-segment data",
        "Paper: left open; obr leaves defer object access (Section 2.2.1).",
        ("ext1.*",), (SECONDS, DIST, "counters.object_accesses"),
    ),
    Experiment(
        "EXT2", "Section 5 future work: higher dimensions",
        "Paper: left open (Section 5).", ("ext2.*",),
    ),
    Experiment(
        "OPT1", "Section 5 future work: pipeline or restrict-first plan",
        "Paper: Two plans for 'the nearest city with population over 5 "
        "million'; a cost model must choose.",
        ("opt1.*",), (SECONDS, DIST),
    ),
    Experiment(
        "ENG", "This repository's engines on the Table 1 workload",
        "Ours: kernels, suspend cadence, shards, live repair.  The "
        "vector and scalar kernels (`kernels.*`) run the same join to "
        "10,000 pairs; the shard router (`shard.*`) runs every routed "
        "shard pair inline, in the caller's process.",
        ("kernels.*", "service.*", "shard.*", "live.*"),
        (SECONDS, DIST),
    ),
)

_SYNTHETIC = (
    "not in the paper: the synthetic maps overlap densely, so many "
    "node pairs tie at MINDIST 0 and the next result needs another "
    "descent"
)


def _vs(
    experiment: str, claim: str, lhs: str, rhs: str,
    mark: Optional[int], metric: str, factor: float = 1.0, **options,
) -> Shape:
    """Two cases read at the same checkpoint, in the same metric."""
    return Shape(experiment, claim, (lhs, mark, metric),
                 (rhs, mark, metric), factor, **options)


SHAPES: Tuple[Shape, ...] = (
    Shape("T1", "the first pair costs a minority of the 100,000-pair run",
          (_T1, 1, SECONDS), (_T1, 100_000, SECONDS), 0.5),
    Shape("T1", "growth is slow at first: 10 pairs cost what 1 does",
          (_T1, 10, DIST), (_T1, 1, DIST), 1.1, gate=False,
          note=_SYNTHETIC),
    _vs("F6", "Even <= Basic in queue peak",
        _T1, "fig6.basic_depthfirst", 1_000, QUEUE),
    _vs("F6", "Even <= Basic in distance calculations",
        _T1, "fig6.basic_depthfirst", 1_000, DIST),
    _vs("F6", "Even <= Simultaneous in queue peak",
        _T1, "fig6.simultaneous_depthfirst", 1_000, QUEUE),
    _vs("F6", "Even <= Simultaneous in distance calculations",
        _T1, "fig6.simultaneous_depthfirst", 1_000, DIST),
    _vs("F6", "DepthFirst reaches the first pair before BreadthFirst",
        _T1, "fig6.even_breadthfirst", 1, DIST),
    _vs("X1", "Even's queue is under half of Basic's",
        "x1.roads_water_even", "x1.roads_water_basic", 1_000, QUEUE, 0.5),
    _vs("F7", "estimator on << off in queue peak at K = 1,000",
        "fig7.maxpairs", _T1, 1_000, QUEUE, 0.05),
    _vs("F7", "an oracle MaxDist halves the queue",
        "fig7.maxdist_100000", _T1, 100_000, QUEUE, 0.5),
    Shape("F8", "hybrid in-memory peak << memory queue peak",
          ("fig8.hybrid_small_dt", 100_000, HEAP),
          (_T1, 100_000, QUEUE), 0.5),
    Shape("F8", "... with D_T chosen adaptively too",
          ("fig8.adaptive_queue", 100_000, HEAP),
          (_T1, 100_000, QUEUE), 0.5),
    Shape("F8", "... and with suggest_dt's D_T, four times larger",
          ("fig8.hybrid_queue", 100_000, HEAP), (_T1, 100_000, QUEUE), 0.5,
          gate=False,
          note="a fiftieth of the map's diagonal is a wide first band at "
               "this density: under a tenth of the queue ever spills"),
    _vs("F8", "hybrid is faster than memory-only at 100,000 pairs",
        "fig8.hybrid_queue", _T1, 100_000, SECONDS, gate=False,
        note="PageStore is simulated: the 'disk' tier is Python objects "
             "in the same heap, so spilling adds work without relieving "
             "memory; Figure 8 reproduces in pq_heap_size, not in "
             "seconds or RSS"),
    _vs("F9", "GlobalAll <= GlobalNodes in queue peak, whole result",
        "fig9.semijoin_globalall", "fig9.semijoin_globalnodes", None, QUEUE),
    _vs("F9", "GlobalNodes ~ Local (within 25 %)", "fig9.semijoin_globalnodes",
        "fig9.semijoin_local", None, QUEUE, 1.25),
    _vs("F9", "Local ~ GlobalNodes (within 25 %)", "fig9.semijoin_local",
        "fig9.semijoin_globalnodes", None, QUEUE, 1.25),
    _vs("F9", "Local < Inside2 in queue peak",
        "fig9.semijoin_local", "fig9.semijoin_inside2", None, QUEUE),
    _vs("F9", "Inside2 < Inside1 in queue peak",
        "fig9.semijoin_inside2", "fig9.semijoin_inside1", None, QUEUE),
    _vs("F9", "Inside2 < Inside1 in time, whole result",
        "fig9.semijoin_inside2", "fig9.semijoin_inside1", None, SECONDS),
    _vs("F9", "Inside1 <= Outside in queue peak at 10,000 rows",
        "fig9.semijoin_inside1", "fig9.semijoin_outside", 10_000, QUEUE),
    _vs("F9", "Inside1 << Outside on the whole result (scale 0.02)",
        "fig9.inside1_whole", "fig9.outside_whole", None, QUEUE, 0.5),
    _vs("F10", "MaxPair All is not faster than Regular",
        "fig9.semijoin_local", "fig10.maxpairs_all", None, SECONDS, 1.05),
    _vs("F10", "MaxDist All queues fewer pairs than Regular",
        "fig10.maxdist_all", "fig9.semijoin_local", None, INSERTS),
    _vs("F10", "... and is faster for it",
        "fig10.maxdist_all", "fig9.semijoin_local", None, SECONDS,
        gate=False,
        note="a quarter fewer queue insertions do not pay for a range "
             "test that runs in Python on every candidate"),
    Shape("A1", "incremental first pair << nested loop in distance "
          "calculations", ("a1.incremental", 1, DIST),
          ("a1.nested_loop", None, DIST), 0.1),
    _vs("A2", "GlobalAll within 25 % of the NN baseline",
        "fig9.semijoin_globalall", "a2.nn_semijoin", None, SECONDS, 1.25,
        gate=False,
        note="the NN search rides C heapq on one tiny queue per query: "
             "a constant factor of the substrate"),
    _vs("A2", "... and with the relations swapped", "a2.globalall_swapped",
        "a2.nn_semijoin_swapped", None, SECONDS, 1.25),
    Shape("AB1", "the estimator halves queue insertions at K = 1,000",
          ("fig7.maxpairs", 1_000, INSERTS),
          ("ab1.maxpairs_noestimate", None, INSERTS), 0.5),
    _vs("AB2", "the default binary heap is not slower than the pairing "
        "heap", _T1, "ab2.pairing_heap", 10_000, SECONDS, 1.05, gate=False,
        note="since the queue orders runs the two are 10-20 % apart, "
             "which two repetitions do not resolve (perf/'s join_topk "
             "did, over 18 replays: CHANGES.md, PR 17)"),
    Shape("AB3", "256 frames miss less often than 2",
          (_T1, 10_000, NODE_IO), ("ab3.buffer_2", None, NODE_IO)),
    Shape("AB3", "256 frames cover the working set (1,024 buy < 5 %)",
          (_T1, 10_000, NODE_IO), ("ab3.buffer_1024", None, NODE_IO),
          1.05, gate=False,
          note="true of the trees at scale 0.05 (313 misses either "
               "way), not of the paper's: the join's hot set outgrows "
               "the paper's buffer"),
    _vs("AB4", "STR packing costs within 25 % of R* insertion",
        "ab4.packing_str", "ab4.packing_rstar", None, DIST, 1.25),
    _vs("AB4", "Hilbert packing beats Morton",
        "ab4.packing_hilbert", "ab4.packing_morton", None, DIST),
    _vs("EXT1", "obr leaves halve exact distance calculations",
        "ext1.segments_obr", "ext1.segments_direct", None, DIST, 0.5),
    _vs("EXT2", "six dimensions cost at least twice what two do",
        "ext2.dims_2", "ext2.dims_6", None, DIST, 0.5),
    _vs("OPT1", "restrict-first wins when the predicate keeps 0.1 %",
        "opt1.prefilter_sel0.001", "opt1.pipeline_sel0.001", None, SECONDS),
    _vs("OPT1", "the pipeline wins when it keeps everything",
        "opt1.pipeline_sel1", "opt1.prefilter_sel1", None, SECONDS),
    _vs("OPT1", "the cost model's choice is within 25 % of the winner at "
        "0.1 %", "opt1.auto_sel0.001", "opt1.prefilter_sel0.001", None,
        SECONDS, 1.25),
    _vs("OPT1", "... and at 100 %",
        "opt1.auto_sel1", "opt1.pipeline_sel1", None, SECONDS, 1.25),
    _vs("ENG", "the vector kernels are not slower than the scalar path",
        "kernels.vector_speedup", "kernels.scalar", None, SECONDS),
    _vs("ENG", "suspending every 256 results costs less than every 16",
        "service.suspend_every256", "service.suspend_every16", None,
        SECONDS),
    Shape("ENG", "8x8 shards: STOP AFTER prunes most shard pairs",
          ("shard.router_x8", None, "counters.shard_pairs_routed"),
          ("shard.router_x8", None, "counters.shard_pairs_total"), 0.5),
)
