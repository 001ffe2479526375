"""The benchmark-case registry behind ``repro.bench.suite``.

Every performance-sensitive configuration the paper measures -- Table
1's Even/DepthFirst join, Figure 6's traversal variants, Figure 7's
distance/pair bounds, Figure 8's hybrid queue, Figures 9-10's
semi-join strategies -- plus the parallel engine is registered here as
a :class:`BenchCase`: a named, seeded configuration with a result-size
budget per tier.  A case is *data*, not code: its join knobs are a
:class:`repro.core.spec.JoinSpec` (or a factory producing one from
the workload, for knobs like ``D_T`` that depend on the data scale),
its operator family a string, and only engine-level options (worker
counts, backends) ride outside the spec.  The suite runner
(:mod:`repro.bench.suite`) executes the registered cases min-of-N and
appends the measurements to the repo's ``BENCH_<tier>.json``
trajectory; the regression gate (:mod:`repro.bench.compare`) diffs
the newest entry against that committed history.

Tiers
-----
``smoke``
    Small scale (CI gate; the whole tier runs in seconds).
``full``
    The EXPERIMENTS.md scale; minutes, run locally before perf PRs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

from repro.bench.workloads import JoinWorkload, suggest_dt
from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.util.obs import Observer

__all__ = [
    "BenchCase",
    "REGISTRY",
    "SMOKE",
    "FULL",
    "TIERS",
    "TierConfig",
    "cases_for",
    "register",
]

SMOKE = "smoke"
FULL = "full"

#: Operator families a case can exercise.
OPERATORS = ("join", "semi", "parallel", "service", "shard", "live")

#: A case's join configuration: a spec, or a factory deriving one
#: from the workload and the tier's result budget.
SpecSource = Union[
    JoinSpec, Callable[[JoinWorkload, Optional[int]], JoinSpec]
]


@dataclass(frozen=True)
class TierConfig:
    """Workload scale and default repetition count of one tier."""

    name: str
    scale: float
    repeat: int


TIERS: Dict[str, TierConfig] = {
    SMOKE: TierConfig(name=SMOKE, scale=0.004, repeat=3),
    FULL: TierConfig(name=FULL, scale=0.05, repeat=2),
}


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark configuration.

    ``spec`` holds the join knobs (static, or derived per workload);
    ``operator`` selects the family (``join`` / ``semi`` /
    ``parallel`` / ``service``); ``engine`` carries engine options
    that are deliberately *not* part of the spec (workers, backend;
    the service family's suspend cadence).  The
    runner calls :meth:`build` per repetition against cold caches and
    reset counters, exactly like the ``benchmarks/`` scripts, and
    consumes the tier's ``pairs`` budget (None = exhaust).
    ``deterministic`` marks whether the case's counters are exactly
    reproducible run-to-run -- those counters are *hard* regression
    gates; counters of scheduling-dependent cases (the parallel
    engine) only get the noise-banded soft gate.
    """

    name: str
    description: str
    spec: SpecSource = field(default_factory=JoinSpec)
    pairs: Mapping[str, Optional[int]] = field(default_factory=dict)
    operator: str = "join"
    engine: Mapping[str, object] = field(default_factory=dict)
    tiers: Tuple[str, ...] = (SMOKE, FULL)
    deterministic: bool = True

    def pairs_for(self, tier: str) -> Optional[int]:
        return self.pairs.get(tier)

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
        """A fresh join iterator for one repetition."""
        spec = self.spec_for(load, pairs)
        common = dict(counters=load.counters, observer=obs)
        if self.operator == "semi":
            return IncrementalDistanceSemiJoin(
                load.tree1, load.tree2, spec, **common
            )
        if self.operator in ("parallel", "shard"):
            from repro.parallel import ParallelDistanceJoin
            from repro.shard import ShardRouterJoin, clear_caches

            # Fresh catalogs and plans per repetition: measured
            # counters include the routing work and stay identical
            # run to run.
            clear_caches()
            if self.operator == "parallel":
                return ParallelDistanceJoin(
                    load.tree1, load.tree2, spec,
                    **common, **dict(self.engine),
                )
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
        if self.operator != "join":
            raise ValueError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {OPERATORS}"
            )
        return IncrementalDistanceJoin(
            load.tree1, load.tree2, spec, **common
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


# ----------------------------------------------------------------------
# the standard cases (Table 1, Figures 6-10, parallel scaling)
# ----------------------------------------------------------------------


register(BenchCase(
    name="table1.even_depthfirst",
    description="Table 1: Even/DepthFirst incremental distance join",
    spec=JoinSpec(node_policy="even", tie_break="depth_first"),
    pairs={SMOKE: 100, FULL: 10_000},
))

register(BenchCase(
    name="fig6.even_breadthfirst",
    description="Figure 6: Even/BreadthFirst traversal variant",
    spec=JoinSpec(node_policy="even", tie_break="breadth_first"),
    pairs={SMOKE: 100, FULL: 10_000},
))

register(BenchCase(
    name="fig6.basic_depthfirst",
    description="Figure 6: Basic/DepthFirst traversal variant",
    spec=JoinSpec(node_policy="basic", tie_break="depth_first"),
    pairs={SMOKE: 100, FULL: 1_000},
))

register(BenchCase(
    name="fig6.simultaneous_depthfirst",
    description="Figure 6: Simultaneous/DepthFirst traversal variant",
    spec=JoinSpec(node_policy="simultaneous", tie_break="depth_first"),
    pairs={SMOKE: 50, FULL: 1_000},
))

register(BenchCase(
    name="fig7.maxdist",
    description="Figure 7: join bounded by an oracle-ish MaxDist",
    spec=lambda load, pairs: JoinSpec(max_distance=suggest_dt(load)),
    pairs={SMOKE: 100, FULL: 10_000},
))

register(BenchCase(
    name="fig7.maxpairs",
    description="Figure 7: join with MaxPair estimation pruning",
    spec=lambda load, pairs: JoinSpec(max_pairs=pairs, estimate=True),
    pairs={SMOKE: 100, FULL: 10_000},
))

register(BenchCase(
    name="fig8.hybrid_queue",
    description="Figure 8: hybrid memory/disk priority queue",
    spec=lambda load, pairs: JoinSpec(
        queue="hybrid", queue_dt=suggest_dt(load),
    ),
    pairs={SMOKE: 100, FULL: 10_000},
))

register(BenchCase(
    name="fig8.adaptive_queue",
    description="Figure 8: adaptive-D_T hybrid queue",
    spec=JoinSpec(queue="adaptive"),
    pairs={SMOKE: 100, FULL: 10_000},
))

register(BenchCase(
    name="fig9.semijoin_local",
    description="Figure 9: semi-join, Inside2 filtering, local d_max",
    spec=JoinSpec(filter_strategy="inside2", dmax_strategy="local"),
    pairs={SMOKE: None, FULL: 1_000},
    operator="semi",
))

register(BenchCase(
    name="fig9.semijoin_globalall",
    description="Figure 9: semi-join, GlobalAll d_max strategy",
    spec=JoinSpec(filter_strategy="inside2", dmax_strategy="global_all"),
    pairs={SMOKE: None, FULL: 1_000},
    operator="semi",
))

register(BenchCase(
    name="fig10.semijoin_maxdist",
    description="Figure 10: semi-join bounded by MaxDist",
    spec=lambda load, pairs: JoinSpec(max_distance=suggest_dt(load)),
    pairs={SMOKE: None, FULL: 1_000},
    operator="semi",
))

register(BenchCase(
    name="service.suspend_resume",
    description="Service: join suspended/resumed through pickled "
                "cursors every 32 results",
    spec=lambda load, pairs: JoinSpec(max_pairs=pairs),
    pairs={SMOKE: 100, FULL: 10_000},
    operator="service",
    engine={"every": 32, "through_bytes": True},
))

def _vector_or_scalar(load: JoinWorkload, pairs: Optional[int]) -> JoinSpec:
    """Fig 6 workload on the vector kernels when numpy is importable
    (falling back to scalar so the case still runs everywhere).  The
    wall time depends on which path ran, so the case is reported, not
    gated; its counters are identical either way by construction."""
    from repro.kernels import kernels_available

    kernel = "vector" if kernels_available() else "scalar"
    return JoinSpec(node_policy="even", tie_break="depth_first",
                    kernel=kernel)


register(BenchCase(
    name="kernels.vector_speedup",
    description="Vectorized node expansion (numpy batch bounds) on "
                "the Fig 6 Even/DepthFirst workload",
    spec=_vector_or_scalar,
    pairs={SMOKE: 100, FULL: 10_000},
    deterministic=False,
))

def _shard_spec(load: JoinWorkload, pairs: Optional[int]) -> JoinSpec:
    """A Fig 6-style STOP AFTER workload: ask for a sliver of the
    result set, so lazy admission routes only the near shard pairs
    and provably prunes the rest.  The cap lives in the spec (not the
    consume budget) so the router stops -- and finalizes its pruning
    counters -- by itself."""
    return JoinSpec(max_pairs=max(32, len(load.tree1) // 4))


register(BenchCase(
    name="shard.router_pruning",
    description="Shard router: MINDIST-ordered shard pairs, lazy "
                "admission, STOP AFTER pruning (4x4 shard catalog)",
    spec=_shard_spec,
    pairs={SMOKE: None, FULL: None},
    operator="shard",
    engine={"shards": 4},
))

register(BenchCase(
    name="live.update_repair",
    description="Standing join: top-16 repair deltas across a "
                "scripted insert/delete schedule (private trees)",
    spec=JoinSpec(max_pairs=16),
    pairs={SMOKE: None, FULL: None},
    operator="live",
    engine={"updates": 32},
))

register(BenchCase(
    name="parallel.thread_x2",
    description="Parallel scaling: 2 thread workers, ordered merge",
    spec=lambda load, pairs: JoinSpec(max_pairs=pairs),
    pairs={SMOKE: 100, FULL: 10_000},
    operator="parallel",
    engine={"workers": 2, "backend": "thread"},
    deterministic=False,
))
