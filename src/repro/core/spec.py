"""The declarative join configuration: one spec, one validation.

The paper's algorithm family is a single engine with many knobs --
traversal tie-break (Section 2.2.2), node-expansion policy, distance
range (Section 2.2.3), maximum-pair estimation (Section 2.2.4), queue
tier (Section 3.2), leaf handling, direction.  :class:`JoinSpec`
captures every knob as a frozen, picklable dataclass so the same value
can configure a sequential operator, travel inside a shard-pair
task, define a benchmark case, or annotate a query plan node.

:meth:`JoinSpec.validate` is the *single* validation point for the
knob combinations; the operator constructors no longer duplicate
``require(...)`` blocks.  Contexts that restrict the space further
(the forward semi-join cannot run descending; shard-pair tasks only
support the in-memory queue) pass flags instead of re-implementing
checks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.heap import BinaryHeap
from repro.core.tiebreak import DEPTH_FIRST, POLICIES as TIE_BREAKS
from repro.errors import CursorError
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.util.validation import require

_INF = float("inf")

#: Node-processing policies for node/node pairs (Section 2.2.2).
BASIC = "basic"
EVEN = "even"
SIMULTANEOUS = "simultaneous"
NODE_POLICIES = (BASIC, EVEN, SIMULTANEOUS)

#: Leaf content modes.
DIRECT = "direct"
OBR_MODE = "obr"
LEAF_MODES = (DIRECT, OBR_MODE)

#: Priority-queue tiers (Section 3.2).
MEMORY_QUEUE = "memory"
HYBRID_QUEUE = "hybrid"
ADAPTIVE_QUEUE = "adaptive"
QUEUE_KINDS = (MEMORY_QUEUE, HYBRID_QUEUE, ADAPTIVE_QUEUE)

#: Semi-join filter-placement strategies (Section 4.2).
OUTSIDE = "outside"
INSIDE1 = "inside1"
INSIDE2 = "inside2"
FILTER_STRATEGIES = (OUTSIDE, INSIDE1, INSIDE2)

#: Semi-join d_max-exploitation strategies (Section 4.2).
DMAX_NONE = "none"
DMAX_LOCAL = "local"
DMAX_GLOBAL_NODES = "global_nodes"
DMAX_GLOBAL_ALL = "global_all"
DMAX_STRATEGIES = (
    DMAX_NONE, DMAX_LOCAL, DMAX_GLOBAL_NODES, DMAX_GLOBAL_ALL
)

#: Batch-kernel selection (see :mod:`repro.kernels` / docs/KERNELS.md).
KERNEL_AUTO = "auto"
KERNEL_SCALAR = "scalar"
KERNEL_VECTOR = "vector"
KERNEL_MODES = (KERNEL_AUTO, KERNEL_SCALAR, KERNEL_VECTOR)

#: Knobs older builds had, with the value that left them off
#: (:meth:`JoinSpec.__setstate__`).  ``process_leaves_together``
#: expanded leaf/leaf pairs simultaneously under Basic and Even.
_REMOVED_KNOBS = {"process_leaves_together": False}


@dataclass(frozen=True)
class JoinSpec:
    """Every variant knob of the incremental distance join family.

    Every operator takes one as its third argument (``None`` means
    ``JoinSpec()``), and the query planner builds one per statement.
    Instances are immutable (derive variants with :meth:`evolve`) and
    picklable whenever their ``pair_filter`` and ``heap_class`` are,
    which is what lets a cursor carry one.

    ``filter_strategy`` and ``dmax_strategy`` only take effect in the
    semi-join/k-NN operators; they are carried here so a single spec
    describes any operator in the family.
    """

    metric: Metric = EUCLIDEAN
    min_distance: float = 0.0
    max_distance: float = _INF
    max_pairs: Optional[int] = None
    tie_break: str = DEPTH_FIRST
    node_policy: str = EVEN
    queue: str = MEMORY_QUEUE
    queue_dt: Optional[float] = None
    #: The heap under the pair queue's memory tier:
    #: :class:`~repro.core.heap.BinaryHeap` (C ``heapq``, the default)
    #: or :class:`~repro.core.heap.PairingHeap` (the paper's structure,
    #: kept for the AB2 ablation).  They share one interface -- ``push``,
    #: ``pop``, ``peek``, ``replace``, ``push_many``, ``items`` -- and
    #: the queue gives either one handle per *run* (an expansion's
    #: block, sorted once), advancing it with ``replace`` on pop and
    #: heapifying on refill; keys are unique, so rows, tie order and
    #: counters are identical under both.
    heap_class: type = BinaryHeap
    leaf_mode: str = DIRECT
    descending: bool = False
    estimate: bool = True
    aggressive: bool = False
    pair_filter: Optional[Callable[..., bool]] = None
    filter_strategy: str = INSIDE2
    dmax_strategy: str = DMAX_LOCAL
    #: Batch-kernel selection: ``"auto"`` uses the vectorized node
    #: expansion whenever numpy is importable and the metric supports
    #: it, ``"scalar"`` forces the pure-Python path, ``"vector"``
    #: requires the kernels (raising KernelError when unavailable).
    #: Results are bit-identical either way; this knob only trades
    #: speed (see docs/KERNELS.md).
    kernel: str = KERNEL_AUTO

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def evolve(self, **changes: Any) -> "JoinSpec":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def __setstate__(self, state: dict) -> None:
        # A spec unpickled from a cursor saved before a knob was
        # removed: at its "off" value the knob changed nothing, so the
        # spec loads; any other value names a traversal this build
        # cannot replay.
        for name, off in _REMOVED_KNOBS.items():
            if state.pop(name, off) != off:
                raise CursorError(
                    f"the cursor's join spec sets {name}, which this "
                    "build no longer has"
                )
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # the single validation point
    # ------------------------------------------------------------------

    def validate(
        self,
        *,
        semi_join: bool = False,
        parallel: bool = False,
    ) -> "JoinSpec":
        """Check knob values and combinations; returns ``self``.

        ``semi_join``
            The spec configures a *forward* distance semi-join (or
            k-NN join), which cannot run descending.
        ``parallel``
            The spec configures the shard router, whose watermark
            merge is a min-merge (no ``descending``) and whose
            shard-pair task queues are always in-memory (no ``queue``
            tier choice).
        """
        require(self.node_policy in NODE_POLICIES,
                f"node_policy must be one of {NODE_POLICIES}")
        require(self.tie_break in TIE_BREAKS,
                f"tie_break must be one of {TIE_BREAKS}")
        require(self.leaf_mode in LEAF_MODES,
                f"leaf_mode must be one of {LEAF_MODES}")
        for name in ("min_distance", "max_distance"):
            # NaN fails every comparison below, under a message that
            # would blame the other bound.
            require(not math.isnan(getattr(self, name)),
                    f"{name} is NaN; a distance bound must be a number")
        require(self.min_distance >= 0.0,
                "min_distance must be non-negative")
        require(self.max_distance >= self.min_distance,
                "max_distance must be >= min_distance")
        if self.max_pairs is not None:
            # bool is an int and 2.5 >= 1: either would seed the
            # estimator with a k that is not a pair count.
            require(
                isinstance(self.max_pairs, int)
                and not isinstance(self.max_pairs, bool)
                and self.max_pairs >= 1,
                "max_pairs must be an integer, at least 1",
            )
        require(self.queue in QUEUE_KINDS,
                'queue must be "memory", "hybrid", or "adaptive"')
        if self.queue == HYBRID_QUEUE:
            require(self.queue_dt is not None and self.queue_dt > 0,
                    'queue="hybrid" requires a positive queue_dt')
        require(self.kernel in KERNEL_MODES,
                f"kernel must be one of {KERNEL_MODES}")
        require(self.filter_strategy in FILTER_STRATEGIES,
                f"filter_strategy must be one of {FILTER_STRATEGIES}")
        require(self.dmax_strategy in DMAX_STRATEGIES,
                f"dmax_strategy must be one of {DMAX_STRATEGIES}")
        if self.dmax_strategy != DMAX_NONE:
            require(self.filter_strategy == INSIDE2,
                    "d_max strategies build on inside2 filtering "
                    "(paper Section 4.2.1)")
        if semi_join and self.descending:
            raise ValueError(
                "the reverse distance semi-join reports the *farthest* "
                "inner object per outer object (paper Section 2.3); use "
                "ReverseDistanceSemiJoin explicitly"
            )
        if parallel:
            require(not self.descending,
                    "the shard router's watermark merge is a min-merge; "
                    "descending (farthest-first) is not supported")
            require(self.queue == MEMORY_QUEUE,
                    "shard-pair tasks always use the in-memory queue; "
                    'a queue tier cannot be requested (got '
                    f'queue={self.queue!r})')
        return self
