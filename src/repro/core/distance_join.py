"""The incremental distance join (paper Section 2.2).

:class:`IncrementalDistanceJoin` is a Python iterator producing the
object pairs of two R-trees in order of increasing (or, with
``descending``, decreasing) distance.  Its entire state is a priority
queue of item pairs, so it can be consumed lazily in a pipeline:
retrieving ``n`` pairs costs only the work needed for those ``n``
pairs (the paper's "fast first" property).

All of the paper's algorithmic knobs are fields of the
:class:`~repro.core.spec.JoinSpec` the operator takes:

- ``tie_break``: depth-first or breadth-first resolution of equal
  distances (Section 2.2.2);
- ``node_policy``: which node of a node/node pair to expand --
  ``"basic"`` (always the first, Figure 3), ``"even"`` (the shallower
  one, the paper's best overall), or ``"simultaneous"`` (both at once,
  with search-space restriction and plane sweep, Figure 4);
- ``min_distance`` / ``max_distance``: the distance range of
  Section 2.2.3, pruned with MINDIST/MAXDIST (Figure 5);
- ``max_pairs``: an upper bound on the number of result pairs, enabling
  the maximum-distance estimation of Section 2.2.4 (with the
  ``aggressive`` estimator and its restart path as an option);
- ``queue``: a pure-memory heap or the hybrid memory/disk queue of
  Section 3.2;
- ``leaf_mode``: objects stored directly in leaves (``"direct"``, the
  paper's experimental setup) or leaves holding bounding rectangles
  with deferred object resolution (``"obr"``);
- ``descending``: the reverse, farthest-first variant (Section 2.2.5);
- ``pair_filter``: the spatial-criterion hook of Section 2.2.5.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Any, Dict, List, NamedTuple, Optional

from repro.core import cursor
from repro.core.estimate import JoinEstimator
from repro.core.pairs import (
    DIST_CODE,
    NODE,
    OBJ,
    OBR,
    ROW_CODE,
    CandidateBlock,
    Item,
    Pair,
    PairDistance,
)
from repro.core.planesweep import (
    restrict_entries,
    restrict_order,
    sweep_entry_indices,
    sweep_index_pairs,
)
from repro.core.pqueue import (
    AdaptiveHybridPairQueue,
    HybridPairQueue,
    MemoryPairQueue,
    PairQueue,
    queue_from_state,
)
from repro.core.spec import (  # noqa: F401  (re-exported for back-compat)
    ADAPTIVE_QUEUE,
    BASIC,
    DIRECT,
    DMAX_NONE,
    EVEN,
    HYBRID_QUEUE,
    LEAF_MODES,
    MEMORY_QUEUE,
    NODE_POLICIES,
    OBR_MODE,
    SIMULTANEOUS,
    JoinSpec,
)
from repro.core.tiebreak import KeyMaker
from repro.errors import CursorError, JoinError
from repro.geometry.point import Point
from repro.kernels import resolve_kernels
from repro.rtree.base import RTreeBase
from repro.util.counters import CounterRegistry
from repro.util.obs import NULL_OBSERVER, Observer

_INF = float("inf")
_new_tuple = tuple.__new__


def _dist_column(values) -> array:
    """A block's distance column from a kernel's float ndarray: one
    byte copy, no float object per row."""
    return array(DIST_CODE, values.astype(DIST_CODE, copy=False).tobytes())


def _row_column(indices) -> array:
    """A block's row-number column from an integer ndarray."""
    return array(ROW_CODE, indices.astype(ROW_CODE, copy=False).tobytes())


class JoinResult(NamedTuple):
    """One reported pair of the distance (semi-)join."""

    distance: float
    oid1: int
    obj1: Any
    oid2: int
    obj2: Any


class IncrementalDistanceJoin(cursor.SuspendableOperator):
    """Incremental distance join of two R-trees (see module docstring).

    Parameters
    ----------
    tree1, tree2:
        The spatial indexes of the two joined relations.
    spec:
        A :class:`~repro.core.spec.JoinSpec` holding every algorithm
        knob (``metric``, the distance range, ``max_pairs``,
        ``tie_break``, ``node_policy``, the queue tier, ...; None
        means ``JoinSpec()``).  It is validated once by
        :meth:`JoinSpec.validate` and kept on ``self.spec``.
    counters:
        Shared performance-counter registry (defaults to a registry
        shared with ``tree1``).
    observer:
        Optional :class:`~repro.util.obs.Observer` receiving phase
        timings (``join.init``, ``join.expand``), queue refill spans,
        and events.  Defaults to the shared disabled observer, in
        which case the instrumentation costs one boolean check per
        node expansion.
    check_consistency:
        Verify the distance-function consistency contract at run time.
    """

    #: Validation context: the forward semi-join (and k-NN join)
    #: cannot run descending; see :meth:`JoinSpec.validate`.
    _spec_semi_join = False

    #: The maximum-distance estimator variant for ``max_pairs`` joins.
    _estimator_class = JoinEstimator

    _cursor_kind = "join"

    def __init__(
        self,
        tree1: RTreeBase,
        tree2: RTreeBase,
        spec: Optional[JoinSpec] = None,
        *,
        counters: Optional[CounterRegistry] = None,
        observer: Optional[Observer] = None,
        check_consistency: bool = False,
        _resume: Optional[Dict[str, Any]] = None,
    ) -> None:
        spec = self._pin(JoinSpec() if spec is None else spec)
        spec.validate(semi_join=self._spec_semi_join)
        if tree1.dim != tree2.dim:
            raise JoinError(
                f"cannot join trees of dimension {tree1.dim} and {tree2.dim}"
            )
        if _resume is not None:
            check_consistency = _resume["check_consistency"]

        self.spec = spec
        self.tree1 = tree1
        self.tree2 = tree2
        self.metric = spec.metric
        self.min_distance = float(spec.min_distance)
        self.max_distance = float(spec.max_distance)
        self.max_pairs = spec.max_pairs
        self.tie_break = spec.tie_break
        self.node_policy = spec.node_policy
        self.queue_kind = spec.queue
        self.queue_dt = spec.queue_dt
        self.heap_class = spec.heap_class
        self.leaf_mode = spec.leaf_mode
        self.descending = spec.descending
        self.estimate = spec.estimate and not spec.descending
        self.aggressive = spec.aggressive
        self.pair_filter = spec.pair_filter
        self.filter_strategy = spec.filter_strategy
        self.dmax_strategy = spec.dmax_strategy
        self.counters = counters if counters is not None else tree1.counters
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.distance = PairDistance(
            spec.metric, self.counters, check_consistency=check_consistency
        )
        # Batch kernels (None = scalar path).  Resolved once; with
        # kernel="auto" an environment without numpy silently gets the
        # scalar path, which produces bit-identical results.
        self._kern = resolve_kernels(spec.kernel, spec.metric)
        # With the base no-op expansion hooks and no pair filter the
        # vectorized expansions skip even the calls.
        base = IncrementalDistanceJoin
        self._hooks_default = (
            type(self)._keep_mask is base._keep_mask
            and type(self)._filter_candidates is base._filter_candidates
            and type(self)._on_expand is base._on_expand
            and spec.pair_filter is None
        )
        # __next__ calls the pop hooks a subclass overrides, and only
        # those: the base hooks are no-ops.
        self._hooks_pop = (
            type(self)._complete is not base._complete,
            type(self)._skip_result is not base._skip_result,
            type(self)._skip_popped is not base._skip_popped,
        )
        # An expansion is enqueued as one block while per-push side
        # effects are the stock ones; a subclass overriding _push (e.g.
        # the tracing mixin recording push events) and the consistency
        # checker get every candidate as a Pair, one _push each.
        self._block_push = (
            type(self)._push is IncrementalDistanceJoin._push
            and not check_consistency
        )
        # Child items are immutable, so a node's child-Item list is
        # cached on its SoA and shared by every block built from it --
        # unless a subclass customizes construction.
        self._child_items_default = (
            type(self)._make_child_item
            is IncrementalDistanceJoin._make_child_item
        )
        # Whether _filter_candidates reads the rows' estimation d_max
        # (the forward semi-join's d_max hooks), so an expansion
        # computes them in one batch even without an estimator.
        self._hook_reads_uppers = (
            self._spec_semi_join and spec.dmax_strategy != DMAX_NONE
        )
        self._cache_counters()

        self._produced = 0
        self._to_skip = 0
        if _resume is not None:
            # :meth:`load`: put a cursor body back instead of seeding
            # the queue with the root pair.
            self._restore_state(_resume)
            return
        with self.obs.span("join.init"):
            self._init_state()

    def _cache_counters(self) -> None:
        """Hot-path counters, cached once (registry lookups add up over
        hundreds of thousands of candidate pairs)."""
        self._c_queue_inserts = self.counters.counter("queue_inserts")
        self._c_queue_size = self.counters.counter("queue_size")
        self._c_pruned_range = self.counters.counter("pruned_range")
        self._c_pairs_reported = self.counters.counter("pairs_reported")

    def _pin(self, spec: JoinSpec) -> JoinSpec:
        """The spec this variant runs: ``spec`` with the fields it
        fixes (the reverse joins run descending)."""
        return spec

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------

    def _make_queue(self) -> PairQueue:
        if self.queue_kind == "hybrid":
            return HybridPairQueue(
                dt=float(self.queue_dt),
                counters=self.counters,
                heap_class=self.heap_class,
                observer=self.obs if self.obs.enabled else None,
            )
        if self.queue_kind == "adaptive":
            return AdaptiveHybridPairQueue(
                counters=self.counters,
                heap_class=self.heap_class,
                observer=self.obs if self.obs.enabled else None,
            )
        return MemoryPairQueue(heap_class=self.heap_class)

    def _make_estimator(self) -> Optional[JoinEstimator]:
        if not self.estimate or self.max_pairs is None:
            return None
        return self._estimator_class(
            self.max_pairs,
            self.min_distance,
            self.max_distance,
            self.counters,
            aggressive=self.aggressive,
        )

    def _read_node(self, tree: RTreeBase, node_id: int):
        """Fetch a node via the substrate's ``read_node`` (so any index
        speaking the node/entry protocol works -- R-trees, quadtrees),
        charging this join's registry with ``node_reads`` and, on a
        buffer miss, ``node_io`` (the Table 1 measure) when the tree
        was built with a different registry.  With a shared registry
        the tree's own accounting already covers it."""
        if tree.counters is self.counters:
            return tree.read_node(node_id)
        hit = tree.pool.contains(node_id)
        node = tree.read_node(node_id)
        self.counters.add("node_reads")
        if not hit:
            self.counters.add("node_io")
        return node

    def _init_state(self) -> None:
        self._queue = self._make_queue()
        self._keys = KeyMaker(self.tie_break, descending=self.descending)
        self._estimator = self._make_estimator()
        self._produced = 0
        if len(self.tree1) == 0 or len(self.tree2) == 0:
            return
        root1 = self._read_node(self.tree1, self.tree1.root_id)
        root2 = self._read_node(self.tree2, self.tree2.root_id)
        item1 = Item(NODE, root1.mbr(), node_id=root1.page_id,
                     level=root1.level)
        item2 = Item(NODE, root2.mbr(), node_id=root2.page_id,
                     level=root2.level)
        d = self.distance.mindist(item1, item2)
        self._push(Pair(item1, item2, d))

    # ------------------------------------------------------------------
    # iterator protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> "IncrementalDistanceJoin":
        return self

    def __next__(self) -> JoinResult:
        max_pairs = self.max_pairs
        min_distance = self.min_distance
        descending = self.descending
        hook_complete, hook_result, hook_popped = self._hooks_pop
        queue, estimator = self._queue, self._estimator
        while True:
            if max_pairs is not None and self._produced >= max_pairs:
                raise StopIteration
            if hook_complete and self._complete():
                raise StopIteration
            if not queue:
                if self._should_restart():
                    self._restart()
                    queue, estimator = self._queue, self._estimator
                    continue
                raise StopIteration
            key, value = queue.pop()
            from_block = type(value) is CandidateBlock
            if from_block:
                # A block row is read in place: a result is reported
                # from it, and only a row to expand becomes a Pair.
                item1, item2, d = value.row_of(key)
            else:
                item1, item2, d = value.item1, value.item2, value.distance
            # (No queue_size observation: a pop cannot raise the peak,
            # and every size a push reached was observed by the push.)
            if estimator is not None:
                estimator.on_dequeue(abs(key[3]), item1, item2)
                dmax = estimator.current_dmax
            else:
                dmax = self.max_distance

            if item1.kind == OBJ and item2.kind == OBJ:
                if not min_distance <= d <= dmax:
                    self._c_pruned_range.add()
                elif not (hook_result and self._skip_result(item1, item2)):
                    result = self._report(d, item1, item2)
                    if result is not None:
                        return result
                continue
            pair = Pair(item1, item2, d) if from_block else value
            if pair.is_obr_pair:
                result = self._handle_obr_pair(pair)
                if result is not None:
                    return result
                continue
            # At least one item is a node.
            if not descending and d > dmax:
                # The maximum distance shrank since this pair was
                # enqueued; nothing derived from it can qualify.
                self._c_pruned_range.add()
                continue
            if hook_popped and self._skip_popped(pair):
                continue
            if self.obs.enabled:
                with self.obs.span("join.expand"):
                    self._process_pair(pair)
            else:
                self._process_pair(pair)

    # ------------------------------------------------------------------
    # result handling
    # ------------------------------------------------------------------

    def _in_range(self, d: float) -> bool:
        return self.min_distance <= d <= self._effective_dmax()

    def _effective_dmax(self) -> float:
        if self._estimator is not None:
            return self._estimator.current_dmax
        return self.max_distance

    def _handle_obr_pair(self, pair: Pair) -> Optional[JoinResult]:
        # Both items are object bounding rectangles: access the objects
        # and compute their exact distance (INCDISTJOIN lines 7-13).
        if self._skip_popped(pair):
            return None
        self.counters.add("object_accesses", 2)
        item1 = Item(OBJ, pair.item1.rect, oid=pair.item1.oid,
                     obj=pair.item1.obj)
        item2 = Item(OBJ, pair.item2.rect, oid=pair.item2.oid,
                     obj=pair.item2.obj)
        d = self.distance.object_distance(item1, item2)
        if not self._in_range(d):
            self._c_pruned_range.add()
            return None
        signed = -d if self.descending else d
        if not self._queue or signed <= self._queue.peek()[0][0]:
            if self._skip_result(item1, item2):
                return None
            return self._report(d, item1, item2)
        # Re-enqueued with its exact distance, the resolved pair
        # participates in estimation like any other.
        self._push(Pair(item1, item2, d))
        return None

    def _report(
        self, distance: float, item1: Item, item2: Item
    ) -> Optional[JoinResult]:
        """Report the result pair ``(item1, item2)`` at ``distance``
        (both items resolved objects): the one reporting path of every
        result, queued as a block row or as a :class:`Pair`."""
        self._produced += 1
        self._c_pairs_reported.add()
        self._on_report(item1, item2)
        if self._to_skip > 0:
            # Replaying after a restart: this result was already
            # delivered to the consumer before the restart.
            self._to_skip -= 1
            return None
        # tuple.__new__ builds the same JoinResult without the
        # NamedTuple's Python-level __new__ (one call per result).
        return _new_tuple(
            JoinResult,
            (distance, item1.oid, item1.obj, item2.oid, item2.obj),
        )

    # Hooks overridden by the semi-join -------------------------------

    def _complete(self) -> bool:
        """Return True when no further results can exist (semi-join:
        every outer object already has its nearest neighbour)."""
        return False

    def _skip_result(self, item1: Item, item2: Item) -> bool:
        """Return True to suppress the result pair ``(item1, item2)``
        (semi-join seen-set)."""
        return False

    def _skip_popped(self, pair: Pair) -> bool:
        """Return True to discard a popped non-result pair."""
        return False

    def _on_report(self, item1: Item, item2: Item) -> None:
        """Bookkeeping after the result ``(item1, item2)`` is
        produced."""
        if self._estimator is not None:
            self._estimator.on_report()

    def _on_expand(self, pair: Pair, side: int) -> None:
        """A node of ``pair`` (on ``side``) is about to be expanded."""

    def _keep_mask(
        self, side: int, level: int, children: List[Item]
    ) -> Optional[List[bool]]:
        """The seen-set test of one expansion, before any distance is
        computed: ``keep[i]`` is False for a child of the node on
        ``side`` (at ``level``) that must not be paired, or ``None``
        when nothing can be dropped.  Charges nothing; the expansion
        charges ``pruned_seen`` once (:meth:`_charge_seen`)."""
        return None

    def _charge_seen(self, dropped: int) -> None:
        """One ``pruned_seen`` add for the candidates an expansion
        dropped on the seen-set test: its children (one-sided) or its
        swept pairs (simultaneous)."""
        if dropped:
            self.counters.add("pruned_seen", dropped)

    def _filter_candidates(
        self, pair: Pair, side: int, block: CandidateBlock
    ) -> CandidateBlock:
        """Drop candidate rows, keeping the order of the rest
        (semi-join d_max hooks)."""
        return block

    # ------------------------------------------------------------------
    # node processing
    # ------------------------------------------------------------------

    def _process_pair(self, pair: Pair) -> None:
        item1, item2 = pair.item1, pair.item2
        if item1.is_node and item2.is_node:
            if self.node_policy == SIMULTANEOUS:
                self._process_both(pair)
                return
            if self.node_policy == EVEN and item2.level > item1.level:
                self._process_node(pair, side=2)
                return
            self._process_node(pair, side=1)
            return
        if item1.is_node:
            self._process_node(pair, side=1)
        else:
            self._process_node(pair, side=2)

    def _tree(self, side: int) -> RTreeBase:
        return self.tree1 if side == 1 else self.tree2

    def _make_child_item(self, node_level: int, entry: Any) -> Item:
        if node_level > 0:
            return Item(NODE, entry.rect, node_id=entry.child_id,
                        level=node_level - 1)
        resolved = self.leaf_mode == DIRECT
        return Item(OBJ if resolved else OBR, entry.rect,
                    oid=entry.oid, obj=entry.obj)

    def _process_node(self, pair: Pair, side: int) -> None:
        """Expand the node on ``side`` against the pair's other item
        (PROCESSNODE1 / PROCESSNODE2 of Figures 3 and 5).

        The vector path is one pass over the node's entry columns
        (``Node.entries_soa``): the seen-set mask, the block's
        distances (exact point distances for object/object rows, else
        MINDIST) and the range test, then the rows' estimation d_max
        only when a key, the estimator or a d_max hook reads them, and
        the block is keyed, enqueued and offered.  It builds the block
        :meth:`_expand_scalar` would, row for row and with identical
        counter charges; stage order replicates the scalar loop.  The
        subclass hooks (``_on_expand``, ``_keep_mask``, a
        ``pair_filter`` and ``_filter_candidates``) and the per-pair
        loop are reached only when ``__init__`` found them in use.  A
        foreign node type, or object payloads the point kernel cannot
        serve (exact shapes), take the scalar expansion.
        """
        hooked = not self._hooks_default
        if hooked:
            self._on_expand(pair, side)
        if side == 1:
            node_id, other, tree = pair.item1.node_id, pair.item2, self.tree1
        else:
            node_id, other, tree = pair.item2.node_id, pair.item1, self.tree2
        node = self._read_node(tree, node_id)
        eff_dmax = self._effective_dmax()
        level = node.level
        # Object/object rows take the exact-distance path, every other
        # row a rectangle bound: the child kind is uniform across one
        # node's entries.
        object_path = (
            level == 0 and other.kind == OBJ and self.leaf_mode == DIRECT
        )
        kern = self._kern
        soa = None
        if kern is not None:
            soa_of = getattr(node, "entries_soa", None)
            if soa_of is not None:
                soa = soa_of()
            if object_path and soa is not None and (
                soa.pts is None or not isinstance(other.obj, Point)
            ):
                soa = None
        if soa is None:
            self._push_candidates(
                pair, side, self._expand_scalar(node, other, side, eff_dmax)
            )
            return
        n = soa.n
        if not n:
            return
        children = self._node_children(soa, node.entries, level)
        lo, hi, pts = soa.lo, soa.hi, soa.pts
        taken: Optional[List[int]] = None
        if hooked:
            keep = self._keep_mask(side, level, children)
            if keep is not None:
                taken = list(compress(range(n), keep))
                self._charge_seen(n - len(taken))
                if not taken:
                    return
                if len(taken) == n:
                    taken = None  # nothing dropped: no gather
                else:
                    lo, hi = lo[taken], hi[taken]
                    if pts is not None:
                        pts = pts[taken]
        m = n if taken is None else len(taken)

        # The corners in first-tree / second-tree order: the kernels'
        # argument order is the scalar bounds' item order.
        rect = other.rect
        if side == 1:
            corners = (lo, hi, rect.lo, rect.hi)
        else:
            corners = (rect.lo, rect.hi, lo, hi)
        if object_path:
            d = kern.point_distance(pts, other.obj.coords)
            self.distance._dist_calcs.add(m)
        else:
            d = kern.mindist(*corners)
            self.distance._bound_calcs.add(m)
        alive = self._range_admits_batch(
            kern, d, eff_dmax, object_path, *corners
        )
        if alive is None:
            dists = _dist_column(d)
            rows = range(m) if taken is None else array(ROW_CODE, taken)
        else:
            if not alive.size:
                return
            dists = _dist_column(d[alive])
            rows = _row_column(
                alive if taken is None else kern.np.asarray(taken)[alive]
            )
        uppers = self._uppers_batch(
            kern, alive, object_path, level == 0 and other.kind != NODE,
            *corners,
        )
        block = CandidateBlock(
            dists, rows, children, other, side, uppers=uppers
        )
        if hooked or not self._block_push:
            self._push_candidates(pair, side, block)
        elif side == 1:
            self._enqueue(block, children[rows[0]], other)
        else:
            self._enqueue(block, other, children[rows[0]])

    def _expand_scalar(
        self, node: Any, other: Item, side: int, eff_dmax: float
    ) -> CandidateBlock:
        """The per-entry (scalar) expansion loop."""
        level = node.level
        make = self._make_child_item
        candidates = [make(level, entry) for entry in node.entries]
        keep = self._keep_mask(side, level, candidates)
        if keep is not None:
            unseen = list(compress(candidates, keep))
            self._charge_seen(len(candidates) - len(unseen))
            candidates = unseen
        dists = array(DIST_CODE)
        children: List[Item] = []
        for child in candidates:
            item1, item2 = (child, other) if side == 1 else (other, child)
            d = self.distance.mindist(item1, item2)
            if self._range_admits(item1, item2, d, eff_dmax):
                dists.append(d)
                children.append(child)
        return CandidateBlock(
            dists, range(len(dists)), children, other, side
        )

    def _node_children(
        self, soa: Any, entries: Any, level: int
    ) -> List[Item]:
        """The node's full child-Item list, cached on its SoA.

        Items are immutable once constructed (OBR resolution builds
        *new* OBJ items), so a node expanded against many partners
        reuses one list, and queued blocks keep referring to it: node
        mutation replaces the SoA and with it the list, never edits
        the list in place.  The cache is keyed by child kind: a branch
        node always yields NODE items, a leaf node OBJ or OBR items
        depending on ``leaf_mode``, so concurrent joins with different
        modes coexist.  A subclass that customizes item construction
        gets a fresh, uncached list.
        """
        make = self._make_child_item
        if not self._child_items_default:
            return [make(level, e) for e in entries]
        if level > 0:
            key = NODE
        elif self.leaf_mode == DIRECT:
            key = OBJ
        else:
            key = OBR
        cached = soa.items.get(key)
        if cached is None:
            cached = soa.items[key] = [make(level, e) for e in entries]
        return cached

    def _range_admits_batch(
        self, kern, d, eff_dmax: float, object_path: bool,
        lo1, hi1, lo2, hi2,
    ):
        """Vectorized :meth:`_range_admits` over a distance array.

        Returns the indices of admitted elements (original order), or
        ``None`` meaning *all* elements are admitted.  Each test
        replicates the scalar comparison polarity (NaN distances are
        *not* pruned by ``d > dmax`` style tests, exactly as in the
        scalar code) and charges the same counters: one
        ``pruned_range`` unit per rejected element, and one MAXDIST
        bound (or exact re-evaluation on the object path) per element
        surviving the first test when a minimum distance is active.

        The corners are the first tree's and the second tree's, each
        row-aligned with ``d`` or one rectangle's corner tuples (the
        one-sided expansion's fixed partner).
        """
        dmax = self.max_distance if self.descending else eff_dmax
        if self.min_distance == 0.0 and dmax == _INF:
            # Nothing to test (d > inf is false even for NaN).
            return None
        np = kern.np
        if self.descending:
            alive = np.arange(d.shape[0])
            pruned = 0
        else:
            alive = (~(d > eff_dmax)).nonzero()[0]
            pruned = d.shape[0] - alive.size
        if self.min_distance > 0.0 and alive.size:
            if object_path:
                # Scalar maxdist() of an object/object pair re-runs
                # object_distance: same value, one more dist_calcs.
                upper = d[alive]
                self.distance._dist_calcs.add(int(alive.size))
            else:
                upper = kern.maxdist(*(
                    c if type(c) is tuple else c[alive]
                    for c in (lo1, hi1, lo2, hi2)
                ))
                self.distance._bound_calcs.add(int(alive.size))
            keep = ~(upper < self.min_distance)
            pruned += int(alive.size) - int(np.count_nonzero(keep))
            alive = alive[keep]
        if self.descending and alive.size:
            keep = ~(d[alive] > self.max_distance)
            pruned += int(alive.size) - int(np.count_nonzero(keep))
            alive = alive[keep]
        if not pruned:
            return None
        self._c_pruned_range.add(pruned)
        return alive

    def _process_both(self, pair: Pair) -> None:
        """Expand both nodes at once with restriction + plane sweep
        (the "Simultaneous" policy, Section 2.2.2 / Figure 4)."""
        self._on_expand(pair, side=1)
        self._on_expand(pair, side=2)
        node1 = self._read_node(self.tree1, pair.item1.node_id)
        node2 = self._read_node(self.tree2, pair.item2.node_id)
        eff_dmax = self._effective_dmax()

        block: Optional[CandidateBlock] = None
        if self._kern is not None:
            block = self._expand_both_vector(node1, node2, pair, eff_dmax)
        if block is None:
            block = self._expand_both_scalar(node1, node2, pair, eff_dmax)
        self._push_candidates(pair, 0, block)

    def _expand_both_scalar(
        self, node1: Any, node2: Any, pair: Pair, eff_dmax: float
    ) -> CandidateBlock:
        entries1 = restrict_entries(
            node1.entries, pair.item2.rect, self.metric, eff_dmax
        )
        entries2 = restrict_entries(
            node2.entries, pair.item1.rect, self.metric, eff_dmax
        )
        self.counters.add(
            "bound_calcs", len(node1.entries) + len(node2.entries)
        )
        make = self._make_child_item
        children1 = [make(node1.level, e) for e in entries1]
        children2 = [make(node2.level, e) for e in entries2]
        # The seen-set mask of node 1's children, looked up per swept
        # pair.
        keep = self._keep_mask(1, node1.level, children1)

        dists = array(DIST_CODE)
        rows1 = array(ROW_CODE)
        rows2 = array(ROW_CODE)
        dropped = 0
        for i, j in sweep_entry_indices(children1, children2, eff_dmax):
            if keep is not None and not keep[i]:
                dropped += 1
                continue
            child1, child2 = children1[i], children2[j]
            d = self.distance.mindist(child1, child2)
            if self._range_admits(child1, child2, d, eff_dmax):
                dists.append(d)
                rows1.append(i)
                rows2.append(j)
        self._charge_seen(dropped)
        return CandidateBlock(
            dists, rows1, children1, None, 0, rows2, children2
        )

    def _expand_both_vector(
        self, node1: Any, node2: Any, pair: Pair, eff_dmax: float
    ) -> Optional[CandidateBlock]:
        """Batch-kernel simultaneous expansion (restriction + sweep).

        Each node's search-space restriction is :func:`restrict_order`
        over the columns cached on its SoA (``EntrySoA.sweep_columns``):
        a bisection of the sorted sweep keys, then an exact test of
        the candidates left.  Its result is the cached order filtered
        -- the stable sort the scalar sweep makes afresh -- so the
        plane sweep yields entry indices in the scalar yield order.
        Node 2's columns and test are never touched once node 1 keeps
        nothing.  The per-sweep-pair MINDIST (or point distance) is one
        gathered kernel call.  Counter charges match the scalar path
        element for element: like it, the restriction charges both
        nodes' full entry counts as ``bound_calcs`` however few entries
        it tests.  Returns the block (with its estimation d_max values)
        like the one-sided vector expansion (:meth:`_process_node`);
        ``None`` falls back to scalar.
        """
        soa_of1 = getattr(node1, "entries_soa", None)
        soa_of2 = getattr(node2, "entries_soa", None)
        if soa_of1 is None or soa_of2 is None:
            return None
        s1 = soa_of1()
        s2 = soa_of2()
        if s1 is None or s2 is None:
            return None
        level1, level2 = node1.level, node2.level
        object_path = (
            level1 == 0 and level2 == 0 and self.leaf_mode == DIRECT
        )
        if object_path and (s1.pts is None or s2.pts is None):
            return None

        kern = self._kern
        np = kern.np
        n1, n2 = s1.n, s2.n
        children1 = self._node_children(s1, node1.entries, level1)
        children2 = self._node_children(s2, node2.entries, level2)
        empty = CandidateBlock(
            array(DIST_CODE), array(ROW_CODE), children1, None, 0,
            array(ROW_CODE), children2,
        )
        self.distance._bound_calcs.add(n1 + n2)
        if not n1 or not n2:
            return empty

        lo1, hi1, order1, keys1 = s1.sweep_columns()
        if eff_dmax == _INF:
            # Nothing is restricted, and the sweep pairs every entry
            # with every entry in entry order.
            lo2, hi2, __, ___ = s2.sweep_columns()
            order1, order2 = range(n1), range(n2)
        else:
            order1 = restrict_order(
                lo1, hi1, order1, keys1, pair.item2.rect, kern.p, eff_dmax
            )
            if not order1:
                return empty
            lo2, hi2, order2, keys2 = s2.sweep_columns()
            order2 = restrict_order(
                lo2, hi2, order2, keys2, pair.item1.rect, kern.p, eff_dmax
            )
            if not order2:
                return empty

        # The seen-set mask of node 1's children, looked up per swept
        # pair.
        keep = (
            None if self._hooks_default
            else self._keep_mask(1, level1, children1)
        )
        ii: List[int] = []
        jj: List[int] = []
        dropped = 0
        for i, j in sweep_index_pairs(
            lo1[0], hi1[0], order1, lo2[0], hi2[0], order2, eff_dmax
        ):
            if keep is not None and not keep[i]:
                dropped += 1
                continue
            ii.append(i)
            jj.append(j)
        self._charge_seen(dropped)
        if not ii:
            return empty

        m = len(ii)
        g1 = np.array(ii, dtype=np.intp)
        g2 = np.array(jj, dtype=np.intp)
        glo1, ghi1 = s1.lo[g1], s1.hi[g1]
        glo2, ghi2 = s2.lo[g2], s2.hi[g2]
        if object_path:
            d = kern.point_distance(s1.pts[g1], s2.pts[g2])
            self.distance._dist_calcs.add(m)
        else:
            d = kern.mindist(glo1, ghi1, glo2, ghi2)
            self.distance._bound_calcs.add(m)

        alive = self._range_admits_batch(
            kern, d, eff_dmax, object_path, glo1, ghi1, glo2, ghi2
        )
        if alive is not None and not alive.size:
            return empty
        uppers = self._uppers_batch(
            kern, alive, object_path, level1 == 0 and level2 == 0,
            glo1, ghi1, glo2, ghi2,
        )
        if alive is not None:
            d, g1, g2 = d[alive], g1[alive], g2[alive]
        return CandidateBlock(
            _dist_column(d), _row_column(g1), children1, None, 0,
            _row_column(g2), children2, uppers,
        )

    def _uppers_batch(
        self, kern, alive, object_path: bool, minimal: bool,
        lo1, hi1, lo2, hi2,
    ) -> Optional[array]:
        """Estimation d_max (Section 2.2.4) of one expansion's admitted
        rows -- ``alive`` and the corners are what
        :meth:`_range_admits_batch` returned and took -- for the
        reverse variant's keys, the estimator and the d_max hooks.

        One MAXDIST kernel call (MINMAXDIST when both sides are
        ``minimal`` bounding rectangles) serves the block, bit-identical
        to the scalar :meth:`PairDistance.estimation_maxdist`.  Each
        consumer charges by the per-pair rule, not this
        (:meth:`_dmax_of`).  ``None`` when the values would go unused
        -- no d_max hook and either neither keys nor an estimator read
        them or the per-pair loop computes its own -- or for exact
        object distances (their own d_max).
        """
        if object_path or not self._hook_reads_uppers and not (
            self._block_push
            and (self.descending or self._estimator is not None)
        ):
            return None
        if alive is not None:
            lo1, hi1, lo2, hi2 = (
                c if type(c) is tuple else c[alive]
                for c in (lo1, hi1, lo2, hi2)
            )
        bound = kern.minmaxdist if minimal else kern.maxdist
        return _dist_column(bound(lo1, hi1, lo2, hi2))

    def _push_candidates(
        self, pair: Pair, side: int, block: CandidateBlock
    ) -> None:
        """Run the spatial-criterion filter and the d_max hooks over
        one expansion's block, then enqueue it (:meth:`_enqueue`) --
        or, for the per-pair loop (an overridden ``_push``, the
        consistency checker), push its rows one :class:`Pair` each.

        Rows stay rows: the d_max hooks read the block's columns
        (distances, batch d_max bounds, child rows), and pairs are
        built only for a ``pair_filter`` and the per-pair loop.
        """
        if not block.dists:
            return
        if self.pair_filter is not None:
            # Before the semi-join's d_max hooks: a pair excluded by
            # the criterion must not contribute pruning bounds (its
            # objects are not valid nearest-neighbour candidates).
            accepts = self.pair_filter
            kept = [
                row for row, child_pair in enumerate(block.pairs())
                if accepts(child_pair)
            ]
            if len(kept) < len(block):
                self.counters.add("pruned_filter", len(block) - len(kept))
                block = block.take(kept)
        block = self._filter_candidates(pair, side, block)
        if not block.dists:
            return
        if not self._block_push:
            for child_pair in block.pairs():
                self.distance.check_child(pair, child_pair.distance)
                self._push(child_pair)
            return
        self._enqueue(block, *block.head())

    def _enqueue(
        self, block: CandidateBlock, item1: Item, item2: Item
    ) -> None:
        """Enqueue one expansion's non-empty block, headed by ``item1``
        / ``item2`` (:meth:`CandidateBlock.head`), and offer it to the
        estimator, whole.

        The block is keyed in row order (fixing the identical tie-break
        sequence) and handed to the queue's ``push_many``, with the
        insert counter charged in one add and the queue-size peak
        observed once at the final (maximal) size; the estimator then
        takes the block in one ``offer``.  No queue push reads what the
        estimator writes, so totals, peaks and the trim trajectory
        equal the per-pair accounting exactly.  The d_max column is
        read by the keys and the offer only, so the queued block drops
        it.
        """
        self._keys.key_block(
            block, item1, item2,
            self._dmax_of(block, item1, item2) if self.descending
            else block.dists,
        )
        self._queue.push_many(block)
        self._c_queue_inserts.add(len(block.dists))
        self._c_queue_size.observe(len(self._queue))
        if self._estimator is not None:
            self._offer(block, item1, item2)
        block.uppers = None

    def _range_admits(self, item1: Item, item2: Item, d: float,
                      eff_dmax: float) -> bool:
        if not self.descending and d > eff_dmax:
            self._c_pruned_range.add()
            return False
        if self.min_distance > 0.0:
            upper = self.distance.maxdist(item1, item2)
            if upper < self.min_distance:
                self._c_pruned_range.add()
                return False
        if self.descending:
            # Farthest-first: a pair whose upper bound is below the
            # minimum distance can never qualify (handled above); a
            # finite max_distance still prunes on the lower bound.
            if d > self.max_distance:
                self._c_pruned_range.add()
                return False
        return True

    # ------------------------------------------------------------------
    # queue plumbing
    # ------------------------------------------------------------------

    def _dmax_of(
        self, block: CandidateBlock, item1: Item, item2: Item
    ) -> array:
        """Each row's estimation d_max for a block headed by ``item1`` /
        ``item2`` (also the reverse variant's key distance), charged by
        the per-pair rule: one ``bound_calcs`` a row, none for resolved
        object/object rows (their exact distance is their own d_max).
        The values are the expansion's batch bounds
        (:meth:`_uppers_batch`) when it computed them, else scalar."""
        if item1.kind == OBJ and item2.kind == OBJ:
            return block.dists
        if block.uppers is not None:
            self.distance._bound_calcs.add(len(block))
            return block.uppers
        bound = self.distance.estimation_maxdist
        return array(DIST_CODE, [
            bound(block.first(row), block.second(row))
            for row in range(len(block))
        ])

    def _count_lower_bound(self, side: int, item: Item) -> int:
        if item.kind != NODE:
            return 1
        tree = self._tree(side)
        if item.node_id == tree.root_id:
            return 1
        if self.aggressive:
            return max(1, int(tree.avg_subtree_count(item.level)))
        return tree.min_subtree_count(item.level)

    def _estimator_count(self, item1: Item, item2: Item) -> int:
        return (
            self._count_lower_bound(1, item1)
            * self._count_lower_bound(2, item2)
        )

    def _offer(
        self, block: CandidateBlock, item1: Item, item2: Item
    ) -> None:
        """Offer a just-enqueued block (headed by ``item1`` / ``item2``)
        to the estimator with its rows' d_max (:meth:`_dmax_of`: every
        enqueued row costs a bound)."""
        block.uppers = self._dmax_of(block, item1, item2)
        self._estimator.offer(block, self._estimator_count(item1, item2))

    def _push(self, pair: Pair) -> None:
        key_distance = pair.distance
        if self.descending and not pair.is_result:
            key_distance = self.distance.estimation_maxdist(
                pair.item1, pair.item2
            )
        key = self._keys.key(pair, key_distance)
        self._queue.push(key, pair)
        self._c_queue_inserts.add()
        self._c_queue_size.observe(len(self._queue))
        if self._estimator is not None:
            block = CandidateBlock.of_pairs([pair])
            block.seq0 = key[3]  # the row's name in the estimator's M
            self._offer(block, pair.item1, pair.item2)

    # ------------------------------------------------------------------
    # restart path for the aggressive estimator
    # ------------------------------------------------------------------

    def _should_restart(self) -> bool:
        return (
            self._estimator is not None
            and self._estimator.trimmed
            and self.aggressive
            and self.max_pairs is not None
            and self._produced < self.max_pairs
        )

    def _restart(self) -> None:
        """The aggressive estimator over-pruned: replay without it.

        The priority queue holds no useful information at this point
        (paper Section 2.2.4), so the query restarts from the root pair
        with estimation disabled, suppressing the results already
        delivered.
        """
        self.counters.add("restarts")
        self.obs.event("join.restart", value=float(self._produced))
        self._to_skip += self._produced
        self.estimate = False
        with self.obs.span("join.init"):
            self._init_state()

    # ------------------------------------------------------------------
    # progress introspection
    # ------------------------------------------------------------------

    def progress_signals(self) -> Dict[str, Any]:
        """Raw progress facts for :class:`repro.util.telemetry
        .ProgressEstimator`.

        A pure probe, safe to call between ``next()`` calls at any
        frequency: it never pops, promotes queue tiers, reads disk
        pages, or charges counters, so the counter bit-identity and
        bench gates are untouched.  ``head_distance`` is the actual
        (unsigned) queue-head distance when the head is in memory, a
        band lower bound otherwise, ``None`` when unknown;
        ``max_distance`` is the *effective* ``dmax`` (the estimator's
        trimmed bound when active).
        """
        queue = self._queue
        head = queue.head_distance() if queue is not None else None
        if head is not None and self.descending:
            head = -head
        queue_len = len(queue) if queue is not None else 0
        done = (
            (self.max_pairs is not None
             and self._produced >= self.max_pairs)
            or self._complete()
            or (queue_len == 0 and not self._should_restart())
        )
        return {
            "operator": type(self).__name__,
            "produced": self._produced,
            "max_pairs": self.max_pairs,
            "head_distance": head,
            "min_distance": self.min_distance,
            "max_distance": self._effective_dmax(),
            "descending": self.descending,
            "queue_len": queue_len,
            "occupancy": (
                queue.occupancy() if queue is not None else {}
            ),
            "done": done,
        }

    # ------------------------------------------------------------------
    # suspendable cursor (save / load: cursor.SuspendableOperator)
    # ------------------------------------------------------------------

    def _cursor_body(self) -> Dict[str, Any]:
        """The join's entire state is its priority queue (the paper's
        defining property), so the cursor body is the queue snapshot
        plus a handful of scalars: the tie-break sequence position,
        restart bookkeeping and the estimator's ``M`` structure."""
        return {
            "check_consistency": self.distance.check_consistency,
            "estimate": self.estimate,
            "max_pairs": self.max_pairs,
            "produced": self._produced,
            "to_skip": self._to_skip,
            "seq": self._keys.seq,
            "queue": self._queue.state(),
            "estimator": (
                self._estimator.state()
                if self._estimator is not None else None
            ),
            "extra": self._state_extra(),
        }

    def _restore_state(self, state: dict) -> None:
        """Put a :meth:`_cursor_body` back (constructor resume path)."""
        self.estimate = state["estimate"]
        self.max_pairs = state["max_pairs"]
        self._produced = state["produced"]
        self._to_skip = state["to_skip"]
        self._keys = KeyMaker(self.tie_break, descending=self.descending)
        self._keys.restore_seq(state["seq"])
        self._queue = queue_from_state(
            state["queue"],
            heap_class=self.heap_class,
            counters=self.counters,
            observer=self.obs if self.obs.enabled else None,
        )
        est_state = state["estimator"]
        if est_state is None:
            self._estimator = None
        else:
            self._estimator = self._make_estimator()
            if self._estimator is None:
                raise CursorError(
                    "cursor carries estimator state but the restored "
                    "spec disables estimation"
                )
            self._estimator.restore_state(est_state)
        self._restore_extra(state["extra"])

    def _state_extra(self) -> Any:
        """Subclass hook: extra picklable state for :meth:`save`."""
        return None

    def _restore_extra(self, extra: Any) -> None:
        """Subclass hook: restore what :meth:`_state_extra` captured."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(policy={self.node_policy}, "
            f"tie={self.tie_break}, produced={self._produced})"
        )
