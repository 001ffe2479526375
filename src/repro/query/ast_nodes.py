"""AST for the mini SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class Comparison:
    """A comparison of the distance alias against a constant:
    ``d <op> value`` with ``op`` in ``<, <=, >, >=, =``."""

    op: str
    value: float


@dataclass
class AttributePredicate:
    """A selection on a relation attribute: ``rel.attr <op> value``.

    The paper's running example -- "find the city nearest to any
    river, such that the city has a population of more than
    5 million" -- is exactly one of these on top of a distance join
    (Sections 1 and 5)."""

    relation: str
    attribute: str
    op: str
    value: float

    def matches(self, attribute_value: float) -> bool:
        """Evaluate the predicate on one attribute value."""
        if self.op == "<":
            return attribute_value < self.value
        if self.op == "<=":
            return attribute_value <= self.value
        if self.op == ">":
            return attribute_value > self.value
        if self.op == ">=":
            return attribute_value >= self.value
        return attribute_value == self.value


@dataclass
class Query:
    """A parsed distance (semi-)join query (the paper's Figure 1).

    Attributes
    ----------
    relation1, relation2:
        Names of the joined relations, in FROM order.
    attr1, attr2:
        The spatial attributes named in the ``DISTANCE(...)`` term.
    alias:
        The ``AS`` alias of the distance term (default ``d``).
    select_min:
        True when the select list contains ``MIN(d)`` -- together with
        ``group_by`` this marks a distance semi-join (Figure 1b).
    group_by:
        The ``GROUP BY`` target ``(relation, attribute)`` or None.
    comparisons:
        Conjunctive distance predicates from the WHERE clause.
    attribute_predicates:
        Conjunctive non-spatial selections (``rel.attr <op> value``).
    descending:
        True for ``ORDER BY d DESC`` (reverse/farthest-first).
    stop_after:
        The ``STOP AFTER n`` bound, or None.
    shards:
        The ``SHARDS n`` hint (or its spelling ``PARALLEL n``), or
        None.  Routes the join through per-shard R-tree partitions
        with MINDIST-ordered shard pairs (the shard router).
    explain, analyze:
        An ``EXPLAIN`` prefix asks for the plan instead of rows;
        ``EXPLAIN ANALYZE`` additionally executes the query and
        annotates the plan with actual counters and stage timings.
    watch:
        A ``WATCH`` prefix registers the query as a standing join
        whose result is maintained under updates and published as a
        delta stream (see docs/LIVE.md).  The optional trailing
        ``NOTIFY`` is declarative emphasis -- standing queries always
        notify -- and is only legal together with ``WATCH``.
    """

    relation1: str = ""
    relation2: str = ""
    attr1: str = "geom"
    attr2: str = "geom"
    alias: str = "d"
    select_min: bool = False
    group_by: Optional[Tuple[str, str]] = None
    comparisons: List[Comparison] = field(default_factory=list)
    attribute_predicates: List[AttributePredicate] = field(
        default_factory=list
    )
    descending: bool = False
    stop_after: Optional[int] = None
    shards: Optional[int] = None
    explain: bool = False
    analyze: bool = False
    watch: bool = False

    @property
    def is_semi_join(self) -> bool:
        """Figure 1(b): GROUP BY on the first relation's attribute."""
        return self.group_by is not None

    def distance_bounds(self) -> Tuple[float, float]:
        """Fold the WHERE comparisons into a ``[dmin, dmax]`` range.

        Strict comparisons are treated as their closed counterparts;
        the executor documents this (distances are continuous, so the
        practical difference is a measure-zero boundary).
        """
        dmin = 0.0
        dmax = float("inf")
        for cmp_ in self.comparisons:
            if cmp_.op in (">", ">="):
                dmin = max(dmin, cmp_.value)
            elif cmp_.op in ("<", "<="):
                dmax = min(dmax, cmp_.value)
            elif cmp_.op == "=":
                dmin = max(dmin, cmp_.value)
                dmax = min(dmax, cmp_.value)
        return dmin, dmax
