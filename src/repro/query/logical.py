"""Logical plans: the parsed query as an operator tree.

A :class:`~repro.query.ast_nodes.Query` is a flat record of clauses;
the logical plan normalizes it into the relational-algebra shape the
planner reasons about:

``Project(Limit(Join(Filter(Scan(R1)), Filter(Scan(R2)))))``

Logical nodes carry *what* the query asks for (which relations, which
predicates, join kind and distance bounds, result bound) and nothing
about *how* to run it -- no strategy, no costs, no operator classes.
:mod:`repro.query.physical` lowers this tree into an executable
physical plan; the planner rule that prices pipeline-vs-prefilter
lives there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

from repro.query.ast_nodes import AttributePredicate, Query

__all__ = [
    "LogicalNode",
    "LogicalScan",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalLimit",
    "LogicalProject",
    "LogicalWatch",
    "LogicalPlan",
    "build_logical_plan",
]


@dataclass(frozen=True)
class LogicalNode:
    """Base class: a node knows its children and how to label itself."""

    def children(self) -> Tuple["LogicalNode", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["LogicalNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class LogicalScan(LogicalNode):
    """Read one named relation's index."""

    relation: str

    def label(self) -> str:
        return f"Scan({self.relation})"


@dataclass(frozen=True)
class LogicalFilter(LogicalNode):
    """Attribute predicates restricting one relation."""

    child: LogicalScan
    predicates: Tuple[AttributePredicate, ...]

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        terms = ", ".join(
            f"{p.relation}.{p.attribute} {p.op} {p.value:g}"
            for p in self.predicates
        )
        return f"Filter({terms})"


@dataclass(frozen=True)
class LogicalJoin(LogicalNode):
    """The distance (semi-)join of the two inputs.

    ``semi_join`` / ``descending`` select the operator family;
    ``min_distance`` / ``max_distance`` are the WHERE-clause distance
    bounds already normalized by ``Query.distance_bounds()``.
    """

    left: LogicalNode
    right: LogicalNode
    semi_join: bool = False
    descending: bool = False
    min_distance: float = 0.0
    max_distance: float = field(default=float("inf"))

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        kind = "SemiJoin" if self.semi_join else "Join"
        order = "desc" if self.descending else "asc"
        return (
            f"Distance{kind}(range=[{self.min_distance:g}, "
            f"{self.max_distance:g}], {order})"
        )


@dataclass(frozen=True)
class LogicalLimit(LogicalNode):
    """``STOP AFTER n``."""

    child: LogicalNode
    count: int

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit({self.count})"


@dataclass(frozen=True)
class LogicalProject(LogicalNode):
    """The SELECT list (always the full row shape here)."""

    child: LogicalNode

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Project(d, oid1, geom1, oid2, geom2)"


@dataclass(frozen=True)
class LogicalWatch(LogicalNode):
    """A standing registration of the subtree's result.

    Wraps the whole query shape: the result below is not pulled once
    but *maintained* -- the node's output is the delta stream that
    keeps a subscriber's copy of the result current (docs/LIVE.md).
    """

    child: LogicalNode

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Watch(+pair/-pair deltas)"


@dataclass(frozen=True)
class LogicalPlan:
    """The logical tree plus the query it was derived from."""

    root: LogicalNode
    query: Query

    @property
    def join(self) -> LogicalJoin:
        for node in self.root.walk():
            if isinstance(node, LogicalJoin):
                return node
        raise ValueError("logical plan has no join node")

    def pretty(self) -> str:
        return self.root.pretty()


def build_logical_plan(query: Query) -> LogicalPlan:
    """Normalize a parsed query into the logical operator tree."""
    dmin, dmax = query.distance_bounds()

    def side(relation: str) -> LogicalNode:
        scan = LogicalScan(relation)
        predicates = tuple(
            p for p in query.attribute_predicates
            if p.relation == relation
        )
        if predicates:
            return LogicalFilter(scan, predicates)
        return scan

    node: LogicalNode = LogicalJoin(
        left=side(query.relation1),
        right=side(query.relation2),
        semi_join=query.is_semi_join,
        descending=query.descending,
        min_distance=dmin,
        max_distance=dmax,
    )
    if query.stop_after is not None:
        node = LogicalLimit(node, query.stop_after)
    root: LogicalNode = LogicalProject(node)
    if query.watch:
        root = LogicalWatch(root)
    return LogicalPlan(root=root, query=query)
