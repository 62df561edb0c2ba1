"""Abstract syntax for the supported SQL dialect.

Every node is a dataclass, and the traversals at the bottom of this
module (:func:`children`, :func:`map_children`, :func:`walk`) read a
node's shape off its fields. They are the only code that knows where a
node keeps its sub-nodes: a new node type is traversed — by the
planner, the plan cache, the session's lock analysis — the moment it is
declared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Optional, Sequence


class Node:
    """Base class of every AST dataclass."""


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr(Node):
    """Base class for expressions."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def __repr__(self):
        return f"Lit({self.value!r})"


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``?`` placeholder, bound positionally at execution time."""

    index: int  # 0-based ordinal of the ? in the statement

    def __repr__(self):
        return f"?{self.index + 1}"


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    qualifier: Optional[str] = None  # table name or alias

    def __repr__(self):
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # + - * / % = != < <= > >= AND OR
    left: Expr
    right: Expr

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # NOT, NEG
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class Aggregate(Expr):
    func: str  # COUNT, SUM, AVG, MIN, MAX
    argument: Optional[Expr]  # None for COUNT(*)
    distinct: bool = False

    def __repr__(self):
        inner = "*" if self.argument is None else repr(self.argument)
        return f"{self.func}({inner})"


@dataclass(eq=False)
class ScalarSubquery(Expr):
    """``(SELECT …)`` used as a value; must yield one column, ≤1 row.

    Subquery nodes use identity equality (a ``Select`` is mutable); the
    planner resolves them to literals before compilation, so they never
    appear in structural-rewrite maps.
    """

    select: Select

    def __repr__(self):
        return "ScalarSubquery(…)"


@dataclass(eq=False)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT …)``; the subquery must yield one column."""

    operand: Expr
    select: Select
    negated: bool = False

    def __repr__(self):
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand!r} {maybe_not}IN (SELECT …))"


@dataclass(eq=False)
class ExistsSubquery(Expr):
    """``[NOT] EXISTS (SELECT …)``."""

    select: Select
    negated: bool = False

    def __repr__(self):
        return f"{'NOT ' if self.negated else ''}EXISTS(SELECT …)"


@dataclass(eq=False)
class InSet(Expr):
    """Planner-internal: membership test against materialized values.

    Produced by resolving an ``InSubquery``; carries SQL's three-valued
    ``IN`` semantics: a miss against a set that contained NULL is
    unknown, not false.
    """

    operand: Expr
    values: frozenset
    had_null: bool
    negated: bool = False

    def __repr__(self):
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand!r} {maybe_not}IN <{len(self.values)} values>)"


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class Statement(Node):
    """Base class for statements."""


@dataclass
class SelectItem(Node):
    expr: Expr
    alias: Optional[str] = None


@dataclass
class TableRef(Node):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class JoinClause(Node):
    table: TableRef
    condition: Optional[Expr]  # None means cross join
    outer: bool = False  # True for LEFT [OUTER] JOIN


@dataclass
class OrderItem(Node):
    expr: Expr
    ascending: bool = True


@dataclass
class Select(Statement):
    items: Sequence[SelectItem]  # empty means SELECT *
    tables: Sequence[TableRef]
    joins: Sequence[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: Sequence[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: Sequence[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    star: bool = False
    distinct: bool = False


@dataclass
class Insert(Statement):
    table: str
    columns: Sequence[str]  # empty: positional
    rows: Sequence[Sequence[Expr]] = field(default_factory=list)
    select: Optional["Select"] = None  # INSERT INTO … SELECT …


@dataclass
class Explain(Statement):
    select: "Select"
    join_hint: Optional[str] = None


@dataclass
class Update(Statement):
    table: str
    assignments: Sequence[tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False


@dataclass
class CreateTable(Statement):
    name: str
    columns: Sequence[ColumnDef]
    primary_key: Optional[str] = None
    chain_columns: Sequence[str] = field(default_factory=list)


@dataclass
class DropTable(Statement):
    name: str


@dataclass
class Begin(Statement):
    pass


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    pass


# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------
#: expression nodes whose ``select`` is a nested statement
SUBQUERY_NODES = (ScalarSubquery, InSubquery, ExistsSubquery)


#: annotations of fields that hold plain values, never nodes. Only a
#: shortcut: a field annotated any other way is inspected by value.
_PLAIN = {"str", "bool", "int", "Any", "frozenset", "Optional[str]", "Optional[int]"}


@functools.cache
def _node_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields of ``cls`` whose values can hold nodes."""
    return tuple(f.name for f in fields(cls) if f.type not in _PLAIN)


def _collect(values: Sequence, parts: list[Node]) -> None:
    for value in values:
        if isinstance(value, Node):
            parts.append(value)
        elif isinstance(value, (list, tuple)):
            _collect(value, parts)


def _parts(node: Node) -> list[Node]:
    """The nodes a node's fields hold, in field order, through sequences."""
    parts: list[Node] = []
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            parts.append(value)
        elif isinstance(value, (list, tuple)):
            _collect(value, parts)
    return parts


def children(expr: Expr) -> list[Expr]:
    """An expression's direct subexpressions, in field order.

    A subquery's body is a statement with a scope of its own, not a
    child: only the operand of ``x IN (SELECT …)`` refers to the outer
    row.
    """
    return [part for part in _parts(expr) if isinstance(part, Expr)]


def walk(node: Node, into_selects: bool = False) -> Iterator[Node]:
    """``node`` and every node below it, parents first.

    Covers a whole statement as well as one expression. Nested
    statements — subquery bodies, the source of ``INSERT … SELECT``,
    the subject of ``EXPLAIN`` — are entered only when ``into_selects``
    is set.
    """
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        for part in reversed(_parts(node)):
            if into_selects or not isinstance(part, Statement):
                pending.append(part)


def _mapped(value: Any, fn: Callable[[Expr], Expr]) -> Any:
    if isinstance(value, Expr):
        return fn(value)
    if isinstance(value, Statement):
        return value  # a nested statement is its own scope
    if isinstance(value, Node):
        return map_children(value, fn)
    if isinstance(value, (list, tuple)):
        mapped = [_mapped(element, fn) for element in value]
        if any(new is not old for new, old in zip(mapped, value)):
            return type(value)(mapped)
    return value


def map_children(node: Node, fn: Callable[[Expr], Expr]) -> Node:
    """``node`` rebuilt with ``fn`` applied to each expression it holds.

    On an expression those are its :func:`children`; on a statement,
    every expression slot — select list, join conditions, WHERE, GROUP
    BY, HAVING, ORDER BY, VALUES rows, SET right-hand sides — but not
    those of an embedded ``SELECT``. A node none of whose expressions
    change is returned as is.
    """
    changed = {}
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        mapped = _mapped(value, fn)
        if mapped is not value:
            changed[name] = mapped
    return replace(node, **changed) if changed else node
