"""Expression compilation and evaluation.

An expression is translated once, by :func:`_emit`, into the source of
one Python expression over the helpers below, with columns resolved to
positions against a :class:`RowSchema`. Two shells wrap that source
into a callable — one over a row tuple, one over a whole
:class:`~repro.sql.batch.ColumnBatch` in a single list comprehension —
so both evaluate the same text and cannot disagree.

NULL follows (lightweight) three-valued logic: comparisons and
arithmetic involving NULL yield NULL, ``AND``/``OR``/``NOT`` combine
unknowns the SQL way, and filters treat a NULL predicate result as
not-satisfied.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, Optional

from repro.errors import PlanningError
from repro.sql import params as _params
from repro.sql.ast_nodes import (
    SUBQUERY_NODES,
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    InSet,
    IsNull,
    Like,
    Literal,
    Parameter,
    UnaryOp,
    children,
    map_children,
    walk,
)

RowFn = Callable[[tuple], Any]
#: a batch evaluator: ColumnBatch → list of one value per row
BatchFn = Callable[[Any], list]


class RowSchema:
    """The (qualifier, name) bindings of a row pipeline's positions."""

    def __init__(self, bindings: list[tuple[Optional[str], str]]):
        self.bindings = list(bindings)

    def resolve(self, ref: ColumnRef) -> int:
        """Position of a column reference; ambiguity and misses raise."""
        matches = [
            i
            for i, (qualifier, name) in enumerate(self.bindings)
            if name == ref.name
            and (ref.qualifier is None or ref.qualifier == qualifier)
        ]
        if not matches:
            raise PlanningError(f"unknown column {ref!r}")
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column {ref!r}")
        return matches[0]

    def concat(self, other: "RowSchema") -> "RowSchema":
        return RowSchema(self.bindings + other.bindings)

    @property
    def names(self) -> list[str]:
        return [name for _, name in self.bindings]

    def __len__(self) -> int:
        return len(self.bindings)

    def __repr__(self) -> str:
        return f"RowSchema({self.bindings})"


# ----------------------------------------------------------------------
# three-valued helpers (what the generated code calls)
# ----------------------------------------------------------------------
def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _not3(a):
    return None if a is None else (not a)


def _negate(a):
    return None if a is None else -a


def _divide(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ZeroDivisionError("division by zero in SQL expression")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def _between(value, low, high):
    if value is None or low is None or high is None:
        return None
    return low <= value <= high


def _like(value, match):
    return None if value is None else match(value) is not None


def _in_list(value, items):
    if value is None:
        return None
    for item in items:
        if value == item:
            return True
    return False


def _in_set(value, values, had_null):
    if value is None:
        return None
    if value in values:
        return True
    # a miss against a set containing NULL is unknown (SQL IN)
    return None if had_null else False


_BINARY = {"AND": _and3, "OR": _or3, "/": _divide}

#: operators spelled inline, each behind its NULL guard
_INLINE = {
    "+": "+",
    "-": "-",
    "*": "*",
    "%": "%",
    "=": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (%, _) into an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
class _Source:
    """What one expression's source names: columns, ``?``s, constants."""

    def __init__(self, schema: RowSchema, column_text: str):
        self.schema = schema
        #: format of a column's value given its position
        self.column_text = column_text
        self.positions: set[int] = set()
        self.params: set[int] = set()
        self.temps = 0
        #: k0, k1, …: helpers, literals, LIKE matchers, IN sets. Values
        #: are never spelled into the source, so one statement shape is
        #: one source text whatever its literals are.
        self.constants: list = []

    def column(self, ref: ColumnRef) -> str:
        position = self.schema.resolve(ref)
        self.positions.add(position)
        return self.column_text.format(position)

    def param(self, index: int) -> str:
        self.params.add(index)
        return f"p{index}"

    def const(self, value: Any) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"


def _guarded(op: str, operands: list, args: list[str], src: _Source) -> str:
    """``a op b``, or NULL when either side is: both sides are always
    evaluated (``|``, not ``or``), so a NULL never hides an error in
    the other operand. A column, parameter or constant is read where it
    stands; anything else is computed once into a temporary. A non-NULL
    literal needs no guard."""
    guards, names = [], []
    for operand, text in zip(operands, args):
        if not isinstance(operand, (Literal, ColumnRef, Parameter)):
            name = src.temp()
            guards.append(f"(({name} := {text}) is None)")
            text = name
        elif not (isinstance(operand, Literal) and operand.value is not None):
            guards.append(f"({text} is None)")
        names.append(text)
    value = f"{names[0]} {_INLINE[op]} {names[1]}"
    return f"(None if {' | '.join(guards)} else {value})" if guards else f"({value})"


def _emit(expr: Expr, src: _Source) -> str:
    """The Python source of ``expr`` as nested calls of the helpers."""
    if isinstance(expr, Literal):
        return src.const(expr.value)
    if isinstance(expr, Parameter):
        return src.param(expr.index)
    if isinstance(expr, ColumnRef):
        return src.column(expr)
    if isinstance(expr, SUBQUERY_NODES):
        raise PlanningError(
            "subqueries must be resolved by the planner before compilation "
            "(standalone expression compilation does not execute SQL)"
        )
    if isinstance(expr, Aggregate):
        raise PlanningError(
            f"aggregate {expr!r} is only valid in SELECT or HAVING of a "
            f"grouped query"
        )
    args = [_emit(child, src) for child in children(expr)]
    negated = getattr(expr, "negated", False)
    if isinstance(expr, BinaryOp) and expr.op in _INLINE:
        text = _guarded(expr.op, [expr.left, expr.right], args, src)
    elif isinstance(expr, BinaryOp) and expr.op in _BINARY:
        text = f"{src.const(_BINARY[expr.op])}({args[0]}, {args[1]})"
    elif isinstance(expr, UnaryOp) and expr.op == "NOT":
        text, negated = args[0], True
    elif isinstance(expr, UnaryOp) and expr.op == "NEG":
        text = f"{src.const(_negate)}({args[0]})"
    elif isinstance(expr, IsNull):
        text = f"({args[0]} is {'not ' if negated else ''}None)"
        negated = False
    elif isinstance(expr, InList):
        items = "".join(f"{item}, " for item in args[1:])
        text = f"{src.const(_in_list)}({args[0]}, ({items}))"
    elif isinstance(expr, Between):
        text = f"{src.const(_between)}({', '.join(args)})"
    elif isinstance(expr, Like):
        match = src.const(like_to_regex(expr.pattern).match)
        text = f"{src.const(_like)}({args[0]}, {match})"
    elif isinstance(expr, InSet):
        values = src.const(expr.values)
        text = f"{src.const(_in_set)}({args[0]}, {values}, {expr.had_null!r})"
    else:
        raise PlanningError(f"cannot compile expression {expr!r}")
    return f"{src.const(_not3)}({text})" if negated else text


@functools.lru_cache(maxsize=1024)
def _factory(source: str):
    """The ``make(k0, k1, …)`` a source text defines, compiled once."""
    namespace = {"resolve": _params.resolve}
    exec(source, namespace)  # noqa: S102 - no value is spelled into source
    return namespace["make"]


def _compile(expr: Expr, schema: RowSchema, batch: bool, predicate: bool):
    """Wrap the emitted source in the row shell or the batch shell.

    ``?`` parameters are read once per call, ahead of the expression.
    The batch shell is one comprehension over the referenced columns
    only; a bare column reference is the batch's own list, not a copy.
    """
    src = _Source(schema, "c{}" if batch else "row[{}]")
    text = _emit(expr, src)
    if predicate:
        text = f"({text}) is True"  # NULL counts as not-satisfied
    if batch:
        positions = sorted(src.positions)
        names = [f"c{position}" for position in positions]
        columns = [f"batch.columns[{position}]" for position in positions]
        if text in names:
            text = columns[names.index(text)]
        elif len(names) > 1:
            text = f"[{text} for {', '.join(names)} in zip({', '.join(columns)})]"
        elif names:
            text = f"[{text} for {names[0]} in {columns[0]}]"
        else:
            text = f"[{text} for _ in range(batch.length)]"
    constants = ", ".join([f"k{i}" for i in range(len(src.constants))])
    binds = "".join([f"  p{i} = resolve({i})\n" for i in sorted(src.params)])
    source = (
        f"def make({constants}):\n"
        f" def fn({'batch' if batch else 'row'}):\n{binds}  return {text}\n"
        f" return fn\n"
    )
    return _factory(source)(*src.constants)


def compile_expr(expr: Expr, schema: RowSchema) -> RowFn:
    """Compile an expression to a row → value function."""
    return _compile(expr, schema, batch=False, predicate=False)


def compile_expr_batch(expr: Expr, schema: RowSchema) -> BatchFn:
    """Compile an expression to a batch → one value per row function."""
    return _compile(expr, schema, batch=True, predicate=False)


def compile_predicate_batch(expr: Expr, schema: RowSchema) -> BatchFn:
    """Batch predicate: a keep-mask where NULL counts as not-satisfied."""
    return _compile(expr, schema, batch=True, predicate=True)


# ----------------------------------------------------------------------
# AST utilities shared with the planner
# ----------------------------------------------------------------------
def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def referenced_columns(expr: Expr) -> set[ColumnRef]:
    """All column references occurring in an expression."""
    return {node for node in walk(expr) if isinstance(node, ColumnRef)}


def find_aggregates(expr: Expr) -> list[Aggregate]:
    """All aggregate calls in an expression, in discovery order."""
    if isinstance(expr, Aggregate):
        return [expr]  # aggregates do not nest
    return [agg for child in children(expr) for agg in find_aggregates(child)]


def substitute(expr: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Structurally replace subexpressions (used to rewrite aggregates)."""
    if expr in mapping:
        return mapping[expr]
    return map_children(expr, lambda child: substitute(child, mapping))
