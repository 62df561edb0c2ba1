"""The single expression compiler: both shells against a reference.

``compile_expr`` (row shell) and ``compile_expr_batch`` (batch shell)
wrap one emitted source text, so they cannot disagree with each other;
what can still go wrong is the emitter itself. The property here checks
both shells, on both batch backings, against a small interpreter kept
in this file that states the engine's NULL semantics independently.
The completeness test fails when an ``Expr`` subclass is added without
the traversals and the emitter being able to handle it.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanningError
from repro.sql import params as sql_params
from repro.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    ExistsSubquery,
    Expr,
    InList,
    InSet,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Parameter,
    ScalarSubquery,
    Select,
    TableRef,
    UnaryOp,
    children,
    map_children,
    walk,
)
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import (
    RowSchema,
    compile_expr,
    compile_expr_batch,
    compile_predicate_batch,
)

SCHEMA = RowSchema([("t", "i"), ("t", "f"), ("t", "s"), ("t", "j")])
PARAMS = (3, "a%b", None)  # ?1 numeric, ?2 text, ?3 NULL


# ----------------------------------------------------------------------
# reference interpreter
# ----------------------------------------------------------------------
def like(value, pattern):
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.fullmatch(regex, value, re.DOTALL) is not None


def negate(value, negated):
    return (not value) if negated and value is not None else value


def reference(expr, row):
    """Evaluate ``expr`` over one row the slow, obvious way."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Parameter):
        return PARAMS[expr.index]
    if isinstance(expr, ColumnRef):
        return row[SCHEMA.resolve(expr)]
    if isinstance(expr, BinaryOp):
        a, b = reference(expr.left, row), reference(expr.right, row)
        if expr.op == "AND":
            if a is False or b is False:
                return False
            return None if a is None or b is None else True
        if expr.op == "OR":
            if a is True or b is True:
                return True
            return None if a is None or b is None else False
        if a is None or b is None:
            return None
        if expr.op == "/":
            if b == 0:
                raise ZeroDivisionError
            exact = isinstance(a, int) and isinstance(b, int) and a % b == 0
            return a // b if exact else a / b
        return {
            "+": lambda: a + b,
            "-": lambda: a - b,
            "*": lambda: a * b,
            "%": lambda: a % b,
            "=": lambda: a == b,
            "!=": lambda: a != b,
            "<": lambda: a < b,
            "<=": lambda: a <= b,
            ">": lambda: a > b,
            ">=": lambda: a >= b,
        }[expr.op]()
    if isinstance(expr, UnaryOp):
        value = reference(expr.operand, row)
        if expr.op == "NOT":
            return negate(value, True)
        return None if value is None else -value
    if isinstance(expr, IsNull):
        return (reference(expr.operand, row) is None) != expr.negated
    if isinstance(expr, InList):
        value = reference(expr.operand, row)
        items = [reference(item, row) for item in expr.items]
        if value is None:
            return None
        return negate(any(value == item for item in items), expr.negated)
    if isinstance(expr, Between):
        value, low, high = (
            reference(e, row) for e in (expr.operand, expr.low, expr.high)
        )
        if value is None or low is None or high is None:
            return None
        return negate(low <= value <= high, expr.negated)
    if isinstance(expr, Like):
        value = reference(expr.operand, row)
        if value is None:
            return None
        return negate(like(value, expr.pattern), expr.negated)
    if isinstance(expr, InSet):
        value = reference(expr.operand, row)
        if value is None:
            return None
        if value in expr.values:
            return negate(True, expr.negated)
        return None if expr.had_null else negate(False, expr.negated)
    raise AssertionError(f"reference interpreter has no case for {expr!r}")


# ----------------------------------------------------------------------
# random well-typed trees
# ----------------------------------------------------------------------
ints = st.integers(-4, 4)
floats = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.25])
texts = st.sampled_from(["", "a", "ab", "a%b", "a.b", "a_b", "a\nb", "(a|b)*"])
patterns = st.sampled_from(["%", "a%", "%b", "a_b", "a.b", "a%b", "(a|b)*", "_", ""])
negated = st.booleans()

numeric_leaf = st.one_of(
    st.builds(Literal, st.one_of(ints, floats, st.none())),
    st.sampled_from(
        [ColumnRef("i"), ColumnRef("f", "t"), ColumnRef("j"), Parameter(0), Parameter(2)]
    ),
)
text_leaf = st.one_of(
    st.builds(Literal, st.one_of(texts, st.none())),
    st.sampled_from([ColumnRef("s"), Parameter(1), Parameter(2)]),
)


def numeric_nodes(inner):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/%"), inner, inner),
        st.builds(UnaryOp, st.just("NEG"), inner),
    )


numeric = st.recursive(numeric_leaf, numeric_nodes, max_leaves=6)


def comparisons(operand, values):
    return st.one_of(
        st.builds(
            BinaryOp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), operand, operand
        ),
        st.builds(IsNull, operand, negated),
        st.builds(InList, operand, st.lists(operand, max_size=3).map(tuple), negated),
        st.builds(Between, operand, operand, operand, negated),
        st.builds(
            InSet, operand, st.frozensets(values, max_size=3), st.booleans(), negated
        ),
    )


boolean_leaf = st.one_of(
    st.builds(Literal, st.sampled_from([True, False, None])),
    comparisons(numeric, st.one_of(ints, floats)),
    comparisons(text_leaf, texts),
    st.builds(Like, text_leaf, patterns, negated),
)


def boolean_nodes(inner):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(["AND", "OR"]), inner, inner),
        st.builds(UnaryOp, st.just("NOT"), inner),
    )


boolean = st.recursive(boolean_leaf, boolean_nodes, max_leaves=5)

rows = st.lists(
    st.tuples(
        st.one_of(ints, st.none()),
        st.one_of(floats, st.none()),
        st.one_of(texts, st.none()),
        st.one_of(ints, st.none()),
    ),
    min_size=1,
    max_size=6,
)


def outcome(thunk):
    """A comparable record of what evaluating did: value and type, or error."""
    try:
        value = thunk()
    except ZeroDivisionError:
        return "division by zero"
    return (type(value).__name__, value)


def batch_outcomes(fn, batch, expected):
    """Per-row outcomes of a batch function; an error fails the whole batch."""
    try:
        values = fn(batch)
    except ZeroDivisionError:
        assert "division by zero" in expected
        return expected
    return [(type(value).__name__, value) for value in values]


@settings(max_examples=300)
@given(expr=st.one_of(numeric, boolean), table=rows)
def test_row_and_batch_shells_match_the_reference(expr, table):
    row_fn = compile_expr(expr, SCHEMA)
    batch_fn = compile_expr_batch(expr, SCHEMA)
    keep_batch = compile_predicate_batch(expr, SCHEMA)
    expected = [outcome(lambda: reference(expr, row)) for row in table]
    keep = [value == ("bool", True) for value in expected]
    token = sql_params.bind(PARAMS)
    try:
        assert [outcome(lambda: row_fn(row)) for row in table] == expected
        batch = ColumnBatch([list(column) for column in zip(*table)], len(table))
        assert batch_outcomes(batch_fn, batch, expected) == expected
        if "division by zero" not in expected:
            assert keep_batch(batch) == keep
    finally:
        sql_params.unbind(token)


def test_a_bare_column_is_the_batch_s_own_list():
    batch = ColumnBatch([[1, 2], [3, 4]], 2)
    assert compile_expr_batch(ColumnRef("f"), SCHEMA)(batch) is batch.columns[1]


def test_parameters_are_read_at_call_time():
    fn = compile_expr(BinaryOp("+", Parameter(0), ColumnRef("i")), SCHEMA)
    for value in (10, 20):
        token = sql_params.bind((value,))
        assert fn((1, None, None, None)) == value + 1
        sql_params.unbind(token)


# ----------------------------------------------------------------------
# completeness: every Expr subclass is traversed and compiled
# ----------------------------------------------------------------------
A, B, C = ColumnRef("i"), ColumnRef("f"), ColumnRef("j")
SUBSELECT = Select(items=[], tables=[TableRef("u")], star=True)

#: one instance per Expr subclass, with the children it must report
SAMPLES = {
    Literal: (Literal(1), []),
    Parameter: (Parameter(0), []),
    ColumnRef: (A, []),
    BinaryOp: (BinaryOp("+", A, B), [A, B]),
    UnaryOp: (UnaryOp("NEG", A), [A]),
    IsNull: (IsNull(A), [A]),
    InList: (InList(A, (B, C)), [A, B, C]),
    Between: (Between(A, B, C), [A, B, C]),
    Like: (Like(ColumnRef("s"), "a%"), [ColumnRef("s")]),
    Aggregate: (Aggregate("SUM", A), [A]),
    ScalarSubquery: (ScalarSubquery(SUBSELECT), []),
    InSubquery: (InSubquery(A, SUBSELECT), [A]),
    ExistsSubquery: (ExistsSubquery(SUBSELECT), []),
    InSet: (InSet(A, frozenset({1}), False), [A]),
}
#: nodes the planner rewrites away before compilation
NOT_COMPILED = (Aggregate, ScalarSubquery, InSubquery, ExistsSubquery)


def test_every_expr_subclass_has_a_sample():
    assert set(SAMPLES) == set(Expr.__subclasses__())


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda cls: cls.__name__))
def test_expr_subclass_is_traversed_and_compiled(cls):
    sample, expected_children = SAMPLES[cls]
    assert dataclasses.is_dataclass(cls)
    assert children(sample) == expected_children
    assert list(walk(sample))[0] is sample
    marker = Literal("mapped")
    rebuilt = map_children(sample, lambda child: marker)
    assert type(rebuilt) is cls
    assert children(rebuilt) == [marker] * len(expected_children)
    if not expected_children:
        assert rebuilt is sample
    for compiler in (compile_expr, compile_expr_batch):
        if cls in NOT_COMPILED:
            with pytest.raises(PlanningError) as raised:
                compiler(sample, SCHEMA)
            assert "cannot compile" not in str(raised.value)
        else:
            assert callable(compiler(sample, SCHEMA))
