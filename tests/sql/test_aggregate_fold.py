"""Property: column-at-a-time aggregation ≡ a row-wise fold, bit for bit.

``HashAggregateOp`` groups each batch's row positions by key once and
folds each group's slice of an argument column per aggregate. The
reference below feeds one value at a time into per-group accumulators,
the way SQL aggregation is usually written down. Over random group keys
(NULL keys included), int, float, mixed and NULL-bearing arguments,
every aggregate with and without DISTINCT, empty inputs and batch sizes
1, 7 and 256, the two must agree by ``repr`` — a float sum summed in a
different order, or compensated, differs in its last bits and fails.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql.ast_nodes import Aggregate, ColumnRef
from repro.sql.batch import transpose
from repro.sql.expressions import RowSchema
from repro.sql.operators import HashAggregateOp
from repro.sql.operators.base import PhysicalOp

SCHEMA = RowSchema([("t", "g1"), ("t", "g2"), ("t", "x")])
FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class Rows(PhysicalOp):
    """A leaf emitting fixed rows in batches of ``batch_size``."""

    def __init__(self, rows, batch_size):
        super().__init__(SCHEMA, [])
        self.rows = rows
        self.batch_size = batch_size

    def batches(self):
        for start in range(0, len(self.rows), self.batch_size):
            yield transpose(self.rows[start : start + self.batch_size])


# ----------------------------------------------------------------------
# reference: one value at a time
# ----------------------------------------------------------------------
class RowFold:
    def __init__(self, agg):
        self.agg = agg
        self.count = 0
        self.total = None
        self.best = None
        self.seen = set()

    def feed(self, value):
        agg = self.agg
        if agg.argument is None:
            self.count += 1
            return
        if value is None:
            return
        if agg.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        if agg.func in ("COUNT", "SUM", "AVG"):
            self.count += 1
        if agg.func in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif agg.func == "MIN" and (self.best is None or value < self.best):
            self.best = value
        elif agg.func == "MAX" and (self.best is None or value > self.best):
            self.best = value

    def result(self):
        func = self.agg.func
        if func == "COUNT":
            return self.count
        if func == "SUM":
            return self.total
        if func == "AVG":
            return None if self.count == 0 else self.total / self.count
        return self.best


def reference(rows, group_positions, aggregates):
    groups = {}
    for row in rows:
        key = tuple(row[i] for i in group_positions)
        states = groups.setdefault(key, [RowFold(agg) for agg in aggregates])
        for state in states:
            state.feed(row[2])
    if not groups and not group_positions:
        groups[()] = [RowFold(agg) for agg in aggregates]
    return [
        key + tuple(state.result() for state in states)
        for key, states in groups.items()
    ]


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
# small values tie across types (1 and 1.0), NaN compares false both
# ways: both make the order of a fold visible in its result
ints = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
floats = st.one_of(
    st.sampled_from([0.5, -1.0, 1.0, 2.0, float("nan"), float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
arguments = st.one_of(
    st.lists(st.one_of(ints, st.none()), max_size=60),
    st.lists(st.one_of(floats, st.none()), max_size=60),
    st.lists(st.one_of(ints, floats), max_size=60),
    st.lists(st.one_of(ints, floats, st.none()), max_size=60),
)
keys = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
aggregates = st.lists(
    st.builds(
        lambda func, star, distinct: Aggregate(
            "COUNT" if star else func,
            None if star else ColumnRef("x"),
            distinct and not star,
        ),
        st.sampled_from(FUNCS),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300)
@given(
    values=arguments,
    data=st.data(),
    aggs=aggregates,
    grouping=st.sampled_from([(), (0,), (0, 1)]),
    batch_size=st.sampled_from([1, 7, 256]),
)
def test_column_fold_is_the_row_fold(values, data, aggs, grouping, batch_size):
    rows = [(data.draw(keys), data.draw(keys), value) for value in values]
    group_exprs = [ColumnRef(("g1", "g2")[i]) for i in grouping]
    names = [f"g{i}" for i in grouping] + [f"a{i}" for i in range(len(aggs))]
    op = HashAggregateOp(Rows(rows, batch_size), group_exprs, aggs, names)
    expected, expected_error = None, None
    try:
        expected = reference(rows, grouping, aggs)
    except TypeError as exc:
        expected_error = exc
    try:
        got = [row for batch in op.batches() for row in batch.rows]
    except TypeError as exc:
        assert expected_error is not None, exc
        return
    assert expected_error is None
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("grouping", [(), (0,)])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_empty_input(grouping, batch_size):
    aggs = [Aggregate("COUNT", None), *(Aggregate(f, ColumnRef("x")) for f in FUNCS)]
    names = [f"g{i}" for i in grouping] + [f"a{i}" for i in range(len(aggs))]
    group_exprs = [ColumnRef("g1") for _ in grouping]
    op = HashAggregateOp(Rows([], batch_size), group_exprs, aggs, names)
    got = [row for batch in op.batches() for row in batch.rows]
    # a global aggregate answers one row over nothing; a grouped one none
    assert got == ([] if grouping else [(0, 0, None, None, None, None)])


@pytest.mark.parametrize("func", ["MIN", "MAX"])
def test_min_max_carry_their_best_into_the_next_batch(func):
    """A later batch opening with NaN must not hide a better value
    after it: the fold starts from the running best, as a row-wise one."""
    better = 1.0 if func == "MIN" else 9.0
    rows = [(None, None, v) for v in (5.0, 5.0, float("nan"), better)]
    for batch_size in (1, 2, 3):
        op = HashAggregateOp(
            Rows(rows, batch_size), [], [Aggregate(func, ColumnRef("x"))], ["m"]
        )
        got = [row for batch in op.batches() for row in batch.rows]
        assert repr(got) == repr(reference(rows, (), op.aggregates))


def test_a_float_sum_is_folded_left_to_right_not_compensated():
    """``sum()`` compensates float error from CPython 3.12 on; the fold
    must give the plain left-to-right total, batch after batch."""
    values = [1e16, 1.0, -1e16, 1.0] * 5
    rows = [(None, None, v) for v in values]
    expected = 0.0
    for v in values:
        expected += v
    for batch_size in (1, 3, 256):
        op = HashAggregateOp(
            Rows(rows, batch_size), [], [Aggregate("SUM", ColumnRef("x"))], ["s"]
        )
        (got,) = [row for batch in op.batches() for row in batch.rows]
        assert repr(got) == repr((expected,))
