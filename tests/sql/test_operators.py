"""Unit tests for individual volcano operators."""

import pytest

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.obs import TraceContext
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Literal,
    OrderItem,
)
from repro.sql.batch import transpose
from repro.sql.expressions import RowSchema
from repro.sql.operators import (
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    LimitOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PhysicalOp,
    PointLookupOp,
    ProjectOp,
    RangeScanOp,
    SeqScanOp,
    SortOp,
)
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


class RowsOp(PhysicalOp):
    """Test double feeding fixed rows."""

    def __init__(self, bindings, rows):
        super().__init__(RowSchema(bindings), [])
        self.rows = rows

    def batches(self):
        if self.rows:
            yield transpose(self.rows)


def drain(op):
    """The operator's output rows, pulled through the timed protocol."""
    return [row for batch in op.timed_batches() for row in batch.rows]


def make_table():
    schema = Schema(
        columns=[
            Column("id", IntegerType()),
            Column("v", IntegerType(), nullable=False),
            Column("s", TextType()),
        ],
        primary_key="id",
        chain_columns=("v",),
    )
    table = VerifiableTable("t", schema, StorageEngine())
    for i in range(1, 11):
        table.insert((i, i * 10, f"s{i}"))
    return table


# ----------------------------------------------------------------------
# leaf scans
# ----------------------------------------------------------------------
def test_seq_scan():
    op = SeqScanOp(make_table(), "t")
    with TraceContext(qid="seq-scan") as trace:
        rows = drain(op)
    assert len(rows) == 10
    assert trace.op_stats(op).rows_out == 10
    assert op.is_scan
    assert "SeqScan" in op.describe()


def test_range_scan_bounds():
    table = make_table()
    op = RangeScanOp(table, "t", "v", lo=30, hi=50)
    assert [r[0] for r in drain(op)] == [3, 4, 5]
    op = RangeScanOp(table, "t", "v", lo=30, hi=50, include_lo=False)
    assert [r[0] for r in drain(op)] == [4, 5]


def test_point_lookup_hit_and_miss():
    table = make_table()
    assert drain(PointLookupOp(table, "t", 7)) == [(7, 70, "s7")]
    assert drain(PointLookupOp(table, "t", 99)) == []


# ----------------------------------------------------------------------
# filter / project / sort / limit
# ----------------------------------------------------------------------
def test_filter():
    src = RowsOp([(None, "x")], [(1,), (2,), (3,)])
    op = FilterOp(src, BinaryOp(">", ColumnRef("x"), Literal(1)))
    assert drain(op) == [(2,), (3,)]


def test_project():
    src = RowsOp([(None, "a"), (None, "b")], [(1, 2), (3, 4)])
    op = ProjectOp(
        src,
        [BinaryOp("+", ColumnRef("a"), ColumnRef("b")), ColumnRef("a")],
        ["total", "a"],
    )
    assert drain(op) == [(3, 1), (7, 3)]
    assert op.output.names == ["total", "a"]


def test_sort_multi_key():
    src = RowsOp(
        [(None, "a"), (None, "b")], [(1, "z"), (2, "a"), (1, "a")]
    )
    op = SortOp(
        src,
        [
            OrderItem(ColumnRef("a"), ascending=True),
            OrderItem(ColumnRef("b"), ascending=False),
        ],
    )
    assert drain(op) == [(1, "z"), (1, "a"), (2, "a")]


def test_sort_nulls_first_ascending():
    src = RowsOp([(None, "a")], [(2,), (None,), (1,)])
    op = SortOp(src, [OrderItem(ColumnRef("a"))])
    assert drain(op) == [(None,), (1,), (2,)]


def test_limit():
    src = RowsOp([(None, "a")], [(i,) for i in range(10)])
    assert len(drain(LimitOp(src, 3))) == 3
    assert drain(LimitOp(RowsOp([(None, "a")], []), 3)) == []
    assert drain(LimitOp(RowsOp([(None, "a")], [(1,)]), 0)) == []


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def _join_inputs():
    left = RowsOp(
        [("l", "k"), ("l", "x")], [(1, "a"), (2, "b"), (2, "bb"), (3, "c")]
    )
    right = RowsOp([("r", "k"), ("r", "y")], [(2, "B"), (3, "C"), (4, "D")])
    keys = ([ColumnRef("k", "l")], [ColumnRef("k", "r")])
    return left, right, keys


@pytest.mark.parametrize("cls", [NestedLoopJoinOp, MergeJoinOp, HashJoinOp])
def test_equi_joins_agree(cls):
    left, right, (lk, rk) = _join_inputs()
    op = cls(left, right, lk, rk, None)
    rows = sorted(drain(op))
    assert rows == [
        (2, "b", 2, "B"),
        (2, "bb", 2, "B"),
        (3, "c", 3, "C"),
    ]


def test_join_residual_predicate():
    left, right, (lk, rk) = _join_inputs()
    residual = BinaryOp("=", ColumnRef("x", "l"), Literal("b"))
    op = HashJoinOp(left, right, lk, rk, residual)
    assert drain(op) == [(2, "b", 2, "B")]


def test_cross_join():
    left = RowsOp([("l", "a")], [(1,), (2,)])
    right = RowsOp([("r", "b")], [(10,), (20,)])
    op = NestedLoopJoinOp(left, right, [], [], None)
    assert len(drain(op)) == 4


def test_merge_join_requires_keys():
    left = RowsOp([("l", "a")], [(1,)])
    right = RowsOp([("r", "b")], [(1,)])
    op = MergeJoinOp(left, right, [], [], None)
    with pytest.raises(ValueError):
        drain(op)


def test_index_nl_join():
    table = make_table()
    outer = RowsOp([("o", "ref")], [(3,), (99,), (5,), (None,)])
    op = IndexNestedLoopJoinOp(outer, table, "t", ColumnRef("ref", "o"), None)
    with TraceContext(qid="inl-join") as trace:
        rows = drain(op)
    assert rows == [(3, 3, 30, "s3"), (5, 5, 50, "s5")]
    frame = trace.op_stats(op)
    assert 0 < frame.inner_seconds <= frame.self_seconds
    assert drain(op) == rows  # and the same answer with no ledger


def test_duplicate_groups_merge_join():
    left = RowsOp([("l", "k")], [(1,), (1,), (1,)])
    right = RowsOp([("r", "k")], [(1,), (1,)])
    op = MergeJoinOp(
        left, right, [ColumnRef("k", "l")], [ColumnRef("k", "r")], None
    )
    assert len(drain(op)) == 6


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_hash_aggregate_grouped():
    src = RowsOp(
        [(None, "g"), (None, "v")],
        [(1, 10), (2, 5), (1, 30), (2, None)],
    )
    op = HashAggregateOp(
        src,
        [ColumnRef("g")],
        [
            Aggregate("SUM", ColumnRef("v")),
            Aggregate("COUNT", None),
            Aggregate("COUNT", ColumnRef("v")),
            Aggregate("AVG", ColumnRef("v")),
            Aggregate("MIN", ColumnRef("v")),
            Aggregate("MAX", ColumnRef("v")),
        ],
        ["g", "s", "cstar", "cv", "avg", "mn", "mx"],
    )
    rows = {row[0]: row[1:] for row in drain(op)}
    assert rows[1] == (40, 2, 2, 20.0, 10, 30)
    # NULL skipped by SUM/COUNT(v)/AVG but counted by COUNT(*)
    assert rows[2] == (5, 2, 1, 5.0, 5, 5)


def test_hash_aggregate_global_empty_input():
    src = RowsOp([(None, "v")], [])
    op = HashAggregateOp(
        src,
        [],
        [Aggregate("COUNT", None), Aggregate("SUM", ColumnRef("v"))],
        ["c", "s"],
    )
    assert drain(op) == [(0, None)]


def test_hash_aggregate_distinct():
    src = RowsOp([(None, "v")], [(1,), (1,), (2,)])
    op = HashAggregateOp(
        src,
        [],
        [
            Aggregate("COUNT", ColumnRef("v"), distinct=True),
            Aggregate("SUM", ColumnRef("v"), distinct=True),
        ],
        ["c", "s"],
    )
    assert drain(op) == [(2, 3)]


def test_aggregate_arity_check():
    src = RowsOp([(None, "v")], [])
    from repro.errors import PlanningError

    with pytest.raises(PlanningError):
        HashAggregateOp(src, [], [Aggregate("COUNT", None)], ["a", "b"])


# ----------------------------------------------------------------------
# timing / tree utilities
# ----------------------------------------------------------------------
def test_self_seconds_nesting():
    table = make_table()
    scan = SeqScanOp(table, "t")
    filter_op = FilterOp(scan, BinaryOp(">", ColumnRef("v"), Literal(0)))
    project = ProjectOp(filter_op, [ColumnRef("id")], ["id"])
    with TraceContext(qid="nesting") as trace:
        rows = drain(project)
    assert len(rows) == 10
    frames = [trace.op_stats(op) for op in (scan, filter_op, project)]
    # a child's lap is taken out of its parent's own share as it ends,
    # so the own shares telescope to the top node's inclusive time...
    assert sum(f.wall_seconds for f in frames) == pytest.approx(
        frames[-1].total_seconds
    )
    assert all(f.wall_seconds >= 0 for f in frames)
    assert frames[0].total_seconds <= frames[1].total_seconds <= frames[2].total_seconds
    # ...and with the root's remainder, to the context's elapsed time
    assert sum(f.wall_seconds for f in trace.frames()) == pytest.approx(trace.elapsed)


def test_explain_tree():
    table = make_table()
    plan = FilterOp(
        SeqScanOp(table, "t"), BinaryOp(">", ColumnRef("v"), Literal(0))
    )
    text = plan.explain()
    assert "Filter" in text.splitlines()[0]
    assert "SeqScan" in text.splitlines()[1]
