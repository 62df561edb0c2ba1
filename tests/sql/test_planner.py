"""Unit tests for the planner: access paths, joins, aggregation rewrites."""

import pytest

from repro.catalog.catalog import Catalog, TableInfo
from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.errors import PlanningError
from repro.sql.operators import (
    FilterOp,
    FusedScanFilterProjectOp,
    HashAggregateOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PointLookupOp,
    ProjectOp,
    RangeScanOp,
    SeqScanOp,
    SortOp,
)
from repro.sql.parser import parse_statement
from repro.sql.planner import Planner
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable
from repro.workloads import tpch


@pytest.fixture
def planner():
    catalog = Catalog()
    engine = StorageEngine()
    for name, columns, pk, chains in (
        (
            "orders",
            [
                Column("o_id", IntegerType()),
                Column("o_cust", IntegerType(), nullable=False),
                Column("o_total", IntegerType()),
            ],
            "o_id",
            ("o_cust",),
        ),
        (
            "customers",
            [
                Column("c_id", IntegerType()),
                Column("c_name", TextType()),
            ],
            "c_id",
            (),
        ),
    ):
        schema = Schema(columns=columns, primary_key=pk, chain_columns=chains)
        catalog.register(
            TableInfo(name, schema, VerifiableTable(name, schema, engine))
        )
    return Planner(catalog)


def plan(planner, sql, hint=None):
    return planner.plan_select(parse_statement(sql), hint)


def ops_of(root, cls):
    return [op for op in root.walk() if isinstance(op, cls)]


def test_pk_equality_uses_point_lookup(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_id = 5")
    assert ops_of(root, PointLookupOp)
    assert not ops_of(root, SeqScanOp)


@pytest.mark.parametrize(
    "sql, columns",
    [
        # the key read only by the absorbed equality is not emitted
        ("SELECT o_total FROM orders WHERE o_id = ?", ("o_total",)),
        ("SELECT o_total, o_cust FROM orders WHERE o_id = ?", ("o_cust", "o_total")),
        ("SELECT o_id, o_cust, o_total FROM orders WHERE o_id = 5", None),
        ("SELECT o_id FROM orders WHERE o_id = 5", ("o_id",)),
        ("SELECT COUNT(*) FROM orders WHERE o_id = 5", ()),
        ("SELECT * FROM orders WHERE o_id = 5", None),
    ],
)
def test_point_lookup_emits_only_what_the_statement_reads(planner, sql, columns):
    (lookup,) = ops_of(plan(planner, sql), PointLookupOp)
    assert lookup.columns == columns


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT o_total FROM orders WHERE o_id = ?",
        "SELECT o_id, o_cust, o_total FROM orders WHERE o_id = 5",
        "SELECT orders.o_total FROM orders WHERE o_id = 5 LIMIT 1",
    ],
)
def test_point_lookup_answering_the_select_list_is_not_projected(planner, sql):
    root = plan(planner, sql)
    assert not ops_of(root, ProjectOp)
    (lookup,) = ops_of(root, PointLookupOp)
    assert root.output.names == lookup.output.names


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT o_total AS t FROM orders WHERE o_id = 5",
        "SELECT o_cust, o_total, o_id FROM orders WHERE o_id = 5",
        "SELECT o_total + 1 FROM orders WHERE o_id = 5",
        "SELECT o_total, o_total FROM orders WHERE o_id = 5",
    ],
)
def test_point_lookup_keeps_a_projection_that_reshapes(planner, sql):
    assert ops_of(plan(planner, sql), ProjectOp)


def test_chained_range_uses_range_scan(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_cust BETWEEN 1 AND 9")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.column == "o_cust"
    assert (scan.lo, scan.hi) == (1, 9)


def test_combined_bounds_tightest_wins(planner):
    root = plan(
        planner,
        "SELECT * FROM orders WHERE o_id >= 3 AND o_id > 4 AND o_id <= 20 "
        "AND o_id < 15",
    )
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.lo == 4 and not scan.include_lo
    assert scan.hi == 15 and not scan.include_hi


def test_reversed_literal_comparison_is_sargable(planner):
    root = plan(planner, "SELECT * FROM orders WHERE 5 <= o_id")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.lo == 5 and scan.include_lo


def test_unchained_predicate_residual_filter(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_total > 100")
    assert ops_of(root, SeqScanOp)
    # the residual predicate lands in the fused scan→filter pipeline
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    assert fused.predicates


def test_pk_equality_beats_secondary_equality(planner):
    root = plan(
        planner, "SELECT * FROM orders WHERE o_cust = 7 AND o_id = 3"
    )
    assert ops_of(root, PointLookupOp)


def test_secondary_equality_is_point_range(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_cust = 7")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.lo == scan.hi == 7


def test_join_default_index_nl_on_pk(planner):
    root = plan(
        planner,
        "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust = c.c_id",
    )
    assert ops_of(root, IndexNestedLoopJoinOp)


def test_join_hints(planner):
    sql = "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust = c.c_id"
    assert ops_of(plan(planner, sql, "merge"), MergeJoinOp)
    assert ops_of(plan(planner, sql, "hash"), HashJoinOp)
    assert ops_of(plan(planner, sql, "nested_loop"), NestedLoopJoinOp)
    assert ops_of(plan(planner, sql, "index_nl"), IndexNestedLoopJoinOp)


def test_bad_hint_rejected(planner):
    with pytest.raises(PlanningError):
        plan(planner, "SELECT * FROM orders", "zigzag")


def test_index_nl_requires_pk_equality(planner):
    with pytest.raises(PlanningError):
        plan(
            planner,
            "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust > c.c_id",
            "index_nl",
        )


def test_non_equi_join_is_nested_loop(planner):
    root = plan(
        planner,
        "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust > c.c_id",
    )
    assert ops_of(root, NestedLoopJoinOp)


def test_single_table_predicates_pushed_below_join(planner):
    root = plan(
        planner,
        "SELECT o.o_id FROM orders o, customers c "
        "WHERE o.o_cust = c.c_id AND o.o_id BETWEEN 1 AND 5",
        "hash",
    )
    (join,) = ops_of(root, HashJoinOp)
    # the orders side under the join is a range scan, not a post-filter
    assert ops_of(join.children[0], RangeScanOp)


def test_duplicate_binding_rejected(planner):
    with pytest.raises(PlanningError):
        plan(planner, "SELECT * FROM orders o, customers o")


def test_aggregation_rewrite(planner):
    root = plan(
        planner,
        "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust "
        "HAVING SUM(o_total) > 10 ORDER BY SUM(o_total) DESC",
    )
    (agg,) = ops_of(root, HashAggregateOp)
    assert len(agg.aggregates) == 1  # deduplicated across SELECT/HAVING/ORDER
    assert ops_of(root, FilterOp)  # HAVING became a filter above the agg


def test_group_by_constant_condition_stays_top(planner):
    root = plan(planner, "SELECT o_id FROM orders WHERE 1 = 1")
    # the constant predicate fuses with the projection over the scan
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    assert fused.predicates and fused.exprs is not None


def test_explain_mentions_access_path(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_id = 1")
    assert "IndexSearch" in root.explain()


# ----------------------------------------------------------------------
# projection pushdown: scans emit what the statement reads
# ----------------------------------------------------------------------
def scan_columns(root):
    return {
        op.binding: op.columns for op in ops_of(root, (SeqScanOp, RangeScanOp))
    }


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT o_total FROM orders", {"orders": ("o_total",)}),
        # a bound the range scan absorbed reads nothing at run time ...
        (
            "SELECT o_total FROM orders WHERE o_cust > 3",
            {"orders": ("o_total",)},
        ),
        # ... while WHERE (a parameter bound stays a filter), GROUP BY,
        # HAVING and ORDER BY references all count
        (
            "SELECT o_total FROM orders WHERE o_cust > ?",
            {"orders": ("o_cust", "o_total")},
        ),
        (
            "SELECT COUNT(*) FROM orders GROUP BY o_cust HAVING MAX(o_total) > 1",
            {"orders": ("o_cust", "o_total")},
        ),
        ("SELECT o_cust FROM orders ORDER BY o_total", {"orders": ("o_cust", "o_total")}),
        # an ORDER BY name that is a select-list output is not a column read
        ("SELECT o_cust AS o_total FROM orders ORDER BY o_total", {"orders": ("o_cust",)}),
        ("SELECT COUNT(*) FROM orders", {"orders": ()}),
        # every column read, or *: the scan is not narrowed at all
        ("SELECT o_total, o_cust, o_id FROM orders", {"orders": None}),
        ("SELECT * FROM orders WHERE o_cust = 2", {"orders": None}),
        # per binding, join keys included
        (
            "SELECT c.c_name FROM orders AS o, customers AS c "
            "WHERE o.o_total = c.c_id + 1",
            {"o": ("o_total",), "c": None},
        ),
        (
            "SELECT a.o_id FROM orders AS a LEFT JOIN orders AS b "
            "ON a.o_total = b.o_total",
            {"a": ("o_id", "o_total"), "b": ("o_total",)},
        ),
    ],
)
def test_scans_emit_only_referenced_columns(planner, sql, expected):
    root = plan(planner, sql)
    assert scan_columns(root) == expected
    for op in ops_of(root, (SeqScanOp, RangeScanOp)):
        wanted = op.table.schema.column_names if op.columns is None else op.columns
        assert tuple(op.output.names) == tuple(wanted)


def test_explain_shows_projection_only_when_narrower(planner):
    narrow = plan(planner, "SELECT o_total FROM orders WHERE o_cust BETWEEN 1 AND 5")
    line = next(l for l in narrow.explain().splitlines() if "RangeScan(" in l)
    assert line.strip().startswith("RangeScan(orders as orders, o_cust in [1, 5]")
    assert line.endswith(", cols=[o_total])")
    wide = plan(planner, "SELECT * FROM orders")
    assert wide.explain().strip() == "SeqScan(orders as orders)"


@pytest.fixture
def tpch_planner():
    catalog = Catalog()
    engine = StorageEngine()
    for name, schema in (
        ("lineitem", tpch.lineitem_schema()),
        ("part", tpch.part_schema()),
    ):
        catalog.register(TableInfo(name, schema, VerifiableTable(name, schema, engine)))
    return Planner(catalog)


def range_scan_line(root):
    return next(l for l in root.explain().splitlines() if "RangeScan(" in l).strip()


@pytest.mark.parametrize("query", ["Q1", "Q6"])
def test_absorbed_shipdate_bounds_leave_shipdate_unprojected(tpch_planner, query):
    root = plan(tpch_planner, tpch.QUERIES[query])
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.column == "l_shipdate"
    assert "l_shipdate" not in scan.columns
    # the chain order is not advertised for a column the scan drops
    assert scan.ordering == []
    line = range_scan_line(root)
    assert "cols=[" in line and "l_shipdate" not in line.split("cols=")[1]


def test_order_by_the_range_column_keeps_it_and_its_order(tpch_planner):
    root = plan(
        tpch_planner,
        "SELECT l_id FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
        "ORDER BY l_shipdate",
    )
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.columns == ("l_id", "l_shipdate")
    assert range_scan_line(root).endswith("cols=[l_id, l_shipdate])")
    assert not ops_of(root, SortOp)  # the chain order still serves the sort


@pytest.mark.parametrize(
    "where, kept",
    [
        ("o_cust = 4", False),  # an equality on a secondary chain
        ("o_cust >= 1 AND o_cust < 9", False),
        ("o_cust BETWEEN 1 AND 9 AND o_cust < 5", False),  # bounds intersect exactly
        ("o_cust > 1 AND o_cust != 4", True),  # a filter reads it
        ("o_cust = 4 AND o_cust = 5", True),  # the second equality is a filter
        ("o_cust > 1 AND o_total > o_cust", True),
        ("o_id = 5 AND o_id > 3", True),  # the point lookup's key, read by a filter
    ],
)
def test_a_column_is_dropped_only_when_absorbed_bounds_are_its_only_readers(
    planner, where, kept
):
    root = plan(planner, f"SELECT o_total FROM orders WHERE {where}")
    (access,) = ops_of(root, (RangeScanOp, PointLookupOp))
    column = "o_id" if isinstance(access, PointLookupOp) else "o_cust"
    assert (column in access.columns) == kept


def test_dml_filters_scan_every_column(planner):
    root = planner.plan_table_filter(
        "orders", parse_statement("SELECT 1 FROM orders WHERE o_total = 3").where
    )
    assert scan_columns(root) == {"orders": None}


def test_unknown_column_still_a_planning_error(planner):
    for sql in (
        "SELECT nope FROM orders",
        "SELECT o_id FROM orders ORDER BY nope",
        "SELECT o.o_id FROM orders AS o, customers AS c WHERE o_id = nope",
    ):
        with pytest.raises(PlanningError):
            plan(planner, sql)


# ----------------------------------------------------------------------
# access paths chosen by what they read (SEQ_SCAN_SHARE)
# ----------------------------------------------------------------------
def orders_planner(n_rows):
    """A planner over ``orders`` holding ``n_rows`` rows, ``o_cust``
    uniform over 0..99: a range's share of the table is its width/100."""
    catalog = Catalog()
    schema = Schema(
        columns=[
            Column("o_id", IntegerType()),
            Column("o_cust", IntegerType(), nullable=False),
            Column("o_total", IntegerType()),
        ],
        primary_key="o_id",
        chain_columns=("o_cust",),
    )
    table = VerifiableTable("orders", schema, StorageEngine())
    table.insert_many((i, i % 100, i) for i in range(n_rows))
    catalog.register(TableInfo("orders", schema, table))
    return Planner(catalog), table


@pytest.fixture(scope="module")
def wide_planner():
    planner, table = orders_planner(2000)
    assert table.page_count() > 1
    return planner


def test_a_wide_literal_range_scans_the_primary_chain_and_filters(wide_planner):
    root = plan(wide_planner, "SELECT o_total FROM orders WHERE o_cust >= 10")
    assert not ops_of(root, RangeScanOp)
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    (scan,) = fused.children
    assert isinstance(scan, SeqScanOp)
    assert scan.columns == ("o_cust", "o_total")  # the bound is read again
    assert scan.chosen_over == ("o_cust", pytest.approx(0.9))
    assert [repr(p) for p in fused.predicates] == ["(orders.o_cust >= Lit(10))"]
    assert scan.describe() == (
        "SeqScan(orders as orders, cols=[o_cust, o_total], over o_cust range ~90%)"
    )


def test_a_narrow_literal_range_keeps_the_range_scan(wide_planner):
    root = plan(wide_planner, "SELECT o_total FROM orders WHERE o_cust BETWEEN 10 AND 80")
    (scan,) = ops_of(root, RangeScanOp)
    assert (scan.column, scan.lo, scan.hi) == ("o_cust", 10, 80)


@pytest.mark.parametrize("limit", ["", " LIMIT 5"])
def test_order_by_the_chained_column_keeps_the_range_scan(wide_planner, limit):
    root = plan(
        wide_planner,
        f"SELECT o_cust, o_total FROM orders WHERE o_cust >= 10 ORDER BY o_cust{limit}",
    )
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.column == "o_cust"
    assert not ops_of(root, SortOp)  # the chain order serves the sort


def test_a_primary_key_range_never_switches(wide_planner):
    root = plan(wide_planner, "SELECT o_total FROM orders WHERE o_id >= 10")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.column == "o_id"


def test_a_one_page_table_keeps_its_plan():
    planner, table = orders_planner(20)
    assert table.page_count() == 1
    root = plan(planner, "SELECT o_total FROM orders WHERE o_cust >= 0")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.column == "o_cust"


def test_a_dml_filter_over_a_wide_range_scans_and_filters(wide_planner):
    where = parse_statement("SELECT 1 FROM orders WHERE o_cust < 95").where
    root = wide_planner.plan_table_filter("orders", where)
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    (scan,) = fused.children
    assert isinstance(scan, SeqScanOp) and scan.columns is None
    assert scan.chosen_over[0] == "o_cust"


def test_parameter_bounds_cover_the_whole_table(wide_planner):
    """``?`` bounds are never scan bounds, so the range an index could
    serve is (⊥, ⊤): the planner reads it in primary-chain order."""
    root = plan(
        wide_planner, "SELECT COUNT(*) FROM orders WHERE o_cust >= ? AND o_cust < ?"
    )
    assert not ops_of(root, RangeScanOp)
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    assert isinstance(fused.children[0], SeqScanOp)
    assert len(fused.predicates) == 2
