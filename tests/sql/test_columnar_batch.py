"""ColumnBatch unit tests and the fused-pipeline execution contract.

Covers the one batch representation (columns plus a length; rows are a
transpose built on demand), the transpose rows arrive through, the
structural transforms, and the scan→filter→project fusion the planner
installs over base tables.
"""

from repro.obs import MetricsRegistry
from repro.sql.batch import ColumnBatch, concat, transpose
from tests.conftest import chunk_rows


ROWS = [
    (1, "a", None),
    (2, None, 2.5),
    (3, "c", -1.0),
    (4, "d", None),
]


# ----------------------------------------------------------------------
# columns, rows and the transpose between them
# ----------------------------------------------------------------------
def test_column_backed_batch_materializes_rows_once():
    """Each access to ``rows`` materializes the row tuples once, from
    the batch's own columns; nothing is cached on the batch."""
    columns = [[1, 2, 3], ["x", "y", "z"]]
    batch = ColumnBatch(columns, 3)
    assert batch.columns is columns  # no copy, no second form
    rows = batch.rows
    assert rows == [(1, "x"), (2, "y"), (3, "z")]
    # not cached: every access is a fresh transpose of the columns
    assert batch.rows == rows and batch.rows is not rows


def test_rows_round_trip_through_both_backings():
    """Rows → columns (:func:`transpose`) → rows gives the rows back,
    and a batch built by transposing rows equals one built from the
    same columns directly."""
    transposed = transpose(ROWS)
    built = ColumnBatch([list(col) for col in zip(*ROWS)], len(ROWS))
    assert transposed.columns == built.columns
    assert transposed.rows == built.rows == ROWS
    # the rows' own value objects, not copies
    assert transposed.rows[0][1] is ROWS[0][1]


def test_zero_width_batch_keeps_cardinality():
    batch = ColumnBatch([], 5)
    assert len(batch) == 5
    assert batch.rows == [()] * 5
    assert len(batch.take_mask([True, False, True, False, False])) == 2
    assert len(batch.take([0, 0, 4])) == 3
    assert len(transpose([(), ()])) == 2


# ----------------------------------------------------------------------
# structural transforms
# ----------------------------------------------------------------------
def test_take_mask_column_backed_compacts_columns():
    batch = ColumnBatch([[1, 2, 3, 4], [10, 20, 30, 40]], 4)
    kept = batch.take_mask([False, True, True, False])
    assert kept.columns == [[2, 3], [20, 30]]
    assert kept.rows == [(2, 20), (3, 30)]


def test_take_gathers_positions_in_order():
    batch = transpose(ROWS)
    assert batch.take([3, 0, 0]).rows == [ROWS[3], ROWS[0], ROWS[0]]
    assert batch.take([]).rows == []


def test_slice_takes_a_prefix():
    batch = ColumnBatch([[1, 2, 3], [4, 5, 6]], 3)
    assert batch.slice(2).rows == [(1, 4), (2, 5)]
    # slicing past the end returns the batch itself
    assert batch.slice(99) is batch


def test_batched_chunks_and_ordering():
    """``concat`` and ``take_chunks`` cut and join batches at
    ``BATCH_ROWS`` and keep the row order."""
    parts = [transpose(ROWS[:1]), transpose(ROWS[1:])]
    whole = concat(parts, 3)
    assert whole.rows == ROWS
    assert concat([], 3).columns == [[], [], []]
    with chunk_rows(3):
        chunks = list(whole.take_chunks([3, 2, 1, 0]))
    assert [len(chunk) for chunk in chunks] == [3, 1]
    assert [row for chunk in chunks for row in chunk.rows] == ROWS[::-1]


# ----------------------------------------------------------------------
# the fused pipeline end to end
# ----------------------------------------------------------------------
def make_engine(reg):
    from repro.catalog.catalog import Catalog
    from repro.sql.executor import QueryEngine
    from repro.storage.engine import StorageEngine

    engine = QueryEngine(Catalog(), StorageEngine(registry=reg))
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(40):
        engine.execute(f"INSERT INTO t VALUES ({i}, {i * 7 % 30})")
    return engine


def test_fused_pipeline_counts_batches():
    reg = MetricsRegistry()
    engine = make_engine(reg)
    result = engine.execute("SELECT id, v FROM t WHERE v > 10")
    assert result.rowcount > 0
    assert reg.snapshot()["sql.fused_pipeline_batches"]["value"] > 0


def test_filter_only_fusion_preserves_scan_order():
    reg = MetricsRegistry()
    engine = make_engine(reg)
    # SELECT * keeps the scan's column set; the fused node is
    # filter-only and must preserve the primary-key scan order, so no
    # sort is needed and none may reorder the rows
    rows = engine.execute("SELECT * FROM t WHERE v > 10 ORDER BY id").rows
    ids = [r[0] for r in rows]
    assert ids == sorted(ids)
    unordered = engine.execute("SELECT * FROM t WHERE v > 10").rows
    assert unordered == rows  # scan order flowed through the fusion


def test_explain_shows_fused_node_and_scan():
    reg = MetricsRegistry()
    engine = make_engine(reg)
    result = engine.execute("EXPLAIN SELECT id FROM t WHERE v > 10")
    text = "\n".join(r[0] for r in result.rows)
    assert "FusedScanFilterProject" in text
    assert "SeqScan" in text


def test_fused_results_match_unfused_semantics():
    reg = MetricsRegistry()
    engine = make_engine(reg)
    # NULL-handling through the vectorized path: v + NULL is NULL,
    # NULL comparisons are UNKNOWN and filtered out
    engine.execute("INSERT INTO t VALUES (100, NULL)")
    rows = engine.execute("SELECT id, v + 1 FROM t WHERE v >= 28").rows
    expected = [
        (i, i * 7 % 30 + 1) for i in range(40) if i * 7 % 30 >= 28
    ]
    assert sorted(rows) == sorted(expected)
    assert engine.execute("SELECT id FROM t WHERE v IS NULL").rows == [(100,)]
