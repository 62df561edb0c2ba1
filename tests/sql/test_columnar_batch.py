"""ColumnBatch unit tests and the fused-pipeline execution contract.

Covers the dual-backed batch (row-backed vs column-backed, lazy
derivation, authoritative-representation compaction),
the single source of truth for the engine batch size, and the
scan→filter→project fusion the planner installs over base tables.
"""

from repro.obs import MetricsRegistry
from repro.sql import batch as batch_module
from repro.sql.batch import ColumnBatch, batched
from repro.storage.config import DEFAULT_BATCH_SIZE, StorageConfig


ROWS = [
    (1, "a", None),
    (2, None, 2.5),
    (3, "c", -1.0),
    (4, "d", None),
]


# ----------------------------------------------------------------------
# dual backing
# ----------------------------------------------------------------------
def test_row_backed_batch_derives_columns_lazily():
    batch = ColumnBatch.from_rows(list(ROWS))
    assert len(batch) == 4
    assert batch.width == 3
    # only the requested column is derived
    assert batch.column(1) == ["a", None, "c", "d"]
    assert batch._columns[0] is None
    assert batch._columns[2] is None
    assert batch.column(1) is batch.column(1)  # cached, not recomputed


def test_column_backed_batch_materializes_rows_once():
    batch = ColumnBatch(
        [[1, 2, 3], ["x", "y", "z"]], 3
    )
    rows = batch.to_rows()
    assert rows == [(1, "x"), (2, "y"), (3, "z")]
    # idempotent one-shot transpose: the same list object comes back
    assert batch.to_rows() is rows
    assert list(batch) == rows


def test_rows_round_trip_through_both_backings():
    row_backed = ColumnBatch.from_rows(list(ROWS))
    column_backed = ColumnBatch(
        [list(col) for col in zip(*ROWS)], len(ROWS)
    )
    assert row_backed.to_rows() == column_backed.to_rows() == ROWS
    assert row_backed.columns == column_backed.columns


def test_zero_width_batch_keeps_cardinality():
    batch = ColumnBatch([], 5)
    assert len(batch) == 5
    assert batch.to_rows() == [()] * 5


# ----------------------------------------------------------------------
# compaction and slicing stay in the authoritative representation
# ----------------------------------------------------------------------
def test_take_mask_row_backed_reuses_tuples():
    batch = ColumnBatch.from_rows(list(ROWS))
    kept = batch.take_mask([True, False, True, False])
    assert kept.to_rows() == [ROWS[0], ROWS[2]]
    # the surviving tuples are the same objects, not rebuilt
    assert kept.to_rows()[0] is ROWS[0]


def test_take_mask_column_backed_compacts_columns():
    batch = ColumnBatch([[1, 2, 3, 4], [10, 20, 30, 40]], 4)
    kept = batch.take_mask([False, True, True, False])
    assert kept._rows is None  # still column-backed
    assert kept.column(1) == [20, 30]
    assert kept.to_rows() == [(2, 20), (3, 30)]


def test_take_mask_preserves_ordering():
    batch = ColumnBatch.from_rows(list(ROWS), ordering=(("t", "id", True),))
    assert batch.take_mask([True] * 4).ordering == (("t", "id", True),)


def test_slice_both_backings():
    row_backed = ColumnBatch.from_rows(list(ROWS))
    assert row_backed.slice(2).to_rows() == ROWS[:2]
    column_backed = ColumnBatch([[1, 2, 3], [4, 5, 6]], 3)
    sliced = column_backed.slice(2)
    assert sliced._rows is None
    assert sliced.to_rows() == [(1, 4), (2, 5)]
    # slicing past the end returns the batch itself
    assert row_backed.slice(99) is row_backed


def test_batched_chunks_and_ordering():
    batches = list(batched([(i,) for i in range(10)], 4))
    assert [len(b) for b in batches] == [4, 4, 2]
    lazy = list(batched(((i,) for i in range(5)), 2, ordering=("o",)))
    assert [len(b) for b in lazy] == [2, 2, 1]
    assert all(b.ordering == ("o",) for b in lazy)


# ----------------------------------------------------------------------
# single source of truth for the batch size
# ----------------------------------------------------------------------
def test_batch_size_has_one_source_of_truth():
    """`repro.sql.batch.DEFAULT_BATCH_SIZE` is a re-export of the
    storage-config constant, and the config default equals both — the
    regression this pins is a drift between directly-constructed
    operators and planner-stamped plans."""
    assert batch_module.DEFAULT_BATCH_SIZE is DEFAULT_BATCH_SIZE
    assert StorageConfig().batch_size == DEFAULT_BATCH_SIZE


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
