"""Numeric columns derived from row-backed batches.

A derived column is a plain list holding the rows' own objects: ints
stay ints (bools stay bools, 2**70 stays 2**70), floats stay floats,
NULLs stay None — whatever the batch size and through compaction and
slicing.
"""

import pytest

from repro.sql.batch import ColumnBatch, batched

BATCH_SIZES = (1, 7, 256)


def make_rows(n):
    return [(i, float(i) * 0.5, None if i % 3 == 0 else i, f"s{i}") for i in range(n)]


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_int_and_float_columns_pack(size):
    batch = ColumnBatch.from_rows(make_rows(size))
    ints = batch.column(0)
    floats = batch.column(1)
    assert type(ints) is list and type(floats) is list
    assert ints == list(range(size))
    assert floats == [i * 0.5 for i in range(size)]
    assert all(type(value) is float for value in floats)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_nullable_and_text_columns_stay_lists(size):
    batch = ColumnBatch.from_rows(make_rows(size))
    assert type(batch.column(2)) is list  # has NULLs (when size > 1)
    assert type(batch.column(3)) is list  # text
    assert batch.column(2) == [None if i % 3 == 0 else i for i in range(size)]


def test_bools_and_mixed_numerics_keep_object_semantics():
    bools = ColumnBatch.from_rows([(True,), (False,)]).column(0)
    assert bools == [True, False]
    assert all(type(value) is bool for value in bools)
    mixed = ColumnBatch.from_rows([(1,), (2.0,)]).column(0)
    assert [type(value) for value in mixed] == [int, float]


def test_out_of_range_int_falls_back():
    big = 2**70
    values = ColumnBatch.from_rows([(1,), (big,)]).column(0)
    assert type(values) is list
    assert values == [1, big]


def test_column_backed_batches_unaffected():
    # explicitly constructed columns (fused pipeline) pass through as is
    column = [1, 2, 3]
    batch = ColumnBatch([column], 3)
    assert batch.column(0) is column


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_take_mask_and_slice_roundtrip(size):
    batch = ColumnBatch.from_rows(make_rows(size))
    batch.column(0)  # derived before compaction
    kept = batch.take_mask([j % 2 == 0 for j in range(size)])
    assert [row[0] for row in kept.rows] == [j for j in range(size) if j % 2 == 0]
    head = batch.slice(min(3, size))
    assert len(head) == min(3, size)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batched_chunks_pack(size):
    chunks = list(batched(make_rows(300), size))
    assert sum(len(c) for c in chunks) == 300
    assert chunks[0].column(0) == list(range(min(size, 300)))
