"""Numeric values in batch columns.

A column is a plain list holding the rows' own objects: ints stay ints
(bools stay bools, 2**70 stays 2**70), floats stay floats, NULLs stay
None — at every chunk length, and through :meth:`ColumnBatch.take_mask`,
:meth:`ColumnBatch.slice` and :meth:`ColumnBatch.take_chunks`.
"""

import pytest

from repro.sql.batch import ColumnBatch, transpose
from tests.conftest import chunk_rows

BATCH_SIZES = (1, 7, 256)


def make_rows(n):
    return [(i, float(i) * 0.5, None if i % 3 == 0 else i, f"s{i}") for i in range(n)]


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_int_and_float_columns_pack(size):
    batch = transpose(make_rows(size))
    ints, floats = batch.columns[0], batch.columns[1]
    assert type(ints) is list and type(floats) is list
    assert ints == list(range(size))
    assert floats == [i * 0.5 for i in range(size)]
    assert all(type(value) is float for value in floats)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_nullable_and_text_columns_stay_lists(size):
    batch = transpose(make_rows(size))
    assert type(batch.columns[2]) is list  # has NULLs
    assert type(batch.columns[3]) is list  # text
    assert batch.columns[2] == [None if i % 3 == 0 else i for i in range(size)]


def test_bools_and_mixed_numerics_keep_object_semantics():
    (bools,) = transpose([(True,), (False,)]).columns
    assert bools == [True, False]
    assert all(type(value) is bool for value in bools)
    (mixed,) = transpose([(1,), (2.0,)]).columns
    assert [type(value) for value in mixed] == [int, float]


def test_out_of_range_int_falls_back():
    big = 2**70
    (values,) = transpose([(1,), (big,)]).columns
    assert type(values) is list
    assert values == [1, big]
    assert values[1] is big


def test_column_backed_batches_unaffected():
    # explicitly constructed columns (fused pipeline) pass through as is
    column = [1, 2, 3]
    batch = ColumnBatch([column], 3)
    assert batch.columns[0] is column


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_take_mask_and_slice_roundtrip(size):
    batch = transpose(make_rows(size))
    kept = batch.take_mask([j % 2 == 0 for j in range(size)])
    assert [row[0] for row in kept.rows] == [j for j in range(size) if j % 2 == 0]
    assert all(type(value) is float for value in kept.columns[1])
    head = batch.slice(min(3, size))
    assert len(head) == min(3, size)
    assert head.rows == make_rows(size)[: min(3, size)]


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batched_chunks_pack(size):
    batch = transpose(make_rows(300))
    with chunk_rows(size):
        chunks = list(batch.take_chunks(range(300)))
    assert sum(len(c) for c in chunks) == 300
    assert chunks[0].columns[0] == list(range(min(size, 300)))
    assert all(type(value) is float for c in chunks for value in c.columns[1])
