"""Tests for intermediate-state spilling to verifiable storage (§5.4)."""

import pytest

from repro.catalog.catalog import Catalog
from repro.sgx.epc import EnclavePageCache
from repro.sql.executor import QueryEngine
from repro.sql.spill import SpillManager, external_sort
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from tests.conftest import chunk_rows


@pytest.fixture
def manager():
    return SpillManager(StorageEngine(), threshold_rows=10)


# ----------------------------------------------------------------------
# SpillBuffer
# ----------------------------------------------------------------------
def test_small_buffer_stays_in_enclave(manager):
    buffer = manager.buffer()
    buffer.extend([(i,) for i in range(5)])
    assert not buffer.spilled
    assert list(buffer) == [(i,) for i in range(5)]
    assert len(buffer) == 5


def test_overflow_spills_to_storage(manager):
    buffer = manager.buffer()
    buffer.extend([(i, f"v{i}") for i in range(25)])
    assert buffer.spilled
    assert buffer.rows_in_enclave == 10
    assert len(buffer) == 25
    assert list(buffer) == [(i, f"v{i}") for i in range(25)]
    assert manager.stats.rows_spilled == 15


def test_spilled_rows_travel_through_verified_path(manager):
    buffer = manager.buffer()
    buffer.extend([(i,) for i in range(30)])
    prf_before = manager.engine.vmem.prf.calls
    list(buffer)
    # reading the overflow is a verified sequential scan: PRF work happened
    assert manager.engine.vmem.prf.calls > prf_before


def test_repeated_iteration(manager):
    buffer = manager.buffer()
    buffer.extend([(i,) for i in range(15)])
    assert list(buffer) == list(buffer)


def test_close_releases_pages(manager):
    buffer = manager.buffer()
    buffer.extend([(i,) for i in range(30)])
    pages_before = len(manager.engine.vmem.registered_pages())
    buffer.close()
    assert len(manager.engine.vmem.registered_pages()) < pages_before
    with pytest.raises(RuntimeError):
        buffer.append((1,))
    buffer.close()  # idempotent
    manager.engine.verify_now()  # retirement was balanced


def test_epc_accounting():
    epc = EnclavePageCache()
    manager = SpillManager(StorageEngine(), threshold_rows=10, epc=epc)
    buffer = manager.buffer()
    buffer.extend([(i,) for i in range(50)])
    # only the in-enclave portion is charged to the EPC
    assert epc.resident_bytes == 10 * manager.row_bytes_estimate
    buffer.close()
    assert epc.resident_bytes == 0


def test_threshold_validation():
    with pytest.raises(ValueError):
        SpillManager(StorageEngine(), threshold_rows=0)


def test_spill_values_preserved_exactly(manager):
    import datetime

    rows = [
        (1, "text", 2.5, None, True, datetime.date(2021, 6, 20)),
        (2, "", -1.0, False, None, datetime.date(1992, 1, 1)),
    ] * 12
    buffer = manager.buffer()
    for i, row in enumerate(rows):
        buffer.append((i,) + row)
    assert [r[1:] for r in buffer] == rows


# ----------------------------------------------------------------------
# external sort
# ----------------------------------------------------------------------
def test_external_sort_matches_sorted(manager):
    rows = [(i * 7919 % 100, i) for i in range(100)]
    result = list(external_sort(iter(rows), lambda r: r[0], manager))
    assert [r[0] for r in result] == sorted(r[0] for r in rows)
    assert manager.stats.sort_runs == 10


def test_external_sort_reverse(manager):
    rows = [(i % 13,) for i in range(40)]
    result = list(
        external_sort(iter(rows), lambda r: r[0], manager, reverse=True)
    )
    assert [r[0] for r in result] == sorted(
        (r[0] for r in rows), reverse=True
    )


def test_external_sort_empty(manager):
    assert list(external_sort(iter(()), lambda r: r, manager)) == []


def test_external_sort_single_run(manager):
    rows = [(3,), (1,), (2,)]
    assert list(external_sort(iter(rows), lambda r: r[0], manager)) == [
        (1,),
        (2,),
        (3,),
    ]


def test_external_sort_closes_runs(manager):
    rows = [(i,) for i in range(100, 0, -1)]
    list(external_sort(iter(rows), lambda r: r[0], manager))
    assert manager.engine.vmem.registered_pages() == []
    manager.engine.verify_now()


# ----------------------------------------------------------------------
# end-to-end through SQL
# ----------------------------------------------------------------------
@pytest.fixture
def spilling_engine():
    storage = StorageEngine(StorageConfig(spill_threshold_rows=8))
    qe = QueryEngine(Catalog(), storage)
    qe.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w INTEGER)"
    )
    for i in range(60):
        qe.execute(f"INSERT INTO t VALUES ({i}, {i * 37 % 50}, {i % 4})")
    return qe


def test_sorted_query_with_spill(spilling_engine):
    result = spilling_engine.execute("SELECT v FROM t ORDER BY v")
    values = [r[0] for r in result.rows]
    assert values == sorted(values)
    assert len(values) == 60
    assert spilling_engine.spill.stats.sort_runs > 1


def test_sort_desc_with_spill(spilling_engine):
    result = spilling_engine.execute("SELECT v FROM t ORDER BY v DESC")
    values = [r[0] for r in result.rows]
    assert values == sorted(values, reverse=True)


def test_mixed_direction_sort_with_spill(spilling_engine):
    result = spilling_engine.execute("SELECT w, v FROM t ORDER BY w ASC, v DESC")
    rows = result.rows
    assert rows == sorted(rows, key=lambda r: (r[0], -r[1]))


def test_merge_join_with_spill(spilling_engine):
    spilling_engine.execute(
        "CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)"
    )
    for i in range(20):
        spilling_engine.execute(f"INSERT INTO u VALUES ({i}, {i})")
    merge = spilling_engine.execute(
        "SELECT t.id FROM t, u WHERE t.v = u.v", join_hint="merge"
    )
    hash_result = spilling_engine.execute(
        "SELECT t.id FROM t, u WHERE t.v = u.v", join_hint="hash"
    )
    assert sorted(merge.rows) == sorted(hash_result.rows)


def test_nested_loop_join_with_spill(spilling_engine):
    spilling_engine.execute(
        "CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)"
    )
    for i in range(20):
        spilling_engine.execute(f"INSERT INTO u VALUES ({i}, {i})")
    nested = spilling_engine.execute(
        "SELECT t.id FROM t, u WHERE t.v = u.v", join_hint="nested_loop"
    )
    hash_result = spilling_engine.execute(
        "SELECT t.id FROM t, u WHERE t.v = u.v", join_hint="hash"
    )
    assert sorted(nested.rows) == sorted(hash_result.rows)
    assert spilling_engine.spill.stats.buffers_spilled > 0


def test_spill_tables_cleaned_up_after_queries(spilling_engine):
    pages_before = len(spilling_engine.storage.vmem.registered_pages())
    spilling_engine.execute("SELECT v FROM t ORDER BY v")
    pages_after = len(spilling_engine.storage.vmem.registered_pages())
    assert pages_after == pages_before
    spilling_engine.storage.verify_now()


def test_spill_and_verification_coexist(spilling_engine):
    spilling_engine.storage.enable_continuous_verification(20)
    result = spilling_engine.execute("SELECT v FROM t ORDER BY v")
    assert len(result.rows) == 60
    spilling_engine.storage.disable_continuous_verification()
    spilling_engine.storage.verify_now()


# ----------------------------------------------------------------------
# spilled results are byte-identical to in-memory results at every
# chunk length: the columnar→row boundary at the spill buffer hands the
# same row tuples to storage that in-enclave execution would keep
# ----------------------------------------------------------------------
def _build_engine(spill_threshold_rows):
    storage = StorageEngine(StorageConfig(spill_threshold_rows=spill_threshold_rows))
    qe = QueryEngine(Catalog(), storage)
    qe.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w TEXT)"
    )
    qe.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(60):
        qe.execute(
            f"INSERT INTO t VALUES ({i}, {i * 37 % 50}, "
            f"{'NULL' if i % 7 == 0 else repr(f's{i % 5}')})"
        )
    for i in range(20):
        qe.execute(f"INSERT INTO u VALUES ({i}, {i})")
    return qe

SPILL_QUERIES = [
    ("SELECT v, w FROM t ORDER BY v", None),
    ("SELECT w, v FROM t WHERE v > 10 ORDER BY v DESC, id ASC", None),
    ("SELECT t.id, u.v FROM t, u WHERE t.v = u.v", "nested_loop"),
    ("SELECT t.id FROM t, u WHERE t.v = u.v ORDER BY t.id", "merge"),
]


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_spilled_results_byte_identical_to_in_memory(batch_size):
    """Spilling is invisible: same bytes row for row, every chunk length."""
    from repro.storage.record import RecordCodec

    codec = RecordCodec()
    in_memory = _build_engine(spill_threshold_rows=None)
    spilling = _build_engine(spill_threshold_rows=4)
    for sql, hint in SPILL_QUERIES:
        with chunk_rows(batch_size):
            expected = in_memory.execute(sql, join_hint=hint).rows
            got = spilling.execute(sql, join_hint=hint).rows
        expected_bytes = [codec.encode(row) for row in expected]
        got_bytes = [codec.encode(row) for row in got]
        if "ORDER BY" not in sql:
            expected_bytes.sort()
            got_bytes.sort()
        assert got_bytes == expected_bytes, f"{sql} (batch={batch_size})"
    assert spilling.spill.stats.rows_spilled > 0
    spilling.storage.verify_now()
    in_memory.storage.verify_now()
