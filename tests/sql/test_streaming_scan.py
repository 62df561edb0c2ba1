"""Chain scans stream: a chunk of verified reads per batch, the table
lock held only while the scan is open.

``VerifiableTable.scan_chunks`` checks Figure 5 chunk by chunk and
yields each chunk before reading the next, so a LIMIT over an unordered
scan stops the reads once it has its rows, and the table lock the scan
holds across its yields is released when the scan is exhausted, closed,
or abandoned by a failing statement.
"""

import sys
import threading

import pytest

from repro import VeriDB, VeriDBConfig
from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType
from repro.errors import ExecutionError
from repro.storage import config
from tests.conftest import chunk_rows, poll_until

ROWS = 10_000


@pytest.fixture(scope="module")
def db():
    db = VeriDB(VeriDBConfig(key_seed=3))
    db.create_table(
        "t",
        Schema(
            [Column("k", IntegerType()), Column("v", IntegerType())],
            primary_key="k",
            chain_columns=("v",),
        ),
    )
    db.load_rows("t", ((k, 3 * k) for k in range(ROWS)))
    return db


def insert_from_another_thread(db, row) -> threading.Thread:
    thread = threading.Thread(target=db.table("t").insert, args=(row,), daemon=True)
    thread.start()
    return thread


@pytest.mark.parametrize(
    "sql, first",
    [
        ("SELECT v FROM t LIMIT 5", [(0,), (3,), (6,), (9,), (12,)]),
        ("SELECT k FROM t WHERE k >= 5000 LIMIT 5", [(k,) for k in range(5000, 5005)]),
        ("SELECT k FROM t WHERE v > 300 LIMIT 5", [(k,) for k in range(101, 106)]),
    ],
)
def test_limit_over_a_scan_reads_at_most_two_chunks(db, sql, first):
    result = db.explain_analyze(sql)
    assert [tuple(row) for row in db.sql(sql).rows] == first
    assert result.data["totals"]["verified_reads"] <= 2 * config.BATCH_ROWS
    assert result.data["rowcount"] == 5


def test_a_returned_limit_query_leaves_the_table_writable(db):
    db.sql("SELECT v FROM t LIMIT 5")
    writer = insert_from_another_thread(db, (ROWS, 1))
    assert poll_until(lambda: not writer.is_alive())
    assert db.table("t").get(ROWS)[0] == (ROWS, 1)
    db.table("t").delete(ROWS)


def test_the_lock_is_held_between_chunks_and_released_on_close(db):
    table = db.table("t")
    chunks = table.scan_chunks(columns=["k"])
    with chunk_rows(64):
        length, (keys,) = next(chunks)
    assert keys == list(range(length))
    held = []
    probe = threading.Thread(
        target=lambda: held.append(not table._lock.acquire(blocking=False))
    )
    probe.start()
    probe.join(timeout=5)
    assert not probe.is_alive()
    assert held == [True]  # another thread cannot take it mid-scan
    chunks.close()
    writer = insert_from_another_thread(db, (ROWS + 1, 2))
    assert poll_until(lambda: not writer.is_alive())
    table.delete(ROWS + 1)


def test_a_statement_failing_mid_scan_releases_the_lock(db):
    with pytest.raises((ZeroDivisionError, ExecutionError)):
        db.sql("SELECT 1 / (k - 300) FROM t")
    writer = insert_from_another_thread(db, (ROWS + 2, 4))
    assert poll_until(lambda: not writer.is_alive())
    db.table("t").delete(ROWS + 2)


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_chunks_drain_to_the_rows_and_proof_of_the_whole_scan(db, batch_size):
    table = db.table("t")
    for bounds in (
        {},
        {"lo": 17, "hi": 2000, "include_hi": False},
        {"column": "v", "lo": 50, "hi": 90},
    ):
        with chunk_rows(batch_size):
            rows, proof = table.scan_with_proof(**bounds, columns=["v", "k"])
            streamed = []
            chunks = table.scan_chunks(**bounds, columns=["v", "k"])
            while True:
                try:
                    length, (values, keys) = next(chunks)
                except StopIteration as done:
                    assert done.value == proof
                    break
                assert 0 < length <= batch_size and len(values) == len(keys) == length
                streamed += zip(values, keys)
        assert streamed == rows
        assert proof.records_read == proof.links_checked + 1


def test_streaming_scans_and_writers_interleave_without_alarm_or_loss():
    """More threads than cores, a short switch interval: scans that stop
    early, scans that run out, and writers on the same table. Nothing
    deadlocks, no honest run alarms, and no write is lost."""
    db = VeriDB(VeriDBConfig(key_seed=5))
    db.create_table(
        "s", Schema([Column("k", IntegerType()), Column("v", IntegerType())], primary_key="k")
    )
    db.load_rows("s", ((k, k) for k in range(0, 600, 2)))
    errors: list[Exception] = []
    counts: list[int] = []

    def run(work):
        try:
            work()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def scanner(offset):
        for i in range(25):
            db.sql(f"SELECT k FROM s WHERE k >= {(offset * 37 + i * 11) % 600} LIMIT 3")
            counts.append(db.sql("SELECT COUNT(*) FROM s").rows[0][0])

    def writer(first):
        for k in range(first, first + 100, 4):  # odd keys: never preloaded
            db.table("s").insert((k, -k))
        for k in range(first, first + 100, 8):
            db.table("s").delete(k)

    threads = [threading.Thread(target=run, args=(lambda o=o: scanner(o),)) for o in range(3)]
    threads += [threading.Thread(target=run, args=(lambda f=f: writer(f),)) for f in (1, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(300 <= count <= 350 for count in counts)
    assert db.sql("SELECT COUNT(*) FROM s").rows == [(300 + 50 - 26,)]
    db.verify_now()
