"""The attack matrix holds at every chunk length.

Vectorized execution amortizes verified reads into per-chunk ECalls, but
each cell in a chunk is still individually verified (Algorithm 1 runs
per cell inside :meth:`VerifiedMemory.read_many`). So every adversary
capability must stay detectable whether the engine reads chain records
one at a time (chunk length 1), in small ragged chunks (7), or in chunks
wider than any table here (1024).
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import StorageError
from repro.memory.adversary import Adversary
from repro.storage.config import StorageConfig
from tests.conftest import chunk_rows
from tests.security.test_attack_matrix import (
    ATTACKS,
    DETECTION_ERRORS,
    build_db,
    detect,
)

BATCH_SIZES = [1, 7, 1024]


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_attack_detected_at_batch_size(attack_name, batch_size):
    with chunk_rows(batch_size):
        db = build_db(VeriDBConfig(key_seed=9))
        client = db.connect()
        client.execute("SELECT COUNT(*) FROM acct")
        adversary = Adversary(db.storage.memory)
        ATTACKS[attack_name](db, adversary)
        caught = detect(db, client, attack_name)
        assert caught is not None, (
            f"attack {attack_name!r} went undetected at chunk length {batch_size}"
        )
        assert isinstance(caught, DETECTION_ERRORS)


#: scans that read one column, none, and a filtered other one — each
#: decoded through its own compiled projection
NARROW_SCANS = (
    "SELECT balance FROM acct",
    "SELECT COUNT(*) FROM acct",
    "SELECT id FROM acct WHERE balance >= 0",
)


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_attack_detected_behind_narrow_projections(attack_name, batch_size):
    """Projection decides what a scan materialises, not what is checked:
    scanning the attacked table through narrow projections between the
    attack and the epoch close must neither raise anything but an alarm
    or a refused payload, nor keep the alarm from landing."""
    with chunk_rows(batch_size):
        db = build_db(VeriDBConfig(key_seed=9))
        client = db.connect()
        for sql in NARROW_SCANS:
            client.execute(sql)  # plans cached, decoders compiled
        adversary = Adversary(db.storage.memory)
        ATTACKS[attack_name](db, adversary)
        caught = None
        for sql in NARROW_SCANS:
            try:
                db.sql(sql)
            except DETECTION_ERRORS as alarm:
                caught = alarm
                break
            except StorageError:
                pass  # undecodable bytes are refused; the close still alarms
        if caught is None:
            caught = detect(db, client, attack_name)
        assert caught is not None, (
            f"attack {attack_name!r} hid behind a projection at "
            f"chunk length {batch_size}"
        )
        assert isinstance(caught, DETECTION_ERRORS)


#: scans that walk the ``balance`` chain, whose order is unrelated to
#: where the records sit in the heap (a range over most of the table
#: walks the chain only when ORDER BY rides its order: the planner reads
#: any other one in heap order, Planner SEQ_SCAN_SHARE)
CHAIN_SCANS = (
    "SELECT id FROM acct WHERE balance >= 0 ORDER BY balance",
    "SELECT COUNT(*) FROM acct WHERE balance < 2500",
)


def build_chained_db():
    """``acct`` over several small pages with a secondary chain on
    ``balance``, a permutation of the insertion order: one chunk of a
    ``balance`` scan reads cells from many pages and partitions, in an
    order the heap does not share."""
    db = VeriDB(
        VeriDBConfig(
            storage=StorageConfig(page_size=512),
            key_seed=9,
        )
    )
    db.sql(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER, CHAIN (balance))"
    )
    for i in range(60):
        db.sql(f"INSERT INTO acct VALUES ({i}, {i * 37 % 60 * 100})")
    db.verify_now()
    assert db.table("acct").page_count() >= 4
    return db


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_attack_detected_behind_secondary_chain_scans(attack_name, batch_size):
    """Heap order ≠ chain order: the batch is one cross-page read, and a
    cell tampered with anywhere in it must neither derail the scan with
    anything but an alarm nor slip past the epoch close."""
    with chunk_rows(batch_size):
        db = build_chained_db()
        client = db.connect()
        for sql in CHAIN_SCANS:
            client.execute(sql)
        adversary = Adversary(db.storage.memory)
        ATTACKS[attack_name](db, adversary)
        caught = None
        for sql in CHAIN_SCANS:
            try:
                db.sql(sql)
            except DETECTION_ERRORS as alarm:
                caught = alarm
                break
            except StorageError:
                pass  # undecodable bytes are refused; the close still alarms
        if caught is None:
            caught = detect(db, client, attack_name)
        assert caught is not None, (
            f"attack {attack_name!r} hid in a cross-page batch at "
            f"chunk length {batch_size}"
        )
        assert isinstance(caught, DETECTION_ERRORS)


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_honest_secondary_chain_scans_stay_clean(batch_size):
    with chunk_rows(batch_size):
        db = build_chained_db()
        client = db.connect()
        for sql in CHAIN_SCANS:
            assert "RangeScan(acct" in db.engine.plan(sql).explain()
            rows = list(client.execute(sql).rows)
            # the same predicate, unsargable and unsorted: a primary-key
            # scan and a filter
            heap_sql = sql.replace(" ORDER BY balance", "").replace("balance", "(balance + 0)")
            in_heap_order = list(db.sql(heap_sql).rows)
            assert sorted(rows) == sorted(in_heap_order)
            assert len(rows) == 1 or rows != in_heap_order  # the chain was walked
        db.verify_now()
        assert db.incidents.active("verification-alarm") == []


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_honest_run_stays_clean_at_batch_size(batch_size):
    with chunk_rows(batch_size):
        db = build_db(VeriDBConfig(key_seed=9))
        client = db.connect()
        for i in range(12):
            client.execute(f"SELECT balance FROM acct WHERE id = {i}")
        client.execute("SELECT COUNT(*), SUM(balance) FROM acct")
        for sql in NARROW_SCANS:
            client.execute(sql)
        db.verify_now()
        assert db.incidents.active("verification-alarm") == []
