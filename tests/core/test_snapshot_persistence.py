"""Disk persistence of replica snapshots.

A snapshot on disk is a sealed, checkpoint-only log; it comes back
through ``recover_from_wal`` under the enclave identity that wrote it.
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal, snapshot_database

SEED = 88


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=SEED))
    database.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, d DATE, f FLOAT, "
        "s TEXT, b BOOLEAN, CHAIN (d))"
    )
    database.sql(
        "INSERT INTO t VALUES "
        "(1, DATE '2021-06-20', 1.5, 'x', TRUE), "
        "(2, DATE '1992-01-01', -2.25, NULL, FALSE)"
    )
    database.sql("CREATE TABLE empty (id INTEGER PRIMARY KEY)")
    return database


def test_save_load_roundtrip(db, tmp_path):
    path = tmp_path / "replica.snapshot"
    total = snapshot_database(db, path)
    assert total == 2
    loaded = recover_from_wal(path, VeriDBConfig(key_seed=SEED))
    assert sorted(n.lower() for n in loaded.catalog.table_names()) == ["empty", "t"]
    schema = loaded.table("t").schema
    assert schema.chains == ("id", "d")
    rows = sorted(loaded.table("t").seq_scan())
    assert len(rows) == 2
    assert rows == sorted(db.table("t").seq_scan())
    assert list(loaded.table("empty").seq_scan()) == []


def test_recover_from_disk(db, tmp_path):
    path = tmp_path / "replica.snapshot"
    snapshot_database(db, path)
    recovered = recover_from_wal(path, VeriDBConfig(key_seed=SEED))
    assert recovered.sql("SELECT * FROM t ORDER BY id").rows == db.sql(
        "SELECT * FROM t ORDER BY id"
    ).rows
    # chains were rebuilt: range access on the chained date column works
    assert recovered.sql(
        "SELECT id FROM t WHERE d >= DATE '2000-01-01'"
    ).rows == [(1,)]
    recovered.verify_now()


def test_decimal_schema_roundtrip(tmp_path):
    from repro.catalog.schema import Column, Schema
    from repro.catalog.types import DecimalType, IntegerType

    db = VeriDB(VeriDBConfig(key_seed=90))
    schema = Schema(
        columns=[
            Column("id", IntegerType()),
            Column("price", DecimalType(scale=4)),
        ],
        primary_key="id",
    )
    db.create_table("money", schema)
    db.table("money").insert((1, 12345))
    path = tmp_path / "snap"
    snapshot_database(db, path)
    loaded = recover_from_wal(path, VeriDBConfig(key_seed=90))
    restored = loaded.table("money")
    assert restored.schema.column("price").type == DecimalType(scale=4)
    assert list(restored.seq_scan()) == [(1, 12345)]
