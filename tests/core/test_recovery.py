"""Recovery from power failure (Section 5.1), from a sealed snapshot.

A snapshot is a checkpoint-only write-ahead log, so restoring one is
``recover_from_wal`` and is refused on exactly the evidence a log is.
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal, snapshot_database
from repro.errors import RecoveryIntegrityError
from repro.wal import CHECKPOINT, DDL_CREATE, HEADER, INSERT, parse_segment
from repro.wal.log import SEGMENT_GLOB

SEED = 6


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=SEED))
    database.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, CHAIN (v))"
    )
    for i in range(25):
        database.sql(f"INSERT INTO t VALUES ({i}, {i * 3})")
    database.sql("DELETE FROM t WHERE id = 7")
    return database


@pytest.fixture
def snapshot(db, tmp_path):
    path = tmp_path / "snapshot"
    assert snapshot_database(db, path) == 24
    return path


def restore(path, seed=SEED):
    return recover_from_wal(path, VeriDBConfig(key_seed=seed))


def segments(path):
    return sorted(path.glob(SEGMENT_GLOB))


def test_snapshot_contains_all_rows(snapshot):
    """A checkpoint-only log: every live row is one INSERT."""
    first, rolled = segments(snapshot)
    records, stop = parse_segment(first.read_bytes())
    assert stop == first.stat().st_size
    assert [r.rtype for r in records] == [HEADER, DDL_CREATE] + [INSERT] * 24 + [
        CHECKPOINT
    ]
    assert rolled.stat().st_size == 0  # the checkpoint rolled the segment


def test_recovered_instance_answers_identically(db, snapshot):
    recovered = restore(snapshot)
    for sql in (
        "SELECT COUNT(*) FROM t",
        "SELECT SUM(v) FROM t",
        "SELECT * FROM t WHERE v BETWEEN 10 AND 40",
    ):
        assert recovered.sql(sql).rows == db.sql(sql).rows


def test_recovery_rebuilds_verification_state(snapshot):
    """The replayed writes repopulate h(WS); verification succeeds and
    then protects the recovered data like any other."""
    recovered = restore(snapshot)
    recovered.verify_now()
    recovered.sql("INSERT INTO t VALUES (100, 300)")
    recovered.verify_now()


def test_recovered_instance_detects_new_tampering(snapshot):
    from repro.errors import VerificationFailure
    from repro.memory.adversary import Adversary
    from repro.memory.cells import make_addr

    recovered = restore(snapshot)
    table = recovered.table("t")
    rid = table.indexes[0].search(3)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    addr = make_addr(rid.page_id, offset)
    cell = recovered.storage.memory.raw_read(addr)
    Adversary(recovered.storage.memory).corrupt(addr, cell.data[:-1] + b"?")
    with pytest.raises(VerificationFailure):
        recovered.verify_now()


def test_recovery_serves_new_clients(snapshot):
    client = restore(snapshot).connect()
    assert client.execute("SELECT COUNT(*) FROM t").rows == ((24,),)


def test_restore_resumes_the_snapshot_as_its_log(snapshot):
    recovered = restore(snapshot)
    assert recovered.wal.directory == snapshot
    recovered.sql("INSERT INTO t VALUES (100, 300)")
    recovered.wal.commit()
    assert restore(snapshot).sql("SELECT COUNT(*) FROM t").rows == [(25,)]


# ----------------------------------------------------------------------
# what the deleted unauthenticated snapshot format accepted
# ----------------------------------------------------------------------
def test_foreign_identity_cannot_restore(snapshot):
    with pytest.raises(RecoveryIntegrityError) as caught:
        restore(snapshot, seed=SEED + 1)
    assert caught.value.reason == "unsealable"


def test_flipped_byte_is_refused(snapshot):
    segment = segments(snapshot)[0]
    data = bytearray(segment.read_bytes())
    records, _ = parse_segment(bytes(data))
    data[records[3].offset - 1] ^= 0x01  # last MAC byte of an INSERT
    segment.write_bytes(bytes(data))
    with pytest.raises(RecoveryIntegrityError) as caught:
        restore(snapshot)
    assert caught.value.reason == "mac-chain"


def test_snapshot_replay_goes_through_the_shared_applier(snapshot):
    """Snapshot replay is log replay — the replay fault site fires on
    it, and since replay reads the log only, a fresh attempt succeeds."""
    from repro.errors import TransientFault
    from repro.faults import ChaosPlane, ChaosSchedule, scoped_fault_plane, sites

    plane = ChaosPlane(
        ChaosSchedule(
            seed=3, rates={sites.WAL_REPLAY_ABORT: 1.0}, limit_per_site=1
        )
    )
    with scoped_fault_plane(plane):
        with pytest.raises(TransientFault):
            restore(snapshot)
        recovered = restore(snapshot)
    assert recovered.sql("SELECT COUNT(*) FROM t").rows == [(24,)]


def test_snapshot_survives_drop_and_multiple_tables(db, tmp_path):
    db.sql("CREATE TABLE u (id INTEGER PRIMARY KEY, w INTEGER)")
    db.sql("INSERT INTO u VALUES (1, 11)")
    db.sql("CREATE TABLE doomed (id INTEGER PRIMARY KEY)")
    db.catalog.drop("doomed").store.destroy()
    snapshot_database(db, tmp_path / "snapshot")
    recovered = restore(tmp_path / "snapshot")
    names = {n.lower() for n in recovered.catalog.table_names()}
    assert names == {"t", "u"}
    assert recovered.sql("SELECT w FROM u").rows == [(11,)]


def test_snapshot_disk_round_trip_unchanged(tmp_path):
    """Every SQL type, a decimal schema, a chain and an empty table come
    back from disk unchanged."""
    from repro.catalog.schema import Column, Schema
    from repro.catalog.types import DecimalType, IntegerType

    db = VeriDB(VeriDBConfig(key_seed=88))
    db.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, d DATE, f FLOAT, "
        "s TEXT, b BOOLEAN, CHAIN (d))"
    )
    db.sql(
        "INSERT INTO t VALUES "
        "(1, DATE '2021-06-20', 1.5, 'x', TRUE), "
        "(2, DATE '1992-01-01', -2.25, NULL, FALSE)"
    )
    db.sql("CREATE TABLE empty (id INTEGER PRIMARY KEY)")
    schema = Schema(
        columns=[Column("id", IntegerType()), Column("price", DecimalType(scale=4))],
        primary_key="id",
    )
    db.create_table("money", schema)
    db.table("money").insert((1, 12345))
    assert snapshot_database(db, tmp_path / "snapshot") == 3
    recovered = restore(tmp_path / "snapshot", seed=88)
    assert recovered.sql("SELECT * FROM t ORDER BY id").rows == db.sql(
        "SELECT * FROM t ORDER BY id"
    ).rows
    # the chain was rebuilt: range access on the chained date column
    assert recovered.sql("SELECT id FROM t WHERE d >= DATE '2000-01-01'").rows == [(1,)]
    assert recovered.sql("SELECT COUNT(*) FROM empty").rows == [(0,)]
    assert recovered.table("money").schema.column("price").type == DecimalType(scale=4)
    assert recovered.sql("SELECT price FROM money").rows == [(12345,)]
    recovered.verify_now()


def test_snapshot_refuses_an_existing_log(snapshot, db):
    from repro.errors import StorageError

    with pytest.raises(StorageError):
        snapshot_database(db, snapshot)
