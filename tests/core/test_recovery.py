"""Recovery from power failure (Section 5.1)."""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_database, snapshot_database


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=6))
    database.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, CHAIN (v))"
    )
    for i in range(25):
        database.sql(f"INSERT INTO t VALUES ({i}, {i * 3})")
    database.sql("DELETE FROM t WHERE id = 7")
    return database


def test_snapshot_contains_all_rows(db):
    snap = snapshot_database(db)
    assert len(snap.tables) == 1
    name, schema, rows = snap.tables[0]
    assert name == "t"
    assert len(rows) == 24


def test_recovered_instance_answers_identically(db):
    snap = snapshot_database(db)
    recovered = recover_database(snap, VeriDBConfig(key_seed=7))
    for sql in (
        "SELECT COUNT(*) FROM t",
        "SELECT SUM(v) FROM t",
        "SELECT * FROM t WHERE v BETWEEN 10 AND 40",
    ):
        assert recovered.sql(sql).rows == db.sql(sql).rows


def test_recovery_rebuilds_verification_state(db):
    """The replayed writes repopulate h(WS); verification succeeds and
    then protects the recovered data like any other."""
    recovered = recover_database(snapshot_database(db), VeriDBConfig(key_seed=8))
    recovered.verify_now()
    recovered.sql("INSERT INTO t VALUES (100, 300)")
    recovered.verify_now()


def test_recovered_instance_detects_new_tampering(db):
    from repro.errors import VerificationFailure
    from repro.memory.adversary import Adversary
    from repro.memory.cells import make_addr

    recovered = recover_database(snapshot_database(db), VeriDBConfig(key_seed=9))
    table = recovered.table("t")
    rid = table.indexes[0].search(3)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    addr = make_addr(rid.page_id, offset)
    cell = recovered.storage.memory.raw_read(addr)
    Adversary(recovered.storage.memory).corrupt(addr, cell.data[:-1] + b"?")
    with pytest.raises(VerificationFailure):
        recovered.verify_now()


def test_recovery_serves_new_clients(db):
    recovered = recover_database(snapshot_database(db), VeriDBConfig(key_seed=10))
    client = recovered.connect()
    assert client.execute("SELECT COUNT(*) FROM t").rows == ((24,),)


# ----------------------------------------------------------------------
# the snapshot path shares the WAL replay applier (regressions)
# ----------------------------------------------------------------------
def test_snapshot_replay_goes_through_the_shared_applier(db):
    """Snapshot recovery is the same op stream as WAL replay — proven by
    the replay fault site firing on it."""
    from repro.errors import TransientFault
    from repro.faults import ChaosPlane, ChaosSchedule, scoped_fault_plane, sites

    snap = snapshot_database(db)
    plane = ChaosPlane(
        ChaosSchedule(
            seed=3, rates={sites.WAL_REPLAY_ABORT: 1.0}, limit_per_site=1
        )
    )
    with scoped_fault_plane(plane):
        with pytest.raises(TransientFault):
            recover_database(snap, VeriDBConfig(key_seed=11))
        # replay mutates nothing shared; a fresh attempt succeeds
        recovered = recover_database(snap, VeriDBConfig(key_seed=11))
    assert recovered.sql("SELECT COUNT(*) FROM t").rows == [(24,)]


def test_snapshot_survives_drop_and_multiple_tables(db):
    db.sql("CREATE TABLE u (id INTEGER PRIMARY KEY, w INTEGER)")
    db.sql("INSERT INTO u VALUES (1, 11)")
    db.sql("CREATE TABLE doomed (id INTEGER PRIMARY KEY)")
    db.catalog.drop("doomed").store.destroy()
    recovered = recover_database(snapshot_database(db), VeriDBConfig(key_seed=12))
    names = {n.lower() for n in recovered.catalog.table_names()}
    assert names == {"t", "u"}
    assert recovered.sql("SELECT w FROM u").rows == [(11,)]


def test_snapshot_disk_round_trip_unchanged(db, tmp_path):
    from repro.core.recovery import load_snapshot, save_snapshot

    path = tmp_path / "snap.json"
    total = save_snapshot(snapshot_database(db), path)
    assert total == 24
    recovered = recover_database(load_snapshot(path), VeriDBConfig(key_seed=13))
    assert recovered.sql("SELECT SUM(v) FROM t").rows == db.sql("SELECT SUM(v) FROM t").rows
