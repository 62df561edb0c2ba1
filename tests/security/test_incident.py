"""Forensic localization after a verification alarm."""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.incident import audit_table, investigate
from repro.errors import VerificationFailure
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr
from repro.obs import MetricsRegistry


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=66))
    database.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL, "
        "note TEXT, CHAIN (v))"
    )
    for i in range(20):
        database.sql(f"INSERT INTO t VALUES ({i}, {i * 2}, 'n{i}')")
    database.verify_now()
    return database


def _addr(db, pk):
    table = db.table("t")
    rid = table.indexes[0].search(pk)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    return make_addr(rid.page_id, offset), rid.page_id


def _alarm(db):
    with pytest.raises(VerificationFailure) as excinfo:
        db.verify_now()
    return excinfo.value


def test_clean_table_no_anomalies(db):
    assert audit_table(db.table("t")) == []
    report = investigate(db)
    assert not report.localized
    assert "manual audit" in report.summary()


def test_garbage_bytes_localized(db):
    addr, page_id = _addr(db, 7)
    cell = db.storage.memory.raw_read(addr)
    Adversary(db.storage.memory).corrupt(addr, b"\xde\xad\xbe\xef" * 8)
    error = _alarm(db)
    report = investigate(db, error)
    assert report.partition == error.partition
    assert report.localized
    kinds = {a.kind for a in report.anomalies}
    assert "undecodable" in kinds
    assert any(a.page_id == page_id for a in report.anomalies)
    assert "page" in report.summary()


def test_an_alarm_is_an_open_incident_on_the_gauge():
    registry = MetricsRegistry()
    database = VeriDB(VeriDBConfig(key_seed=66), registry=registry)
    database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.sql("INSERT INTO t VALUES (1, 2)")
    database.verify_now()
    assert registry.snapshot()["incidents.active"]["value"] == 0
    addr, _ = _addr(database, 1)
    Adversary(database.storage.memory).corrupt(addr, b"\x00" * 8)
    _alarm(database)
    assert registry.snapshot()["incidents.active"]["value"] == 1
    database.incidents.resolve("verification-alarm")
    assert registry.snapshot()["incidents.active"]["value"] == 0


def test_erased_record_localized(db):
    addr, page_id = _addr(db, 7)
    Adversary(db.storage.memory).erase(addr)
    error = _alarm(db)
    report = investigate(db, error)
    assert any(
        a.kind == "undecodable" and "vanished" in a.detail
        for a in report.anomalies
    )


def test_forged_nkey_localized_as_broken_link(db):
    """A well-formed forgery that redirects a chain pointer."""
    table = db.table("t")
    addr, _ = _addr(db, 7)
    cell = db.storage.memory.raw_read(addr)
    stored = table.layout.from_tuple(table.codec.decode(cell.data))
    stored.chain_nexts[0] = 9999  # no such key
    Adversary(db.storage.memory).corrupt(
        addr, table.codec.encode(table.layout.to_tuple(stored))
    )
    error = _alarm(db)
    report = investigate(db, error)
    kinds = {a.kind for a in report.anomalies}
    assert "broken-link" in kinds
    # the rest of the chain past the break is flagged as orphaned
    assert "orphan" in kinds


def test_payload_only_forgery_not_localized_but_evidenced(db):
    """A forgery that decodes and keeps chains intact: the partition
    digest mismatch remains the evidence."""
    table = db.table("t")
    addr, _ = _addr(db, 7)
    cell = db.storage.memory.raw_read(addr)
    stored = table.layout.from_tuple(table.codec.decode(cell.data))
    stored.data_fields = ("forged-note",)
    Adversary(db.storage.memory).corrupt(
        addr, table.codec.encode(table.layout.to_tuple(stored))
    )
    error = _alarm(db)
    report = investigate(db, error)
    assert not report.localized
    assert report.partition is not None
    assert "partition digest mismatch" in report.summary()


def test_forensics_do_not_disturb_state(db):
    """Auditing a healthy database leaves it verifiable."""
    audit_table(db.table("t"))
    db.verify_now()  # raw reads left no trace in RS/WS
