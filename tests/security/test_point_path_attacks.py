"""The attested point path under attack.

A cached point SELECT reads one record: the untrusted primary index
names it, one verified read fetches it, and the ``⟨key, nKey⟩`` evidence
decoded from it proves presence or absence (Section 5.2). Every lie of
the index and every tampering of the record's cell must end in the same
typed alarm whatever the statement projects and whether the record
cache is on: projection changes which values are decoded, never the
evidence or the verified read.
"""

import pytest

from repro.catalog.types import BOTTOM, TOP
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import (
    IntegrityError,
    ProofError,
    StorageError,
    VerificationFailure,
)
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr
from repro.storage.config import StorageConfig

KEYS = range(0, 50, 5)
TARGET = 20
CACHES = {"cache_off": 0, "cache_small": 64 << 10}
PROJECTIONS = {
    "all_columns": "SELECT * FROM t WHERE id = ?",
    "one_column": "SELECT note FROM t WHERE id = ?",
}


def build(cache_bytes):
    db = VeriDB(
        VeriDBConfig(key_seed=3, storage=StorageConfig(cache_bytes=cache_bytes))
    )
    db.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, note TEXT, "
        "CHAIN(grp))"
    )
    db.load_rows("t", [(pk, pk * 2, f"note{pk}") for pk in KEYS])
    db.verify_now()
    client = db.connect()
    for sql in PROJECTIONS.values():  # warm the plan and record caches
        for pk in KEYS:
            client.execute(sql, params=(pk,))
    return db, client


def record_addr(db, pk):
    table = db.table("t")
    rid = table.indexes[0].search(pk)
    page = table.heap.get_page(rid.page_id)
    return make_addr(rid.page_id, page.slot_offset_for_compaction(rid.slot)[0])


# ----------------------------------------------------------------------
# the untrusted primary index lies: caught by the point evidence
# ----------------------------------------------------------------------
def lie_secondary_sentinel(db, client):
    table = db.table("t")
    table.indexes[0].insert(TARGET, table.indexes[1].search(BOTTOM))


def lie_non_predecessor(db, client):
    table = db.table("t")
    table.indexes[0].insert(TARGET, table.indexes[0].search(35))


def lie_freed_slot(db, client):
    table = db.table("t")
    rid = table.indexes[0].search(TARGET)
    client.execute("DELETE FROM t WHERE id = ?", params=(TARGET,))
    table.indexes[0].insert(TARGET, rid)


# ----------------------------------------------------------------------
# the record's cell is tampered with: caught by verified memory
# ----------------------------------------------------------------------
def tamper_payload(db, client):
    addr = record_addr(db, TARGET)
    cell = db.storage.memory.raw_read(addr)
    Adversary(db.storage.memory).corrupt(addr, cell.data[:-1] + b"X")


def tamper_stamp_rollback(db, client):
    addr = record_addr(db, TARGET)
    cell = db.storage.memory.raw_read(addr)
    Adversary(db.storage.memory).corrupt_timestamp(addr, cell.timestamp - 1)


def tamper_wipe(db, client):
    Adversary(db.storage.memory).erase(record_addr(db, TARGET))


#: attack -> the alarm it ends in, whatever the projection and cache
ATTACKS = {
    lie_secondary_sentinel: ProofError,
    lie_non_predecessor: ProofError,
    lie_freed_slot: StorageError,
    tamper_payload: VerificationFailure,
    tamper_stamp_rollback: VerificationFailure,
    tamper_wipe: VerificationFailure,
}


def first_alarm(db, client, sql):
    """The point query, then an epoch close; the first error either raises."""
    try:
        client.execute(sql, params=(TARGET,))
        db.verify_now()
    except (IntegrityError, StorageError) as alarm:
        return alarm
    return None


@pytest.mark.parametrize("projection", sorted(PROJECTIONS))
@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("attack", list(ATTACKS), ids=lambda a: a.__name__)
def test_point_attack_ends_in_its_typed_alarm(attack, cache, projection):
    db, client = build(CACHES[cache])
    attack(db, client)
    alarm = first_alarm(db, client, PROJECTIONS[projection])
    assert type(alarm) is ATTACKS[attack], f"{attack.__name__}: {alarm!r}"


# ----------------------------------------------------------------------
# absence: no row, and evidence that covers the missing key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache", sorted(CACHES))
def test_absent_key_returns_no_row_with_a_checked_absence_proof(cache):
    db, client = build(CACHES[cache])
    table = db.table("t")
    for missing, key, next_key in ((22, 20, 25), (-1, BOTTOM, 0), (99, 45, TOP)):
        for columns in (None, ("note",), ()):
            row, proof = table.get(missing, columns)
            assert row is None
            assert (proof.found, proof.key, proof.next_key) == (
                False,
                key,
                next_key,
            )
            proof.check()
        for sql in PROJECTIONS.values():
            assert client.execute(sql, params=(missing,)).rows == ()
    db.verify_now()


def test_point_read_projects_only_what_it_is_asked_for():
    db, _ = build(0)
    table = db.table("t")
    full, proof = table.get(TARGET)
    assert full == (TARGET, TARGET * 2, f"note{TARGET}")
    for columns in (("note",), ("grp", "id"), (), ("note", "note")):
        row, narrow_proof = table.get(TARGET, columns)
        assert narrow_proof == proof
        assert row == tuple(full[("id", "grp", "note").index(c)] for c in columns)
