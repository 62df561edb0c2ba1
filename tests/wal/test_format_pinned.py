"""The write-ahead log's on-disk format, pinned by a committed log.

``fixtures/format_v1`` is a log directory written by :func:`write_history`
and committed as bytes: DDL (CREATE and DROP), INSERT, UPDATE and DELETE
on typed rows, a sealed checkpoint, and a complete tail of three records
whose anchor slot never reached the journal (the crash between a
segment write and its anchor append). Any later tree must

* recover that directory to the same rows, row counts, content digest
  and last sequence number (the literals below were read off it with
  the code that wrote it), and
* write the same history to the same frame bodies, checkpoint seals,
  anchor plaintexts and ``NVCOUNTER`` — everything but the HEADER's
  random nonce and the MAC chain that nonce seeds.

A change that moves a byte of the format fails here. Regenerate the
fixture (``python tests/wal/test_format_pinned.py DIR``) only together
with a ``WAL_VERSION`` bump.
"""

import datetime
import json
import shutil
import sys
from pathlib import Path

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.wal import WAL_VERSION, WalReader, parse_segment
from repro.wal.log import ANCHOR_FILE, ANCHOR_SLOT_BYTES, NVCOUNTER_FILE, SEGMENT_GLOB
from repro.wal.records import HEADER, encode_body

FIXTURE = Path(__file__).parent / "fixtures" / "format_v1"
SEED = 113

GOLDEN = {
    "version": 1,
    "last_seq": 28,
    "anchored_seq": 25,
    "digest": "4603c356e98b262e3fb0644de9207b7b68038ef2768cf0c29002669be5e559ff",
    "counts": {"items": 9, "tags": 3},
    "items": [
        (1, "item-1", 1.25, datetime.date(2021, 6, 2)),
        (2, "item-2", 2.25, datetime.date(2021, 6, 3)),
        (3, "item-3", 99.5, datetime.date(2021, 6, 4)),
        (4, "item-4", 4.25, datetime.date(2021, 6, 5)),
        (5, "renamed", 5.25, datetime.date(2021, 6, 6)),
        (6, None, None, datetime.date(2021, 6, 7)),
        (7, "item-7", 7.25, datetime.date(2021, 6, 8)),
        (20, "late", -1.0, datetime.date(1999, 12, 31)),
        (21, "tail", None, datetime.date(2000, 2, 29)),
    ],
    "tags": [(0, 0), (3, 0), (4, 7)],
}


def write_history(wal_dir) -> None:
    """Log the fixture's history under ``wal_dir``, then cut the tail's anchor."""
    wal_dir = Path(wal_dir)
    db = VeriDB(VeriDBConfig(key_seed=SEED, wal_dir=str(wal_dir), wal_group_commit=4))
    db.sql(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price FLOAT, "
        "day DATE, CHAIN (day))"
    )
    db.sql("CREATE TABLE tags (id INTEGER PRIMARY KEY, item INTEGER NOT NULL)")
    db.sql("CREATE TABLE scratch (id INTEGER PRIMARY KEY)")
    for i in range(8):
        name = "NULL" if i == 6 else f"'item-{i}'"
        price = "NULL" if i % 3 == 0 else f"{i}.25"
        db.sql(f"INSERT INTO items VALUES ({i}, {name}, {price}, DATE '2021-06-{i + 1:02d}')")
    for i in range(5):
        db.sql(f"INSERT INTO tags VALUES ({i}, {i % 3})")
    db.sql("INSERT INTO scratch VALUES (1)")
    db.sql("UPDATE items SET price = 99.5 WHERE id = 3")
    db.sql("DELETE FROM tags WHERE id = 2")
    db.sql("DROP TABLE scratch")
    db.checkpoint()
    db.sql("INSERT INTO items VALUES (20, 'late', -1.0, DATE '1999-12-31')")
    db.sql("UPDATE tags SET item = 7 WHERE id = 4")
    db.sql("DELETE FROM items WHERE id = 0")
    db.wal.commit()
    anchored = (wal_dir / ANCHOR_FILE).stat().st_size
    db.sql("INSERT INTO items VALUES (21, 'tail', NULL, DATE '2000-02-29')")
    db.sql("UPDATE items SET name = 'renamed' WHERE id = 5")
    db.sql("DELETE FROM tags WHERE id = 1")
    db.wal.commit()
    # the crash: the tail's frames are whole in the segment, its anchor
    # slot is not in the journal
    with open(wal_dir / ANCHOR_FILE, "r+b") as fh:
        fh.truncate(anchored)


def _copy(tmp_path):
    target = tmp_path / "wal"
    shutil.copytree(FIXTURE, target)
    return target


def _enclave():
    return VeriDB(VeriDBConfig(key_seed=SEED)).enclave


def _reader(wal_dir):
    enclave = _enclave()
    return WalReader(wal_dir, key=enclave.keychain.key_for("wal"), unseal=enclave.unseal)


def _frames(wal_dir):
    records = []
    for path in sorted(Path(wal_dir).glob(SEGMENT_GLOB)):
        data = path.read_bytes()
        parsed, stop = parse_segment(data)
        assert stop == len(data)
        records.extend(parsed)
    return records


def _anchor_plaintexts(wal_dir):
    unseal = _enclave().unseal
    data = (Path(wal_dir) / ANCHOR_FILE).read_bytes()
    assert len(data) % ANCHOR_SLOT_BYTES == 0
    slots = []
    for i in range(0, len(data), ANCHOR_SLOT_BYTES):
        payload = json.loads(unseal(data[i : i + ANCHOR_SLOT_BYTES]))
        payload.pop("last_mac")  # chained from the HEADER's random nonce
        slots.append(payload)
    return slots


def test_version_is_unchanged():
    assert WAL_VERSION == GOLDEN["version"]


def test_parent_log_verifies_to_the_same_state(tmp_path):
    state = _reader(_copy(tmp_path)).load()
    assert state.last_seq == GOLDEN["last_seq"]
    assert state.anchor["last_seq"] == GOLDEN["anchored_seq"] < state.last_seq
    assert state.ledger.binding() == {
        "digest": GOLDEN["digest"],
        "tables": GOLDEN["counts"],
    }


def test_parent_log_recovers_to_the_same_rows(tmp_path):
    wal_dir = _copy(tmp_path)
    recovered = recover_from_wal(wal_dir, VeriDBConfig(key_seed=SEED))
    for table in ("items", "tags"):
        rows = recovered.sql(f"SELECT * FROM {table} ORDER BY id").rows
        assert rows == GOLDEN[table], table
    assert recovered.wal.content_digest_hex() == GOLDEN["digest"]
    # recovery sealed the rebuilt state with one checkpoint of its own
    assert recovered.wal.last_seq == GOLDEN["last_seq"] + 1
    recovered.verify_now()


def test_writer_reproduces_the_parent_bytes(tmp_path):
    fresh = tmp_path / "fresh"
    write_history(fresh)
    pinned, written = _frames(FIXTURE), _frames(fresh)
    assert [r.seq for r in written] == [r.seq for r in pinned]
    assert written[0].rtype == pinned[0].rtype == HEADER
    assert {**written[0].body, "nonce": ""} == {**pinned[0].body, "nonce": ""}
    # every later body — rows, schemas and the sealed checkpoint — is
    # byte-identical; only the MAC chain differs, seeded by the nonce
    for old, new in zip(pinned[1:], written[1:]):
        assert (new.rtype, encode_body(new.body)) == (old.rtype, encode_body(old.body))
    assert _anchor_plaintexts(fresh) == _anchor_plaintexts(FIXTURE)
    assert (fresh / NVCOUNTER_FILE).read_bytes() == (FIXTURE / NVCOUNTER_FILE).read_bytes()
    assert sorted(p.name for p in fresh.iterdir()) == sorted(
        p.name for p in FIXTURE.iterdir()
    )


if __name__ == "__main__":
    write_history(sys.argv[1])
