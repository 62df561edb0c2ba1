"""The write-ahead log writer: framing, chaining, group commit, segments.

Unit-level coverage of :mod:`repro.wal` — the frame codec round-trips,
the MAC chain binds position and content, group commit amortizes syncs,
segments roll at checkpoints, and a fresh instance refuses to squat on
an existing log. End-to-end write→crash→recover behaviour lives in
``test_crash_matrix.py`` / ``test_recovery_properties.py``; adversarial
mutations in ``test_tamper.py``.
"""

import json

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.crypto.keys import KeyChain
from repro.crypto.mac import MessageAuthenticator
from repro.errors import RecoveryIntegrityError, StorageError
from repro.obs import JsonlEventSink, MetricsRegistry, scoped_event_sink
from repro.wal import (
    DDL_CREATE,
    DDL_DROP,
    DELETE,
    GENESIS_MAC,
    HEADER,
    INSERT,
    UPDATE,
    ContentLedger,
    WalReader,
    chain_mac,
    encode_frame,
    parse_segment,
)
from repro.wal.log import ANCHOR_FILE, ANCHOR_PLAIN_BYTES
from repro.wal.records import encode_body, verify_chain, WalRecord


def auth():
    return MessageAuthenticator(KeyChain(seed=11).key_for("wal"))


def make_db(tmp_path, group_commit=1, registry=None, seed=11):
    cfg = VeriDBConfig(
        key_seed=seed,
        wal_dir=str(tmp_path / "wal"),
        wal_group_commit=group_commit,
    )
    db = VeriDB(cfg, registry=registry)
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    return db, cfg


# ----------------------------------------------------------------------
# the content ledger: one XOR fold per table, order-free, self-inverse
# ----------------------------------------------------------------------
def test_content_ledger_folds_every_logged_op():
    rows = [bytes([i]) * 5 for i in range(6)]
    forward, backward = ContentLedger(auth()), ContentLedger(auth())
    for ledger, order in ((forward, rows), (backward, rows[::-1])):
        ledger.apply(DDL_CREATE, "T")
        for row in order:
            ledger.apply(INSERT, "t", row)
    assert forward == backward and forward.counts == {"t": 6}
    # an update is a delete plus an insert; undoing it restores the digest
    forward.apply(UPDATE, "t", rows[0], b"new")
    assert forward != backward and forward.counts == {"t": 6}
    forward.apply(UPDATE, "t", b"new", rows[0])
    assert forward == backward
    for row in rows:
        forward.apply(DELETE, "t", row)
    assert forward.binding() == {"digest": "00" * 32, "tables": {"t": 0}}
    forward.apply(DDL_DROP, "t")
    assert forward.binding() == {"digest": "00" * 32, "tables": {}}
    with pytest.raises(KeyError):
        forward.apply(INSERT, "t", rows[0])


# ----------------------------------------------------------------------
# frame codec and MAC chain
# ----------------------------------------------------------------------
def test_frame_round_trips_through_parse_segment():
    a = auth()
    body1 = encode_body({"version": 1, "nonce": "aa"})
    mac1 = chain_mac(a, GENESIS_MAC, 1, HEADER, body1)
    body2 = encode_body({"table": "t", "row": "00ff"})
    mac2 = chain_mac(a, mac1, 2, INSERT, body2)
    data = encode_frame(1, HEADER, body1, mac1) + encode_frame(2, INSERT, body2, mac2)
    records, stop = parse_segment(data)
    assert stop == len(data)
    assert [(r.seq, r.rtype) for r in records] == [(1, HEADER), (2, INSERT)]
    assert records[1].body == {"table": "t", "row": "00ff"}
    assert verify_chain(a, GENESIS_MAC, records[0])
    assert verify_chain(a, records[0].mac, records[1])


def test_parse_segment_stops_at_torn_frame_without_raising():
    a = auth()
    body = encode_body({"version": 1, "nonce": "aa"})
    frame = encode_frame(1, HEADER, body, chain_mac(a, GENESIS_MAC, 1, HEADER, body))
    records, stop = parse_segment(frame + frame[: len(frame) // 2])
    assert len(records) == 1 and stop == len(frame)


def test_chain_mac_binds_sequence_type_and_predecessor():
    a = auth()
    body = encode_body({"x": 1})
    mac = chain_mac(a, GENESIS_MAC, 5, INSERT, body)
    assert mac != chain_mac(a, GENESIS_MAC, 6, INSERT, body)  # position
    assert mac != chain_mac(a, GENESIS_MAC, 5, HEADER, body)  # type
    assert mac != chain_mac(a, b"\x01" * 32, 5, INSERT, body)  # predecessor


def test_verify_chain_rejects_a_flipped_body():
    a = auth()
    body = {"table": "t", "row": "00"}
    enc = encode_body(body)
    mac = chain_mac(a, GENESIS_MAC, 1, INSERT, enc)
    good = WalRecord(seq=1, rtype=INSERT, body=body, mac=mac, offset=0)
    bad = WalRecord(seq=1, rtype=INSERT, body={"table": "t", "row": "01"}, mac=mac, offset=0)
    assert verify_chain(a, GENESIS_MAC, good)
    assert not verify_chain(a, GENESIS_MAC, bad)


# ----------------------------------------------------------------------
# group commit
# ----------------------------------------------------------------------
def test_group_commit_amortizes_syncs(tmp_path):
    registry = MetricsRegistry()
    db, _ = make_db(tmp_path, group_commit=8, registry=registry)
    base_syncs = registry.counter("wal.syncs").value
    for i in range(24):
        db.sql(f"INSERT INTO t VALUES ({i}, {i})")
    db.wal.commit()
    appends = registry.counter("wal.appends").value
    syncs = registry.counter("wal.syncs").value - base_syncs
    assert appends >= 24
    # 24 inserts in batches of 8 → 3 auto-syncs (+1 for the tail commit
    # at most); far fewer durability boundaries than records
    assert syncs <= 4
    assert db.wal.pending_records == 0


def test_commit_is_a_noop_on_an_empty_buffer(tmp_path):
    registry = MetricsRegistry()
    db, _ = make_db(tmp_path, group_commit=4, registry=registry)
    db.wal.commit()
    before = registry.counter("wal.syncs").value
    db.wal.commit()
    assert registry.counter("wal.syncs").value == before


def test_unsynced_tail_is_not_durable(tmp_path):
    """The durability boundary is the sync: buffered appends die with
    the process, exactly like a classic WAL's unflushed tail."""
    db, cfg = make_db(tmp_path, group_commit=64)
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.wal.commit()
    db.sql("INSERT INTO t VALUES (2, 20)")  # buffered, never synced
    assert db.wal.pending_records > 0
    # crash: the instance is abandoned without commit/close
    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    assert recovered.sql("SELECT id FROM t ORDER BY id").rows == [(1,)]


# ----------------------------------------------------------------------
# segments, checkpoints, fresh-open refusal
# ----------------------------------------------------------------------
def test_checkpoint_rolls_the_segment(tmp_path):
    db, _ = make_db(tmp_path)
    wal_dir = tmp_path / "wal"
    assert len(list(wal_dir.glob("wal-*.log"))) == 1
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.checkpoint()
    assert len(list(wal_dir.glob("wal-*.log"))) == 2
    db.checkpoint()
    assert len(list(wal_dir.glob("wal-*.log"))) == 3


def test_a_checkpoint_is_an_event_naming_its_segment(tmp_path):
    db, _ = make_db(tmp_path)
    db.sql("INSERT INTO t VALUES (1, 10)")
    with scoped_event_sink(JsonlEventSink()) as sink:
        db.checkpoint()
    (event,) = [e for e in sink.events if e["type"] == "wal_checkpoint"]
    assert event["last_seq"] == db.wal.last_seq  # the checkpoint record itself
    assert event["segment"] == 1  # the segment the checkpoint rolled to


def test_fresh_instance_refuses_an_existing_log(tmp_path):
    db, cfg = make_db(tmp_path)
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.wal.commit()
    with pytest.raises(StorageError, match="recover_from_wal"):
        VeriDB(cfg)


def test_recovery_refuses_an_empty_directory(tmp_path):
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "nothing"), VeriDBConfig(key_seed=11))
    assert caught.value.reason == "no-log"


def test_wrong_enclave_identity_cannot_recover(tmp_path):
    db, _ = make_db(tmp_path, seed=11)
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.wal.commit()
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "wal"), VeriDBConfig(key_seed=12))
    assert caught.value.reason == "unsealable"


# ----------------------------------------------------------------------
# end to end: write → crash → recover → keep writing → recover again
# ----------------------------------------------------------------------
def test_full_lifecycle_recover_write_recover(tmp_path):
    db, cfg = make_db(tmp_path, group_commit=4)
    for i in range(10):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    db.sql("UPDATE t SET v = 999 WHERE id = 3")
    db.sql("DELETE FROM t WHERE id = 7")
    db.checkpoint()
    db.sql("INSERT INTO t VALUES (100, 1)")
    db.wal.commit()
    expected = db.sql("SELECT id, v FROM t ORDER BY id").rows

    second = recover_from_wal(str(tmp_path / "wal"), cfg)
    assert second.sql("SELECT id, v FROM t ORDER BY id").rows == expected
    second.sql("INSERT INTO t VALUES (101, 2)")
    second.wal.commit()

    third = recover_from_wal(str(tmp_path / "wal"), cfg)
    rows = third.sql("SELECT id, v FROM t ORDER BY id").rows
    assert rows == expected + [(101, 2)]
    # recovered instances stay verifiable
    third.verify_now()


def test_dropped_table_leaves_the_digest_cleanly(tmp_path):
    db, cfg = make_db(tmp_path)
    db.sql("CREATE TABLE gone (id INTEGER PRIMARY KEY, v INTEGER)")
    db.sql("INSERT INTO gone VALUES (1, 1)")
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.catalog.drop("gone").store.destroy()
    db.checkpoint()
    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    assert "gone" not in {n.lower() for n in recovered.catalog.table_names()}
    assert recovered.sql("SELECT v FROM t").rows == [(10,)]


def test_recovered_counter_leaps_past_the_log(tmp_path):
    """No client may ever see a recovered instance reuse a sequence
    number — the restored counter skips a full window ahead."""
    db, cfg = make_db(tmp_path)
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.checkpoint()
    pre_crash = db.enclave.counter.read()
    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    assert recovered.enclave.counter.read() > pre_crash + 1000


def test_reader_returns_verified_state_for_honest_log(tmp_path):
    db, cfg = make_db(tmp_path)
    db.sql("INSERT INTO t VALUES (1, 10)")
    db.checkpoint()
    state = WalReader(
        tmp_path / "wal",
        key=db.enclave.keychain.key_for("wal"),
        unseal=db.enclave.unseal,
    ).load()
    assert state.last_seq == len(state.records)
    assert state.ledger.counts == {"t": 1}
    assert state.checkpoint is not None
    assert state.checkpoint["tables"] == {"t": 1}
    assert state.nv == 1


def test_unsupported_version_is_refused(tmp_path):
    """A log sealed under this enclave but of a version the reader does
    not speak is refused, not guessed at."""
    db, cfg = make_db(tmp_path)
    db.checkpoint()
    anchor = tmp_path / "wal" / ANCHOR_FILE
    payload = json.loads(db.enclave.unseal(anchor.read_bytes()))
    payload["version"] = 99
    anchor.write_bytes(db.enclave.seal(encode_body(payload).ljust(ANCHOR_PLAIN_BYTES)))
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "wal"), cfg)
    assert caught.value.reason == "version"
