"""The anchor journal: append-only sealed slots, compacted at checkpoints.

``ANCHOR`` is a file of fixed-size sealed slots; a sync appends one with
a single write on a descriptor the log holds open, and the newest
complete slot is the anchor (see :mod:`repro.wal.log`). These tests pin
the journal's four invariants: its length is bounded by the syncs since
the last compaction; the per-statement commit path creates, renames and
unlinks nothing; a crash at any byte of an append (or around a
compaction) is recovered from with every acknowledged statement intact;
and a flipped byte in *any* slot is refused, never papered over by an
older slot.
"""

import builtins
import dataclasses
import os
import shutil

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.errors import RecoveryIntegrityError, StorageError
from repro.obs import MetricsRegistry
from repro.wal.log import ANCHOR_FILE, ANCHOR_SLOT_BYTES

SEED = 71


def config(tmp_path, **kwargs):
    return VeriDBConfig(key_seed=SEED, wal_dir=str(tmp_path / "wal"), **kwargs)


def slots(tmp_path):
    size = (tmp_path / "wal" / ANCHOR_FILE).stat().st_size
    assert size % ANCHOR_SLOT_BYTES == 0
    return size // ANCHOR_SLOT_BYTES


def build(tmp_path, statements=6, **kwargs):
    """Checkpointed base + ``statements`` committed client statements.

    Returns the config and the model after each acknowledged statement
    (``models[i]`` = table contents once statement ``i`` was endorsed).
    """
    cfg = config(tmp_path, **kwargs)
    db = VeriDB(cfg)
    client = db.connect()
    client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    model = {}
    for i in range(4):
        client.execute(f"INSERT INTO t VALUES ({i}, {i * 10})")
        model[i] = i * 10
    db.checkpoint()
    models = [dict(model)]
    for i in range(statements):
        if i % 3 == 2:
            client.execute(f"UPDATE t SET v = {i} WHERE id = 1")
            model[1] = i
        else:
            client.execute(f"INSERT INTO t VALUES ({100 + i}, {i})")
            model[100 + i] = i
        models.append(dict(model))
    return cfg, db, models


def rows_of(model):
    return sorted(model.items())


def table_of(db):
    return db.sql("SELECT id, v FROM t ORDER BY id").rows


# ----------------------------------------------------------------------
# bounded: one slot per sync, collapsing at every compaction
# ----------------------------------------------------------------------
def test_journal_length_is_syncs_since_compaction_plus_one(tmp_path):
    registry = MetricsRegistry()
    cfg = config(tmp_path)
    db = VeriDB(cfg, registry=registry)
    syncs = registry.counter("wal.syncs")
    # the journal is born by the HEADER's sync: that one compacts
    assert slots(tmp_path) == syncs.value == 1
    client = db.connect()
    client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(5):
        client.execute(f"INSERT INTO t VALUES ({i}, {i})")
    assert slots(tmp_path) == syncs.value == 7
    db.checkpoint()
    assert slots(tmp_path) == 1
    base = syncs.value
    for i in range(5, 12):
        client.execute(f"INSERT INTO t VALUES ({i}, {i})")
    client.execute("SELECT COUNT(*) FROM t")  # reads never sync
    assert slots(tmp_path) == syncs.value - base + 1 == 8
    # the journal never outgrows the segment it anchors
    assert slots(tmp_path) <= db.wal.last_seq + 1

    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    # resume compacts, the recovery checkpoint compacts again
    assert slots(tmp_path) == 1
    recovered.sql("INSERT INTO t VALUES (99, 99)")
    recovered.wal.commit()
    assert slots(tmp_path) == 2


def test_group_commit_appends_one_slot_per_batch(tmp_path):
    db = VeriDB(config(tmp_path, wal_group_commit=4))
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.checkpoint()
    for i in range(8):
        db.sql(f"INSERT INTO t VALUES ({i}, {i})")
    assert slots(tmp_path) == 1 + 2


# ----------------------------------------------------------------------
# rename-free: the commit path opens, renames and unlinks nothing
# ----------------------------------------------------------------------
def test_commit_path_creates_renames_and_unlinks_nothing(tmp_path, monkeypatch):
    cfg, db, _ = build(tmp_path, statements=0)
    client = db.connect()
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(builtins, "open")
    for name in ("open", "replace", "rename", "unlink", "remove"):
        counting(os, name)
    before = slots(tmp_path)
    for i in range(100):
        client.execute(f"INSERT INTO t VALUES ({1000 + i}, {i})")
    assert calls == []
    assert slots(tmp_path) == before + 100
    # the boundaries that *do* replace files still work under the probe
    db.checkpoint()
    assert "replace" in calls
    assert slots(tmp_path) == 1


def test_fsync_mode_syncs_the_journal_and_the_directory(tmp_path, monkeypatch):
    """``wal_fsync=True`` means what it says: the journal descriptor is
    fsynced after each append, and a rename or a new segment's entry is
    made durable by fsyncing the log directory."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    wal_dir = str(tmp_path / "wal")
    db = VeriDB(config(tmp_path, wal_fsync=True))
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    synced.clear()
    db.sql("INSERT INTO t VALUES (1, 1)")
    db.wal.commit()
    assert synced == [f"{wal_dir}/wal-000000.log", f"{wal_dir}/{ANCHOR_FILE}"]
    synced.clear()
    db.checkpoint()
    # each replace (NVCOUNTER, ANCHOR) and the rolled segment's new
    # directory entry are followed by a directory fsync
    assert synced.count(wal_dir) == 3
    assert synced[-1] == wal_dir

    # and the default pays for none of it
    synced.clear()
    plain = VeriDB(VeriDBConfig(key_seed=SEED, wal_dir=str(tmp_path / "plain")))
    plain.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    plain.checkpoint()
    assert synced == []


# ----------------------------------------------------------------------
# no honest alarm: every crash point of an append or a compaction
# ----------------------------------------------------------------------
def test_torn_append_at_every_byte_recovers_every_acknowledged_statement(
    tmp_path,
):
    """The process dies part-way through appending statement N's slot:
    the journal keeps a prefix of it. N-1 statements were acknowledged
    (N's endorsement never left the enclave); recovery must accept and
    hold all of them — N's record is whole in the segment, so N itself
    survives too, as any complete chain-valid tail does."""
    cfg, db, models = build(tmp_path)
    anchor = tmp_path / "wal" / ANCHOR_FILE
    journal = anchor.read_bytes()
    last = len(journal) - ANCHOR_SLOT_BYTES
    work = tmp_path / "crash"
    for cut in range(last, len(journal)):
        _copy_log(tmp_path / "wal", work)
        (work / ANCHOR_FILE).write_bytes(journal[:cut])
        recovered = recover_from_wal(str(work), _at(cfg, work))
        assert table_of(recovered) == rows_of(models[-1]), cut
        recovered.wal.close()


def test_journal_cut_at_every_slot_boundary_recovers(tmp_path):
    """Dying between appends leaves whole slots only; whichever slot is
    newest, every statement it acknowledges is recovered."""
    cfg, db, models = build(tmp_path)
    journal = (tmp_path / "wal" / ANCHOR_FILE).read_bytes()
    n_slots = len(journal) // ANCHOR_SLOT_BYTES
    assert n_slots == len(models)  # compaction slot + one per statement
    work = tmp_path / "crash"
    for keep in range(1, n_slots + 1):
        _copy_log(tmp_path / "wal", work)
        (work / ANCHOR_FILE).write_bytes(journal[: keep * ANCHOR_SLOT_BYTES])
        recovered = recover_from_wal(str(work), _at(cfg, work))
        assert table_of(recovered) == rows_of(models[-1]), keep
        recovered.wal.close()


def test_crash_with_the_segment_torn_at_the_same_statement(tmp_path):
    """Power fails during statement N: its frame is half in the segment
    and its slot half in the journal. Exactly the N-1 acknowledged
    statements come back."""
    cfg, db, models = build(tmp_path)
    wal_dir = tmp_path / "wal"
    segment = sorted(wal_dir.glob("wal-*.log"))[-1]
    size_before_last = segment.stat().st_size
    db.connect().execute("INSERT INTO t VALUES (500, 5)")
    data = segment.read_bytes()
    torn = size_before_last + (len(data) - size_before_last) // 2
    segment.write_bytes(data[:torn])
    anchor = wal_dir / ANCHOR_FILE
    anchor.write_bytes(anchor.read_bytes()[: -ANCHOR_SLOT_BYTES // 2])
    recovered = recover_from_wal(str(wal_dir), cfg)
    assert table_of(recovered) == rows_of(models[-1])


def test_crash_around_compaction_recovers(tmp_path):
    """Compaction is write-temp-then-rename: before the rename the whole
    old journal stands (plus a stray temp file), after it the one-slot
    journal does. Both name the same anchor."""
    cfg, db, models = build(tmp_path)
    wal_dir = tmp_path / "wal"
    journal = (wal_dir / ANCHOR_FILE).read_bytes()
    # crash after the temp file was written, before the rename
    work = tmp_path / "before"
    _copy_log(wal_dir, work)
    (work / f".{ANCHOR_FILE}.tmp").write_bytes(journal[-ANCHOR_SLOT_BYTES:])
    recovered = recover_from_wal(str(work), _at(cfg, work))
    assert table_of(recovered) == rows_of(models[-1])
    assert (work / ANCHOR_FILE).stat().st_size == ANCHOR_SLOT_BYTES
    # crash right after the rename: only the newest slot remains
    work = tmp_path / "after"
    _copy_log(wal_dir, work)
    (work / ANCHOR_FILE).write_bytes(journal[-ANCHOR_SLOT_BYTES:])
    recovered = recover_from_wal(str(work), _at(cfg, work))
    assert table_of(recovered) == rows_of(models[-1])


# ----------------------------------------------------------------------
# same refusals: no slot is exempt from verification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ["first", "middle", "last"])
@pytest.mark.parametrize("offset", [0, 31, 32, ANCHOR_SLOT_BYTES - 1])
def test_flipped_byte_in_any_slot_is_unsealable(tmp_path, which, offset):
    """Tag, first and last ciphertext byte of the first, a middle and
    the last slot: never a silent fallback to an intact older slot."""
    cfg, db, _ = build(tmp_path)
    anchor = tmp_path / "wal" / ANCHOR_FILE
    blob = bytearray(anchor.read_bytes())
    n_slots = len(blob) // ANCHOR_SLOT_BYTES
    slot = {"first": 0, "middle": n_slots // 2, "last": n_slots - 1}[which]
    blob[slot * ANCHOR_SLOT_BYTES + offset] ^= 0x01
    anchor.write_bytes(bytes(blob))
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "wal"), cfg)
    assert caught.value.reason == "unsealable"


def test_journal_without_a_complete_slot_is_unsealable(tmp_path):
    cfg, db, _ = build(tmp_path)
    anchor = tmp_path / "wal" / ANCHOR_FILE
    anchor.write_bytes(anchor.read_bytes()[: ANCHOR_SLOT_BYTES - 1])
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "wal"), cfg)
    assert caught.value.reason == "unsealable"


def test_reordered_slots_are_refused(tmp_path):
    """Authentic slots in the wrong order: an old anchor moved to the
    end would otherwise roll the acknowledged prefix back."""
    cfg, db, _ = build(tmp_path)
    anchor = tmp_path / "wal" / ANCHOR_FILE
    blob = anchor.read_bytes()
    first, rest = blob[:ANCHOR_SLOT_BYTES], blob[ANCHOR_SLOT_BYTES:]
    anchor.write_bytes(rest + first)
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "wal"), cfg)
    assert caught.value.reason == "sequence"


def test_journal_rolled_back_past_the_segment_tail_is_refused(tmp_path):
    """``wal.fsync_lost`` in journal form: the newest slot proves a sync
    the segment does not hold."""
    cfg, db, _ = build(tmp_path)
    segment = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
    data = segment.read_bytes()
    segment.write_bytes(data[: len(data) - 9])
    with pytest.raises(RecoveryIntegrityError) as caught:
        recover_from_wal(str(tmp_path / "wal"), cfg)
    assert caught.value.reason == "truncated"


def test_failed_anchor_append_poisons_the_log(tmp_path, monkeypatch):
    """A slot may be half on disk after a failed write; appending behind
    it would misalign every later slot, so the log refuses to go on —
    and recovery drops the torn bytes."""
    cfg, db, models = build(tmp_path)
    anchor = db.wal._anchor

    class FullDisk:
        def write(self, data):
            anchor.write(data[:100])
            raise OSError(28, "No space left on device")

        def close(self):
            anchor.close()

    monkeypatch.setattr(db.wal, "_anchor", FullDisk())
    with pytest.raises(OSError):
        db.sql("INSERT INTO t VALUES (700, 7)")
        db.wal.commit()
    with pytest.raises(StorageError, match="torn"):
        db.sql("INSERT INTO t VALUES (701, 7)")
    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    expected = dict(models[-1])
    expected[700] = 7  # its frame is whole in the segment
    assert table_of(recovered) == rows_of(expected)


# ----------------------------------------------------------------------
# a fleet: every worker owns a journal, a restarted worker recovers it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["inproc", "process"])
def test_restarted_shard_worker_recovers_its_partition(tmp_path, transport):
    from repro.core.config import ShardConfig
    from repro.shard import ShardedDatabase

    base = config(tmp_path)
    db = ShardedDatabase(
        ShardConfig(shard_count=2, transport=transport, base=base)
    )
    try:
        client = db.connect()
        client.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(24):
            client.execute(f"INSERT INTO t VALUES ({i}, {i * 2})")
        client.execute("UPDATE t SET v = 1000 WHERE k = 5")
        client.execute("DELETE FROM t WHERE k = 7")
        expected = client.execute("SELECT k, v FROM t ORDER BY k").rows
        for shard in range(2):
            journal = tmp_path / "wal" / f"shard-{shard}" / ANCHOR_FILE
            assert journal.stat().st_size % ANCHOR_SLOT_BYTES == 0
            assert journal.stat().st_size > ANCHOR_SLOT_BYTES
        if transport == "process":
            db.links[0]._process.terminate()
            db.links[0]._process.join(timeout=10.0)
        db.restart_worker(0)
        assert client.execute("SELECT k, v FROM t ORDER BY k").rows == expected
        # recovery resumed (compaction) and checkpointed (compaction)
        restarted = tmp_path / "wal" / "shard-0" / ANCHOR_FILE
        assert restarted.stat().st_size == ANCHOR_SLOT_BYTES
        # the recovered worker keeps serving writes and closes an epoch
        client.execute("INSERT INTO t VALUES (100, 1)")
        assert len(client.execute("SELECT k FROM t").rows) == 24
        db.verify_now()
    finally:
        db.close()


def test_shard_reply_is_durable_at_default_group_commit(tmp_path):
    """A worker commits its log before it replies: with no log of its
    own, the coordinator endorses only over replies, so a restarted
    worker must hold every row the fleet acknowledged — at the default
    group commit, not only at 1."""
    from repro.core.config import ShardConfig
    from repro.shard import ShardedDatabase

    assert VeriDBConfig().wal_group_commit > 24
    db = ShardedDatabase(
        ShardConfig(shard_count=2, transport="inproc", base=config(tmp_path))
    )
    try:
        client = db.connect()
        client.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(24):
            client.execute(f"INSERT INTO t VALUES ({i}, {i * 3})")
        db.restart_worker(0)
        assert client.execute("SELECT k, v FROM t ORDER BY k").rows == tuple(
            (i, i * 3) for i in range(24)
        )
    finally:
        db.close()


# ----------------------------------------------------------------------
def _copy_log(src, dst):
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)


def _at(cfg, wal_dir):
    return dataclasses.replace(cfg, wal_dir=str(wal_dir))
