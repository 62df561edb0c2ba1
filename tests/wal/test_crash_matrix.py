"""Kill-at-every-fault-site crash matrix.

For each fault site that can fire on the durable write path, one test
run: arm only that site, drive a scripted DML workload until the
injected crash (or the workload's end), abandon the instance — the
process is modeled as dead — and recover from the log with chaos
disarmed. The recovered state must match a shadow model of the
acknowledged statements, and the recovered content digest must match a
digest recomputed from the shadow alone.

Crash semantics are honest: the statement *in flight* at the crash may
or may not have reached the log (exactly like a statement interrupted
by power loss), so the shadow allows both outcomes; every statement
acknowledged before the crash must survive, and nothing else may
appear.

Two sites invert the expectation by design: ``wal.fsync_lost`` is a
*lying* host (the sync is acknowledged but the bytes are dropped), so
recovery must refuse rather than serve a state missing acknowledged
writes; ``wal.replay_abort`` fires during recovery itself, and a fresh
attempt must succeed because replay never mutates the log.
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.crypto.keys import KeyChain
from repro.crypto.mac import TAG_SIZE, MessageAuthenticator
from repro.errors import RecoveryIntegrityError, StorageError, TransientFault, VeriDBError
from repro.faults import ChaosPlane, ChaosSchedule, scoped_fault_plane, sites
from repro.wal import row_element
from repro.storage.record import RecordCodec

#: sites the matrix kills at, with the documented recovery expectation
MATRIX = {
    sites.WAL_APPEND_TORN: "recover",
    sites.WAL_FSYNC_LOST: "refuse",
    sites.WAL_REPLAY_ABORT: "replay-retry",
    sites.SPLICE_INTERRUPTION: "recover",
    sites.TORN_WRITE: "recover",
    sites.TRANSIENT_READ_ERROR: "recover",
    sites.EPC_SWAP_ERROR: "recover",
}

SEED = 31


def build(tmp_path):
    cfg = VeriDBConfig(
        key_seed=SEED, wal_dir=str(tmp_path / "wal"), wal_group_commit=1
    )
    db = VeriDB(cfg)
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    return db, cfg


def base_load(db, shadow):
    for i in range(12):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
        shadow[i] = i * 10


#: (sql-template, shadow mutation) — replayed identically every run
def workload_steps(site):
    steps = [(f"INSERT INTO t VALUES ({100 + i}, {i})", ("ins", 100 + i, i)) for i in range(4)]
    if site != sites.TORN_WRITE:
        # updates/deletes read old rows back from (possibly mangled)
        # untrusted memory; under torn_write the workload stays
        # insert-only so the log carries only trusted bytes
        steps += [
            ("UPDATE t SET v = 777 WHERE id = 3", ("upd", 3, 777)),
            ("DELETE FROM t WHERE id = 5", ("del", 5, None)),
            ("INSERT INTO t VALUES (200, 42)", ("ins", 200, 42)),
            ("UPDATE t SET v = 888 WHERE id = 101", ("upd", 101, 888)),
        ]
    return steps


def apply_shadow(shadow, op):
    kind, key, value = op
    if kind == "ins":
        shadow[key] = value
    elif kind == "upd":
        shadow[key] = value
    elif kind == "del":
        del shadow[key]


def shadow_digest_hex(shadow, schema_rows_fn):
    """The content digest the log should bind, recomputed from the
    shadow model alone (same key derivation, independent bookkeeping:
    the XOR of every live row's keyed tag)."""
    auth = MessageAuthenticator(KeyChain(seed=SEED).key_for("wal"))
    codec = RecordCodec()
    digest = 0
    for row in schema_rows_fn(shadow):
        digest ^= int.from_bytes(row_element(auth, "t", codec.encode(row)), "little")
    return digest.to_bytes(TAG_SIZE, "little").hex()


def rows_of(shadow):
    return [(k, v) for k, v in sorted(shadow.items())]


@pytest.mark.parametrize("site", list(MATRIX))
def test_crash_at_site_then_recover(tmp_path, site):
    expectation = MATRIX[site]
    if expectation == "replay-retry":
        _run_replay_abort_case(tmp_path)
        return

    plane = ChaosPlane(
        ChaosSchedule(seed=7, rates={site: 1.0}, limit_per_site=2)
    )
    plane.disarm()
    shadow = {}
    crashed_op = None
    with scoped_fault_plane(plane):
        db, cfg = build(tmp_path)
        base_load(db, shadow)
        db.checkpoint()
        plane.arm()
        for sql, op in workload_steps(site):
            try:
                db.sql(sql)
            except VeriDBError:
                # the crash: the in-flight statement may or may not have
                # reached the log before the process died
                crashed_op = op
                break
            apply_shadow(shadow, op)
        plane.disarm()
    # the dead instance is abandoned here; recovery runs in a "new
    # process" with no chaos installed

    if expectation == "refuse":
        with pytest.raises(RecoveryIntegrityError) as caught:
            recover_from_wal(str(tmp_path / "wal"), cfg)
        assert caught.value.reason in ("truncated", "sequence", "mac-chain")
        return

    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    got = recovered.sql("SELECT id, v FROM t ORDER BY id").rows
    candidates = [rows_of(shadow)]
    if crashed_op is not None:
        with_crashed = dict(shadow)
        apply_shadow(with_crashed, crashed_op)
        candidates.append(rows_of(with_crashed))
    assert got in candidates, (site, got, candidates)
    # the recovered digest equals one recomputed from the shadow alone
    matching = dict(candidates[candidates.index(got)])
    assert recovered.wal.content_digest_hex() == shadow_digest_hex(
        matching, rows_of
    )
    # and the recovered instance still verifies and serves writes
    recovered.verify_now()
    recovered.sql("INSERT INTO t VALUES (999, 1)")
    recovered.wal.commit()


def _run_replay_abort_case(tmp_path):
    """The site that fires during recovery: retry-safe by design."""
    shadow = {}
    db, cfg = build(tmp_path)
    base_load(db, shadow)
    db.checkpoint()
    plane = ChaosPlane(
        ChaosSchedule(
            seed=7, rates={sites.WAL_REPLAY_ABORT: 1.0}, limit_per_site=1
        )
    )
    with scoped_fault_plane(plane):
        with pytest.raises(TransientFault):
            recover_from_wal(str(tmp_path / "wal"), cfg)
        # same process retries while the plane is still installed: the
        # single scheduled firing is exhausted, the log was untouched
        recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    assert recovered.sql("SELECT id, v FROM t ORDER BY id").rows == rows_of(shadow)


def test_torn_append_poisons_the_log_object(tmp_path):
    """After a torn sync the dying process cannot keep writing as if
    nothing happened — every further append refuses."""
    plane = ChaosPlane(
        ChaosSchedule(seed=7, rates={sites.WAL_APPEND_TORN: 1.0}, limit_per_site=1)
    )
    plane.disarm()
    with scoped_fault_plane(plane):
        db, cfg = build(tmp_path)
        db.sql("INSERT INTO t VALUES (1, 10)")
        plane.arm()
        with pytest.raises(TransientFault):
            db.sql("INSERT INTO t VALUES (2, 20)")
        plane.disarm()
        with pytest.raises(StorageError, match="torn"):
            db.sql("INSERT INTO t VALUES (3, 30)")
    recovered = recover_from_wal(str(tmp_path / "wal"), cfg)
    assert recovered.sql("SELECT id FROM t ORDER BY id").rows == [(1,)]
