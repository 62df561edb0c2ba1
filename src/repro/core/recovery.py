"""Failure recovery (Section 5.1).

A power failure wipes both the enclave state (RS/WS digests, counter)
and, since VeriDB is an in-memory database, the data itself. Recovery
therefore piggybacks on ordinary database recovery: the new instance
replays the data from a durable source through the *normal verified
write interfaces*, which rebuilds the SGX synopsis as a side effect; the
always-running verification then protects the replayed state like any
other.

There is one durable source and one rebuild path,
:func:`recover_from_wal`. The write-ahead log (:mod:`repro.wal`) is
verified first (:class:`~repro.wal.reader.WalReader` runs the MAC-chain
/ anchor / checkpoint sequence and refuses with a typed
:class:`~repro.errors.RecoveryIntegrityError` on truncation, reordering,
splicing, bit flips, or rollback to an old checkpoint), then replayed,
then cross-checked: the keyed content digest derived from the
*recovered tables* must equal the digest derived from the *log*, and a
full verification pass must close cleanly. Only then is the log resumed
for appending and a fresh recovery checkpoint written.

A replica snapshot is a log with a short history:
:func:`snapshot_database` writes one DDL_CREATE per table, one INSERT
per live row and one sealed CHECKPOINT, so a restore is
:func:`recover_from_wal` over that directory and carries the same
evidence as the log it stands in for.

Rollback detection is layered: whole-log rollback is refused by the
hardware-counter check in the reader (``stale-checkpoint``); rollback
*within* the last checkpoint interval is outside what the log can prove
and falls to the client's sequence-number audit — which is why the
restored monotonic counter leaps ahead by :data:`COUNTER_SKIP`, so no
post-recovery query can re-issue a sequence number any client has
already seen.
"""

from __future__ import annotations

import dataclasses
from itertools import groupby
from pathlib import Path
from time import perf_counter

from repro.catalog.schema import schema_from_dict
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.crypto.mac import MessageAuthenticator
from repro.errors import RecoveryIntegrityError
from repro.faults import default_fault_plane, sites as fault_sites
from repro.obs import default_event_sink, default_registry
from repro.storage.record import RecordCodec
from repro.storage.table_store import row_chunks
from repro.wal import (
    DDL_CREATE,
    DDL_DROP,
    DELETE,
    INSERT,
    ROW_FIELDS,
    UPDATE,
    ContentLedger,
    WalReader,
    WriteAheadLog,
)

#: how far the restored monotonic counter leaps past the highest value
#: the log vouches for. Reads advance the counter without leaving log
#: traffic, so the exact pre-crash value is unknowable; skipping ahead
#: guarantees post-recovery sequence numbers exceed anything any client
#: observed, so an honest recovery never trips the rollback audit.
COUNTER_SKIP = 1 << 16


def snapshot_database(db: VeriDB, directory: str | Path) -> int:
    """Write ``db`` to ``directory`` as a sealed, checkpoint-only log.

    The ordinary :class:`~repro.wal.WriteAheadLog`, keyed and sealed by
    ``db``'s enclave, logs one DDL_CREATE per table and one INSERT per
    row read back through verified scans, then one CHECKPOINT binding
    their content digest. Restore it with :func:`recover_from_wal` under
    the same ``key_seed`` — another enclave identity cannot unseal it —
    which resumes the log in place: copy the directory first to restore
    it twice. Returns the number of rows written; a directory left by a
    call that raised holds a prefix of the log, not a snapshot.
    """
    enclave = db.enclave
    wal = WriteAheadLog(
        directory,
        key=enclave.keychain.key_for("wal"),
        seal=enclave.seal,
        unseal=enclave.unseal,
        counter_read=enclave.counter.read,
    )
    rows = 0
    try:
        for name in db.catalog.table_names():
            info = db.catalog.lookup(name)
            wal.append_ddl_create(info.name, info.schema)
            for row in info.store.seq_scan():
                wal.append_insert(info.name, row)
                rows += 1
        wal.checkpoint(
            epoch=db.storage.vmem.epoch,
            counter=enclave.counter.read(),
            rsws_hex=db._rsws_summary(),
        )
    finally:
        wal.close()
    return rows


def _apply_op(db: VeriDB, rtype: int, body: dict, codec: RecordCodec) -> None:
    """Apply one logged non-INSERT operation through the write interfaces."""
    if rtype == DDL_CREATE:
        db.create_table(body["table"], schema_from_dict(body["schema"]))
    elif rtype == DDL_DROP:
        info = db.catalog.drop(body["table"])
        info.store.destroy()
    elif rtype == DELETE:
        store = db.table(body["table"])
        row = codec.decode(bytes.fromhex(body["row"]))
        store.delete(row[store.schema.primary_key_index])
    elif rtype == UPDATE:
        store = db.table(body["table"])
        new_row = codec.decode(bytes.fromhex(body["new"]))
        store.update(
            new_row[store.schema.primary_key_index],
            dict(zip(store.schema.column_names, new_row)),
        )


def _replay(db: VeriDB, records) -> int:
    """Replay a verified log; returns how many operations were applied.

    Replay runs through ``create_table``/``insert_many``/``delete``/
    ``update`` — the verified write path — so the RS/WS synopsis, key
    chains, indexes and page digests are all rebuilt as a side effect,
    exactly the paper's recovery story; consecutive INSERTs into one
    table splice ``BATCH_ROWS`` at a time. HEADER and CHECKPOINT carry
    no state.
    """
    faults = default_fault_plane()
    codec = RecordCodec()
    applied = 0
    logged = (record for record in records if record.rtype in ROW_FIELDS)
    for table, run in groupby(
        logged, lambda record: record.body["table"] if record.rtype == INSERT else None
    ):
        for chunk in row_chunks(run):
            # Injection site, once per record: replay dies mid-way. The log
            # is read-only during replay and the half-built instance is
            # discarded, so a fresh recovery attempt is safe and succeeds.
            for record in chunk:
                faults.check(fault_sites.WAL_REPLAY_ABORT)
                if table is None:
                    _apply_op(db, record.rtype, record.body, codec)
            if table is not None:
                db.table(table).insert_many(
                    [codec.decode(bytes.fromhex(r.body["row"])) for r in chunk]
                )
            applied += len(chunk)
    return applied


def recover_from_wal(
    wal_dir: str | Path, config: VeriDBConfig | None = None, registry=None
) -> VeriDB:
    """Rebuild a proven-consistent instance from its write-ahead log.

    ``config`` must match the dead instance's (same ``key_seed`` — a
    different enclave identity cannot unseal the anchor and is refused).
    The returned database has the log attached and resumed: writes
    continue the MAC chain, and a fresh recovery checkpoint has already
    sealed the recovered state.

    Raises :class:`~repro.errors.RecoveryIntegrityError` (typed
    ``reason``) whenever the log fails verification; a refused recovery
    touches nothing durable, so the evidence is preserved for audit.
    """
    config = config if config is not None else VeriDBConfig()
    obs = registry if registry is not None else default_registry()
    start = perf_counter()
    # the replayed instance must not log its own replay: it starts
    # without a wal and has the verified log attached afterwards
    db = VeriDB(dataclasses.replace(config, wal_dir=None), registry=registry)
    wal_key = db.enclave.keychain.key_for("wal")
    reader = WalReader(wal_dir, key=wal_key, unseal=db.enclave.unseal)
    try:
        state = reader.load()
        applied = _replay(db, state.records)
        _check_content_digests(db, state, wal_key)
        # a full pass over the replayed state must close cleanly before
        # the instance is trusted to serve
        db.verify_now()
    except RecoveryIntegrityError as refusal:
        obs.counter("recovery.refusals").inc()
        sink = default_event_sink()
        if sink.enabled:
            sink.emit(
                {
                    "type": "recovery_refused",
                    "wal_dir": str(wal_dir),
                    "reason": refusal.reason,
                    "error": str(refusal),
                }
            )
        raise
    db.enclave.counter.restore(state.counter + COUNTER_SKIP)
    wal = WriteAheadLog(
        wal_dir,
        key=wal_key,
        seal=db.enclave.seal,
        unseal=db.enclave.unseal,
        counter_read=db.enclave.counter.read,
        group_commit=config.wal_group_commit,
        fsync=config.wal_fsync,
        registry=db.obs,
        resume=state,
    )
    db.attach_wal(wal)
    # seal the recovered state: the next crash replays from here with
    # the recovery itself on the record
    db.checkpoint()
    obs.counter("recovery.recoveries").inc()
    obs.counter("recovery.records_replayed").inc(applied)
    obs.histogram("recovery.seconds").observe(perf_counter() - start)
    sink = default_event_sink()
    if sink.enabled:
        sink.emit(
            {
                "type": "recovery_complete",
                "wal_dir": str(wal_dir),
                "records_replayed": applied,
                "last_seq": state.last_seq,
                "tables": sorted(state.ledger.counts),
                "counter": state.counter + COUNTER_SKIP,
            }
        )
    return db


def _check_content_digests(db: VeriDB, state, wal_key: bytes) -> None:
    """The final gate: recovered tables must match the log's digest.

    The reader derived per-table keyed content digests from the *log*;
    here the same ledger is folded over the *replayed tables* (read back
    through verified scans). Any divergence — an untrusted layer lying
    during replay, an applier bug — is refused rather than served.
    """
    derived = ContentLedger(MessageAuthenticator(wal_key))
    codec = RecordCodec()
    for name in db.catalog.table_names():
        derived.apply(DDL_CREATE, name)
        for row in db.table(name).seq_scan():
            derived.apply(INSERT, name, codec.encode(tuple(row)))
    if derived != state.ledger:
        raise RecoveryIntegrityError(
            "replayed tables do not match the log's content digest: "
            f"log binds {state.ledger.counts}, replay produced {derived.counts}",
            reason="content-digest",
        )
