"""Failure recovery (Section 5.1).

A power failure wipes both the enclave state (RS/WS digests, counter)
and, since VeriDB is an in-memory database, the data itself. Recovery
therefore piggybacks on ordinary database recovery: the new instance
replays the data from a durable source through the *normal verified
write interfaces*, which rebuilds the SGX synopsis as a side effect; the
always-running verification then protects the replayed state like any
other.

Two sources share one replay path (:func:`_replay_ops`):

* :func:`recover_from_wal` — the write-ahead log (:mod:`repro.wal`).
  The log is verified first (:class:`~repro.wal.reader.WalReader` runs
  the MAC-chain / anchor / checkpoint sequence and refuses with a typed
  :class:`~repro.errors.RecoveryIntegrityError` on truncation,
  reordering, splicing, bit flips, or rollback to an old checkpoint),
  then replayed, then cross-checked: the keyed content digest derived
  from the *recovered tables* must equal the digest derived from the
  *log*, and a full verification pass must close cleanly. Only then is
  the log resumed for appending and a fresh recovery checkpoint
  written.
* :func:`recover_database` — a replica snapshot
  (:class:`ReplicaSnapshot`), converted into the same DDL/DML op stream
  and fed through the same applier.

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
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

from repro.catalog.schema import Schema, schema_from_dict, schema_to_dict
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.crypto.mac import MessageAuthenticator
from repro.crypto.sethash import SetHash
from repro.errors import RecoveryIntegrityError
from repro.faults import default_fault_plane, sites as fault_sites
from repro.obs import default_event_sink, default_registry
from repro.storage.record import RecordCodec
from repro.wal import (
    DDL_CREATE,
    DDL_DROP,
    DELETE,
    INSERT,
    UPDATE,
    WalReader,
    WriteAheadLog,
    content_sethash,
    row_element,
)

#: how far the restored monotonic counter leaps past the highest value
#: the log vouches for. Reads advance the counter without leaving log
#: traffic, so the exact pre-crash value is unknowable; skipping ahead
#: guarantees post-recovery sequence numbers exceed anything any client
#: observed, so an honest recovery never trips the rollback audit.
COUNTER_SKIP = 1 << 16

#: record types the replay path applies (HEADER/CHECKPOINT carry no state)
_REPLAYABLE = (DDL_CREATE, DDL_DROP, INSERT, DELETE, UPDATE)


@dataclass
class ReplicaSnapshot:
    """What a (trusted-enough) replica ships for recovery: schemas + rows.

    The snapshot needs no authentication of its own — tampered rows
    replayed into the new instance are *that instance's* state, and the
    divergence is caught the same way any stale data is: query results
    simply reflect what was replayed, which the client cross-checks at
    the application level (the paper's non-goal: VeriDB detects, it does
    not tolerate).
    """

    tables: list[tuple[str, Schema, list[tuple]]]


def snapshot_database(db: VeriDB) -> ReplicaSnapshot:
    """Export every table (the replica's side of recovery)."""
    tables = []
    for name in db.catalog.table_names():
        info = db.catalog.lookup(name)
        rows = info.store.seq_scan()
        tables.append((name, info.schema, rows))
    return ReplicaSnapshot(tables)


# ----------------------------------------------------------------------
# the shared replay path
# ----------------------------------------------------------------------
def _apply_op(db: VeriDB, rtype: int, body: dict, codec: RecordCodec) -> None:
    """Apply one logged operation through the normal write interfaces."""
    if rtype == DDL_CREATE:
        db.create_table(body["table"], schema_from_dict(body["schema"]))
    elif rtype == DDL_DROP:
        info = db.catalog.drop(body["table"])
        info.store.destroy()
    elif rtype == INSERT:
        db.table(body["table"]).insert(codec.decode(bytes.fromhex(body["row"])))
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


def _replay_ops(db: VeriDB, ops: Iterable[tuple[int, dict]]) -> int:
    """Replay an op stream; returns how many operations were applied.

    Replay runs through ``create_table``/``insert``/``delete``/``update``
    — the verified write path — so the RS/WS synopsis, key chains,
    indexes and page digests are all rebuilt as a side effect, exactly
    the paper's recovery story.
    """
    faults = default_fault_plane()
    codec = RecordCodec()
    applied = 0
    for rtype, body in ops:
        # Injection site: replay dies mid-way through rebuilding state.
        # The log is read-only during replay and the half-built instance
        # is discarded, so a fresh recovery attempt is safe and succeeds.
        faults.check(fault_sites.WAL_REPLAY_ABORT)
        _apply_op(db, rtype, body, codec)
        applied += 1
    return applied


def recover_database(snapshot: ReplicaSnapshot, config=None) -> VeriDB:
    """Build a fresh instance and replay the snapshot through the normal
    write path, rebuilding all enclave-side verification state."""
    db = VeriDB(config)
    codec = RecordCodec()
    _replay_ops(db, _snapshot_ops(snapshot, codec))
    db.verify_now()  # the replayed state checks out immediately
    return db


def _snapshot_ops(
    snapshot: ReplicaSnapshot, codec: RecordCodec
) -> Iterator[tuple[int, dict]]:
    """A snapshot as the equivalent DDL/DML op stream (WAL-record bodies)."""
    for name, schema, rows in snapshot.tables:
        yield DDL_CREATE, {"table": name, "schema": schema_to_dict(schema)}
        for row in rows:
            yield INSERT, {"table": name, "row": codec.encode(tuple(row)).hex()}


# ----------------------------------------------------------------------
# verified crash recovery from the write-ahead log
# ----------------------------------------------------------------------
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
        applied = _replay_ops(
            db,
            (
                (record.rtype, record.body)
                for record in state.records
                if record.rtype in _REPLAYABLE
            ),
        )
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
    wal = WriteAheadLog.resume(
        wal_dir,
        key=wal_key,
        seal=db.enclave.seal,
        unseal=db.enclave.unseal,
        state=state,
        counter_read=db.enclave.counter.read,
        group_commit=config.wal_group_commit,
        fsync=config.wal_fsync,
        registry=db.obs,
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
                "tables": sorted(state.row_counts),
                "counter": state.counter + COUNTER_SKIP,
            }
        )
    return db


def _check_content_digests(db: VeriDB, state, wal_key: bytes) -> None:
    """The final gate: recovered tables must match the log's digest.

    The reader derived per-table keyed content digests from the *log*;
    here the same digests are derived from the *replayed tables* (read
    back through verified scans). Any divergence — an untrusted layer
    lying during replay, an applier bug — is refused rather than served.
    """
    auth = MessageAuthenticator(wal_key)
    codec = RecordCodec()
    derived: dict[str, SetHash] = {}
    counts: dict[str, int] = {}
    for name in db.catalog.table_names():
        info = db.catalog.lookup(name)
        lname = info.name.lower()
        digest = content_sethash()
        rows = info.store.seq_scan()
        for row in rows:
            digest.add(row_element(auth, lname, codec.encode(tuple(row))))
        derived[lname] = digest
        counts[lname] = len(rows)
    if counts != state.row_counts or derived != state.digests:
        raise RecoveryIntegrityError(
            "replayed tables do not match the log's content digest: "
            f"log binds {state.row_counts}, replay produced {counts}",
            reason="content-digest",
        )


# ----------------------------------------------------------------------
# disk persistence (what a replica would actually ship)
# ----------------------------------------------------------------------
_FORMAT_VERSION = 1


def save_snapshot(snapshot: ReplicaSnapshot, path: str | Path) -> int:
    """Write a snapshot to disk; returns the total row count.

    Rows are serialized with the canonical record codec (hex-encoded in
    a JSON envelope), so every SQL type — dates, floats, NULLs —
    round-trips exactly.
    """
    codec = RecordCodec()
    payload = {"version": _FORMAT_VERSION, "tables": []}
    total = 0
    for name, schema, rows in snapshot.tables:
        payload["tables"].append(
            {
                "name": name,
                "schema": schema_to_dict(schema),
                "rows": [codec.encode(tuple(row)).hex() for row in rows],
            }
        )
        total += len(rows)
    Path(path).write_text(json.dumps(payload))
    return total


def load_snapshot(path: str | Path) -> ReplicaSnapshot:
    """Read a snapshot written by :func:`save_snapshot`."""
    codec = RecordCodec()
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {payload.get('version')!r}"
        )
    tables = []
    for entry in payload["tables"]:
        schema = schema_from_dict(entry["schema"])
        rows = [codec.decode(bytes.fromhex(blob)) for blob in entry["rows"]]
        tables.append((entry["name"], schema, rows))
    return ReplicaSnapshot(tables)
