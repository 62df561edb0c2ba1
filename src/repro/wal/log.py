"""The write-ahead log writer: group commit, segments, sealed anchor.

Durability model
----------------

Appends buffer in memory; one *sync* — triggered when the buffer
reaches ``group_commit`` records, by an explicit :meth:`commit`, or by a
checkpoint — writes the whole batch with one fsync-equivalent, so the
hot write path pays the durability boundary per batch, not per record
(classic group commit: whichever thread syncs first carries every
buffered record with it, and :meth:`commit` returns fast when another
committer already drained the buffer).

Every sync finishes by appending one sealed **anchor** slot to the
anchor journal (``ANCHOR`` in the log directory): the last synced
sequence number and chain MAC, the latest checkpoint's sequence number,
the monotonic counter, and the checkpoint ordinal ``nv``. The anchor
stands in for SGX's replay-protected non-volatile state — it is what
lets recovery tell an honest torn tail (records *beyond* the anchor are
discarded, they were never acknowledged) from malicious truncation (the
anchor proves a record was synced; a log that lacks it is refused).

The anchor journal
------------------

``ANCHOR`` is an append-only file of fixed-size sealed slots
(:data:`ANCHOR_SLOT_BYTES` each: the canonical-JSON anchor payload
space-padded to :data:`ANCHOR_PLAIN_BYTES`, then sealed); the newest
complete slot *is* the anchor. A sync costs one ``write`` on a
descriptor the log holds open — no file creation, no rename — because
the commit-before-endorse rule makes every write statement of a
closed-loop client its own sync, and that boundary must be cheap. Three
syncs *compact* instead of appending — the HEADER's (the journal is
born), every checkpoint's, and the resume after recovery: their slot
atomically replaces the whole journal, by the same write-temp-then-
rename used for ``NVCOUNTER``. So:

* *bound* — ``ANCHOR`` holds one slot plus one per sync since the last
  checkpoint or resume: never more slots than the segment it anchors has
  records (+1, the checkpoint that opened it), and recovery's extra work
  is one unseal per slot;
* *crash* — an append torn at any byte leaves fewer than
  :data:`ANCHOR_SLOT_BYTES` trailing bytes, which the reader ignores
  (that sync was never acknowledged); a crash on either side of the
  compaction rename leaves the whole old journal or the one-slot new
  one, both naming the same anchor;
* *tamper* — the reader unseals **every** slot and requires
  ``last_seq`` to be non-decreasing, so a flipped bit anywhere in the
  file is refused, never papered over by falling back to an older slot.
  Cutting whole slots off the end is a restored older anchor — exactly
  what copying back an old ``ANCHOR`` always was, and bounded the same
  way, by the hardware counter, to the current epoch.

``NVCOUNTER`` simulates the platform's hardware monotonic counter: it
only ever advances, one tick per checkpoint, and the adversary in our
threat model (and in the tamper tests) cannot roll it back — exactly
the guarantee SGX's replay-protected counters provide. An anchor whose
``nv`` has fallen behind the hardware counter is a restored backup, and
recovery refuses it. The counter is bumped *after* the checkpoint's
anchor reaches disk, so a crash between the two leaves the anchor one
ahead of the hardware — recovery accepts ``nv`` or ``nv + 1``, never
less.

Segments roll after every checkpoint (``wal-000000.log``,
``wal-000001.log``, …), so each segment spans at most one epoch and old
epochs could be archived or shipped to replicas wholesale.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Iterable

import threading

from repro.catalog.schema import Schema, schema_to_dict
from repro.crypto.mac import TAG_SIZE, MessageAuthenticator
from repro.errors import StorageError, TransientFault
from repro.faults import default_fault_plane, sites as fault_sites
from repro.obs import default_event_sink, default_registry
from repro.storage.record import RecordCodec
from repro.wal.records import (
    CHECKPOINT,
    DDL_CREATE,
    DDL_DROP,
    DELETE,
    GENESIS_MAC,
    HEADER,
    INSERT,
    UPDATE,
    WAL_VERSION,
    ContentLedger,
    chain_mac,
    encode_body,
    encode_frame,
)

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
SEGMENT_GLOB = f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"
ANCHOR_FILE = "ANCHOR"
NVCOUNTER_FILE = "NVCOUNTER"

#: anchor payload padded to this many bytes before sealing; the largest
#: honest payload (every integer at 2**64 - 1) is 218 bytes
ANCHOR_PLAIN_BYTES = 224
#: one journal slot on disk — sealing adds one MAC tag to the plaintext
ANCHOR_SLOT_BYTES = ANCHOR_PLAIN_BYTES + TAG_SIZE


def segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def segment_index(path: Path) -> int:
    return int(path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


class WriteAheadLog:
    """MAC-chained, epoch-segmented write-ahead log for one database.

    Args:
        directory: untrusted log directory (created if missing). A fresh
            log refuses a directory that already holds segments — boot
            from an existing log only through
            :func:`repro.core.recovery.recover_from_wal`, which verifies
            it first.
        key: the enclave's wal sub-key (``keychain.key_for("wal")``) —
            MAC chain and content-digest elements are keyed under it.
        seal/unseal: the enclave's sealed-storage primitives, used for
            the anchor, the hardware-counter file and checkpoint bodies.
        counter_read: callable returning the trusted monotonic counter,
            snapshotted into every anchor.
        group_commit: records per sync (1 = sync every append).
        fsync: issue a real ``os.fsync`` per sync instead of a flush.
        resume: the :class:`~repro.wal.reader.WalState` of a verified
            log in ``directory`` — continue its chain instead of starting
            a fresh log (the crash recovery path, see
            :meth:`_open_resumed`).
    """

    def __init__(
        self,
        directory: str | Path,
        key: bytes,
        seal: Callable[[bytes], bytes],
        unseal: Callable[[bytes], bytes],
        counter_read: Callable[[], int] | None = None,
        group_commit: int = 64,
        fsync: bool = False,
        registry=None,
        faults=None,
        resume=None,
    ):
        if group_commit < 1:
            raise StorageError("wal group_commit must be >= 1")
        self._dir = Path(directory)
        self._auth = MessageAuthenticator(key)
        self._seal = seal
        self._unseal = unseal
        self._counter_read = counter_read
        self._group_commit = group_commit
        self._fsync = fsync
        self._codec = RecordCodec()
        self.faults = faults if faults is not None else default_fault_plane()
        self.obs = registry if registry is not None else default_registry()
        self._ctr_appends = self.obs.counter("wal.appends")
        self._ctr_syncs = self.obs.counter("wal.syncs")
        self._ctr_bytes = self.obs.counter("wal.bytes_written")

        self._lock = threading.RLock()
        self._buffer: list[bytes] = []
        self._poisoned = False
        #: the open anchor journal (see the module docstring)
        self._anchor = None
        #: per-table keyed content digests + row counts; what checkpoints
        #: bind and recovery cross-checks against the replayed tables
        self._ledger = ContentLedger(self._auth)

        self._dir.mkdir(parents=True, exist_ok=True)
        if resume is None:
            self._open_fresh()
        else:
            self._open_resumed(resume)

    # ------------------------------------------------------------------
    # construction paths
    # ------------------------------------------------------------------
    def _open_fresh(self) -> None:
        existing = sorted(self._dir.glob(SEGMENT_GLOB))
        if existing or (self._dir / ANCHOR_FILE).exists():
            raise StorageError(
                f"wal directory {self._dir} already holds a log; a fresh "
                f"instance must not overwrite it — recover it with "
                f"repro.core.recovery.recover_from_wal instead"
            )
        self._seq = 0
        self._chain = GENESIS_MAC
        self._checkpoint_seq = 0
        self._nv = 0
        self._segment_index = 0
        with self._lock:
            self._open_segment_locked()
            # per-run nonce: two logs under the same (seeded) key still
            # have disjoint MAC chains, so records cannot be cross-spliced
            self._append_locked(
                HEADER,
                {"version": WAL_VERSION, "nonce": os.urandom(16).hex()},
            )
            # the journal is born holding the HEADER's anchor
            self._sync_locked(compact=True)

    def _open_resumed(self, state) -> None:
        """Continue the chain of a verified log (crash recovery path).

        ``state`` is the :class:`~repro.wal.reader.WalState` the reader
        produced: recovery has already replayed and cross-checked it.
        A torn tail, if any, is truncated off (those bytes were never
        acknowledged), and writing continues in a fresh segment from the
        last accepted record's MAC.
        """
        if state.truncate is not None:
            path, offset = state.truncate
            with open(path, "ab") as fh:
                fh.truncate(offset)
        self._seq = state.last_seq
        self._chain = state.last_mac
        self._checkpoint_seq = state.checkpoint_seq
        self._nv = state.nv
        self._ledger.digests.update(state.ledger.digests)
        self._ledger.counts.update(state.ledger.counts)
        self._segment_index = segment_index(state.segments[-1]) + 1
        with self._lock:
            self._open_segment_locked()
            # converge the hardware counter (it may trail the anchor by
            # one if the crash hit between anchor write and counter bump)
            self._write_nv_locked()
            # one fresh slot replaces the dead instance's journal (and
            # any torn bytes at its end)
            self._compact_anchor_locked()

    # ------------------------------------------------------------------
    # append interface (called by catalog/table under their own locks)
    # ------------------------------------------------------------------
    def append_ddl_create(self, table: str, schema: Schema) -> None:
        with self._lock:
            self._ledger.apply(DDL_CREATE, table)
            self._append_locked(
                DDL_CREATE, {"table": table, "schema": schema_to_dict(schema)}
            )
            self._maybe_sync_locked()

    def append_ddl_drop(self, table: str) -> None:
        with self._lock:
            self._ledger.apply(DDL_DROP, table)
            self._append_locked(DDL_DROP, {"table": table})
            self._maybe_sync_locked()

    def append_insert(self, table: str, row: Iterable[Any]) -> None:
        with self._lock:
            row_bytes = self._codec.encode(tuple(row))
            self._ledger.apply(INSERT, table, row_bytes)
            self._append_locked(INSERT, {"table": table, "row": row_bytes.hex()})
            self._maybe_sync_locked()

    def append_delete(self, table: str, row: Iterable[Any]) -> None:
        """Log a delete; carries the *full* old row so replay and the
        content digest both have the removed element."""
        with self._lock:
            row_bytes = self._codec.encode(tuple(row))
            self._ledger.apply(DELETE, table, row_bytes)
            self._append_locked(DELETE, {"table": table, "row": row_bytes.hex()})
            self._maybe_sync_locked()

    def append_update(
        self, table: str, old_row: Iterable[Any], new_row: Iterable[Any]
    ) -> None:
        with self._lock:
            old_bytes = self._codec.encode(tuple(old_row))
            new_bytes = self._codec.encode(tuple(new_row))
            self._ledger.apply(UPDATE, table, old_bytes, new_bytes)
            self._append_locked(
                UPDATE,
                {"table": table, "old": old_bytes.hex(), "new": new_bytes.hex()},
            )
            self._maybe_sync_locked()

    # ------------------------------------------------------------------
    # durability boundaries
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Make everything appended so far durable (group commit).

        The caller's own records were appended earlier on its thread, so
        an empty buffer means another committer already carried them —
        the unlocked emptiness probe keeps that fast path one attribute
        read.
        """
        if not self._buffer:
            return
        with self._lock:
            self._sync_locked()

    def checkpoint(self, epoch: int, counter: int, rsws_hex: str) -> int:
        """Write a sealed checkpoint record and roll the segment.

        The sealed body binds the epoch, the trusted monotonic counter,
        the hardware-counter ordinal, the merged keyed content digest
        with per-table row counts, and the RSWS summary digest at epoch
        close. Returns the checkpoint's sequence number.
        """
        with self._lock:
            self._nv += 1
            sealed = self._seal(
                encode_body(
                    {
                        "epoch": epoch,
                        "counter": counter,
                        "nv": self._nv,
                        "rsws": rsws_hex,
                        **self._ledger.binding(),
                    }
                )
            )
            self._append_locked(CHECKPOINT, {"sealed": sealed.hex()})
            self._checkpoint_seq = self._seq
            # the checkpoint's anchor replaces the journal: the slots
            # before it anchored a segment this record seals
            self._sync_locked(compact=True)
            self._write_nv_locked()
            self._roll_segment_locked()
            seq = self._seq
            nv = self._nv
            segment = self._segment_index
        sink = default_event_sink()
        if sink.enabled:
            sink.emit(
                {
                    "type": "wal_checkpoint",
                    # not "seq": the sink stamps its own order under that key
                    "last_seq": seq,
                    "epoch": epoch,
                    "counter": counter,
                    "nv": nv,
                    "segment": segment,
                }
            )
        return seq

    def close(self) -> None:
        """Flush and release the segment and anchor-journal handles."""
        with self._lock:
            if not self._poisoned:
                self._sync_locked()
            self._file.close()
            self._anchor.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def last_seq(self) -> int:
        return self._seq

    @property
    def pending_records(self) -> int:
        return len(self._buffer)

    def content_digest_hex(self) -> str:
        """Merged (XOR) keyed content digest over every table's rows."""
        return self._ledger.digest_hex()

    # ------------------------------------------------------------------
    # internals (all called with the lock held)
    # ------------------------------------------------------------------
    def _append_locked(self, rtype: int, payload: dict) -> None:
        if self._poisoned:
            raise StorageError(
                "write-ahead log is unusable after a torn sync; restart "
                "and recover from the log"
            )
        self._seq += 1
        body = encode_body(payload)
        mac = chain_mac(self._auth, self._chain, self._seq, rtype, body)
        self._buffer.append(encode_frame(self._seq, rtype, body, mac))
        self._chain = mac
        self._ctr_appends.inc()

    def _maybe_sync_locked(self) -> None:
        if len(self._buffer) >= self._group_commit:
            self._sync_locked()

    def _sync_locked(self, compact: bool = False) -> None:
        """Write the buffered batch, then acknowledge it in the anchor
        journal — by appending a slot, or (``compact``) by atomically
        replacing the whole journal with that one slot."""
        if not self._buffer or self._poisoned:
            return
        payload = b"".join(self._buffer)
        # Injection site: the host crashes part-way through writing the
        # batch — a prefix of the bytes lands, the anchor is NOT
        # advanced, and the log object is dead (the process is modeled
        # as gone). Recovery discards the torn tail: none of these
        # records were ever acknowledged as durable.
        try:
            self.faults.check(fault_sites.WAL_APPEND_TORN)
        except TransientFault:
            self._file.write(payload[: max(1, len(payload) // 2)])
            self._file.flush()
            self._poisoned = True
            raise
        # Injection site: the host *acknowledges* the sync but silently
        # drops the bytes. Nothing surfaces here — that is the attack —
        # so the anchor advances past the end of the real log, which is
        # exactly what recovery refuses.
        try:
            self.faults.check(fault_sites.WAL_FSYNC_LOST)
        except TransientFault:
            pass
        else:
            self._file.write(payload)
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())
            self._ctr_bytes.inc(len(payload))
        self._buffer.clear()
        if compact:
            self._compact_anchor_locked()
        else:
            self._write_anchor_locked()
        self._ctr_syncs.inc()

    def _anchor_slot(self) -> bytes:
        """The current anchor as one sealed, fixed-size journal slot."""
        counter = self._counter_read() if self._counter_read is not None else 0
        body = encode_body(
            {
                "version": WAL_VERSION,
                "last_seq": self._seq,
                "last_mac": self._chain.hex(),
                "checkpoint_seq": self._checkpoint_seq,
                "counter": counter,
                "nv": self._nv,
            }
        )
        # trailing spaces are legal JSON whitespace: the reader parses
        # the padded payload unchanged
        slot = self._seal(body.ljust(ANCHOR_PLAIN_BYTES))
        if len(slot) != ANCHOR_SLOT_BYTES:
            raise StorageError(
                f"anchor slot is {len(slot)} bytes, not {ANCHOR_SLOT_BYTES}"
            )
        return slot

    def _write_anchor_locked(self) -> None:
        """Acknowledge a sync: append one slot to the open journal."""
        slot = self._anchor_slot()
        try:
            written = self._anchor.write(slot)
            while written < len(slot):  # a raw write may come up short
                written += self._anchor.write(slot[written:])
            if self._fsync:
                os.fsync(self._anchor.fileno())
        except OSError:
            # part of a slot may be on disk, and a later append would
            # land misaligned behind it; recovery drops the torn bytes
            self._poisoned = True
            raise

    def _compact_anchor_locked(self) -> None:
        """Atomically replace the journal with one slot and reopen it."""
        self._replace_file(ANCHOR_FILE, self._anchor_slot())
        stale = self._anchor
        # unbuffered: an append is exactly one write(2), nothing to flush
        self._anchor = open(self._dir / ANCHOR_FILE, "ab", buffering=0)
        if stale is not None:
            stale.close()

    def _write_nv_locked(self) -> None:
        self._replace_file(NVCOUNTER_FILE, self._seal(encode_body({"nv": self._nv})))

    def _replace_file(self, name: str, blob: bytes) -> None:
        """Atomic write: the file holds either the old or the new value."""
        tmp = self._dir / f".{name}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self._dir / name)
        self._sync_dir()

    def _sync_dir(self) -> None:
        """Under ``fsync``, make a rename or a new file's entry durable."""
        if not self._fsync:
            return
        fd = os.open(self._dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _open_segment_locked(self) -> None:
        self._file = open(self._dir / segment_name(self._segment_index), "ab")
        self._sync_dir()

    def _roll_segment_locked(self) -> None:
        self._file.close()
        self._segment_index += 1
        self._open_segment_locked()
