"""WAL verification and loading — the gate in front of crash recovery.

:meth:`WalReader.load` runs the full integrity sequence over an on-disk
log and either returns a verified :class:`WalState` or raises a typed
:class:`~repro.errors.RecoveryIntegrityError`; it never returns a
partially trusted log. The checks, in order:

1. the directory holds segments and a sealed anchor journal
   (``no-log`` / ``anchor-missing``); *every* slot of the journal and
   the hardware-counter file unseal under this enclave's key
   (``unsealable`` — one flipped bit anywhere in ``ANCHOR`` refuses, an
   older slot is never silently used instead), the slots' ``last_seq``
   never decreases (``sequence``), and the newest complete slot is the
   anchor; fewer than a slot of trailing bytes is an anchor append torn
   by a crash and is ignored;
2. the anchor's checkpoint ordinal matches the hardware monotonic
   counter — an anchor that has fallen behind it is a restored backup
   of the whole log state (``stale-checkpoint``);
3. every segment except the last parses to its final byte; trailing
   bytes mid-log are garbage, not a torn tail (``frame``). The last
   segment may end in a torn frame — a crash mid-sync — and those bytes
   become the resume path's truncate hint;
4. record sequence numbers run 1..N with no gap or repeat
   (``sequence``), the first record is a well-formed HEADER of a
   version we speak (``frame`` / ``version``);
5. the MAC chain verifies from genesis through every record
   (``mac-chain``) — a bit flip, reorder, or splice from another run
   breaks it at the first edited frame;
6. the anchored record exists and carries the anchored MAC: the sealed
   anchor proves how far the log had synced, so a log that ends before
   it was truncated (``truncated``) and a log whose record at that seq
   has a different MAC is a wholesale replacement (``mac-chain``);
7. every checkpoint body unseals and binds the running content digest
   and per-table row counts at its position (``checkpoint-binding``),
   and the log's last checkpoint is not older than the anchor's
   (``stale-checkpoint``).

Records beyond the anchor that are complete and chain-valid are
accepted — they were written, just not yet acknowledged when the
process died — mirroring how a classic WAL treats its tail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.crypto.mac import MessageAuthenticator
from repro.errors import IntegrityError, RecoveryIntegrityError
from repro.wal.log import (
    ANCHOR_FILE,
    ANCHOR_SLOT_BYTES,
    NVCOUNTER_FILE,
    SEGMENT_GLOB,
)
from repro.wal.records import (
    CHECKPOINT,
    GENESIS_MAC,
    HEADER,
    ROW_FIELDS,
    WAL_VERSION,
    ContentLedger,
    WalRecord,
    parse_segment,
    verify_chain,
)


@dataclass
class WalState:
    """A fully verified log, ready to replay and to resume writing."""

    records: list[WalRecord]
    last_seq: int
    last_mac: bytes
    nonce: str
    anchor: dict
    checkpoint: dict | None
    checkpoint_seq: int
    nv: int
    #: content digests and row counts the log derives (checkpoint-bound)
    ledger: ContentLedger
    #: (segment path, offset) of a torn tail to truncate before resuming
    truncate: tuple[Path, int] | None = None
    segments: list[Path] = field(default_factory=list)

    @property
    def counter(self) -> int:
        """Highest trusted-counter value the log vouches for."""
        anchored = self.anchor.get("counter", 0)
        checkpointed = self.checkpoint.get("counter", 0) if self.checkpoint else 0
        return max(anchored, checkpointed)


class WalReader:
    """Verify an on-disk log under this enclave's keys."""

    def __init__(
        self,
        directory: str | Path,
        key: bytes,
        unseal: Callable[[bytes], bytes],
    ):
        self._dir = Path(directory)
        self._auth = MessageAuthenticator(key)
        self._unseal = unseal

    # ------------------------------------------------------------------
    def load(self) -> WalState:
        """Run the verification sequence; return the state or refuse."""
        segments = sorted(self._dir.glob(SEGMENT_GLOB)) if self._dir.is_dir() else []
        if not segments:
            raise RecoveryIntegrityError(
                f"no write-ahead log found under {self._dir}", reason="no-log"
            )
        anchor = self._load_anchor()
        nv_hardware = self._load_nv()
        # the hardware counter only ever advances; an anchor behind it is
        # a restored backup of the whole log state (anchor + segments are
        # self-consistent, which is exactly why the counter must be
        # consulted). One ahead is the legal crash window between a
        # checkpoint's anchor write and its counter bump.
        if anchor["nv"] not in (nv_hardware, nv_hardware + 1):
            raise RecoveryIntegrityError(
                f"anchor checkpoint ordinal {anchor['nv']} does not match "
                f"the hardware monotonic counter {nv_hardware}: the log "
                f"was rolled back to an old checkpoint",
                reason="stale-checkpoint",
            )
        records, truncate = self._parse_segments(segments, anchor)
        self._check_header(records)
        self._check_sequence(records)
        self._check_chain(records)
        self._check_anchor_binding(records, anchor)
        ledger, checkpoint, checkpoint_seq = self._walk(records, anchor)
        last = records[-1]
        return WalState(
            records=records,
            last_seq=last.seq,
            last_mac=last.mac,
            nonce=records[0].body["nonce"],
            anchor=anchor,
            checkpoint=checkpoint,
            checkpoint_seq=checkpoint_seq,
            nv=anchor["nv"],
            ledger=ledger,
            truncate=truncate,
            segments=segments,
        )

    # ------------------------------------------------------------------
    # the individual checks
    # ------------------------------------------------------------------
    def _load_anchor(self) -> dict:
        """The newest slot of the anchor journal, every slot verified."""
        path = self._dir / ANCHOR_FILE
        if not path.exists():
            raise RecoveryIntegrityError(
                f"log at {self._dir} has segments but no sealed anchor",
                reason="anchor-missing",
            )
        data = path.read_bytes()
        payload = None
        # trailing bytes short of a slot are an append torn by a crash
        # (that sync was never acknowledged): the range stops before them
        for index in range(len(data) // ANCHOR_SLOT_BYTES):
            slot = data[index * ANCHOR_SLOT_BYTES : (index + 1) * ANCHOR_SLOT_BYTES]
            previous = payload
            try:
                payload = json.loads(self._unseal(slot).decode("utf-8"))
            except (IntegrityError, UnicodeDecodeError, json.JSONDecodeError) as err:
                raise RecoveryIntegrityError(
                    f"anchor slot {index} does not unseal under this "
                    f"enclave's key: {err}",
                    reason="unsealable",
                ) from err
            if payload.get("version") != WAL_VERSION:
                raise RecoveryIntegrityError(
                    f"unsupported wal version {payload.get('version')!r}",
                    reason="version",
                )
            if previous is not None and payload["last_seq"] < previous["last_seq"]:
                raise RecoveryIntegrityError(
                    f"anchor slot {index} steps back from seq "
                    f"{previous['last_seq']} to {payload['last_seq']}: the "
                    f"journal was reordered or spliced",
                    reason="sequence",
                )
        if payload is None:
            raise RecoveryIntegrityError(
                f"anchor journal holds no complete slot ({len(data)} bytes)",
                reason="unsealable",
            )
        return payload

    def _load_nv(self) -> int:
        path = self._dir / NVCOUNTER_FILE
        if not path.exists():
            # the hardware counter first materializes at checkpoint 1; a
            # pre-first-checkpoint log legitimately has none
            return 0
        try:
            payload = json.loads(self._unseal(path.read_bytes()).decode("utf-8"))
            return int(payload["nv"])
        except (IntegrityError, UnicodeDecodeError, json.JSONDecodeError, KeyError,
                TypeError, ValueError) as err:
            raise RecoveryIntegrityError(
                f"hardware-counter file does not unseal: {err}",
                reason="unsealable",
            ) from err

    def _parse_segments(
        self, segments: list[Path], anchor: dict
    ) -> tuple[list[WalRecord], tuple[Path, int] | None]:
        records: list[WalRecord] = []
        truncate: tuple[Path, int] | None = None
        last = len(segments) - 1
        for i, path in enumerate(segments):
            data = path.read_bytes()
            parsed, stop = parse_segment(data)
            records.extend(parsed)
            if stop == len(data):
                continue
            if i != last:
                raise RecoveryIntegrityError(
                    f"segment {path.name} holds unparseable bytes at offset "
                    f"{stop} with later segments present: mid-log garbage, "
                    f"not a torn tail",
                    reason="frame",
                )
            # trailing bytes in the final segment: a torn tail is only
            # believable for records the anchor never acknowledged —
            # the anchored-seq check below refuses anything deeper
            truncate = (path, stop)
        if not records:
            raise RecoveryIntegrityError(
                "log segments contain no complete records", reason="truncated"
            )
        return records, truncate

    @staticmethod
    def _check_header(records: list[WalRecord]) -> None:
        head = records[0]
        if head.rtype != HEADER or head.seq != 1 or "nonce" not in head.body:
            raise RecoveryIntegrityError(
                "log does not begin with a HEADER record", reason="frame"
            )
        if head.body.get("version") != WAL_VERSION:
            raise RecoveryIntegrityError(
                f"unsupported wal version {head.body.get('version')!r}",
                reason="version",
            )

    @staticmethod
    def _check_sequence(records: list[WalRecord]) -> None:
        for i, record in enumerate(records):
            if record.seq != i + 1:
                raise RecoveryIntegrityError(
                    f"record sequence breaks at position {i}: expected seq "
                    f"{i + 1}, found {record.seq} (reorder, gap, or splice)",
                    reason="sequence",
                )

    def _check_chain(self, records: list[WalRecord]) -> None:
        prev = GENESIS_MAC
        for record in records:
            if not verify_chain(self._auth, prev, record):
                raise RecoveryIntegrityError(
                    f"MAC chain breaks at seq {record.seq}: the record was "
                    f"modified, reordered, or spliced from another log",
                    reason="mac-chain",
                )
            prev = record.mac

    @staticmethod
    def _check_anchor_binding(records: list[WalRecord], anchor: dict) -> None:
        anchored_seq = anchor["last_seq"]
        if anchored_seq > records[-1].seq:
            raise RecoveryIntegrityError(
                f"the sealed anchor proves {anchored_seq} records were "
                f"synced but the log ends at seq {records[-1].seq}: "
                f"acknowledged records are missing (truncation or a lost "
                f"sync)",
                reason="truncated",
            )
        anchored = records[anchored_seq - 1]
        if anchored.mac.hex() != anchor["last_mac"]:
            raise RecoveryIntegrityError(
                f"record at anchored seq {anchored_seq} does not carry the "
                f"anchored MAC: the log was replaced wholesale",
                reason="mac-chain",
            )

    def _walk(
        self, records: list[WalRecord], anchor: dict
    ) -> tuple[ContentLedger, dict | None, int]:
        """Derive content digests and verify every checkpoint binding."""
        ledger = ContentLedger(self._auth)
        checkpoint: dict | None = None
        checkpoint_seq = 0
        for record in records:
            rtype, body = record.rtype, record.body
            try:
                if rtype == CHECKPOINT:
                    checkpoint = self._check_checkpoint(record, ledger)
                    checkpoint_seq = record.seq
                elif rtype in ROW_FIELDS:
                    rows = (bytes.fromhex(body[f]) for f in ROW_FIELDS[rtype])
                    ledger.apply(rtype, body["table"], *rows)
            except (KeyError, ValueError, AttributeError, TypeError) as err:
                raise RecoveryIntegrityError(
                    f"structurally impossible record at seq {record.seq} "
                    f"({err!r}): no honest writer produces this sequence",
                    reason="frame",
                ) from err
        if checkpoint_seq < anchor["checkpoint_seq"]:
            raise RecoveryIntegrityError(
                f"the anchor records a checkpoint at seq "
                f"{anchor['checkpoint_seq']} but the log's last checkpoint "
                f"is at {checkpoint_seq}: stale segments were swapped in",
                reason="stale-checkpoint",
            )
        return ledger, checkpoint, checkpoint_seq

    def _check_checkpoint(self, record: WalRecord, ledger: ContentLedger) -> dict:
        try:
            payload = json.loads(
                self._unseal(bytes.fromhex(record.body["sealed"])).decode("utf-8")
            )
        except (IntegrityError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise RecoveryIntegrityError(
                f"checkpoint at seq {record.seq} does not unseal: {err}",
                reason="unsealable",
            ) from err
        binding = ledger.binding()
        if any(payload.get(key) != value for key, value in binding.items()):
            raise RecoveryIntegrityError(
                f"checkpoint at seq {record.seq} does not bind the "
                f"log-derived content digest: the records before it were "
                f"rewritten consistently with the chain key but not with "
                f"the sealed binding",
                reason="checkpoint-binding",
            )
        return payload
