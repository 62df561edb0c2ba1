"""WAL record framing and the MAC chain.

One log record is one *frame*::

    [body_len u32 LE] [seq u64 LE] [type u8] [body bytes] [mac 32 bytes]

``body`` is canonical JSON (sorted keys, UTF-8); rows inside bodies are
hex-encoded through the canonical :class:`~repro.storage.record.RecordCodec`
so every SQL type round-trips exactly.

The MAC chain (what makes the log tamper-evident on an untrusted disk)::

    mac_i = HMAC(wal_key, mac_{i-1} ‖ seq_i ‖ type_i ‖ body_i)

with ``mac_0`` the all-zero genesis value. Every record therefore
commits to the entire prefix: flipping a byte, reordering two records,
or splicing records from another log breaks verification at (or after)
the first edited frame. The HEADER record carries a per-run random
nonce, so even two logs written under the *same* key (same deterministic
seed) have disjoint chains and cannot be cross-spliced.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from repro.crypto.mac import TAG_SIZE, MessageAuthenticator

#: format version carried by the HEADER record
WAL_VERSION = 1

#: record types
HEADER = 1
DDL_CREATE = 2
DDL_DROP = 3
INSERT = 4
DELETE = 5
UPDATE = 6
CHECKPOINT = 7

RECORD_TYPES = (HEADER, DDL_CREATE, DDL_DROP, INSERT, DELETE, UPDATE, CHECKPOINT)

#: the replayable record types, each with the body fields holding its
#: encoded rows in the order :meth:`ContentLedger.apply` folds them
ROW_FIELDS = {
    DDL_CREATE: (),
    DDL_DROP: (),
    INSERT: ("row",),
    DELETE: ("row",),
    UPDATE: ("old", "new"),
}

#: the chain value "before" the first record
GENESIS_MAC = b"\x00" * TAG_SIZE

#: sanity bound on a single body — a frame claiming more is garbage,
#: not a record (keeps a corrupted length prefix from swallowing the log)
MAX_BODY_BYTES = 1 << 26

_PREFIX = struct.Struct("<IQB")  # body_len, seq, type


def encode_body(payload: dict) -> bytes:
    """Canonical JSON encoding of a record body."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def chain_mac(
    auth: MessageAuthenticator, prev_mac: bytes, seq: int, rtype: int, body: bytes
) -> bytes:
    """The record's chained MAC (commits to the whole log prefix)."""
    return auth.tag(prev_mac, seq.to_bytes(8, "little"), bytes([rtype]), body)


def row_element(auth: MessageAuthenticator, table: str, row_bytes: bytes) -> bytes:
    """The content-digest element for one row of ``table``.

    Keyed (under the wal key), so an adversary who can read the log
    cannot construct colliding XOR combinations offline; includes the
    table name, so identical rows in different tables are distinct
    elements.
    """
    return auth.tag(b"row", table.lower().encode("utf-8"), row_bytes)


def encode_frame(seq: int, rtype: int, body: bytes, mac: bytes) -> bytes:
    """Serialize one record to its on-disk frame."""
    return _PREFIX.pack(len(body), seq, rtype) + body + mac


@dataclass(frozen=True)
class WalRecord:
    """One parsed (not yet chain-verified) log record."""

    seq: int
    rtype: int
    body: dict
    mac: bytes
    #: byte offset of this frame's first byte within its segment
    offset: int


def parse_segment(data: bytes) -> tuple[list[WalRecord], int]:
    """Parse frames out of one segment's bytes.

    Returns ``(records, stop_offset)`` where ``stop_offset`` is the
    first byte that is *not* part of a complete, well-formed frame.
    ``stop_offset == len(data)`` means the segment parsed cleanly;
    anything earlier is either a torn tail (crash mid-sync — legal at
    the very end of the last segment) or mid-log garbage (never legal).
    Parsing is deliberately permissive — it never raises — so the
    *reader* decides, with the sealed anchor in hand, whether trailing
    bytes are a tolerable torn tail or evidence of tampering.
    """
    records: list[WalRecord] = []
    offset = 0
    size = len(data)
    while True:
        if size - offset < _PREFIX.size:
            return records, offset
        body_len, seq, rtype = _PREFIX.unpack_from(data, offset)
        if rtype not in RECORD_TYPES or body_len > MAX_BODY_BYTES:
            return records, offset
        end = offset + _PREFIX.size + body_len + TAG_SIZE
        if end > size:
            return records, offset
        body_start = offset + _PREFIX.size
        body_bytes = data[body_start : body_start + body_len]
        mac = data[body_start + body_len : end]
        try:
            body = json.loads(body_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offset
        if not isinstance(body, dict):
            return records, offset
        records.append(WalRecord(seq=seq, rtype=rtype, body=body, mac=mac, offset=offset))
        offset = end


@dataclass
class ContentLedger:
    """Per-table keyed content digests and row counts of a logged history.

    A table's digest is the XOR of the :func:`row_element` tags of its
    live rows, as one int; XOR is its own inverse, so a delete folds the
    removed row's tag out again. The writer folds every op it appends,
    the reader every op it verifies, and recovery the rows it scanned
    back — one fold, three callers, and a checkpoint seals
    :meth:`binding`.
    """

    auth: MessageAuthenticator = field(compare=False, repr=False)
    digests: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def apply(self, rtype: int, table: str, *rows: bytes) -> None:
        """Fold one logged op: ``rows`` are its encoded rows — none for
        DDL, the row for INSERT and DELETE, old then new for UPDATE.
        Raises ``KeyError`` for a table the history never created."""
        name = table.lower()
        if rtype == DDL_CREATE:
            self.digests[name] = 0
            self.counts[name] = 0
            return
        if rtype == DDL_DROP:
            del self.digests[name], self.counts[name]
            return
        delta = 0
        for row in rows:
            delta ^= int.from_bytes(row_element(self.auth, name, row), "little")
        self.digests[name] ^= delta
        if rtype != UPDATE:
            self.counts[name] += 1 if rtype == INSERT else -1

    def digest_hex(self) -> str:
        """The merged (XOR) digest over every table."""
        merged = 0
        for digest in self.digests.values():
            merged ^= digest
        return merged.to_bytes(TAG_SIZE, "little").hex()

    def binding(self) -> dict:
        """The content half of a checkpoint's sealed body."""
        return {"digest": self.digest_hex(), "tables": dict(sorted(self.counts.items()))}


def verify_chain(
    auth: MessageAuthenticator, prev_mac: bytes, record: WalRecord
) -> bool:
    """Check one record's MAC against the running chain value."""
    body = encode_body(record.body)
    return auth.verify(
        record.mac, prev_mac, record.seq.to_bytes(8, "little"),
        bytes([record.rtype]), body,
    )


__all__ = [
    "CHECKPOINT",
    "DDL_CREATE",
    "DDL_DROP",
    "DELETE",
    "GENESIS_MAC",
    "HEADER",
    "INSERT",
    "MAX_BODY_BYTES",
    "RECORD_TYPES",
    "ROW_FIELDS",
    "UPDATE",
    "WAL_VERSION",
    "ContentLedger",
    "WalRecord",
    "chain_mac",
    "encode_body",
    "encode_frame",
    "parse_segment",
    "row_element",
]
