"""``repro.wal`` — the enclave-sealed, MAC-chained write-ahead log.

Durability for the in-memory verifiable database (ROADMAP item 5): every
committed DDL/DML statement is appended as a sequence-numbered record
whose MAC chains over the previous record's MAC under an enclave key,
so the untrusted disk can lose the log but cannot *edit* it undetected.
Epoch closes write a sealed checkpoint binding the log-derived content
digests and the trusted monotonic counter, and crash recovery
(:func:`repro.core.recovery.recover_from_wal`) replays the log through
the normal verified write interfaces — rebuilding the RS/WS synopsis as
a side effect, the paper's §5.1 recovery story — refusing with a typed
:class:`~repro.errors.RecoveryIntegrityError` on any tampering.

See ``docs/INTERNALS.md`` §10 for the record layout, the chain and
anchor construction, and the rollback-detection model.
"""

from repro.wal.log import WriteAheadLog
from repro.wal.reader import WalReader, WalState
from repro.wal.records import (
    CHECKPOINT,
    DDL_CREATE,
    DDL_DROP,
    DELETE,
    GENESIS_MAC,
    HEADER,
    INSERT,
    ROW_FIELDS,
    UPDATE,
    WAL_VERSION,
    ContentLedger,
    WalRecord,
    chain_mac,
    encode_frame,
    parse_segment,
    row_element,
)

__all__ = [
    "CHECKPOINT",
    "DDL_CREATE",
    "DDL_DROP",
    "DELETE",
    "GENESIS_MAC",
    "HEADER",
    "INSERT",
    "ROW_FIELDS",
    "UPDATE",
    "WAL_VERSION",
    "ContentLedger",
    "WalReader",
    "WalRecord",
    "WalState",
    "WriteAheadLog",
    "chain_mac",
    "encode_frame",
    "parse_segment",
    "row_element",
]
