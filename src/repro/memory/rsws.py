"""Partitioned ReadSet/WriteSet state.

Section 4.3 ("Use multiple RSWSs to avoid lock contention"): VeriDB keeps
several ReadSet/WriteSet digest pairs, each covering a disjoint section of
memory and guarded by its own lock, so concurrent workers rarely collide.
Partitioning is by page (``page_id % n``), which also means an epoch scan
can lock exactly one partition while it works on a page.

Each partition holds *two* generations of digests, indexed by epoch
parity; the non-quiescent verifier (Algorithm 2) reads cells into the
closing epoch's ReadSet while re-stamping them into the opening epoch's
WriteSet, so routine operations on already-scanned pages must land in the
new generation. The page→parity map lives in
:class:`~repro.memory.verified.VerifiedMemory` (trusted state).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass
class RSWSStats:
    """Counters for the ablation study (metadata exclusion, Section 4.3)."""

    reads_recorded: int = 0
    writes_recorded: int = 0

    @property
    def total(self) -> int:
        return self.reads_recorded + self.writes_recorded


class RSWSPartition:
    """One lock-protected ReadSet/WriteSet pair (double-buffered)."""

    __slots__ = ("index", "lock", "rs", "ws", "stats", "contention_waits")

    def __init__(self, index: int):
        self.index = index
        # Re-entrant: the verifier holds the partition lock while running a
        # page's compaction hook, which itself performs verified operations
        # on the same partition (Section 4.3, compaction-during-scan).
        self.lock = threading.RLock()
        #: XOR multiset hashes of the PRF digests read / written, one per
        #: epoch parity; integers, so a run's XOR-sum folds in at once
        self.rs = [0, 0]
        self.ws = [0, 0]
        self.stats = RSWSStats()
        #: Times a caller found the lock already held (contention probe
        #: used by the TPC-C benchmark, Figure 13).
        self.contention_waits = 0

    def acquire(self) -> None:
        """Take the partition lock, counting contended acquisitions."""
        if not self.lock.acquire(False):
            self.contention_waits += 1
            self.lock.acquire()

    def release(self) -> None:
        self.lock.release()

    # Callers hold ``lock`` for all of the following. -------------------
    def record_read(self, parity: int, element: bytes) -> None:
        self.rs[parity] ^= int.from_bytes(element, "little")
        self.stats.reads_recorded += 1

    def record_write(self, parity: int, element: bytes) -> None:
        self.ws[parity] ^= int.from_bytes(element, "little")
        self.stats.writes_recorded += 1

    def fold_run(self, rs_parity, rs: int, ws_parity, ws: int, reads: int, writes: int) -> None:
        """Close a run of ``reads`` consumed, ``writes`` opened cells: fold, unlock."""
        self.rs[rs_parity] ^= rs
        self.ws[ws_parity] ^= ws
        self.stats.reads_recorded += reads
        self.stats.writes_recorded += writes
        self.lock.release()

    def consistent(self, parity: int) -> bool:
        """Whether the given generation's ReadSet equals its WriteSet."""
        return self.rs[parity] == self.ws[parity]

    def reset_generation(self, parity: int) -> None:
        self.rs[parity] = self.ws[parity] = 0


@dataclass
class RSWSGroup:
    """The full set of partitions for one verified memory."""

    n_partitions: int = 16
    partitions: list[RSWSPartition] = field(init=False)

    def __post_init__(self):
        if self.n_partitions < 1:
            raise ConfigurationError("need at least one RSWS partition")
        self.partitions = [RSWSPartition(i) for i in range(self.n_partitions)]

    def partition_for_page(self, page_id: int) -> RSWSPartition:
        return self.partitions[page_id % self.n_partitions]

    def total_operations(self) -> int:
        """Total RS/WS digest updates across partitions (ablation metric)."""
        return sum(p.stats.total for p in self.partitions)

    def total_contention_waits(self) -> int:
        return sum(p.contention_waits for p in self.partitions)

    def consistent(self, parity: int) -> list[int]:
        """Indices of partitions whose generation ``parity`` is inconsistent."""
        return [p.index for p in self.partitions if not p.consistent(parity)]
