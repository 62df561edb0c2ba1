"""Slotted pages over verified memory.

A VeriDB page mirrors the classic slotted-page design (Section 4.2): a
header with capacity/occupancy metadata, a slot directory of pointers,
and variable-length records addressed by ``(page, slot)``. All three
kinds of state live in untrusted memory as cells:

* record payloads — always accessed through the *verified* Read/Write
  procedures (they are the evidence the proofs rest on);
* slot pointers and the header — verified only when
  ``StorageConfig.verify_metadata`` is set (Figure 9's "RSWS incl.
  metadata" configuration); excluded otherwise (Section 4.3's
  optimization).

Within the 24-bit page-offset address space:

* offsets ``0 .. 65533`` — slot-pointer cells (slot id == offset);
* offset ``65534`` — the header cell;
* offsets ``65536 ..`` — record payload cells, bump-allocated.

The bump allocator never reuses offsets until compaction rewrites the
page (:mod:`repro.storage.compaction`), which matches the deferred
space-reclamation design; the offset space is ~2000x the page capacity,
so exhaustion between compactions forces an inline compaction instead of
failing.
"""

from __future__ import annotations

import functools
import struct
from typing import Iterator

from repro.errors import PageFullError, StorageError
from repro.memory.cells import make_addr
from repro.memory.verified import VerifiedMemory

HEADER_OFFSET = 65534
DATA_BASE = 65536
MAX_SLOTS = 65534
_MAX_OFFSET = (1 << 24) - 1

_SLOT = struct.Struct("<I")  # payload offset
_HEADER = struct.Struct("<III")  # record_count, used_bytes, tail

#: Per-record bookkeeping charged against the page capacity (slot pointer
#: plus allocator overhead), so occupancy resembles a real 8 KB page.
SLOT_OVERHEAD = 8
HEADER_RESERVE = 32


def _mutation(method):
    """Mark the page :attr:`~Page.mutating` while ``method`` runs.

    Every cell operation inside a mutation fires the verified-memory op
    hooks, and the op-count trigger can run a verifier step — and with
    it the deferred-compaction scan hook — from *inside* the mutation,
    on this thread, through the table's re-entrant lock. Between two
    cell operations the directory mirror and the cells disagree (a
    freed payload whose slot is still listed, a payload not listed
    yet), so compaction must leave a mutating page for a later pass.
    Nests: an insert that compacts inline stays marked until it ends.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        outer = self.mutating
        self.mutating = True
        try:
            return method(self, *args, **kwargs)
        finally:
            self.mutating = outer

    return wrapper


def payload_addrs(pointers: list[int], raws: list[bytes]) -> list[int]:
    """The payload cell each slot-pointer cell names, given its bytes."""
    offsets = [_SLOT.unpack(raw)[0] for raw in raws]
    if offsets and max(offsets) > _MAX_OFFSET:
        raise ValueError(f"offset {max(offsets)} out of range for a page")
    return [ptr & ~_MAX_OFFSET | offset for ptr, offset in zip(pointers, offsets)]


class _CellIO:
    """A memory's cell operations, the verified or the raw ones by one name."""

    __slots__ = ("verified", "read", "read_many", "write", "alloc", "alloc_many", "free")

    def __init__(self, vmem: VerifiedMemory, verified: bool):
        self.verified = verified
        for op in self.__slots__[1:]:
            setattr(self, op, getattr(vmem, op if verified else op + "_unverified"))


class Page:
    """One slotted page plus its in-process mirror of the directory.

    The mirror (``_slots``) is a performance cache for allocation
    decisions and compaction; every *lookup a proof depends on* goes
    through the cells.
    """

    def __init__(
        self,
        page_id: int,
        vmem: VerifiedMemory,
        capacity: int = 8192,
        verify_data: bool = True,
        verify_metadata: bool = False,
    ):
        self.page_id = page_id
        self._base = make_addr(page_id, 0)
        self.capacity = capacity
        self.vmem = vmem
        self.data_io = _CellIO(vmem, verify_data)
        self.meta_io = _CellIO(vmem, verify_data and verify_metadata)
        self._slots: dict[int, int] = {}  # slot -> payload offset
        self._lengths: dict[int, int] = {}  # slot -> payload length
        self._free_slots: list[int] = []
        self._next_slot = 0
        self._tail = DATA_BASE
        self._used = HEADER_RESERVE
        #: an insert/write/delete/compact is between its cell operations
        self.mutating = False
        self.meta_io.alloc(self._addr(HEADER_OFFSET), self._header_bytes())

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    @_mutation
    def insert_many(self, payloads: list[bytes]) -> list[int]:
        """Store a run of records — one ``alloc_many`` for the payloads,
        one for the slot pointers, one header write; returns their slots.
        Raises PageFullError, storing nothing, unless all of them fit."""
        size = sum(map(len, payloads))
        need = size + SLOT_OVERHEAD * len(payloads)
        if self.free_space < need:
            raise PageFullError(
                f"page {self.page_id}: {need} bytes needed, "
                f"{self.free_space} free"
            )
        if self._tail + size > _MAX_OFFSET:
            # Bump-offset space exhausted before logical space: reclaim now.
            self.compact()
            if self._tail + size > _MAX_OFFSET:  # pragma: no cover
                raise PageFullError(f"page {self.page_id}: offset space exhausted")
        base, tail = self._base, self._tail
        slots, offsets = [], []
        for payload in payloads:
            slots.append(self._take_slot())
            offsets.append(tail)
            tail += len(payload)
        self._tail = tail
        self.data_io.alloc_many([base | offset for offset in offsets], payloads)
        self.meta_io.alloc_many(
            [base | slot for slot in slots], list(map(_SLOT.pack, offsets))
        )
        # listed once their cells exist (a stale reader finds a reused slot absent)
        for slot, offset, payload in zip(slots, offsets, payloads):
            self._slots[slot] = offset
            self._lengths[slot] = len(payload)
        self._used += need
        self._write_header()
        return slots

    @_mutation
    def insert(self, payload: bytes) -> int:
        """Store a record; returns its slot. Raises PageFullError."""
        need = len(payload) + SLOT_OVERHEAD
        if self.free_space < need:
            raise PageFullError(
                f"page {self.page_id}: {need} bytes needed, "
                f"{self.free_space} free"
            )
        if self._tail + len(payload) > _MAX_OFFSET:
            # Bump-offset space exhausted before logical space: reclaim now.
            self.compact()
            if self._tail + len(payload) > _MAX_OFFSET:  # pragma: no cover
                raise PageFullError(f"page {self.page_id}: offset space exhausted")
        slot = self._take_slot()
        offset = self._tail
        self._tail += len(payload)
        self.data_io.alloc(self._addr(offset), payload)
        self.meta_io.alloc(self._addr(slot), _SLOT.pack(offset))
        self._slots[slot] = offset
        self._lengths[slot] = len(payload)
        self._used += need
        self._write_header()
        return slot

    def read(self, slot: int) -> bytes:
        """Fetch a record's payload through the configured access paths.

        A verified pointer read owes an op hook, and a verifier step run
        from it could compact this page and leave the resolved address
        naming nothing, or another record: the hooks are held until the
        payload is out.
        """
        held = self.meta_io.verified and self.vmem.hold_hooks()
        try:
            return self.data_io.read(self._addr(self._slot_offset(slot)))
        finally:
            if held:
                self.vmem.release_hooks()

    @_mutation
    def write(self, slot: int, payload: bytes) -> None:
        """Overwrite a record in place (caller checked it fits)."""
        offset = self._slot_offset(slot)
        old_len = self._lengths[slot]
        growth = len(payload) - old_len
        if growth > self.free_space:
            raise PageFullError(
                f"page {self.page_id}: in-place growth of {growth} does not fit"
            )
        self.data_io.write(self._addr(offset), payload)
        self._lengths[slot] = len(payload)
        self._used += growth
        self._write_header()

    @_mutation
    def delete(self, slot: int) -> bytes:
        """Remove a record, leaving its space to the compaction policy."""
        offset = self._slot_offset(slot)
        payload = self.data_io.free(self._addr(offset))
        self.meta_io.free(self._addr(slot))
        del self._slots[slot]
        del self._lengths[slot]
        self._free_slots.append(slot)
        self._used -= len(payload) + SLOT_OVERHEAD
        self._write_header()
        return payload

    def can_fit(self, payload_len: int) -> bool:
        return self.free_space >= payload_len + SLOT_OVERHEAD

    def fits_in_place(self, slot: int, payload_len: int) -> bool:
        return payload_len - self._lengths.get(slot, 0) <= self.free_space

    # ------------------------------------------------------------------
    # compaction support
    # ------------------------------------------------------------------
    @_mutation
    def compact(self, from_offset: int = DATA_BASE) -> int:
        """Rewrite live records at/after ``from_offset`` contiguously.

        Returns the number of records relocated. Record cells move to new
        addresses through verified free+alloc, so the move itself is
        protected (this is the paper's Move semantics); slot pointers are
        updated through the metadata path.

        Relocation is two-phase — every mover is freed before any is
        re-allocated — because in-place updates may have changed record
        lengths, so a single sliding pass could land a mover on a cell
        that has not moved yet. Destinations are the records' cumulative
        positions, which are pairwise distinct and distinct from every
        stationary record's offset.
        """
        ordered = sorted(self._slots, key=self._slots.__getitem__)
        new_tail = DATA_BASE
        movers: list[tuple[int, int]] = []  # (slot, destination)
        for slot in ordered:
            offset = self._slots[slot]
            if offset < from_offset:
                new_tail = max(new_tail, offset + self._lengths[slot])
                continue
            destination = max(new_tail, from_offset)
            if offset != destination:
                movers.append((slot, destination))
            new_tail = destination + self._lengths[slot]
        payloads: dict[int, bytes] = {}
        for slot, _destination in movers:
            payloads[slot] = self.data_io.free(self._addr(self._slots[slot]))
        for slot, destination in movers:
            self.data_io.alloc(self._addr(destination), payloads[slot])
            self.meta_io.write(self._addr(slot), _SLOT.pack(destination))
            self._slots[slot] = destination
        self._tail = new_tail
        self._write_header()
        return len(movers)

    def relocate_down(self, hole_offset: int, hole_len: int) -> int:
        """Eager reclamation: close a delete's hole immediately.

        This is the paper's *default* page behaviour ("unused space is a
        contiguous region"), whose cost motivates deferred compaction: on
        average half the page's records move per delete. Implemented as a
        compaction of everything at/after the hole.
        """
        del hole_len  # the layout after the hole is recomputed exactly
        return self.compact(from_offset=hole_offset)

    @property
    def fragmentation(self) -> float:
        """Fraction of the bump-allocated region that is dead space."""
        spanned = self._tail - DATA_BASE
        if spanned == 0:
            return 0.0
        live = self._used - HEADER_RESERVE - SLOT_OVERHEAD * len(self._slots)
        return 1.0 - live / spanned

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def free_space(self) -> int:
        return self.capacity - self._used

    @property
    def record_count(self) -> int:
        return len(self._slots)

    def live_slots(self) -> Iterator[int]:
        return iter(sorted(self._slots))

    def slot_offset_for_compaction(self, slot: int) -> tuple[int, int]:
        return self._slots[slot], self._lengths[slot]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _addr(self, offset: int) -> int:
        return make_addr(self.page_id, offset)

    def _take_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._next_slot
        if slot >= MAX_SLOTS:
            raise PageFullError(f"page {self.page_id}: slot directory full")
        self._next_slot += 1
        return slot

    def pointer_addr(self, slot: int) -> int:
        """Address of a live slot's pointer cell."""
        if slot not in self._slots:
            raise StorageError(f"page {self.page_id} has no record in slot {slot}")
        return self._base | slot

    def _slot_offset(self, slot: int) -> int:
        """Resolve a slot through its pointer cell (the metadata path)."""
        return _SLOT.unpack(self.meta_io.read(self.pointer_addr(slot)))[0]

    def _header_bytes(self) -> bytes:
        return _HEADER.pack(len(self._slots), self._used, self._tail - DATA_BASE)

    def _write_header(self) -> None:
        self.meta_io.write(self._addr(HEADER_OFFSET), self._header_bytes())
