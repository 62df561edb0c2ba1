"""Untrusted host memory.

Everything here sits *outside* the trust boundary: the adversary (and the
test-suite's :class:`~repro.memory.adversary.Adversary`) may read and
mutate cells, timestamps and the per-page address directory at will. No
secret ever lives here, and nothing here is believed without verification
— correctness comes from the enclave-side digests in
:mod:`repro.memory.verified`.

The per-page directory of live addresses mirrors a slotted page's pointer
array. Letting the untrusted side drive "which cells exist in this page"
is sound: omitting a written cell from a scan leaves its WriteSet entry
unmatched, fabricating one adds an unmatched ReadSet entry, and either
breaks ``h(RS) = h(WS)`` (see the soundness tests in
``tests/memory/test_attacks.py``). Cells are listed apart by the
``checked`` flag they were created with, so an epoch scan never walks
the metadata cells Section 4.3 excludes.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.errors import StorageError
from repro.faults import default_fault_plane, sites as fault_sites
from repro.memory.cells import Cell, page_of


_NO_CELLS: tuple[set[int], set[int]] = (set(), set())  # never added to


class UntrustedMemory:
    """A flat address space of timestamped cells plus a page directory."""

    def __init__(self, faults=None):
        self.faults = faults if faults is not None else default_fault_plane()
        self._cells: dict[int, Cell] = {}
        #: :meth:`try_read` minus the fault site, for a caller that loops
        #: over cells and consults the site itself, once per cell
        self.lookup = self._cells.get
        #: page -> its live addresses, as (created unchecked, created checked)
        self._page_addrs: dict[int, tuple[set[int], set[int]]] = {}
        # Guards structural changes to the maps (not cell contents): the
        # verified layer serializes same-partition ops with its own locks,
        # but distinct partitions legitimately mutate the dicts in parallel.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # cell access (used by both the verified path and the adversary)
    # ------------------------------------------------------------------
    def exists(self, addr: int) -> bool:
        return addr in self._cells

    def raw_read(self, addr: int) -> Cell:
        # Injection site: a transient host-DRAM read error; nothing was
        # mutated, so callers retry freely.
        self.faults.check(fault_sites.TRANSIENT_READ_ERROR)
        cell = self._cells.get(addr)
        if cell is None:
            raise StorageError(f"no cell at address {addr:#x}")
        return cell

    def try_read(self, addr: int) -> Cell | None:
        self.faults.check(fault_sites.TRANSIENT_READ_ERROR)
        return self._cells.get(addr)

    def raw_write(
        self, addr: int, data: bytes, timestamp: int, checked: bool = True
    ) -> None:
        """Store (or overwrite) a cell, updating the page directory."""
        # Injection site: a torn write lands corrupted bytes in the host
        # cell. The enclave-side digest was computed over the *intended*
        # data, so the next verified access of this cell raises an alarm
        # — torn writes are detected, never silently served.
        data = self.faults.mangle(fault_sites.TORN_WRITE, data)
        with self._lock:
            if addr not in self._cells:
                page = page_of(addr)
                listed = self._page_addrs.get(page)
                if listed is None:
                    listed = self._page_addrs[page] = (set(), set())
                listed[checked].add(addr)
            self._cells[addr] = Cell(data, timestamp, checked)

    def remove(self, addr: int) -> Cell:
        with self._lock:
            cell = self._cells.pop(addr, None)
            if cell is None:
                raise StorageError(f"no cell at address {addr:#x}")
            page = page_of(addr)
            unchecked, checked = self._page_addrs.get(page, _NO_CELLS)
            # both: the flag may have been flipped since the cell was listed
            unchecked.discard(addr)
            checked.discard(addr)
            if not (unchecked or checked):
                self._page_addrs.pop(page, None)
        return cell

    # ------------------------------------------------------------------
    # page directory
    # ------------------------------------------------------------------
    def page_addresses(self, page_id: int, checked: bool = True) -> list[int]:
        """Live addresses of a page's cells created ``checked`` (or, with
        ``checked=False``, of the others), in address order.

        This list is untrusted input to the verifier's scan; see the
        module docstring for why that is sound.
        """
        with self._lock:
            addrs = sorted(self._page_addrs.get(page_id, _NO_CELLS)[checked])
        # Injection site: the untrusted directory omits a live cell.
        # Soundness does not depend on this list — the omitted cell's
        # WriteSet entry stays unmatched and the epoch check alarms.
        return self.faults.drop_one(fault_sites.DIRECTORY_DROP, addrs)

    def pages(self) -> list[int]:
        with self._lock:
            return sorted(self._page_addrs)

    def cells(self) -> Iterator[tuple[int, Cell]]:
        """Iterate over a snapshot of all (addr, cell) pairs."""
        with self._lock:
            items = list(self._cells.items())
        return iter(items)

    def page_bytes(self, page_id: int) -> int:
        """Total payload bytes currently stored in a page."""
        with self._lock:
            unchecked, checked = self._page_addrs.get(page_id, _NO_CELLS)
            return sum(len(self._cells[a].data) for a in (*unchecked, *checked))

    def __len__(self) -> int:
        return len(self._cells)
