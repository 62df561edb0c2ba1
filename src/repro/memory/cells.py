"""Cell model and page-structured address space.

The memory checker works at the granularity of *cells*: variable-length
byte strings at 64-bit addresses, each carrying the logical timestamp of
its last (virtual) write. Addresses encode ``(page, offset)`` so that the
verifier, the storage layer and the RSWS partitioning all agree on which
page a cell belongs to:

    addr = (page_id << PAGE_OFFSET_BITS) | offset

Timestamps follow Concerto: the enclave stamps every write with a
strictly-increasing logical time and the stamp is stored *next to the
data in untrusted memory*. The adversary may tamper with stamps as freely
as with data — any such tampering breaks the ``h(RS) = h(WS)`` equality at
epoch close, because the PRF binds ``(addr, data, timestamp)`` together.
"""

from __future__ import annotations

#: Number of low-order address bits reserved for the within-page offset.
PAGE_OFFSET_BITS = 24
_OFFSET_MASK = (1 << PAGE_OFFSET_BITS) - 1


def make_addr(page_id: int, offset: int) -> int:
    """Compose a cell address from a page id and a within-page offset."""
    if offset < 0 or offset > _OFFSET_MASK:
        raise ValueError(f"offset {offset} out of range for a page")
    if page_id < 0:
        raise ValueError("page_id must be non-negative")
    return (page_id << PAGE_OFFSET_BITS) | offset


def page_of(addr: int) -> int:
    """The page id an address belongs to."""
    return addr >> PAGE_OFFSET_BITS


def offset_of(addr: int) -> int:
    """The within-page offset of an address."""
    return addr & _OFFSET_MASK


class Cell:
    """One unit of memory: data plus its last-write timestamp.

    ``checked`` marks whether the cell participates in write-read
    consistency checking. Page *metadata* cells are stored unchecked when
    the "exclude page metadata from verification" optimization
    (Section 4.3) is on. The flag itself lives in untrusted memory, but
    flipping it gains the adversary nothing: marking a checked cell
    unchecked makes the epoch scan skip it, leaving its WriteSet entry
    unmatched — ``h(RS) != h(WS)`` at epoch close; marking an unchecked
    cell checked changes nothing, because the scan walks the cells
    *listed* as created checked, and listing one that was not adds an
    unmatched ReadSet entry.
    """

    __slots__ = ("data", "timestamp", "checked")

    def __init__(self, data: bytes, timestamp: int, checked: bool = True):
        self.data = data
        self.timestamp = timestamp
        self.checked = checked

    def __iter__(self):
        yield self.data
        yield self.timestamp

    def __repr__(self):
        return f"Cell({self.data!r}, {self.timestamp!r}, checked={self.checked!r})"
