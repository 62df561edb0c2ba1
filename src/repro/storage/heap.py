"""Heap file: a table's collection of pages.

Handles page allocation, free-space tracking and record placement.
Records are addressed by :class:`RecordId` ``(page_id, slot)`` — the
``(page, index)`` pairs of Algorithm 3. Placement policy: fill the
current page; fall back to the most recently freed page that fits;
otherwise open a fresh page.

Free-space tracking is event-driven, so finding room costs O(1) probes
per operation however many pages the table has. A page is *listed* only
when a delete or a shrinking write has just left room in it for another
record of that size; a full page retired as "current" is not. A listed
page that cannot take the record at hand leaves the list — its next
delete or shrink lists it again — so every probe is paid for by the
operation that listed the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import PageFullError, StorageError
from repro.storage.engine import StorageEngine
from repro.storage.page import HEADER_RESERVE, SLOT_OVERHEAD, Page, payload_addrs


@dataclass(frozen=True, order=True)
class RecordId:
    """Stable locator of a stored record: (page, slot)."""

    page_id: int
    slot: int


class HeapFile:
    """The pages backing one table."""

    def __init__(
        self,
        engine: StorageEngine,
        on_scan: Callable[[int], None] | None = None,
    ):
        self.engine = engine
        self.config = engine.config
        self._on_scan = on_scan
        self._pages: dict[int, Page] = {}
        self._current: Page | None = None
        #: ids of listed pages (see the module docstring), oldest first
        self._free: dict[int, None] = {}

    # ------------------------------------------------------------------
    # record placement
    # ------------------------------------------------------------------
    def insert_many(self, payloads: list[bytes]) -> list[RecordId]:
        """Store payloads in order, a page's stretch of them as one
        :meth:`Page.insert_many` run; refuses an oversized one first."""
        if len(payloads) == 1:  # a one-row splice: no run scaffolding
            return [self.insert(payloads[0])]
        largest = max(map(len, payloads), default=0)
        if largest + SLOT_OVERHEAD > self.config.page_size - HEADER_RESERVE:
            raise PageFullError(
                f"record of {largest} bytes exceeds page capacity {self.config.page_size}"
            )
        rids: list[RecordId] = []
        start, count = 0, len(payloads)
        while start < count:
            page = self._page_with_room(len(payloads[start]))
            room, end = page.free_space, start
            while end < count and len(payloads[end]) + SLOT_OVERHEAD <= room:
                room -= len(payloads[end]) + SLOT_OVERHEAD
                end += 1
            page_id = page.page_id
            for slot in page.insert_many(payloads[start:end]):
                rids.append(RecordId(page_id, slot))
            start = end
        return rids

    def insert(self, payload: bytes) -> RecordId:
        """Store a payload somewhere with room; returns its RecordId."""
        page = self._page_with_room(len(payload))
        slot = page.insert(payload)
        return RecordId(page.page_id, slot)

    def read(self, rid: RecordId) -> bytes:
        return self._page(rid.page_id).read(rid.slot)

    def read_many(self, rids: list[RecordId], admit: bool = True) -> list[bytes]:
        """Fetch several records, wherever in the heap they sit: the
        chunk's slot pointers in one bulk read of the metadata path,
        then its payloads in one batched read of the data path — with
        the op hooks held in between when pointer reads owe any (see
        :meth:`Page.read`). ``admit=False`` keeps the payloads out of
        the record cache."""
        if not rids:
            return []
        pointers = [self._page(rid.page_id).pointer_addr(rid.slot) for rid in rids]
        paths = self._page(rids[0].page_id)  # the same for every page of a heap
        held = paths.meta_io.verified and self.engine.vmem.hold_hooks()
        try:
            raws = paths.meta_io.read_many(pointers)
            return paths.data_io.read_many(payload_addrs(pointers, raws), admit)
        finally:
            if held:
                self.engine.vmem.release_hooks()

    def write(self, rid: RecordId, payload: bytes) -> None:
        page = self._page(rid.page_id)
        room = page.free_space
        page.write(rid.slot, payload)
        if page.free_space > room and page.can_fit(len(payload)):
            self._list_page(page)

    def fits_in_place(self, rid: RecordId, payload_len: int) -> bool:
        return self._page(rid.page_id).fits_in_place(rid.slot, payload_len)

    def delete(self, rid: RecordId) -> bytes:
        page = self._page(rid.page_id)
        if self.config.compaction == "eager":
            offset, length = page.slot_offset_for_compaction(rid.slot)
            payload = page.delete(rid.slot)
            page.relocate_down(offset, length)
        else:
            payload = page.delete(rid.slot)
        self._list_page(page)
        return payload

    def move(self, rid: RecordId) -> RecordId:
        """Atomically relocate a record (the Move interface, Section 4.2).

        Used when an in-place update no longer fits its page. The payload
        travels through verified free+alloc, so the relocation is
        protected end to end.
        """
        payload = self.delete(rid)
        return self.insert(payload)

    # ------------------------------------------------------------------
    # introspection / iteration
    # ------------------------------------------------------------------
    def pages(self) -> Iterator[Page]:
        return iter(list(self._pages.values()))

    def page_count(self) -> int:
        return len(self._pages)

    def record_count(self) -> int:
        return sum(p.record_count for p in self._pages.values())

    def get_page(self, page_id: int) -> Page:
        return self._page(page_id)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _page(self, page_id: int) -> Page:
        page = self._pages.get(page_id)
        if page is None:
            raise StorageError(f"heap has no page {page_id}")
        return page

    def _list_page(self, page: Page) -> None:
        if page is not self._current:
            self._free[page.page_id] = None

    def _page_with_room(self, payload_len: int) -> Page:
        if self._current is not None and self._current.can_fit(payload_len):
            return self._current
        while self._free:
            page = self._pages[self._free.popitem()[0]]
            if page.can_fit(payload_len):
                self._current = page
                return page
        page = self._open_page()
        if not page.can_fit(payload_len):
            raise PageFullError(
                f"record of {payload_len} bytes exceeds page capacity "
                f"{self.config.page_size}"
            )
        return page

    def _open_page(self) -> Page:
        page_id = self.engine.new_page_id()
        verification = self.engine.verification_enabled
        if verification:
            self.engine.vmem.register_page(page_id, on_scan=self._on_scan)
        page = Page(
            page_id,
            self.engine.vmem,
            capacity=self.config.page_size,
            verify_data=verification,
            verify_metadata=self.config.verify_metadata,
        )
        self._pages[page_id] = page
        self._current = page
        return page
