"""Space-reclamation policies (Section 4.3).

The paper's progression, all implemented here and told apart by
``benchmarks/test_gates.py::test_compaction_modes``:

1. **eager** — the classic slotted-page contract: unused space is one
   contiguous region, so every delete slides later records down
   (:meth:`~repro.storage.page.Page.relocate_down`); on average half the
   page moves. The relocation itself happens in
   :class:`~repro.storage.heap.HeapFile` at delete time.
2. **deferred** — deletes merely leave holes; a compaction pass
   periodically rewrites fragmented pages. Crucially, the pass is folded
   into the verifier's page scan: the scan already holds the page's
   partition lock and has the page hot, so compaction rides along as the
   ``on_scan`` callback registered at page creation.
3. **none** — never reclaim (useful as a baseline in tests).

Deadlock note: the verifier holds a partition lock when it invokes the
hook, while table operations take the table lock *then* partition locks.
The hook therefore acquires the table lock non-blockingly and simply
skips the page this pass if the table is busy. The op-count trigger
(``ops_per_page_scan``) runs the scan on the operating thread itself,
where the re-entrant table lock cannot say "busy", so the hook also
skips a page whose own mutation is in flight (``Page.mutating``) or
that the heap is still opening.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultInjected
from repro.faults import default_fault_plane, sites as fault_sites
from repro.storage.config import StorageConfig


@dataclass
class CompactionStats:
    pages_compacted: int = 0
    records_relocated: int = 0
    passes_skipped_busy: int = 0
    aborts: int = 0


class CompactionPolicy:
    """Binds a table's pages to the configured reclamation strategy."""

    def __init__(self, table, config: StorageConfig, faults=None):
        self._table = table
        self.config = config
        self.stats = CompactionStats()
        self.faults = faults if faults is not None else default_fault_plane()

    def on_page_scan(self, page_id: int) -> None:
        """Verifier callback: compact the page while it is locked & hot."""
        if self.config.compaction != "deferred":
            return
        table = self._table
        try:
            # Injection site: the compaction pass aborts before touching
            # the page. Compaction is pure space reclamation — skipping a
            # page is always safe (it stays fragmented until a later
            # pass) — so the abort is absorbed here rather than allowed
            # to take down the verifier scan that hosts the hook.
            self.faults.check(fault_sites.COMPACTION_ABORT)
        except FaultInjected:
            self.stats.aborts += 1
            return
        if not table._lock.acquire(blocking=False):
            self.stats.passes_skipped_busy += 1
            return
        try:
            page = table.heap._pages.get(page_id)
            if page is None or page.mutating:
                # the scan was triggered from inside this page's own
                # mutation (the lock above is re-entrant), or by its
                # header alloc, before the heap lists the page
                self.stats.passes_skipped_busy += 1
            elif page.fragmentation > self.config.compact_threshold:
                moved = page.compact()
                self.stats.pages_compacted += 1
                self.stats.records_relocated += moved
        finally:
            table._lock.release()

    def compact_all(self) -> int:
        """Force-compact every fragmented page (maintenance entry point)."""
        moved_total = 0
        with self._table._lock:
            for page in self._table.heap.pages():
                if page.fragmentation > self.config.compact_threshold:
                    moved = page.compact()
                    self.stats.pages_compacted += 1
                    self.stats.records_relocated += moved
                    moved_total += moved
        return moved_total
