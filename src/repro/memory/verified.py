"""The protected Read/Write procedures (Algorithm 1).

:class:`VerifiedMemory` is the enclave-resident interface to untrusted
memory. Every operation folds PRF digests of the affected cell into the
ReadSet/WriteSet of the cell's partition, exactly as in the paper:

* ``read(addr)`` fetches the cell, adds ``PRF(addr, data, ts)`` to the
  ReadSet, then *virtually writes the data back* with a fresh timestamp —
  adding the new digest to the WriteSet (Algorithm 1 lines 2-5).
* ``write(addr, new)`` consumes the old cell into the ReadSet and opens
  the new value in the WriteSet (lines 8-11).
* ``alloc(addr, data)`` opens a fresh cell (WriteSet only) — Blum's
  treatment of allocation; ``alloc_many`` opens a run of them on one page.
* ``free(addr)`` consumes a cell without reopening it (ReadSet only) —
  deallocation; the cell is retired and never scanned again.

The *unverified* variants bypass the digests entirely; the storage layer
uses them for page metadata when the "exclude page metadata" optimization
(Section 4.3) is on.

Trusted state held here: the PRF key (via the PRF object), the partition
digests, the page→epoch-parity map, and — only for the touched-page
verification strategy — the touched-page set and one open-cell digest
per page. All of it is small and is what the paper keeps inside SGX.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

from repro.crypto.prf import CELL_PREFIX, PRF
from repro.errors import StorageError, TransientFault, VerificationFailure
from repro.faults.sites import TRANSIENT_READ_ERROR
from repro.memory.cells import PAGE_OFFSET_BITS, Cell, page_of
from repro.memory.rsws import RSWSGroup
from repro.memory.untrusted import UntrustedMemory
from repro.obs import default_registry
from repro.obs.trace_context import current_trace


_pack = CELL_PREFIX.pack
_from_bytes = int.from_bytes


class _HookHold(threading.local):
    """Per-thread count of op hooks owed while a hold is open (else None)."""

    owed: int | None = None


@dataclass
class MemoryStats:
    """Operation counters exposed to the benchmarks."""

    verified_reads: int = 0
    verified_writes: int = 0
    allocs: int = 0
    frees: int = 0
    unverified_ops: int = 0


class VerifiedMemory:
    """Write-read consistent memory over an untrusted cell store.

    Args:
        memory: the untrusted backing store.
        prf: keyed PRF whose key lives inside the enclave.
        rsws: partitioned digest state; ``RSWSGroup(n_partitions=...)``
            controls the lock granularity studied in Figure 13.
        page_digests: keep the "touched since last scan" page set
            (Section 4.3) and a per-page digest of all currently-open
            cells, enabling the touched-page verification strategy (scan
            only touched pages). Costs a set insert and two extra XORs
            per operation, no extra PRF evaluations.
    """

    def __init__(
        self,
        memory: UntrustedMemory | None = None,
        prf: PRF | None = None,
        rsws: RSWSGroup | None = None,
        page_digests: bool = False,
        registry=None,
    ):
        self.memory = memory if memory is not None else UntrustedMemory()
        self.prf = prf if prf is not None else PRF(b"\x00" * 32)
        self.rsws = rsws if rsws is not None else RSWSGroup()
        self.stats = MemoryStats()

        self.obs = registry if registry is not None else default_registry()
        self._obs_on = self.obs.enabled
        self._ctr_reads = self.obs.counter("memory.verified_reads")
        self._ctr_writes = self.obs.counter("memory.verified_writes")
        self._ctr_allocs = self.obs.counter("memory.allocs")
        self._ctr_frees = self.obs.counter("memory.frees")
        self._ctr_unverified = self.obs.counter("memory.unverified_ops")
        self._ctr_read_retries = self.obs.counter("memory.transient_read_retries")
        self._ctr_read_batches = self.obs.counter("memory.read_batches")
        self._hist_batch_cells = self.obs.histogram("memory.read_batch_cells")
        self._hist_hooks = self.obs.histogram("memory.op_hook_seconds")
        self.obs.gauge_fn(
            "memory.enclave_state_bytes", self.enclave_state_bytes
        )
        self.obs.gauge_fn(
            "memory.rsws_contention_waits", self.rsws.total_contention_waits
        )

        self._clock = itertools.count(1)
        #: what :meth:`restamp` works with, fetched once
        self._kernel = (
            self.memory.faults.check,
            self.memory.lookup,
            self.prf.keyed,
            self._clock,
            self.rsws.partitions,
        )
        self._registry_lock = threading.Lock()
        self._pages: dict[int, Callable[[int], None] | None] = {}
        self._page_parity: dict[int, int] = {}
        #: touched-mode state, None without page digests
        self._touched: set[int] | None = set() if page_digests else None
        self._page_digest: dict[int, int] | None = {} if page_digests else None
        self._epoch = 0
        self._in_pass = False
        # post-operation hooks (the non-quiescent verifier's trigger)
        self._on_op: list[Callable[[], None]] = []
        #: per-thread holds on the hooks; made by the first :meth:`hold_hooks`,
        #: so that where nothing ever holds them firing looks nothing up
        self._hold: _HookHold | None = None
        # optional CycleMeter: batched reads charge one amortized ECall
        # per batch (the trust-boundary crossing the batch saves on)
        self.meter = None
        # optional RecordCache (repro.memory.cache): hits return the
        # trusted in-enclave copy with zero digest work; writes and
        # frees keep it coherent under the partition locks below
        self.cache = None

    # ------------------------------------------------------------------
    # page registry (the Register interface of Section 4.2)
    # ------------------------------------------------------------------
    def register_page(
        self, page_id: int, on_scan: Callable[[int], None] | None = None
    ) -> None:
        """Include a page in the verification process.

        ``on_scan`` is an optional callback the verifier invokes right
        after re-stamping the page's cells (while the page is still
        locked); the storage layer uses it to fold compaction into the
        verification scan (Section 4.3).
        """
        with self._registry_lock:
            if page_id in self._pages:
                raise StorageError(f"page {page_id} already registered")
            self._pages[page_id] = on_scan
            # Pages that appear while a pass is running join the *new*
            # epoch: the pass's closing check only covers its snapshot.
            parity = (self._epoch + 1) & 1 if self._in_pass else self._epoch & 1
            self._page_parity[page_id] = parity
            if self._page_digest is not None:
                self._page_digest[page_id] = 0

    def deregister_page(self, page_id: int) -> None:
        """Remove a page, retiring all of its live cells.

        The page leaves the registry under its partition lock, where the
        verifier reads whether a page it is about to scan still exists.
        """
        for checked, free in ((True, self.free), (False, self.free_unverified)):
            for addr in self.memory.page_addresses(page_id, checked):
                if self._try_read_retried(addr) is not None:
                    free(addr)
        partition = self.rsws.partition_for_page(page_id)
        partition.acquire()
        try:
            with self._registry_lock:
                self._pages.pop(page_id, None)
                self._page_parity.pop(page_id, None)
                if self._page_digest is not None:
                    self._touched.discard(page_id)
                    self._page_digest.pop(page_id, None)
        finally:
            partition.release()

    def registered_pages(self) -> list[int]:
        with self._registry_lock:
            return sorted(self._pages)

    def scan_hook(self, page_id: int) -> Callable[[int], None] | None | bool:
        """The page's ``on_scan`` callback; False if it is not registered."""
        with self._registry_lock:
            return self._pages.get(page_id, False)

    def is_registered(self, page_id: int) -> bool:
        with self._registry_lock:
            return page_id in self._pages

    # ------------------------------------------------------------------
    # Algorithm 1: protected operations
    # ------------------------------------------------------------------
    def _try_read_retried(self, addr: int, attempts: int = 3) -> Cell | None:
        """Fetch a cell, absorbing transient host-read faults in place.

        Called with the partition lock held and *before* any digest or
        cell mutation, so an immediate in-place retry (no delay) is safe
        and keeps a mid-operation fault from leaving the partition's
        RS/WS half-updated. Gives up after a bounded number of attempts
        so a permanently failing host still surfaces a typed fault.
        """
        for _ in range(attempts - 1):
            try:
                return self.memory.try_read(addr)
            except TransientFault:
                self._ctr_read_retries.inc()
        return self.memory.try_read(addr)  # the last attempt's fault propagates

    def _vanished(self, addr: int, partition) -> VerificationFailure:
        """Build the cell-vanished alarm; any alarm flushes the cache
        (a detected inconsistency voids every trusted copy)."""
        if self.cache is not None:
            self.cache.flush()
        return VerificationFailure(
            f"cell {addr:#x} vanished from untrusted memory",
            partition=partition.index,
        )

    def restamp(self, addrs, cache=None, scan: bool = False) -> list:
        """The restamp kernel: Algorithm 1's read over a batch of cells.

        Per cell: fetch it, fold ``PRF(addr, data, ts)`` into RS, take a
        fresh stamp, fold ``PRF(addr, data, ts')`` into WS, write the
        stamp back; returns the data in order. A *run* — consecutive
        addresses on one page — takes the page's partition lock once and
        XOR-sums its digests in two local integers, folded into the
        partition when the run ends (the multiset hash is associative).
        The fold sits in a ``finally``: a cell that raises mid-run leaves
        the cells before it re-stamped in untrusted memory, and dropping
        their digests would turn an honest error into a false alarm at
        the next epoch close.

        ``cache`` admits each cell under its partition lock. ``scan`` is
        the epoch scan of a page whose parity the caller just flipped:
        RS lands in the *closing* generation, a cell that is not
        checked, or is listed but absent (its unmatched WS entry fails
        the epoch check), is passed over, and nothing counts as a read
        or owes an op hook.
        """
        check, lookup, keyed, clock, partitions = self._kernel
        page_digests = self._page_digest
        touched = None if scan else self._touched
        out: list = []
        partition = None
        page = -1
        parity = rs = ws = cells = 0  # of the open run
        try:
            for addr in addrs:
                if addr >> PAGE_OFFSET_BITS != page:
                    if partition is not None:
                        partition.fold_run(parity ^ scan, rs, parity, ws, cells, cells)
                        partition = None
                        rs = ws = cells = 0
                    page = addr >> PAGE_OFFSET_BITS
                    entered = partitions[page % len(partitions)]
                    entered.acquire()
                    partition = entered
                    # read under the lock: an epoch scan flips its page's
                    # parity while holding the partition
                    parity = self._parity_of(page)
                    if touched is not None:
                        touched.add(page)
                try:
                    check(TRANSIENT_READ_ERROR)
                    cell = lookup(addr)
                except TransientFault:
                    self._ctr_read_retries.inc()
                    cell = self._try_read_retried(addr, attempts=2)
                if cell is None or scan and not cell.checked:
                    if scan:
                        continue  # see Cell: honouring its untrusted flag is sound
                    raise self._vanished(addr, partition)
                data = cell.data
                h = keyed()
                h.update(_pack(addr, cell.timestamp))
                h.update(data)
                consumed = _from_bytes(h.digest(), "little")
                stamp = next(clock)
                h = keyed()
                h.update(_pack(addr, stamp))
                h.update(data)
                opened = _from_bytes(h.digest(), "little")
                # nothing from here to the append can raise: the run's
                # digests always match the stamps written back
                rs ^= consumed
                ws ^= opened
                cell.timestamp = stamp
                if page_digests is not None:
                    page_digests[page] ^= consumed ^ opened
                cells += 1
                out.append(data)
                if cache is not None:
                    cache.admit(addr, data)
        finally:
            if partition is not None:
                partition.fold_run(parity ^ scan, rs, parity, ws, cells, cells)
            self.prf.calls += 2 * len(out)
        if not scan:
            done = len(out)
            self.stats.verified_reads += done
            self._ctr_reads.inc(done)
            trace = current_trace()
            if trace is not None:
                trace.top.verified_reads += done
            self._fire_hooks(done)
        return out

    def read(self, addr: int) -> bytes:
        """Verified read: RS gets the old stamp, WS the virtual write-back.

        With a :class:`~repro.memory.cache.RecordCache` attached, a hit
        returns the trusted in-enclave copy immediately — zero RSWS
        digest work, no partition lock, no ECall charge (the data never
        leaves the boundary). A miss runs the full Algorithm-1 protocol
        and admits the verified value while still holding the partition
        lock, so a concurrent write to the same cell cannot interleave a
        stale admission.
        """
        cache = self.cache
        if cache is not None:
            data = cache.lookup(addr)
            if data is not None:
                return data
        return self.restamp((addr,), cache)[0]

    def read_many(self, addrs, admit: bool = True) -> list:
        """Batched verified reads (the vectorized engine's hot path).

        ``read()`` per cell — same digests, stamps, fault retries and
        number of verifier hooks — as one pass of the restamp kernel,
        with an attached :class:`~repro.sgx.costs.CycleMeter` charged
        one amortized ECall per batch of two or more cells.

        With a record cache attached, cached addresses are served from
        the trusted copies first and only the misses pay the protocol; a
        fully cached batch costs nothing. ``admit=False`` still *serves*
        hits but does not admit the misses — the scan-resistance escape
        hatch large sequential scans use so they cannot wash out the hot
        set.
        """
        cache = self.cache
        hits = None if cache is None else cache.lookup_many(addrs)
        wanted = (
            addrs if hits is None else [a for a, d in zip(addrs, hits) if d is None]
        )
        if not wanted:
            return hits or []
        if len(addrs) > 1:
            if self.meter is not None:
                self.meter.charge_batched_read()
            self._ctr_read_batches.inc()
            self._hist_batch_cells.observe(len(wanted))
        fresh = self.restamp(wanted, cache if admit else None)
        if hits is None:
            return fresh
        missed = iter(fresh)
        return [next(missed) if data is None else data for data in hits]

    def write(self, addr: int, data: bytes) -> None:
        """Verified overwrite of an existing cell."""
        page = page_of(addr)
        partition = self.rsws.partition_for_page(page)
        partition.acquire()
        try:
            cell = self._try_read_retried(addr)
            if cell is None:
                raise self._vanished(addr, partition)
            parity = self._parity_of(page)
            consumed = self.prf.cell(addr, cell.data, cell.timestamp)
            partition.record_read(parity, consumed)
            new_ts = next(self._clock)
            opened = self.prf.cell(addr, data, new_ts)
            partition.record_write(parity, opened)
            self.memory.raw_write(addr, data, new_ts)
            if self._page_digest is not None:
                delta = _from_bytes(consumed, "little") ^ _from_bytes(opened, "little")
                self._page_digest[page] ^= delta
                self._touched.add(page)
            if self.cache is not None:
                # write-through under the partition lock: a cached entry
                # always reflects the latest verified value
                self.cache.update(addr, data)
        finally:
            partition.release()
        self.stats.verified_writes += 1
        self._ctr_writes.inc()
        self._fire_hooks()

    def alloc_many(self, addrs, datas) -> None:
        """Open fresh cells on one page, the write-side sibling of :meth:`restamp`:
        one registration check, partition lock and WS fold (in a ``finally``, as
        there) for the run; the op hooks fire once per cell, after it."""
        page = addrs[0] >> PAGE_OFFSET_BITS
        if not self.is_registered(page):
            raise StorageError(f"page {page} is not registered for verification")
        _check, lookup, keyed, clock, partitions = self._kernel
        write = self.memory.raw_write
        partition = partitions[page % len(partitions)]
        partition.acquire()
        parity = ws = cells = 0
        try:
            parity = self._parity_of(page)
            for addr, data in zip(addrs, datas):
                if lookup(addr) is not None:
                    raise StorageError(f"cell {addr:#x} already allocated")
                stamp = next(clock)
                h = keyed()
                h.update(_pack(addr, stamp))
                h.update(data)
                ws ^= _from_bytes(h.digest(), "little")
                write(addr, data, stamp)
                cells += 1
        finally:
            if self._page_digest is not None:
                self._page_digest[page] ^= ws
                self._touched.add(page)
            partition.fold_run(parity, 0, parity, ws, 0, cells)
            self.prf.calls += cells
        self.stats.allocs += cells
        self._ctr_allocs.inc(cells)
        self._fire_hooks(cells)

    def alloc(self, addr: int, data: bytes) -> None:
        """Open a fresh cell (first write; no prior read to consume)."""
        self.alloc_many((addr,), (data,))

    def free(self, addr: int) -> bytes:
        """Retire a cell: consume its last write without reopening it."""
        page = page_of(addr)
        partition = self.rsws.partition_for_page(page)
        partition.acquire()
        try:
            cell = self._try_read_retried(addr)
            if cell is None:
                raise self._vanished(addr, partition)
            parity = self._parity_of(page)
            consumed = self.prf.cell(addr, cell.data, cell.timestamp)
            partition.record_read(parity, consumed)
            self.memory.remove(addr)
            if self._page_digest is not None:
                self._page_digest[page] ^= _from_bytes(consumed, "little")
                self._touched.add(page)
            data = cell.data
            if self.cache is not None:
                # deletes and compaction relocations travel through
                # verified free+alloc, so this single invalidation
                # covers both (the Move case re-admits at the new addr)
                self.cache.invalidate(addr)
        finally:
            partition.release()
        self.stats.frees += 1
        self._ctr_frees.inc()
        self._fire_hooks()
        return data

    # ------------------------------------------------------------------
    # unverified access (metadata-exclusion optimization, Section 4.3)
    # ------------------------------------------------------------------
    def read_unverified(self, addr: int) -> bytes:
        self.stats.unverified_ops += 1
        self._ctr_unverified.inc()
        return self.memory.raw_read(addr).data

    def read_many_unverified(self, addrs, admit: bool = True) -> list:
        """``admit`` changes nothing: raw cells have no trusted copy to cache."""
        self.stats.unverified_ops += len(addrs)
        self._ctr_unverified.inc(len(addrs))
        return [self.memory.raw_read(addr).data for addr in addrs]

    def write_unverified(self, addr: int, data: bytes) -> None:
        self.stats.unverified_ops += 1
        self._ctr_unverified.inc()
        if self.cache is not None:
            # defensive: the raw path bypasses the digests, so it must
            # also bypass (and clear) any trusted copy of the cell
            self.cache.invalidate(addr)
        self.memory.raw_write(addr, data, 0, checked=False)

    def alloc_unverified(self, addr: int, data: bytes) -> None:
        if self.memory.exists(addr):
            raise StorageError(f"cell {addr:#x} already allocated")
        self.stats.unverified_ops += 1
        self._ctr_unverified.inc()
        self.memory.raw_write(addr, data, 0, checked=False)

    def alloc_many_unverified(self, addrs, datas) -> None:
        for addr, data in zip(addrs, datas):
            self.alloc_unverified(addr, data)

    def free_unverified(self, addr: int) -> bytes:
        self.stats.unverified_ops += 1
        self._ctr_unverified.inc()
        if self.cache is not None:
            self.cache.invalidate(addr)
        return self.memory.remove(addr).data

    # ------------------------------------------------------------------
    # verifier-facing internals
    # ------------------------------------------------------------------
    def begin_pass(self) -> None:
        """Mark the start of an epoch scan."""
        with self._registry_lock:
            self._in_pass = True

    def end_pass(self) -> None:
        """Advance the epoch after a completed scan."""
        with self._registry_lock:
            self._epoch += 1
            self._in_pass = False

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def page_digests_enabled(self) -> bool:
        return self._page_digest is not None

    def flip_parity(self, page_id: int) -> int:
        """Move a page into the next epoch; returns the *old* parity."""
        with self._registry_lock:
            old = self._page_parity[page_id]
            self._page_parity[page_id] = old ^ 1
            return old

    def touched_pages(self) -> set[int]:
        """Pages operated on since their last touched-mode scan."""
        if self._touched is None:
            raise StorageError("page digests are not enabled")
        with self._registry_lock:
            return set(self._touched)

    def clear_touched(self, pages: Iterable[int]) -> None:
        with self._registry_lock:
            self._touched.difference_update(pages)

    def page_digest(self, page_id: int) -> int:
        """XOR-sum (as an integer) of the page's open cells' digests."""
        if self._page_digest is None:
            raise StorageError("page digests are not enabled")
        return self._page_digest[page_id]

    def enclave_state_bytes(self) -> int:
        """Approximate size of the trusted synopsis (EPC budget check)."""
        digest_bytes = 16
        per_partition = 4 * digest_bytes  # two generations of (rs, ws)
        with self._registry_lock:
            n_pages = len(self._pages)
        state = self.rsws.n_partitions * per_partition + n_pages // 8  # parity bitmap
        if self._page_digest is not None:
            # touched mode: a touched bit and an open-cell digest per page
            state += n_pages // 8 + n_pages * digest_bytes
        return state

    def add_op_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every verified operation (verifier trigger)."""
        self._on_op.append(hook)

    def remove_op_hook(self, hook: Callable[[], None]) -> None:
        self._on_op.remove(hook)

    def hold_hooks(self) -> bool:
        """Defer this thread's op hooks until :meth:`release_hooks`.

        A hook may run a verifier step and with it a page's deferred
        compaction, which moves payload cells — so whoever reads a slot
        pointer as a verified operation holds the hooks until it has
        read the payload the pointer names; they fire, same count, on
        release. False (nothing to release) when no hook is installed or
        an outer hold is open.
        """
        if not self._on_op:
            return False
        if self._hold is None:
            with self._registry_lock:
                self._hold = self._hold or _HookHold()
        if self._hold.owed is not None:
            return False
        self._hold.owed = 0
        return True

    def release_hooks(self) -> None:
        owed, self._hold.owed = self._hold.owed, None
        self._fire_hooks(owed)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _parity_of(self, page_id: int) -> int:
        parity = self._page_parity.get(page_id)
        if parity is None:
            raise StorageError(f"page {page_id} is not registered for verification")
        return parity

    def _fire_hooks(self, count: int = 1) -> None:
        """Run the op hooks once per operation done — later, under a hold."""
        hooks = self._on_op
        if not (hooks and count):  # a hold may be released owing nothing
            return
        hold = self._hold
        if hold is not None and hold.owed is not None:
            hold.owed += count
            return
        if count > 1:
            hooks = hooks * count
        if not self._obs_on:
            for hook in hooks:
                hook()
            return
        start = perf_counter()
        try:
            for hook in hooks:
                hook()
        finally:
            self._hist_hooks.observe(perf_counter() - start)
