"""Trusted in-enclave record cache with EPC-pressure-aware eviction.

The paper's trust model (Section 2.1) makes memory checking necessary
only for data *outside* the enclave: anything resident in protected
memory is trusted by construction. :class:`RecordCache` exploits that —
a bounded set of verified cell values is kept logically inside the
simulated enclave, so a hit returns the trusted copy with zero RSWS
digest work and zero ECall/verified-read charges, while a miss pays the
full Algorithm-1 protocol and admits the result.

Soundness rests on three rules, enforced by the integration points in
:class:`~repro.memory.verified.VerifiedMemory` and
:class:`~repro.memory.verifier.Verifier`:

* every verified ``write``/``free`` (and therefore every relocation,
  which travels through verified free+alloc) updates or
  invalidates the cached entry *under the cell's RSWS partition lock*,
  so the cache can never serve a value the verifier would reject;
* the cache is flushed at every epoch close and on any
  :class:`~repro.errors.VerificationFailure`, so deferred-verification
  semantics are untouched — a cached value never outlives the epoch
  state it was verified under;
* admissions only come from the verified read path; nothing enters the
  cache without having passed the Figure-5 keychain checks.

EPC accounting: the cache registers its resident bytes with an
:class:`~repro.sgx.epc.EnclavePageCache` in fixed-size *shard*
allocations (``record-cache/<i>``), so cache residency competes with
operator state for protected memory. When the EPC pages a shard out,
the cache treats it as a whole-cache loss (the enclave cannot trust
swapped-out plaintext) — an *eviction storm* — and the swap cost is
billed through the EPC's :class:`~repro.sgx.costs.CycleMeter`. An
over-sized cache therefore gets slower, reproducing the paper's
EPC-pressure cliff; ``benchmarks/test_gates.py`` gates it.

Eviction is least-recently-used inside the byte budget. Large
sequential scans bypass admission entirely (``admit=False`` through the
batched read path), so a table scan cannot wash the hot set out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigurationError, FaultInjected
from repro.faults import default_fault_plane, sites as fault_sites
from repro.obs import default_registry
from repro.obs.trace_context import current_trace

#: approximate per-entry bookkeeping (key, links, ref bits) charged
#: against ``capacity_bytes`` so tiny records cannot inflate the entry
#: count past what the byte budget is meant to bound
ENTRY_OVERHEAD = 64

#: granularity of EPC residency accounting: one named allocation per
#: this many resident cache bytes
DEFAULT_SHARD_BYTES = 64 * 1024


class RecordCache:
    """Bounded addr → verified-bytes cache inside the enclave boundary.

    Thread-safe; the lock is reentrant because an EPC shard allocation
    made while admitting can synchronously signal an eviction storm.
    Mutating integration points (:meth:`update`, :meth:`invalidate`)
    are called by :class:`~repro.memory.verified.VerifiedMemory` under
    the cell's RSWS partition lock, which serializes them against the
    admission of the same address.
    """

    def __init__(
        self,
        capacity_bytes: int,
        registry=None,
        faults=None,
        epc=None,
        epc_name: str = "record-cache",
        shard_bytes: int = DEFAULT_SHARD_BYTES,
    ):
        if capacity_bytes <= 0:
            raise ConfigurationError("cache capacity_bytes must be positive")
        if shard_bytes <= 0:
            raise ConfigurationError("shard_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.faults = faults if faults is not None else default_fault_plane()
        self._lock = threading.RLock()
        #: addr → verified bytes, least recently used first
        self._entries: OrderedDict[int, bytes] = OrderedDict()
        self._bytes = 0
        self._storm_pending = False

        self._epc = None
        self._epc_name = epc_name
        self._shard_bytes = shard_bytes
        self._n_shards = 0

        self.obs = registry if registry is not None else default_registry()
        self._ctr_hits = self.obs.counter("memory.cache_hits")
        self._ctr_misses = self.obs.counter("memory.cache_misses")
        self._ctr_evictions = self.obs.counter("memory.cache_evictions")
        self._ctr_invalidations = self.obs.counter("memory.cache_invalidations")
        self._ctr_epc_evictions = self.obs.counter("sgx.cache_epc_evictions")
        self.obs.gauge_fn("memory.cache_bytes_resident", lambda: self._bytes)

        if epc is not None:
            self.attach_epc(epc)

    # ------------------------------------------------------------------
    # EPC residency accounting
    # ------------------------------------------------------------------
    def attach_epc(self, epc) -> None:
        """Register cache residency with an enclave page cache.

        Resident bytes are mirrored as fixed-size shard allocations; the
        EPC paging one of them out fires :meth:`_on_shard_evicted`.
        """
        with self._lock:
            self._release_shards()
            self._epc = epc
        self._sync_epc()

    def _on_shard_evicted(self, name: str, size: int) -> None:
        """EPC paged a cache shard out: schedule a whole-cache loss.

        The enclave cannot keep trusting entries whose backing pages
        were swapped to untrusted memory, so the next cache operation
        flushes everything (the *eviction storm* of the EPC-pressure
        cliff). Deferred to the next operation because the EPC signals
        evictions mid-allocation.
        """
        self._ctr_epc_evictions.inc()
        self._storm_pending = True

    def _sync_epc(self) -> None:
        """Mirror resident bytes into ceil(bytes/shard) EPC allocations."""
        epc = self._epc
        if epc is None:
            return
        with self._lock:
            target = -(-self._bytes // self._shard_bytes)
            while self._n_shards < target:
                epc.allocate(
                    f"{self._epc_name}/{self._n_shards}",
                    self._shard_bytes,
                    on_evict=self._on_shard_evicted,
                )
                self._n_shards += 1
            while self._n_shards > target:
                self._n_shards -= 1
                epc.free(f"{self._epc_name}/{self._n_shards}")

    def _release_shards(self) -> None:
        """Free every shard allocation (caller holds the lock)."""
        epc = self._epc
        while self._n_shards > 0:
            self._n_shards -= 1
            if epc is not None:
                epc.free(f"{self._epc_name}/{self._n_shards}")

    # ------------------------------------------------------------------
    # the cache interface
    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bytes | None:
        """Trusted copy for ``addr``, or None on miss. Counts hit/miss."""
        if self._storm_pending:
            self._absorb_storm()
        with self._lock:
            data = self._entries.get(addr)
            if data is not None:
                self._entries.move_to_end(addr)
        if data is None:
            self._ctr_misses.inc()
        else:
            self._ctr_hits.inc()
        trace = current_trace()
        if trace is not None:
            if data is None:
                trace.top.cache_misses += 1
            else:
                trace.top.cache_hits += 1
        return data

    def lookup_many(self, addrs) -> list:
        """Batched :meth:`lookup`: one lock acquisition for the batch."""
        if self._storm_pending:
            self._absorb_storm()
        hits = 0
        entries = self._entries
        out = []
        with self._lock:
            for addr in addrs:
                data = entries.get(addr)
                if data is not None:
                    entries.move_to_end(addr)
                    hits += 1
                out.append(data)
        if hits:
            self._ctr_hits.inc(hits)
        misses = len(out) - hits
        if misses:
            self._ctr_misses.inc(misses)
        trace = current_trace()
        if trace is not None:
            trace.top.cache_hits += hits
            trace.top.cache_misses += misses
        return out

    def admit(self, addr: int, data: bytes) -> None:
        """Insert a freshly verified value, evicting least recently used to fit.

        Values larger than the whole capacity are never admitted. The
        ``cache.evict_storm`` fault site is consulted here (the miss
        path): a firing is absorbed in place as a forced whole-cache
        invalidation — cache loss is a performance event, never an
        error the caller sees.
        """
        if self.faults.enabled:
            try:
                self.faults.check(fault_sites.CACHE_EVICT_STORM)
            except FaultInjected:
                self.flush()
        if self._storm_pending:
            self._absorb_storm()
        size = len(data) + ENTRY_OVERHEAD
        if size > self.capacity_bytes:
            return
        evicted = 0
        entries = self._entries
        with self._lock:
            prev = entries.pop(addr, None)
            if prev is not None:
                self._bytes -= len(prev) + ENTRY_OVERHEAD
            entries[addr] = data
            self._bytes += size
            while self._bytes > self.capacity_bytes:
                _vaddr, vdata = entries.popitem(last=False)
                self._bytes -= len(vdata) + ENTRY_OVERHEAD
                evicted += 1
        if evicted:
            self._ctr_evictions.inc(evicted)
        self._sync_epc()

    def update(self, addr: int, data: bytes) -> None:
        """Write-through: refresh the entry if present, else do nothing.

        Called under the cell's partition lock by every verified write,
        so a cached entry always reflects the latest verified value.
        Writes to uncached addresses do not admit (write-around): a
        write-heavy cold set should not wash out the hot read set.
        """
        with self._lock:
            prev = self._entries.pop(addr, None)
            if prev is None:
                return
            self._bytes += len(data) - len(prev)
            self._entries[addr] = data
        self._sync_epc()

    def invalidate(self, addr: int) -> None:
        """Drop the entry for ``addr`` (frees, relocations, raw paths)."""
        with self._lock:
            prev = self._entries.pop(addr, None)
            if prev is None:
                return
            self._bytes -= len(prev) + ENTRY_OVERHEAD
        self._ctr_invalidations.inc()
        self._sync_epc()

    def flush(self) -> int:
        """Drop every entry; returns how many were dropped.

        Runs at epoch close, on any :class:`VerificationFailure`, on an
        EPC eviction storm, and when the ``cache.evict_storm`` fault
        site fires. Flushed entries count as invalidations.
        """
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self._release_shards()
        if n:
            self._ctr_invalidations.inc(n)
        return n

    def _absorb_storm(self) -> None:
        self._storm_pending = False
        self.flush()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_resident(self) -> int:
        return self._bytes
