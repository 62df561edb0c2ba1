"""Unit tests for the trusted record cache (repro.memory.cache)."""

import pytest

from repro.crypto.prf import PRF
from repro.errors import ConfigurationError, VerificationFailure
from repro.memory.cache import ENTRY_OVERHEAD, RecordCache
from repro.memory.cells import make_addr
from repro.memory.rsws import RSWSGroup
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from repro.obs import MetricsRegistry
from repro.sgx.epc import EnclavePageCache


def cache_of(capacity_kb=64, **kwargs) -> RecordCache:
    return RecordCache(capacity_kb * 1024, **kwargs)


# ----------------------------------------------------------------------
# basic interface
# ----------------------------------------------------------------------
def test_lookup_miss_then_admit_then_hit():
    cache = cache_of()
    assert cache.lookup(1) is None
    cache.admit(1, b"payload")
    assert cache.lookup(1) == b"payload"
    assert len(cache) == 1


def test_invalidate_drops_entry():
    cache = cache_of()
    cache.admit(1, b"a")
    cache.invalidate(1)
    assert cache.lookup(1) is None
    cache.invalidate(2)  # absent: no-op


def test_update_refreshes_only_present_entries():
    cache = cache_of()
    cache.admit(1, b"old")
    cache.update(1, b"new")
    assert cache.lookup(1) == b"new"
    # write-around: updates to uncached addresses do not admit
    cache.update(2, b"never")
    assert cache.lookup(2) is None


def test_flush_empties_and_reports_count():
    cache = cache_of()
    for addr in range(5):
        cache.admit(addr, b"x")
    assert cache.flush() == 5
    assert len(cache) == 0
    assert cache.bytes_resident == 0


def test_lookup_many_mixed():
    cache = cache_of()
    cache.admit(1, b"a")
    cache.admit(3, b"c")
    assert cache.lookup_many([1, 2, 3]) == [b"a", None, b"c"]


def test_oversized_value_never_admitted():
    cache = RecordCache(256)
    cache.admit(1, b"x" * 512)
    assert cache.lookup(1) is None


def test_capacity_enforced_in_bytes():
    entry = 100 + ENTRY_OVERHEAD
    cache = RecordCache(3 * entry)
    for addr in range(4):
        cache.admit(addr, bytes(100))
    assert len(cache) == 3
    assert cache.bytes_resident <= 3 * entry


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RecordCache(0)
    with pytest.raises(ConfigurationError):
        RecordCache(1024, shard_bytes=0)


# ----------------------------------------------------------------------
# eviction
# ----------------------------------------------------------------------
def test_lru_evicts_least_recently_used():
    cache = RecordCache(3 * (8 + ENTRY_OVERHEAD))
    for addr in (1, 2, 3):
        cache.admit(addr, bytes(8))
    cache.lookup(1)  # 2 is now coldest
    cache.admit(4, bytes(8))
    assert cache.lookup(2) is None
    assert cache.lookup(1) is not None


def test_roundtrip_and_bound():
    cache = RecordCache(16 * 1024)
    for addr in range(200):
        cache.admit(addr, bytes(128))
    assert cache.bytes_resident <= 16 * 1024
    assert len(cache) > 0
    cache.flush()
    assert len(cache) == 0


# ----------------------------------------------------------------------
# EPC residency accounting
# ----------------------------------------------------------------------
def test_epc_shards_track_resident_bytes():
    epc = EnclavePageCache(capacity_bytes=1 << 20)
    cache = RecordCache(64 * 1024, epc=epc, shard_bytes=4096)
    assert epc.total_bytes == 0
    cache.admit(1, bytes(3000))
    assert epc.total_bytes == 4096  # ceil(3064/4096) = 1 shard
    cache.admit(2, bytes(3000))
    assert epc.total_bytes == 2 * 4096
    cache.flush()
    assert epc.total_bytes == 0


def test_epc_pressure_triggers_eviction_storm():
    registry = MetricsRegistry()
    # EPC holds two shards; the third admission pages the oldest out
    epc = EnclavePageCache(capacity_bytes=2 * 4096)
    cache = RecordCache(
        64 * 1024, epc=epc, shard_bytes=4096, registry=registry
    )
    for addr in range(3):
        cache.admit(addr, bytes(3000))
    # a shard was paged out; the next operation absorbs the storm
    cache.lookup(0)
    assert len(cache) == 0
    snap = registry.snapshot()
    assert snap["sgx.cache_epc_evictions"]["value"] >= 1
    # all shards were released by the flush
    assert epc.total_bytes == 0


def test_counters_cover_hits_misses_evictions_invalidations():
    registry = MetricsRegistry()
    cache = RecordCache(2 * (8 + ENTRY_OVERHEAD), registry=registry)
    cache.lookup(1)  # miss
    cache.admit(1, bytes(8))
    cache.lookup(1)  # hit
    cache.admit(2, bytes(8))
    cache.admit(3, bytes(8))  # evicts
    cache.invalidate(3)
    snap = registry.snapshot()
    assert snap["memory.cache_misses"]["value"] == 1
    assert snap["memory.cache_hits"]["value"] == 1
    assert snap["memory.cache_evictions"]["value"] == 1
    assert snap["memory.cache_invalidations"]["value"] == 1
    assert (
        snap["memory.cache_bytes_resident"]["value"] == cache.bytes_resident
    )


# ----------------------------------------------------------------------
# VerifiedMemory integration
# ----------------------------------------------------------------------
def make_cached_vmem(capacity_kb=64):
    vmem = VerifiedMemory(
        prf=PRF(b"t" * 32), rsws=RSWSGroup(n_partitions=2)
    )
    vmem.register_page(0)
    vmem.register_page(1)
    vmem.cache = RecordCache(capacity_kb * 1024)
    return vmem


def test_hit_skips_rsws_work_and_timestamp_bump():
    """A cache hit must do zero Algorithm-1 work: no RS/WS append, no
    re-stamp of the untrusted cell."""
    vmem = make_cached_vmem()
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    vmem.read(addr)  # miss: verified read, admits
    part = vmem.rsws.partition_for_page(0)
    reads_before = part.stats.reads_recorded
    ts_before = vmem.memory.raw_read(addr).timestamp
    assert vmem.read(addr) == b"v"  # hit
    assert part.stats.reads_recorded == reads_before
    assert vmem.memory.raw_read(addr).timestamp == ts_before


def test_write_through_updates_cached_entry():
    vmem = make_cached_vmem()
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v1")
    vmem.read(addr)
    vmem.write(addr, b"v2")
    assert vmem.cache.lookup(addr) == b"v2"
    assert vmem.read(addr) == b"v2"


def test_free_invalidates_cached_entry():
    vmem = make_cached_vmem()
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    vmem.read(addr)
    vmem.free(addr)
    assert vmem.cache.lookup(addr) is None


def test_read_many_serves_hits_without_charges():
    vmem = make_cached_vmem()
    addrs = [make_addr(0, i) for i in range(4)]
    for addr in addrs:
        vmem.alloc(addr, b"x%d" % addr)
    assert vmem.read_many(addrs) == [b"x%d" % a for a in addrs]
    part0 = vmem.rsws.partition_for_page(0)
    reads_before = part0.stats.reads_recorded
    # all cached now: the whole batch is served trusted
    assert vmem.read_many(addrs) == [b"x%d" % a for a in addrs]
    assert part0.stats.reads_recorded == reads_before


def test_read_many_admit_false_bypasses_admission():
    vmem = make_cached_vmem()
    addrs = [make_addr(0, i) for i in range(4)]
    for addr in addrs:
        vmem.alloc(addr, b"y")
    vmem.read_many(addrs, admit=False)
    assert len(vmem.cache) == 0
    # but existing entries are still served
    vmem.read(addrs[0])
    assert vmem.cache.lookup(addrs[0]) == b"y"


def test_verification_failure_flushes_cache():
    vmem = make_cached_vmem()
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    vmem.read(addr)
    assert len(vmem.cache) == 1
    with pytest.raises(VerificationFailure):
        vmem.read(make_addr(0, 123))  # vanished cell
    assert len(vmem.cache) == 0


def test_epoch_close_flushes_cache():
    """Regression guard: a cached value never outlives its epoch."""
    vmem = make_cached_vmem()
    verifier = Verifier(vmem)
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    vmem.read(addr)
    assert len(vmem.cache) == 1
    verifier.run_pass()
    assert len(vmem.cache) == 0
    # and the system keeps working afterwards
    assert vmem.read(addr) == b"v"
    verifier.run_pass()


def test_tampered_value_not_masked_by_stale_cache_entry():
    """After any alarm the cache holds nothing: a poisoned store cannot
    hide behind a stale trusted copy, and the stale copy cannot mask
    what the store actually contains (detection stays with the
    verifier, as in the uncached protocol)."""
    vmem = make_cached_vmem()
    verifier = Verifier(vmem)
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"honest")
    vmem.read(addr)
    assert vmem.cache.lookup(addr) == b"honest"
    cell = vmem.memory.raw_read(addr)
    vmem.memory.raw_write(addr, b"evil!!", cell.timestamp)
    with pytest.raises(VerificationFailure):
        verifier.run_pass()
    # the alarm flushed the trusted copy; the next read goes to the
    # untrusted store (deferred detection, exactly as without a cache)
    assert len(vmem.cache) == 0
    assert vmem.cache.lookup(addr) is None
