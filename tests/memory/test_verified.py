"""Unit tests for Algorithm 1: the protected Read/Write procedures."""

import pytest

from repro.crypto.prf import PRF
from repro.errors import StorageError, VerificationFailure
from repro.memory.cells import make_addr
from repro.memory.rsws import RSWSGroup
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier


@pytest.fixture
def vmem():
    memory = VerifiedMemory(prf=PRF(b"t" * 32), rsws=RSWSGroup(n_partitions=2))
    memory.register_page(0)
    memory.register_page(1)
    return memory


def test_alloc_then_read(vmem):
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"value")
    assert vmem.read(addr) == b"value"


def test_write_overwrites(vmem):
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v1")
    vmem.write(addr, b"v2")
    assert vmem.read(addr) == b"v2"


def test_free_returns_data_and_retires(vmem):
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    assert vmem.free(addr) == b"v"
    with pytest.raises(VerificationFailure):
        vmem.read(addr)


def test_alloc_requires_registered_page(vmem):
    with pytest.raises(StorageError):
        vmem.alloc(make_addr(99, 0), b"v")


def test_double_alloc_rejected(vmem):
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    with pytest.raises(StorageError):
        vmem.alloc(addr, b"w")


def test_read_missing_cell_is_detection(vmem):
    with pytest.raises(VerificationFailure):
        vmem.read(make_addr(0, 123))


def test_duplicate_register_rejected(vmem):
    with pytest.raises(StorageError):
        vmem.register_page(0)


def test_read_updates_both_sets(vmem):
    """Algorithm 1: a read adds to RS *and* virtually writes back to WS."""
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    part = vmem.rsws.partition_for_page(0)
    reads_before = part.stats.reads_recorded
    writes_before = part.stats.writes_recorded
    vmem.read(addr)
    assert part.stats.reads_recorded == reads_before + 1
    assert part.stats.writes_recorded == writes_before + 1


def test_read_refreshes_timestamp(vmem):
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    ts0 = vmem.memory.raw_read(addr).timestamp
    vmem.read(addr)
    assert vmem.memory.raw_read(addr).timestamp > ts0


def test_quiescent_state_balances_after_final_scan(vmem):
    """After writes + reads + a closing scan, RS must equal WS (Figure 3)."""
    addrs = [make_addr(0, i) for i in range(8)]
    for i, addr in enumerate(addrs):
        vmem.alloc(addr, bytes([i]))
    for addr in addrs[:4]:
        vmem.read(addr)
    vmem.write(addrs[5], b"updated")
    vmem.free(addrs[7])
    Verifier(vmem).run_pass()  # must not raise


def test_unverified_ops_do_not_touch_rsws(vmem):
    addr = make_addr(0, 500)
    total_before = vmem.rsws.total_operations()
    vmem.alloc_unverified(addr, b"meta")
    assert vmem.read_unverified(addr) == b"meta"
    vmem.write_unverified(addr, b"meta2")
    assert vmem.free_unverified(addr) == b"meta2"
    assert vmem.rsws.total_operations() == total_before
    assert vmem.stats.unverified_ops == 4


def test_touched_pages_tracking():
    vmem = VerifiedMemory(
        prf=PRF(b"t" * 32), rsws=RSWSGroup(n_partitions=2), page_digests=True
    )
    vmem.register_page(0)
    vmem.register_page(1)
    assert vmem.touched_pages() == set()
    vmem.alloc(make_addr(1, 0), b"x")
    assert vmem.touched_pages() == {1}
    vmem.clear_touched([1])
    assert vmem.touched_pages() == set()
    vmem.read(make_addr(1, 0))
    vmem.deregister_page(1)
    assert vmem.touched_pages() == set()


def test_full_mode_holds_no_touched_state(vmem):
    """Touched-page state exists only for the touched strategy, and the
    trusted synopsis counts it only there."""
    addr = make_addr(1, 0)
    vmem.alloc(addr, b"x")
    vmem.read(addr)
    vmem.write(addr, b"y")
    assert vmem._touched is None and vmem._page_digest is None
    with pytest.raises(StorageError):
        vmem.touched_pages()
    touched = VerifiedMemory(rsws=RSWSGroup(n_partitions=2), page_digests=True)
    touched.register_page(0)
    touched.register_page(1)
    # per page: a touched bit and a 16-byte open-cell digest
    assert touched.enclave_state_bytes() - vmem.enclave_state_bytes() == 2 * 16


def test_deregister_retires_cells(vmem):
    addr = make_addr(1, 0)
    vmem.alloc(addr, b"x")
    vmem.deregister_page(1)
    assert not vmem.is_registered(1)
    assert not vmem.memory.exists(addr)
    # retirement balanced: a pass over remaining pages succeeds
    Verifier(vmem).run_pass()


def test_stats_counters(vmem):
    addr = make_addr(0, 0)
    vmem.alloc(addr, b"v")
    vmem.read(addr)
    vmem.write(addr, b"w")
    vmem.free(addr)
    assert vmem.stats.allocs == 1
    assert vmem.stats.verified_reads == 1
    assert vmem.stats.verified_writes == 1
    assert vmem.stats.frees == 1


def test_enclave_state_is_small(vmem):
    for i in range(64):
        vmem.alloc(make_addr(0, i * 8), b"payload")
    # trusted synopsis stays tiny regardless of data volume
    assert vmem.enclave_state_bytes() < 16 * 1024


def test_op_hooks_fire(vmem):
    fired = []
    vmem.add_op_hook(lambda: fired.append(1))
    vmem.alloc(make_addr(0, 0), b"v")
    vmem.read(make_addr(0, 0))
    assert len(fired) == 2
    vmem.remove_op_hook(vmem._on_op[0])
    vmem.read(make_addr(0, 0))
    assert len(fired) == 2
