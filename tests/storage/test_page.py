"""Unit tests for slotted pages."""

import pytest

from repro.crypto.prf import PRF
from repro.errors import PageFullError, StorageError
from repro.memory.rsws import RSWSGroup
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from repro.storage.page import DATA_BASE, Page


def make_page(capacity=1024, verify_data=True, verify_metadata=False, page_id=0):
    vmem = VerifiedMemory(prf=PRF(b"p" * 32), rsws=RSWSGroup(n_partitions=1))
    if verify_data:
        vmem.register_page(page_id)
    page = Page(
        page_id,
        vmem,
        capacity=capacity,
        verify_data=verify_data,
        verify_metadata=verify_metadata,
    )
    return page, vmem


def test_insert_read_roundtrip():
    page, _ = make_page()
    slot = page.insert(b"hello world")
    assert page.read(slot) == b"hello world"
    assert page.record_count == 1


def test_multiple_records_distinct_slots():
    page, _ = make_page()
    slots = [page.insert(f"rec{i}".encode()) for i in range(10)]
    assert len(set(slots)) == 10
    for i, slot in enumerate(slots):
        assert page.read(slot) == f"rec{i}".encode()


def test_page_full():
    page, _ = make_page(capacity=600)
    page.insert(b"x" * 256)
    page.insert(b"y" * 256)
    with pytest.raises(PageFullError):
        page.insert(b"z" * 256)


def test_delete_reclaims_logical_space():
    page, _ = make_page(capacity=600)
    a = page.insert(b"x" * 256)
    page.insert(b"y" * 256)
    page.delete(a)
    # deferred: hole remains but logical space allows the insert
    page.insert(b"z" * 256)
    assert page.record_count == 2


def test_delete_then_read_fails():
    page, _ = make_page()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(StorageError):
        page.read(slot)


def test_slot_reuse_after_delete():
    page, _ = make_page()
    slot = page.insert(b"a")
    page.delete(slot)
    slot2 = page.insert(b"b")
    assert slot2 == slot


def test_in_place_write():
    page, _ = make_page()
    slot = page.insert(b"short")
    page.write(slot, b"a-longer-payload")
    assert page.read(slot) == b"a-longer-payload"


def test_in_place_growth_respects_capacity():
    page, _ = make_page(capacity=600)
    slot = page.insert(b"x" * 100)
    page.insert(b"y" * 400)
    with pytest.raises(PageFullError):
        page.write(slot, b"x" * 200)


def test_fragmentation_and_compact():
    page, vmem = make_page(capacity=4096)
    slots = [page.insert(bytes([i]) * 64) for i in range(8)]
    for slot in slots[::2]:
        page.delete(slot)
    assert page.fragmentation > 0.4
    moved = page.compact()
    assert moved > 0
    assert page.fragmentation == 0.0
    for i, slot in enumerate(slots):
        if i % 2 == 1:
            assert page.read(slot) == bytes([i]) * 64
    Verifier(vmem).run_pass()  # all moves were integrity-protected


def test_metadata_unverified_by_default():
    page, vmem = make_page(verify_metadata=False)
    baseline_ops = vmem.rsws.total_operations()
    page.insert(b"payload")
    with_metadata_excluded = vmem.rsws.total_operations() - baseline_ops
    # only the record payload cell hits the RSWS (one alloc = one write)
    assert with_metadata_excluded == 1


def test_metadata_verified_costs_more():
    plain, vmem_plain = make_page(verify_metadata=False)
    strict, vmem_strict = make_page(verify_metadata=True)
    plain.insert(b"payload")
    strict.insert(b"payload")
    assert (
        vmem_strict.rsws.total_operations()
        > vmem_plain.rsws.total_operations()
    )


def test_unverified_page_mode():
    page, vmem = make_page(verify_data=False)
    slot = page.insert(b"x")
    assert page.read(slot) == b"x"
    assert vmem.rsws.total_operations() == 0


def test_verification_pass_clean_after_page_activity():
    page, vmem = make_page()
    slots = [page.insert(f"r{i}".encode()) for i in range(5)]
    page.write(slots[0], b"updated")
    page.delete(slots[1])
    Verifier(vmem).run_pass()


def test_data_offsets_start_at_base():
    page, _ = make_page()
    slot = page.insert(b"x")
    offset, _ = page.slot_offset_for_compaction(slot)
    assert offset >= DATA_BASE
