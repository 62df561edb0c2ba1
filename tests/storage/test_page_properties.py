"""Property-based tests for slotted pages and heap files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import PRF
from repro.errors import PageFullError
from repro.memory.rsws import RSWSGroup
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile
from repro.storage.page import Page


def make_page(capacity=2048):
    vmem = VerifiedMemory(prf=PRF(b"q" * 32), rsws=RSWSGroup(n_partitions=1))
    vmem.register_page(0)
    return Page(0, vmem, capacity=capacity), vmem


_op = st.one_of(
    st.tuples(st.just("insert"), st.binary(min_size=1, max_size=120)),
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(st.just("write"), st.integers(0, 40), st.binary(min_size=1, max_size=120)),
    st.tuples(st.just("compact"),),
)


@settings(max_examples=60)
@given(ops=st.lists(_op, max_size=50))
def test_page_matches_model(ops):
    """A page behaves like a dict {slot: payload} under random ops,
    including compaction, and the memory checker stays consistent."""
    page, vmem = make_page()
    model: dict[int, bytes] = {}
    for op in ops:
        if op[0] == "insert":
            payload = op[1]
            if page.can_fit(len(payload)):
                slot = page.insert(payload)
                assert slot not in model
                model[slot] = payload
            else:
                with pytest.raises(PageFullError):
                    page.insert(payload)
        elif op[0] == "delete":
            slot = op[1]
            if slot in model:
                assert page.delete(slot) == model.pop(slot)
        elif op[0] == "write":
            slot, payload = op[1], op[2]
            if slot in model and page.fits_in_place(slot, len(payload)):
                page.write(slot, payload)
                model[slot] = payload
        else:
            page.compact()
            assert page.fragmentation == 0.0
    assert sorted(page.live_slots()) == sorted(model)
    for slot, payload in model.items():
        assert page.read(slot) == payload
    assert page.record_count == len(model)
    Verifier(vmem).run_pass()  # every mutation path stayed balanced


@settings(max_examples=30)
@given(
    payload_sizes=st.lists(st.integers(1, 300), min_size=1, max_size=120),
    delete_every=st.integers(2, 5),
)
def test_heap_round_trip_with_churn(payload_sizes, delete_every):
    engine = StorageEngine(StorageConfig(page_size=1024))
    heap = HeapFile(engine)
    rids = []
    for i, size in enumerate(payload_sizes):
        rids.append((heap.insert(bytes([i % 251]) * size), i, size))
    for index, (rid, i, _size) in enumerate(list(rids)):
        if index % delete_every == 0:
            heap.delete(rid)
            rids.remove((rid, i, _size))
    for rid, i, size in rids:
        assert heap.read(rid) == bytes([i % 251]) * size
    assert heap.record_count() == len(rids)
    engine.verify_now()


@settings(max_examples=20)
@given(seed_sizes=st.lists(st.integers(1, 200), min_size=5, max_size=60))
def test_eager_and_deferred_compaction_agree(seed_sizes):
    """Compacting a page after each of its deletes and compacting every
    page once after all of them preserve exactly the same contents."""
    results = {}
    for mode in ("eager", "deferred"):
        engine = StorageEngine(StorageConfig(page_size=1024))
        heap = HeapFile(engine)
        rids = [
            heap.insert(bytes([i % 251]) * size)
            for i, size in enumerate(seed_sizes)
        ]
        for rid in rids[::2]:
            heap.delete(rid)
            if mode == "eager":
                heap.get_page(rid.page_id).compact()
        if mode == "deferred":
            for page in heap.pages():
                page.compact()
        engine.verify_now()
        survivors = sorted(
            heap.read(rid) for rid in rids[1::2]
        )
        results[mode] = survivors
    assert results["eager"] == results["deferred"]
