"""Unit tests for heap files."""

import pytest

from repro.errors import PageFullError, StorageError
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile, RecordId


def make_heap(**config_kwargs):
    engine = StorageEngine(StorageConfig(page_size=1024, **config_kwargs))
    return HeapFile(engine), engine


def test_insert_read_roundtrip():
    heap, _ = make_heap()
    rid = heap.insert(b"payload")
    assert heap.read(rid) == b"payload"
    assert isinstance(rid, RecordId)


def test_spills_to_new_pages():
    heap, _ = make_heap()
    rids = [heap.insert(b"x" * 200) for _ in range(20)]
    assert heap.page_count() > 1
    for rid in rids:
        assert heap.read(rid) == b"x" * 200
    assert heap.record_count() == 20


def test_free_list_reuse():
    heap, _ = make_heap()
    rids = [heap.insert(b"x" * 200) for _ in range(20)]
    pages_before = heap.page_count()
    for rid in rids[:8]:
        heap.delete(rid)
    for _ in range(8):
        heap.insert(b"y" * 200)
    assert heap.page_count() == pages_before


def test_free_space_probes_stay_constant_under_churn(monkeypatch):
    """Finding room must not walk the table: a full page retired as
    "current" is not listed, a listed page is probed at most once per
    listing, so probes per insert do not grow with the page count —
    while freed space is still reused (steady state opens no pages)."""
    import random

    from repro.storage.page import Page

    probes = 0
    real_can_fit = Page.can_fit

    def counting_can_fit(self, payload_len):
        nonlocal probes
        probes += 1
        return real_can_fit(self, payload_len)

    monkeypatch.setattr(Page, "can_fit", counting_can_fit)
    rng = random.Random(5)
    per_insert = {}
    for n_records in (200, 3200):
        heap, _ = make_heap()
        live = [heap.insert(b"x" * 200) for _ in range(n_records)]
        pages_loaded = heap.page_count()
        probes = 0
        inserts = 0
        for _ in range(2000):
            if rng.random() < 0.5:
                live.append(heap.insert(b"y" * 200))
                inserts += 1
            else:
                heap.delete(live.pop(rng.randrange(len(live))))
        per_insert[n_records] = probes / inserts
        # a random walk around the loaded size: a handful of pages at
        # most, not one per insert
        assert heap.page_count() <= pages_loaded + 30
    assert per_insert[200] <= 3 and per_insert[3200] <= 3, per_insert


def test_shrinking_write_lists_the_page_for_reuse():
    heap, _ = make_heap()
    rids = [heap.insert(b"x" * 200) for _ in range(12)]  # 4 per page, all full
    pages_before = heap.page_count()
    first_page = [r for r in rids if r.page_id == rids[0].page_id]
    # three records shrink to a third: room for another 200-byte record
    for rid in first_page[:3]:
        heap.write(rid, b"s" * 60)
    assert heap.insert(b"z" * 200).page_id == rids[0].page_id
    assert heap.page_count() == pages_before


def test_record_too_big():
    heap, _ = make_heap()
    with pytest.raises(PageFullError):
        heap.insert(b"x" * 2000)


def test_delete_and_missing_read():
    heap, _ = make_heap()
    rid = heap.insert(b"x")
    assert heap.delete(rid) == b"x"
    with pytest.raises(StorageError):
        heap.read(rid)
    with pytest.raises(StorageError):
        heap.read(RecordId(999, 0))


def test_move_relocates():
    heap, _ = make_heap()
    rid = heap.insert(b"move-me")
    # fill the current page so the move lands elsewhere
    for _ in range(10):
        heap.insert(b"f" * 90)
    new_rid = heap.move(rid)
    assert heap.read(new_rid) == b"move-me"
    with pytest.raises(StorageError):
        heap.read(rid)


def test_write_and_fits_in_place():
    heap, _ = make_heap()
    rid = heap.insert(b"abc")
    assert heap.fits_in_place(rid, 100)
    heap.write(rid, b"defgh")
    assert heap.read(rid) == b"defgh"


def test_pages_registered_for_verification():
    heap, engine = make_heap()
    heap.insert(b"x")
    assert engine.vmem.registered_pages()


def test_unverified_mode_registers_nothing():
    heap, engine = make_heap(verification=False)
    heap.insert(b"x")
    assert engine.vmem.registered_pages() == []
    assert engine.verifier is None
