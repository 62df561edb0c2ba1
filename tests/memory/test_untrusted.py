"""Unit tests for the untrusted cell store."""

import pytest

from repro.errors import StorageError
from repro.memory.cells import make_addr
from repro.memory.untrusted import UntrustedMemory


@pytest.fixture
def mem():
    return UntrustedMemory()


def test_write_read_roundtrip(mem):
    addr = make_addr(1, 0)
    mem.raw_write(addr, b"hello", 7)
    cell = mem.raw_read(addr)
    assert cell.data == b"hello"
    assert cell.timestamp == 7


def test_missing_read_raises(mem):
    with pytest.raises(StorageError):
        mem.raw_read(make_addr(1, 0))
    assert mem.try_read(make_addr(1, 0)) is None


def test_page_directory_tracks_addresses(mem):
    a0, a1 = make_addr(2, 0), make_addr(2, 100)
    other = make_addr(3, 0)
    mem.raw_write(a1, b"b", 1)
    mem.raw_write(a0, b"a", 2)
    mem.raw_write(other, b"c", 3)
    assert mem.page_addresses(2) == [a0, a1]
    assert mem.pages() == [2, 3]


def test_remove_updates_directory(mem):
    addr = make_addr(2, 0)
    mem.raw_write(addr, b"a", 1)
    removed = mem.remove(addr)
    assert removed.data == b"a"
    assert mem.page_addresses(2) == []
    assert 2 not in mem.pages()
    with pytest.raises(StorageError):
        mem.remove(addr)


def test_directory_lists_cells_by_the_flag_they_were_created_with(mem):
    checked, meta = make_addr(6, 70_000), make_addr(6, 3)
    mem.raw_write(checked, b"record", 1)
    mem.raw_write(meta, b"pointer", 0, checked=False)
    assert mem.page_addresses(6) == [checked]
    assert mem.page_addresses(6, checked=False) == [meta]
    assert mem.pages() == [6] and mem.page_bytes(6) == 13
    # overwriting with the other flag moves nothing between the listings
    mem.raw_write(meta, b"pointer", 0, checked=True)
    assert mem.page_addresses(6) == [checked]
    mem.remove(meta)
    mem.remove(checked)
    assert mem.pages() == [] and mem.page_addresses(6, checked=False) == []


def test_len_and_iteration(mem):
    for i in range(5):
        mem.raw_write(make_addr(0, i), bytes([i]), i)
    assert len(mem) == 5
    assert sorted(addr for addr, _ in mem.cells()) == [make_addr(0, i) for i in range(5)]


def test_page_bytes(mem):
    mem.raw_write(make_addr(4, 0), b"abc", 1)
    mem.raw_write(make_addr(4, 10), b"de", 2)
    assert mem.page_bytes(4) == 5
    assert mem.page_bytes(99) == 0


def test_overwrite_keeps_directory_single_entry(mem):
    addr = make_addr(1, 1)
    mem.raw_write(addr, b"v1", 1)
    mem.raw_write(addr, b"v2", 2)
    assert mem.page_addresses(1) == [addr]
    assert mem.raw_read(addr).data == b"v2"
