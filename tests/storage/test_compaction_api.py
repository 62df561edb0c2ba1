"""Space reclamation: deletes leave holes, and a page compacts only when
an insert runs out of its bump offsets (or a caller asks,
:meth:`~repro.storage.page.Page.compact`). A verifier step re-stamps
and moves nothing, so it is harmless between any two cell operations."""

import sys

import pytest

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.storage import page as page_module
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.page import Page
from repro.storage.table_store import VerifiableTable


def make_table(page_size=1024, **config_kwargs):
    schema = Schema(
        columns=[Column("pk", IntegerType()), Column("v", TextType())],
        primary_key="pk",
    )
    engine = StorageEngine(StorageConfig(page_size=page_size, **config_kwargs))
    return VerifiableTable("t", schema, engine), engine


def layout(table):
    """Every live record's payload offset, by (page, slot)."""
    return {
        (page.page_id, slot): page.slot_offset_for_compaction(slot)[0]
        for page in table.heap.pages()
        for slot in page.live_slots()
    }


def count_compactions(monkeypatch) -> list:
    """Record every :meth:`Page.compact` call: the page, and the page
    method that called it."""
    calls = []
    compact = Page.compact

    def counted(page):
        calls.append((page.page_id, sys._getframe(1).f_code.co_name))
        return compact(page)

    monkeypatch.setattr(Page, "compact", counted)
    return calls


def verified_ops(engine) -> int:
    stats = engine.vmem.stats
    return stats.verified_reads + stats.verified_writes + stats.allocs + stats.frees


def count_hooks(engine) -> list:
    """One entry per op hook fired from here on, after one per verified
    operation done before."""
    fired = [0] * verified_ops(engine)
    engine.vmem.add_op_hook(lambda: fired.append(1))
    return fired


def test_compact_all_reclaims():
    table, engine = make_table()
    for pk in range(60):
        table.insert((pk, "x" * 50))
    for pk in range(0, 60, 2):
        table.delete(pk)
    assert any(p.fragmentation > 0.05 for p in table.heap.pages())
    moved = sum(page.compact() for page in table.heap.pages())
    assert moved > 0
    assert all(p.fragmentation == 0.0 for p in table.heap.pages())
    engine.verify_now()
    # contents intact
    assert [r[0] for r in table.seq_scan()] == list(range(1, 60, 2))


def test_none_mode_never_compacts():
    """Verification never reclaims: passes leave every hole, and every
    record where it was."""
    table, engine = make_table()
    for pk in range(40):
        table.insert((pk, "x" * 60))
    for pk in range(0, 40, 2):
        table.delete(pk)
    before = layout(table)
    engine.verify_now()
    engine.verify_now()
    assert layout(table) == before
    assert any(p.fragmentation > 0.1 for p in table.heap.pages())


def test_run_threaded_propagates_errors():
    from repro.workloads.runner import run_threaded

    def worker(index):
        if index == 1:
            raise ValueError("boom")
        return 1

    with pytest.raises(ValueError):
        run_threaded(worker, 3)


@pytest.mark.parametrize("ops_per_step", [1, 2, 3, 5])
def test_triggered_scan_never_compacts_a_page_mid_mutation(ops_per_step, monkeypatch):
    """The op-count trigger runs a verifier step on the operating thread,
    from inside ``Page.insert/write/delete``, between two cell operations.
    A step that compacted the page there acted on a directory mirror one
    cell operation behind the cells (an honest ``VerificationFailure:
    cell … vanished`` on delete). A step re-stamps only: nothing on this
    stream compacts, and every hook fired is one verified operation."""
    compactions = count_compactions(monkeypatch)
    table, engine = make_table()
    fired = count_hooks(engine)
    engine.enable_continuous_verification(ops_per_step)
    live = set()
    for pk in range(80):
        table.insert((pk, "x" * 50))
        live.add(pk)
    for round_ in range(4):
        for pk in sorted(live)[round_::3]:
            table.delete(pk)
            live.discard(pk)
        for pk in sorted(live)[::4]:
            table.update(pk, {"v": "y" * (30 + 10 * round_)})
        for pk in range(1000 * (round_ + 1), 1000 * (round_ + 1) + 15):
            table.insert((pk, "z" * 50))
            live.add(pk)
    assert engine.verifier.stats.pages_scanned > 0
    assert compactions == []
    engine.verify_now()
    assert [r[0] for r in table.seq_scan()] == sorted(live)
    assert engine.verifier.stats.alarms == 0
    assert len(fired) == verified_ops(engine)


def test_offset_exhaustion_compacts_inline_under_triggered_scans(monkeypatch):
    """The one reclamation path left, at its most exposed: verified slot
    pointers and a verifier step after every verified operation, while
    ``insert``, ``insert_many``, ``update`` and ``delete`` churn one page
    until its bump offsets run out, twice for the single-record insert
    and twice for the run insert."""
    # 64 KiB of payload offsets past DATA_BASE; a mask-shaped bound, as
    # payload_addrs masks a pointer's offset bits with it
    monkeypatch.setattr(page_module, "_MAX_OFFSET", (1 << 17) - 1)
    compactions = count_compactions(monkeypatch)
    table, engine = make_table(page_size=8192, verify_metadata=True)
    fired = count_hooks(engine)
    engine.enable_continuous_verification(1)
    model = {}
    next_pk = 0

    def insert_one():
        nonlocal next_pk
        model[next_pk] = "i" * (1500 + next_pk % 50)
        table.insert((next_pk, model[next_pk]))
        next_pk += 1

    def insert_run():
        nonlocal next_pk
        rows = [(next_pk + i, "r" * (600 + i * 100)) for i in range(3)]
        table.insert_many(rows)
        model.update(rows)
        next_pk += len(rows)

    def churn(insert, target):
        for step in range(1000):
            if len(compactions) >= target:
                return
            insert()
            while len(model) > 3:
                victim = min(model)
                assert table.delete(victim)
                del model[victim]
            pk = max(model)
            if step % 3 == 0:  # a shrink, in place
                model[pk] = model[pk][:200]
                assert table.update(pk, {"v": model[pk]})
            elif step % 3 == 1:  # a growth past the record's bytes
                model[pk] = model[pk] + "g" * 150
                assert table.update(pk, {"v": model[pk]})
        raise AssertionError("the page never ran out of offsets")

    churn(insert_one, 2)
    churn(insert_run, 4)
    assert table.heap.page_count() == 1
    page_id = next(table.heap.pages()).page_id
    assert set(compactions) == {(page_id, "insert"), (page_id, "insert_many")}
    for pk, value in model.items():
        assert table.get(pk)[0] == (pk, value)
    assert table.seq_scan() == sorted(model.items())
    engine.verify_now()
    assert engine.verifier.stats.alarms == 0
    assert len(fired) == verified_ops(engine)
